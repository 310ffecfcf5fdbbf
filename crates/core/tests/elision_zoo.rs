//! Zoo-wide property of the offline redundant-sync rewrite
//! (`astra_lint::elide_redundant_syncs`): on every model's multi-stream
//! schedules it keeps the plan verify-clean and the simulated engine cost
//! bit-identical, so it can never change which plan wins or what it costs.

use astra_core::enumerate::{epoch_choices, partition_units};
use astra_core::{build_units, emit_schedule, verify_plan, ExecConfig, PlanContext, ProbeSpec};
use astra_gpu::{DeviceSpec, Engine};
use astra_models::Model;

fn tiny(model: Model) -> astra_models::BuiltModel {
    let mut c = model.default_config(8);
    c.hidden = 64;
    c.input = 64;
    c.vocab = 128;
    c.seq_len = 3;
    c.layers = c.layers.min(2);
    model.build(&c)
}

#[test]
fn sync_elision_is_invariant_across_the_zoo() {
    let dev = DeviceSpec::p100();
    let mut any_elided = false;
    for model in Model::all() {
        let built = tiny(model);
        let ctx = PlanContext::new(&built.graph);
        for streams in [2, 4] {
            let mut cfg = ExecConfig { num_streams: streams, ..ExecConfig::baseline() };
            let units = build_units(&ctx, &cfg).expect("baseline units build");
            let total: f64 = units.iter().map(|u| u.flops).sum();
            let partition = partition_units(&units, (total / 8.0).max(1.0));
            let epochs: Vec<_> = partition.super_epochs.iter().flat_map(|se| &se.epochs).collect();
            let probes = ProbeSpec::epochs(
                partition
                    .super_epochs
                    .iter()
                    .enumerate()
                    .flat_map(|(sei, se)| (0..se.epochs.len()).map(move |ei| (sei, ei)))
                    .collect(),
            );
            // Every epoch takes its `pick`-th stream map (modulo its
            // choices), the way the stream phase's candidates do.
            for pick in 0..3 {
                cfg.streams.clear();
                for epoch in &epochs {
                    let options = epoch_choices(&units, epoch, streams);
                    let picked = &options[pick % options.len()];
                    cfg.streams.extend(picked.iter().map(|&(i, s)| (units[i].id, s)));
                }
                let label = format!("{model:?} streams={streams} pick={pick}");
                let (sched, _) = emit_schedule(&ctx, &cfg, &units, Some(&partition), &probes);
                let (elided, n) = astra_lint::elide_redundant_syncs(&sched);
                any_elided |= n > 0;

                let cost = |s| Engine::new(&dev).run(s).expect("schedule runs").total_ns;
                assert_eq!(
                    cost(&elided).to_bits(),
                    cost(&sched).to_bits(),
                    "{label}: elision must keep the simulated cost bit-identical"
                );
                let report = verify_plan(&ctx, &cfg, &units, &elided, 1);
                assert!(report.is_clean(), "{label}: elided schedule must verify clean");
            }
        }
    }
    assert!(any_elided, "at least one zoo model must carry redundant waits");
}
