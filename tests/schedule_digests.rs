//! Schedule digests: pins emitted schedules bit for bit.
//!
//! Every zoo model is emitted at two configurations, a tiny one (the
//! unit-build fixture's) and batch 16 at sequence length 8 (MI-LSTM's is
//! the repository benchmark's model), under these plans:
//!
//! * the baseline;
//! * every fusion set at its widest chunking, with set and shape probes;
//! * that plan fragmented by one fixed transient-allocation word;
//! * 2-, 3- and 4-stream super-epoch-partitioned plans with every epoch
//!   probed (the optimizer's partition budget; epoch `i` takes choice
//!   `i mod n` of its `n` stream mappings);
//! * data- and model-parallel placements of the baseline on 2 devices;
//! * the native, XLA-like and cuDNN-like baselines (labelled launches).
//!
//! Each schedule reduces to one line:
//!
//! ```text
//! <model>/<config>/<plan> cmds=<count> hash=<fnv> fnv=<fnv>
//! ```
//!
//! `hash` is FNV-1a of the prefix hash and every boundary's hash: the
//! memo-key half, which moves only when the prefix-hash fold is
//! redefined. `fnv` is FNV-1a of everything else emission decides: the
//! boundary positions, `num_events`, `num_launches`, `stream_cmd_counts`,
//! every command's tag, `render()`, and the engine's `total_ns` and
//! event-time bits. A plan that does not build reads `err=<fnv(message)>`.
//! The schedule representation is rewritten for speed from time to time;
//! a rewrite must leave the fixture byte-identical, and a fold change may
//! move only `hash` columns. A deliberate change regenerates it with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test schedule_digests
//! ```
//!
//! The fixture is not named `*.txt`, so the schedule-fixture readers of
//! `tests/golden` (`astra-cli verify|lint --fixtures`) skip it.

use std::collections::HashSet;
use std::fmt::Write as _;

use astra::core::enumerate::{epoch_choices, partition_units, write_streams};
use astra::core::{
    build_units, build_units_fragmented, emit_schedule, emit_with_streams, flop_balanced_cuts,
    DevicePlacement, ExecConfig, PlanContext, ProbeSpec, Unit,
};
use astra::exec::{cudnn_schedule, detect_covered_layers, lower, native_schedule, xla_schedule};
use astra::gpu::{ClockMode, DeviceSpec, Engine, FaultPlan, LinkDesc, Schedule, Topology};
use astra::models::{Model, ModelConfig};
use astra::store::fnv1a64;

const FIXTURE: &str = "tests/golden/schedules.digests";

/// The transient-allocation failure word of the fragmented build (the
/// unit-build fixture's).
const FRAG_WORD: u64 = 0x5555_5555_5555_5555;

/// The configurations each model is emitted at, with their labels.
fn configs(model: Model) -> Vec<(&'static str, ModelConfig)> {
    let mut tiny = model.default_config(8);
    tiny.hidden = 64;
    tiny.input = 64;
    tiny.vocab = 128;
    tiny.seq_len = 3;
    tiny.layers = tiny.layers.min(2);
    vec![("tiny", tiny), ("b16s8", model.default_config(16).with_seq_len(8))]
}

/// Everything a schedule exposes that emission decides, then one engine
/// run's makespan and event times, reduced to one line: the hashes in one
/// column, the rest in the other.
fn schedule_line(label: &str, sched: &Schedule, topo: &Topology) -> String {
    let mut hashes = format!("hash={:016x}\n", sched.prefix_hash());
    for &(_, h) in sched.boundaries() {
        let _ = writeln!(hashes, "{h:016x}");
    }
    let mut text = String::new();
    let positions: Vec<usize> = sched.boundaries().iter().map(|&(i, _)| i).collect();
    let _ = writeln!(text, "boundaries={positions:?}");
    let _ = writeln!(text, "events={} launches={}", sched.num_events(), sched.num_launches());
    let _ = writeln!(text, "stream_cmds={:?}", sched.stream_cmd_counts());
    let tags: Vec<Option<u32>> = (0..sched.cmds().len()).map(|i| sched.tags()[i]).collect();
    let _ = writeln!(text, "tags={tags:?}");
    text.push_str(&sched.render());
    let run = Engine::with_topology(topo, ClockMode::Fixed, FaultPlan::none(), 0)
        .run(sched)
        .expect("emitted schedules run");
    let _ = writeln!(text, "total={:016x}", run.total_ns.to_bits());
    for (e, t) in run.event_ns.iter() {
        let _ = writeln!(text, "e{}={:016x}", e.0, t.to_bits());
    }
    format!(
        "{label} cmds={} hash={:016x} fnv={:016x}",
        sched.cmds().len(),
        fnv1a64(hashes.as_bytes()),
        fnv1a64(text.as_bytes())
    )
}

fn err_line(label: &str, e: &impl std::fmt::Display) -> String {
    format!("{label} err={:016x}", fnv1a64(e.to_string().as_bytes()))
}

/// Every fusion set at its widest chunking: each set's largest row and
/// column chunk choices, reverting any set whose addition makes the unit
/// graph cyclic.
fn widest(ctx: &PlanContext<'_>) -> ExecConfig {
    let mut cfg = ExecConfig::baseline();
    for set in &ctx.sets {
        let rc = set.row_chunks().into_iter().max().unwrap_or(1);
        let cc = set.col_chunks().into_iter().max().unwrap_or(1);
        let prev = cfg.chunks.insert(set.id.clone(), (rc, cc));
        if build_units(ctx, &cfg).is_err() {
            match prev {
                Some(p) => cfg.chunks.insert(set.id.clone(), p),
                None => cfg.chunks.remove(&set.id),
            };
        }
    }
    cfg
}

/// The stream-phase trial on `n` streams: the optimizer's partition budget
/// (1/8 of the FLOPs per super-epoch), epoch `i` on choice `i mod count`,
/// every epoch probed.
fn stream_trial(units: &[Unit], n: usize) -> Schedule {
    let total: f64 = units.iter().map(|u| u.flops).sum();
    let partition = partition_units(units, (total / 8.0).max(1.0));
    let mut streams = vec![0; units.len()];
    let mut epochs = HashSet::new();
    let mut i = 0;
    for (sei, se) in partition.super_epochs.iter().enumerate() {
        for (ei, epoch) in se.epochs.iter().enumerate() {
            let choices = epoch_choices(units, epoch, n);
            write_streams(&mut streams, &choices[i % choices.len()]);
            epochs.insert((sei, ei));
            i += 1;
        }
    }
    emit_with_streams(n, units, &streams, Some(&partition), &ProbeSpec::epochs(epochs)).0
}

fn model_lines(m: Model) -> Vec<String> {
    let dev = DeviceSpec::p100();
    let one = Topology::single(dev.clone());
    let two = Topology::homogeneous(dev, 2, LinkDesc::nvlink());
    let mut lines = Vec::new();
    for (name, mc) in configs(m) {
        let built = m.build(&mc);
        let ctx = PlanContext::new(&built.graph);
        let at = |plan: &str| format!("{m:?}/{name}/{plan}");

        let base = ExecConfig::baseline();
        let units = build_units(&ctx, &base).expect("the baseline builds");
        let (sched, _) = emit_schedule(&ctx, &base, &units, None, &ProbeSpec::none());
        lines.push(schedule_line(&at("baseline"), &sched, &one));

        let wide = widest(&ctx);
        let probes = ProbeSpec { sets: true, shapes: true, ..ProbeSpec::none() };
        for (plan, built) in [
            ("widest", build_units(&ctx, &wide)),
            ("widest/frag", build_units_fragmented(&ctx, &wide, FRAG_WORD)),
        ] {
            lines.push(match built {
                Ok(units) => {
                    let (sched, _) = emit_schedule(&ctx, &wide, &units, None, &probes);
                    schedule_line(&at(plan), &sched, &one)
                }
                Err(e) => err_line(&at(plan), &e),
            });
        }

        for n in 2..=4 {
            lines.push(schedule_line(&at(&format!("streams={n}")), &stream_trial(&units, n), &one));
        }

        for (plan, placement) in [
            ("dp2", DevicePlacement::DataParallel { shares: vec![1, 1] }),
            ("mp2", DevicePlacement::ModelParallel { cuts: flop_balanced_cuts(&units, &[1.0, 1.0]) }),
        ] {
            let cfg = ExecConfig { placement, ..ExecConfig::baseline() };
            let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
            lines.push(schedule_line(&at(plan), &sched, &two));
        }

        let lowering = lower(&built.graph);
        let covered = detect_covered_layers(&built.graph);
        lines.push(schedule_line(&at("native"), &native_schedule(&lowering), &one));
        lines.push(schedule_line(&at("xla"), &xla_schedule(&built.graph, &lowering), &one));
        lines.push(schedule_line(
            &at("cudnn"),
            &cudnn_schedule(&built.graph, &lowering, &covered),
            &one,
        ));
    }
    lines
}

#[test]
fn schedule_digests_match_golden() {
    let got: String = Model::all().into_iter().flat_map(model_lines).map(|l| l + "\n").collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the digest fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test schedule_digests",
            path.display()
        )
    });
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == want.lines().count(),
        "schedule digests drifted ({} line(s)):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
