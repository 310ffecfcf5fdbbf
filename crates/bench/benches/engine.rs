//! Microbenchmarks of the discrete-event engine: one simulated mini-batch
//! of the SC-RNN model, single-stream and with the multi-stream emitter;
//! and of the emitter itself on a two-stream, super-epoch-partitioned plan
//! and on the repository benchmark's MI-LSTM stream-phase trial (emission
//! plus dropping the schedule, as each optimizer trial pays both).

use std::hint::black_box;

use astra_core::enumerate::{epoch_choices, partition_units, write_streams};
use astra_core::{
    build_units, emit_schedule, emit_with_streams, ExecConfig, PlanContext, ProbeSpec, Unit,
    WiringTemplate,
};
use astra_exec::{lower, native_schedule};
use astra_gpu::{DeviceSpec, Engine};
use astra_models::{Model, ModelConfig};
use astra_util::report;

fn small_model() -> astra_models::BuiltModel {
    let cfg = ModelConfig { seq_len: 8, hidden: 256, input: 256, vocab: 1000, ..ModelConfig::ptb(16) };
    Model::Scrnn.build(&cfg)
}

fn main() {
    let dev = DeviceSpec::p100();
    let built = small_model();
    let lowering = lower(&built.graph);
    let native = native_schedule(&lowering);
    report("engine_native_minibatch", 10, 200, || {
        black_box(Engine::new(&dev).run(black_box(&native)).unwrap());
    });

    let ctx = PlanContext::new(&built.graph);
    let mut cfg = ExecConfig::baseline();
    for set in &ctx.sets {
        cfg.chunks.insert(
            set.id.clone(),
            (*set.row_chunks().last().unwrap(), *set.col_chunks().last().unwrap()),
        );
    }
    let Ok(units) = build_units(&ctx, &cfg) else { return };
    let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
    report("engine_fused_minibatch", 10, 200, || {
        black_box(Engine::new(&dev).run(black_box(&sched)).unwrap());
    });

    // Emission as a stream-phase trial: two streams, the optimizer's
    // partition budget, every epoch on its first choice and probed.
    cfg.num_streams = 2;
    let total: f64 = units.iter().map(|u| u.flops).sum();
    let partition = partition_units(&units, (total / 8.0).max(1.0));
    let mut epochs = std::collections::HashSet::new();
    for (sei, se) in partition.super_epochs.iter().enumerate() {
        for (ei, epoch) in se.epochs.iter().enumerate() {
            let choice = &epoch_choices(&units, epoch, 2)[0];
            cfg.streams.extend(choice.iter().map(|&(i, s)| (units[i].id, s)));
            epochs.insert((sei, ei));
        }
    }
    let probes = ProbeSpec::epochs(epochs);
    report("emit_stream_partitioned", 10, 200, || {
        black_box(emit_schedule(&ctx, &cfg, &units, Some(&partition), &probes));
    });

    emit_milstm_stream_trial();
}

/// A stream-phase trial of the benchmark's MI-LSTM (`hutter(16)`, seq 8):
/// the baseline geometry on 4 streams, the optimizer's partition budget
/// (1/8 of the FLOPs per super-epoch), every epoch on its first stream
/// mapping and probed. Each iteration emits the schedule and drops it.
fn emit_milstm_stream_trial() {
    const STREAMS: usize = 4;
    let built = Model::MiLstm.build(&ModelConfig::hutter(16).with_seq_len(8));
    let ctx = PlanContext::new(&built.graph);
    let Ok(units) = build_units(&ctx, &ExecConfig::baseline()) else { return };
    let total: f64 = units.iter().map(|u: &Unit| u.flops).sum();
    let partition = partition_units(&units, (total / 8.0).max(1.0));
    let mut streams = vec![0; units.len()];
    let mut epochs = std::collections::HashSet::new();
    for (sei, se) in partition.super_epochs.iter().enumerate() {
        for (ei, epoch) in se.epochs.iter().enumerate() {
            write_streams(&mut streams, &epoch_choices(&units, epoch, STREAMS)[0]);
            epochs.insert((sei, ei));
        }
    }
    let probes = ProbeSpec::epochs(epochs);
    report("emit_milstm_stream_trial", 10, 400, || {
        drop(black_box(emit_with_streams(STREAMS, &units, &streams, Some(&partition), &probes)));
    });
    // The same trial split the way the optimizer runs it: the geometry's
    // wiring template once, then per trial a key pass (every memo probe)
    // and, on a miss, the materialized schedule.
    report("wiring_template_milstm_stream", 10, 400, || {
        black_box(WiringTemplate::new(&units, Some(&partition), &probes));
    });
    let template = WiringTemplate::new(&units, Some(&partition), &probes);
    report("key_milstm_stream_trial", 10, 400, || {
        black_box(template.key(&units, STREAMS, &streams));
    });
    report("materialize_milstm_stream_trial", 10, 400, || {
        drop(black_box(template.emit(&units, STREAMS, &streams)));
    });
}
