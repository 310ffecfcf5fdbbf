//! Microbenchmarks of the discrete-event engine: one simulated mini-batch
//! of the SC-RNN model, single-stream and with the multi-stream emitter;
//! and of the emitter itself on a two-stream, super-epoch-partitioned plan.

use std::hint::black_box;

use astra_core::enumerate::{epoch_choices, partition_units};
use astra_core::{build_units, emit_schedule, ExecConfig, PlanContext, ProbeSpec};
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
}
