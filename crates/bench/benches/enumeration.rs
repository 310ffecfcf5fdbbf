//! Microbenchmarks of the enumerator: the offline compilation phase
//! (fusion detection, allocation analysis, unit building).

use std::hint::black_box;

use astra_core::{build_units, ExecConfig, PlanContext};
use astra_models::{Model, ModelConfig};
use astra_util::report;

fn main() {
    let cfg = ModelConfig { seq_len: 8, hidden: 256, input: 256, vocab: 1000, ..ModelConfig::ptb(16) };
    let built = Model::SubLstm.build(&cfg);
    report("enumerate_sublstm", 5, 50, || {
        black_box(PlanContext::new(black_box(&built.graph)));
    });

    // The repository benchmark's MI-LSTM (perfbench's `milstm-*` workloads).
    let milstm = Model::MiLstm.build(&ModelConfig::hutter(16).with_seq_len(8));
    report("enumerate_milstm_bench", 3, 30, || {
        black_box(PlanContext::new(black_box(&milstm.graph)));
    });

    // The zoo's largest graph at its paper default.
    let gnmt = Model::Gnmt.build(&Model::Gnmt.default_config(16));
    report("enumerate_gnmt", 1, 5, || {
        black_box(PlanContext::new(black_box(&gnmt.graph)));
    });

    let ctx = PlanContext::new(&built.graph);
    report("build_units_baseline", 5, 100, || {
        black_box(build_units(&ctx, &ExecConfig::baseline()).unwrap());
    });
}
