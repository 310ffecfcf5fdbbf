//! §3.4 extension: adaptive data-parallel scaling. For each interconnect,
//! measure candidate replica counts (per-replica graph Astra-optimized +
//! ring all-reduce of the gradients) and report the measured winner — the
//! "ideal degree of parallelism taken in an automated manner" the paper
//! sketches as future work.

use astra_bench::print_row;
use astra_core::{AstraOptions, Dims};
use astra_distrib::{explore_scaling, LinkSpec};
use astra_gpu::DeviceSpec;
use astra_models::Model;

fn main() {
    let dev = DeviceSpec::p100();
    let model = Model::SubLstm;
    let global_batch = 256;
    let base = model.default_config(global_batch);
    let build = |b: u64| {
        let mut c = base.clone();
        c.batch = b;
        model.build(&c).graph
    };
    let opts = AstraOptions { dims: Dims::fk(), ..Default::default() };

    println!(
        "Data-parallel scaling of {} at global batch {global_batch} (samples/s, higher is better)",
        model.name()
    );
    print_row(&["Link", "P=1", "P=2", "P=4", "P=8", "best"].map(String::from));
    for link in [LinkSpec::nvlink(), LinkSpec::pcie3(), LinkSpec::ethernet()] {
        let report =
            explore_scaling(build, global_batch, &[1, 2, 4, 8], &dev, &link, &opts);
        let mut cells = vec![link.name.clone()];
        for p in [1u32, 2, 4, 8] {
            let v = report
                .points
                .iter()
                .find(|pt| pt.replicas == p)
                .map_or("-".to_owned(), |pt| format!("{:.0}", pt.samples_per_sec));
            cells.push(v);
        }
        cells.push(format!("P={}", report.best));
        print_row(&cells);
    }
    println!();
    println!("Faster links shift the measured optimum toward more replicas —");
    println!("a crossover no static cost model is asked to predict here.");
}
