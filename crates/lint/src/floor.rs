//! Sound lower bounds on simulated schedule time.
//!
//! Every engine cost source only ever *adds* to the floors used here: the
//! SM-sharing rate never exceeds 1 (a kernel is never faster than solo),
//! clock jitter multiplies by ≥ 1, fault injection (spikes, launch
//! retries, allocation stalls) adds time, shared-link contention splits
//! bandwidth, and sync penalties are nonnegative. So
//! [`critical_path_floor`] ≤ simulated `total_ns` for every seed and fault
//! plan whose straggler factor is ≥ 1 (a sub-unit straggler *speeds
//! kernels up*).

use astra_gpu::{Cmd, DeviceSpec, KernelDesc, Schedule, Topology};
use astra_verify::happens_before_edges;

/// Fraction of a full dispatch a [`Cmd::Record`] costs on the dispatcher.
const RECORD_DISPATCH_FRACTION: f64 = 0.25;

/// Floor on the time command `idx` occupies its stream (or the link),
/// excluding queueing and sync penalties. `observed` may return a
/// profile-backed minimum for a kernel on a device; the static cost model
/// is always the baseline.
fn node_floor(
    sched: &Schedule,
    topo: &Topology,
    idx: usize,
    observed: &dyn Fn(&KernelDesc, usize) -> Option<f64>,
) -> f64 {
    let dev = |d: usize| topo.device(d);
    let min_over = |f: &dyn Fn(&DeviceSpec) -> f64| {
        topo.devices().iter().map(f).fold(f64::INFINITY, f64::min)
    };
    match &sched.cmds()[idx] {
        Cmd::Launch { stream, kernel, .. } => {
            let di = sched.stream_devices()[stream.0];
            let d = dev(di);
            let exec = kernel.cost(d).exec_ns.max(observed(kernel, di).unwrap_or(0.0));
            d.launch_overhead_ns + exec
        }
        Cmd::Record { stream, .. } => dev(sched.stream_devices()[stream.0]).event_record_cost_ns,
        Cmd::Barrier => min_over(&|d| d.barrier_sync_cost_ns),
        Cmd::HostSync => min_over(&|d| d.host_roundtrip_ns),
        Cmd::Transfer { bytes, .. } => {
            topo.link().latency_ns + *bytes as f64 / topo.link().bytes_per_ns()
        }
        Cmd::AllReduce { bytes, group, .. } => {
            topo.link().ring_allreduce_ns(*bytes as f64, sched.allreduce_expect(*group))
        }
    }
}

/// Sound lower bound (ns) on the engine's `total_ns` for `sched` on
/// `topo`: the max of the happens-before critical path under per-command
/// duration floors and the serial dispatch floor (the host dispatcher
/// issues every command in order before the device can drain). `observed`
/// may tighten per-kernel floors with profiled minima (return `None` for
/// "no observation"); pass `&|_, _| None` for the purely static bound.
///
/// The bound holds for every simulation seed, clock mode, and fault plan
/// with a straggler factor ≥ 1. A cyclic schedule (which the verifier
/// rejects before anything simulates it) falls back to the dispatch floor.
pub fn critical_path_floor(
    sched: &Schedule,
    topo: &Topology,
    observed: &dyn Fn(&KernelDesc, usize) -> Option<f64>,
) -> f64 {
    let n = sched.cmds().len();
    if n == 0 {
        return 0.0;
    }

    // The dispatcher is serial: every command pays its dispatch slice
    // before the next is issued. Min across devices keeps the bound sound
    // on heterogeneous mixes.
    let min_dispatch =
        topo.devices().iter().map(|d| d.dispatch_cost_ns).fold(f64::INFINITY, f64::min);
    let min_roundtrip =
        topo.devices().iter().map(|d| d.host_roundtrip_ns).fold(f64::INFINITY, f64::min);
    let mut dispatch = 0.0;
    for cmd in sched.cmds() {
        dispatch += match cmd {
            Cmd::Record { .. } => RECORD_DISPATCH_FRACTION * min_dispatch,
            Cmd::HostSync => min_dispatch + min_roundtrip,
            _ => min_dispatch,
        };
    }

    // Longest path over the happens-before DAG with node-duration floors:
    // a command cannot complete before every predecessor completes plus
    // its own floor.
    let mut adj: Vec<(u32, u32)> = Vec::new();
    let mut indeg = vec![0u32; n];
    happens_before_edges(sched, |u, v, _| {
        adj.push((u as u32, v as u32));
        indeg[v] += 1;
    });
    adj.sort_unstable();
    let mut off = vec![0usize; n + 1];
    for &(u, _) in &adj {
        off[u as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }

    let mut finish: Vec<f64> =
        (0..n).map(|i| node_floor(sched, topo, i, observed)).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    let mut visited = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        visited += 1;
        for &(_, v) in &adj[off[u]..off[u + 1]] {
            let v = v as usize;
            let cand = finish[u] + node_floor(sched, topo, v, observed);
            if cand > finish[v] {
                finish[v] = cand;
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if visited < n {
        return dispatch; // cyclic: the critical path is undefined
    }
    finish.into_iter().fold(dispatch, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{DeviceSpec, StreamId};

    fn copy(bytes: f64) -> KernelDesc {
        KernelDesc::MemCopy { bytes }
    }

    fn none() -> impl Fn(&KernelDesc, usize) -> Option<f64> {
        |_: &KernelDesc, _: usize| None
    }

    #[test]
    fn serial_chain_floor_sums_the_chain() {
        let dev = DeviceSpec::p100();
        let topo = Topology::single(dev.clone());
        let mut s = Schedule::new(1);
        for _ in 0..4 {
            s.launch(StreamId(0), copy(1.0));
        }
        let floor = critical_path_floor(&s, &topo, &none());
        let per = dev.launch_overhead_ns + copy(1.0).cost(&dev).exec_ns;
        assert!(floor >= 4.0 * per, "floor {floor} < chain {}", 4.0 * per);
    }

    #[test]
    fn parallel_streams_do_not_sum() {
        let topo = Topology::single(DeviceSpec::p100());
        let mut chain = Schedule::new(1);
        let mut wide = Schedule::new(4);
        for i in 0..4 {
            chain.launch(StreamId(0), copy(1e6));
            wide.launch(StreamId(i), copy(1e6));
        }
        let fc = critical_path_floor(&chain, &topo, &none());
        let fw = critical_path_floor(&wide, &topo, &none());
        assert!(fw < fc, "independent work must not serialize: {fw} vs {fc}");
    }

    #[test]
    fn observed_minima_tighten_the_floor() {
        let topo = Topology::single(DeviceSpec::p100());
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), copy(1.0));
        let base = critical_path_floor(&s, &topo, &none());
        let tighter =
            critical_path_floor(&s, &topo, &|_: &KernelDesc, _: usize| Some(1e9));
        assert!(tighter > base);
    }

    #[test]
    fn empty_schedule_floors_at_zero() {
        let topo = Topology::single(DeviceSpec::p100());
        assert_eq!(critical_path_floor(&Schedule::new(1), &topo, &none()), 0.0);
    }
}
