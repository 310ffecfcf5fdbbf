//! Sound lower bounds on simulated schedule time.
//!
//! Every engine cost source only ever *adds* to the floors used here: the
//! SM-sharing rate never exceeds 1 (a kernel is never faster than solo),
//! clock jitter multiplies by ≥ 1, fault injection (spikes, launch
//! retries, allocation stalls) adds time, shared-link contention splits
//! bandwidth, and sync penalties are nonnegative. So
//! [`critical_path_floor`] ≤ simulated `total_ns` and a region floor ≤ the
//! measured probe elapsed, for every seed and fault plan whose straggler
//! factor is ≥ 1 (a sub-unit straggler *speeds kernels up*; the driver
//! gates bound pruning on that).

use std::collections::HashMap;

use astra_gpu::{Cmd, DeviceSpec, EventId, KernelDesc, Schedule, StreamId, Topology};
use astra_verify::happens_before_edges;

/// Fraction of a full dispatch a [`Cmd::Record`] costs on the dispatcher.
const RECORD_DISPATCH_FRACTION: f64 = 0.25;

/// Relative allowance for rounding in a measured region. The engine keeps
/// absolute event times, so a measured `t(end) - t(start)` can land an ulp
/// or so of `t(end)` below the exact sum of the durations between the two
/// records, which is what a region floor adds up. Shaving this fraction
/// off the sum keeps the floor at or below the measurement for regions
/// longer than a millionth of their end time.
const ROUNDING_SLACK: f64 = 1e-9;

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

/// First record index of every event in `sched`.
fn record_indices(sched: &Schedule) -> HashMap<u32, usize> {
    let mut record_at: HashMap<u32, usize> = HashMap::new();
    for (i, cmd) in sched.cmds().iter().enumerate() {
        if let Cmd::Record { event, .. } = cmd {
            record_at.entry(event.0).or_insert(i);
        }
    }
    record_at
}

/// Sum of busy-time floors of the commands on `stream` with indices in
/// `(s, e]` — everything that must execute serially on that stream between
/// the two records. Work on other streams, barriers, and host syncs only
/// ever delay the span further.
fn stream_span_sum(
    sched: &Schedule,
    topo: &Topology,
    s: usize,
    e: usize,
    stream: StreamId,
    observed: &dyn Fn(&KernelDesc, usize) -> Option<f64>,
) -> f64 {
    let mut floor = 0.0;
    for i in s + 1..=e {
        match &sched.cmds()[i] {
            Cmd::Launch { stream: st, .. }
            | Cmd::Record { stream: st, .. }
            | Cmd::Transfer { stream: st, .. }
            | Cmd::AllReduce { stream: st, .. }
                if *st == stream =>
            {
                floor += node_floor(sched, topo, i, observed);
            }
            _ => {}
        }
    }
    floor
}

/// Floors for probe regions: for each `(start, end)` event pair, a sound
/// lower bound on `elapsed(start, end)` — the stream-timeline gap between
/// the two records. The bound sums the busy-time floors of every command
/// on the start record's stream after it, up to and including the end
/// record, less a rounding allowance. Regions whose records are missing
/// floor at zero.
pub fn region_floors(
    sched: &Schedule,
    regions: &[(EventId, EventId)],
    topo: &Topology,
    observed: &dyn Fn(&KernelDesc, usize) -> Option<f64>,
) -> Vec<f64> {
    let record_at = record_indices(sched);
    regions
        .iter()
        .map(|&(start, end)| {
            let (Some(&s), Some(&e)) = (record_at.get(&start.0), record_at.get(&end.0)) else {
                return 0.0;
            };
            if e <= s {
                return 0.0;
            }
            let Cmd::Record { stream, .. } = sched.cmds()[s] else { return 0.0 };
            stream_span_sum(sched, topo, s, e, stream, observed) * (1.0 - ROUNDING_SLACK)
        })
        .collect()
}

/// Floors for super-epoch spans (the §4.7 epoch metric): for each
/// `(start, ends)` pair — a super-epoch start record plus an epoch's
/// per-stream end records — a sound lower bound on
/// `max over ends of t(end) - t(start)`.
///
/// Two independent bounds, combined by max over every end record:
///
/// * **Critical path.** The longest happens-before path from the start
///   record to the end record, under per-command duration floors: along
///   any happens-before chain each command completes before its successor
///   starts — the same argument [`critical_path_floor`] rests on.
/// * **Device busy work.** The engine's processor sharing gives stream
///   `i` rate `(d_i / D) · U(D) / U(d_i)`, so a device's *normalized*
///   throughput — each kernel's progress weighted by its own solo
///   utilization `U(d_i)` — totals `U(D) ≤ 1` per nanosecond. Summing
///   `exec · U(demand)` over launches that provably execute inside the
///   span therefore bounds it from below, no matter how the streams
///   overlap. When the start record directly follows a schedule-wide
///   sync (a barrier, a host sync, or the schedule start — the emitter's
///   super-epoch layout), *every* later launch that happens-before the
///   end record qualifies: the serial dispatcher issues it after the
///   record, and its stream was released no earlier than the record's
///   stream, so it cannot start before the record does — the record's
///   fixed duration (records take exactly `event_record_cost_ns`: no
///   jitter, spikes, or stragglers apply) is the only work the span may
///   have lost to a head start. Otherwise only launches the start record
///   happens-before count.
///
/// The measured metric takes the max over end records, so any one
/// reachable end already bounds it from below. Ends the start record does
/// not happen-before (and spans whose records are missing, or cyclic
/// schedules) floor at zero.
pub fn span_floors(
    sched: &Schedule,
    spans: &[(EventId, &[EventId])],
    topo: &Topology,
    observed: &dyn Fn(&KernelDesc, usize) -> Option<f64>,
) -> Vec<f64> {
    let n = sched.cmds().len();
    let mut out = vec![0.0; spans.len()];
    if n == 0 || spans.is_empty() {
        return out;
    }
    let record_at = record_indices(sched);

    // Happens-before DAG in CSR form plus one topological order, shared
    // by every span.
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
    let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(_, v) in &adj[off[u]..off[u + 1]] {
            let v = v as usize;
            indeg[v] -= 1;
            if indeg[v] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() < n {
        return out; // cyclic: the verifier rejects it before simulation
    }
    let node_floors: Vec<f64> =
        (0..n).map(|i| node_floor(sched, topo, i, observed)).collect();

    // Normalized execution work per launch: solo exec floor × wave-aware
    // utilization — the unit in which a device under processor sharing
    // makes at most one nanosecond of progress per nanosecond.
    let norm_work: Vec<Option<(usize, f64)>> = (0..n)
        .map(|i| match &sched.cmds()[i] {
            Cmd::Launch { stream, kernel, .. } => {
                let di = sched.stream_devices()[stream.0];
                let d = topo.device(di);
                let cost = kernel.cost(d);
                let exec = cost.exec_ns.max(observed(kernel, di).unwrap_or(0.0));
                let slots = f64::from(d.total_slots());
                let blocks = f64::from(cost.demand_blocks);
                let util = if blocks <= 0.0 {
                    1.0
                } else {
                    let waves = (blocks / slots).ceil().max(1.0);
                    (blocks / (waves * slots)).sqrt()
                };
                Some((di, exec * util))
            }
            _ => None,
        })
        .collect();

    // Reverse CSR for backward reachability from end records; reach sets
    // are cached because epochs repeat end records across spans.
    let mut radj: Vec<(u32, u32)> = adj.iter().map(|&(u, v)| (v, u)).collect();
    radj.sort_unstable();
    let mut roff = vec![0usize; n + 1];
    for &(v, _) in &radj {
        roff[v as usize + 1] += 1;
    }
    for i in 0..n {
        roff[i + 1] += roff[i];
    }
    let mut back_cache: HashMap<usize, Vec<bool>> = HashMap::new();

    // One longest-path propagation per distinct start record; spans of the
    // same super-epoch share it.
    let mut starts: Vec<usize> =
        spans.iter().filter_map(|&(st, _)| record_at.get(&st.0).copied()).collect();
    starts.sort_unstable();
    starts.dedup();
    let rec_cost =
        topo.devices().iter().map(|d| d.event_record_cost_ns).fold(0.0, f64::max);
    for &s in &starts {
        let mut dist = vec![f64::NEG_INFINITY; n];
        dist[s] = 0.0;
        for &u in &order {
            if dist[u] == f64::NEG_INFINITY {
                continue;
            }
            for &(_, v) in &adj[off[u]..off[u + 1]] {
                let v = v as usize;
                let cand = dist[u] + node_floors[v];
                if cand > dist[v] {
                    dist[v] = cand;
                }
            }
        }
        // Post-sync start records anchor the busy-work bound at the sync:
        // every later launch then starts no earlier than the record does.
        let anchored =
            s == 0 || matches!(sched.cmds()[s - 1], Cmd::Barrier | Cmd::HostSync);
        for (k, &(st, ends)) in spans.iter().enumerate() {
            if record_at.get(&st.0) != Some(&s) {
                continue;
            }
            let mut floor = 0.0_f64;
            for e in ends.iter().filter_map(|e| record_at.get(&e.0).copied()) {
                if dist[e] == f64::NEG_INFINITY {
                    continue;
                }
                let back = back_cache.entry(e).or_insert_with(|| {
                    let mut seen = vec![false; n];
                    seen[e] = true;
                    let mut stack = vec![e];
                    while let Some(u) = stack.pop() {
                        for &(_, p) in &radj[roff[u]..roff[u + 1]] {
                            let p = p as usize;
                            if !seen[p] {
                                seen[p] = true;
                                stack.push(p);
                            }
                        }
                    }
                    seen
                });
                // Launches provably inside the span: started no earlier
                // than the start record, completed before the end record.
                // Each device drains their normalized work at rate ≤ 1,
                // less the record-length head start an anchored span
                // allows the other streams.
                let mut busy: HashMap<usize, f64> = HashMap::new();
                for c in s + 1..n {
                    if back[c] && (anchored || dist[c] != f64::NEG_INFINITY) {
                        if let Some((dev, w)) = norm_work[c] {
                            *busy.entry(dev).or_insert(0.0) += w;
                        }
                    }
                }
                let head_start = if anchored { rec_cost } else { 0.0 };
                let busy = busy.into_values().fold(0.0, f64::max) - head_start;
                floor = floor.max(dist[e]).max(busy);
            }
            out[k] = floor;
        }
    }
    out
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
    fn region_floor_covers_only_the_span() {
        let dev = DeviceSpec::p100();
        let topo = Topology::single(dev.clone());
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), copy(1.0));
        let a = s.record(StreamId(0));
        s.launch(StreamId(0), copy(1.0));
        s.launch(StreamId(0), copy(1.0));
        let b = s.record(StreamId(0));
        s.launch(StreamId(0), copy(1.0));
        let floors = region_floors(&s, &[(a, b), (b, a)], &topo, &none());
        let per = dev.launch_overhead_ns + copy(1.0).cost(&dev).exec_ns;
        assert!(floors[0] >= (2.0 * per + dev.event_record_cost_ns) * (1.0 - ROUNDING_SLACK));
        assert!(floors[0] < 3.0 * per, "the tail launch is outside the region");
        assert_eq!(floors[1], 0.0, "inverted region floors at zero");
    }

    #[test]
    fn span_floor_uses_only_ends_the_start_happens_before() {
        let dev = DeviceSpec::p100();
        let topo = Topology::single(dev.clone());
        let mut s = Schedule::new(2);
        let start = s.record(StreamId(0));
        s.launch(StreamId(0), copy(1.0));
        s.launch(StreamId(0), copy(1.0));
        let end0 = s.record(StreamId(0));
        s.launch(StreamId(1), copy(1.0));
        let end1 = s.record(StreamId(1));
        let ends = [end0, end1];
        let floors = span_floors(&s, &[(start, &ends[..])], &topo, &none());
        let per = dev.launch_overhead_ns + copy(1.0).cost(&dev).exec_ns;
        assert!(floors[0] >= 2.0 * per + dev.event_record_cost_ns);
        assert!(
            floors[0] < 3.0 * per + 2.0 * dev.event_record_cost_ns,
            "the unordered cross-stream end must not add its stream's work"
        );
        // A span whose only end record the start does not happen-before
        // carries no ordering to bound, so it floors at zero.
        let other = [end1];
        let floors = span_floors(&s, &[(start, &other[..])], &topo, &none());
        assert_eq!(floors[0], 0.0);
    }

    #[test]
    fn empty_schedule_floors_at_zero() {
        let topo = Topology::single(DeviceSpec::p100());
        assert_eq!(critical_path_floor(&Schedule::new(1), &topo, &none()), 0.0);
    }
}
