//! Happens-before graph over a schedule's command list.
//!
//! Nodes are command indices. Edges come from three sources:
//!
//! * **stream program order** — each stream's commands form a chain (the
//!   engine's per-stream FIFOs execute in order);
//! * **global sync points** — a [`Cmd::Barrier`] or [`Cmd::HostSync`] joins
//!   every stream's chain and restarts all of them;
//! * **event wiring** — every [`Cmd::Record`] of an event has an edge to
//!   every launch that waits on that event, *regardless of dispatch-order
//!   index* (the simulator's waits block until the event fires, which is
//!   what lets a circular cross-stream wait show up as a graph cycle).
//!
//! After a Kahn topological sort, reachability is closed transitively with
//! one bitset row per node (reverse topological order), so `ordered(i, j)`
//! is two bit probes.

use std::collections::HashMap;

use astra_gpu::{Cmd, EventId, Schedule};

/// The happens-before relation of one schedule, with transitive
/// reachability precomputed (unless the graph is cyclic).
///
/// Public so downstream analyses (astra-lint) can reuse the exact relation
/// the verifier checks against instead of re-deriving it.
pub struct HbGraph {
    n: usize,
    words: usize,
    /// `reach[i*words..]` is the bitset of nodes reachable from `i`
    /// (excluding `i` itself). Empty when the graph is cyclic.
    reach: Vec<u64>,
    /// Nodes left with unsatisfied in-degree after the Kahn sort — the
    /// commands participating in (or downstream of) a cycle. Empty iff the
    /// graph is acyclic.
    cycle_residue: Vec<usize>,
}

/// Why one happens-before edge exists. Consumers that must treat event
/// waits specially (redundant-sync detection elides exactly the
/// [`HbEdge::Wait`] edges that other edges already imply) get the kind
/// alongside each edge from [`happens_before_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbEdge {
    /// FIFO program order between two commands on the same stream.
    StreamOrder,
    /// A barrier or host sync joining every stream's chain.
    SyncJoin,
    /// Record→wait wiring: the record of this event precedes the waiter.
    Wait(EventId),
    /// All-reduce rendezvous: a member's stream predecessor precedes every
    /// other member's completion.
    Rendezvous,
}

/// Calls `f(u, v, kind)` for every happens-before edge `u -> v` of the
/// schedule, in a deterministic order: stream program order, barrier/
/// host-sync joins, record→wait wiring (the record of an event precedes
/// every launch or transfer waiting on it, regardless of dispatch-order
/// index), and all-reduce rendezvous joins (every member's stream
/// predecessor precedes every member's completion — the release fires at
/// the last arrival, so crossed group orders become graph cycles).
///
/// This is the exact edge set [`HbGraph`] is built from; astra-lint's
/// critical-path and redundant-sync analyses consume it so the two crates
/// can never disagree about the relation.
pub fn happens_before_edges(sched: &Schedule, f: impl FnMut(usize, usize, HbEdge)) {
    for_each_edge(sched, &crate::checks::records_by_event(sched), f);
}

/// [`happens_before_edges`] against a precomputed record-index map
/// ([`crate::checks::records_by_event`]). Iterated twice by the graph
/// builder — once to size the CSR arrays, once to fill them — so it must
/// be deterministic, which it is.
fn for_each_edge(
    sched: &Schedule,
    records: &HashMap<u32, Vec<usize>>,
    mut f: impl FnMut(usize, usize, HbEdge),
) {
    let cmds = sched.cmds();

    // Rendezvous edges point from the stream predecessors of *later* members
    // back to earlier members, so both are precomputed in one forward sweep.
    let mut pred: Vec<Option<usize>> = vec![None; cmds.len()];
    let mut members: HashMap<u32, Vec<usize>> = HashMap::new();
    {
        let mut last: Vec<Option<usize>> = vec![None; sched.num_streams()];
        for (i, cmd) in cmds.iter().enumerate() {
            match cmd {
                Cmd::Launch { stream, .. }
                | Cmd::Record { stream, .. }
                | Cmd::Transfer { stream, .. }
                | Cmd::AllReduce { stream, .. } => {
                    pred[i] = last[stream.0];
                    last[stream.0] = Some(i);
                }
                Cmd::Barrier | Cmd::HostSync => last.fill(Some(i)),
            }
            if let Cmd::AllReduce { group, .. } = cmd {
                members.entry(*group).or_default().push(i);
            }
        }
    }

    let mut last_in_stream: Vec<Option<usize>> = vec![None; sched.num_streams()];
    for (i, cmd) in cmds.iter().enumerate() {
        match cmd {
            Cmd::Launch { stream, waits, .. } | Cmd::Transfer { stream, waits, .. } => {
                if let Some(p) = last_in_stream[stream.0] {
                    f(p, i, HbEdge::StreamOrder);
                }
                last_in_stream[stream.0] = Some(i);
                for w in sched.waits(*waits) {
                    if let Some(recs) = records.get(&w.0) {
                        for &r in recs {
                            f(r, i, HbEdge::Wait(*w));
                        }
                    }
                }
            }
            Cmd::Record { stream, .. } => {
                if let Some(p) = last_in_stream[stream.0] {
                    f(p, i, HbEdge::StreamOrder);
                }
                last_in_stream[stream.0] = Some(i);
            }
            Cmd::AllReduce { stream, group, .. } => {
                if let Some(p) = last_in_stream[stream.0] {
                    f(p, i, HbEdge::StreamOrder);
                }
                last_in_stream[stream.0] = Some(i);
                // A member completes only when every member has arrived;
                // members themselves stay mutually unordered (their
                // completions coincide at the release).
                for &m in &members[group] {
                    if m != i {
                        if let Some(p) = pred[m] {
                            f(p, i, HbEdge::Rendezvous);
                        }
                    }
                }
            }
            Cmd::Barrier | Cmd::HostSync => {
                for slot in &mut last_in_stream {
                    if let Some(p) = *slot {
                        f(p, i, HbEdge::SyncJoin);
                    }
                    *slot = Some(i);
                }
            }
        }
    }
}

impl HbGraph {
    /// Builds the graph and (if acyclic) its transitive closure. This is
    /// the entry point for external consumers (astra-lint); the verifier
    /// itself uses `HbGraph::build_with` to share the record map and
    /// skip the closure when nothing needs it.
    pub fn build(sched: &Schedule) -> HbGraph {
        HbGraph::build_with(sched, true, &crate::checks::records_by_event(sched))
    }

    /// Like [`HbGraph::build`], but the transitive closure — consumed only
    /// by [`HbGraph::ordered`] in the cross-stream hazard scan — is built
    /// only when `closure` is set. Cycle detection always runs; callers
    /// that skip the hazard scan (single-stream schedules, no access
    /// table) skip the quadratic closure too. `records` is the shared
    /// record-index map ([`crate::checks::records_by_event`]).
    pub(crate) fn build_with(
        sched: &Schedule,
        closure: bool,
        records: &HashMap<u32, Vec<usize>>,
    ) -> HbGraph {
        let n = sched.cmds().len();

        // Successors in CSR form: count degrees, prefix-sum, fill. One flat
        // allocation instead of one Vec per node. Edge multiplicity in the
        // in-degree counts matches the duplicates in the adjacency, so
        // duplicate edges are harmless.
        let mut deg = vec![0u32; n];
        let mut indeg = vec![0u32; n];
        for_each_edge(sched, records, |u, v, _| {
            deg[u] += 1;
            indeg[v] += 1;
        });
        let mut off = vec![0u32; n + 1];
        for i in 0..n {
            off[i + 1] = off[i] + deg[i];
        }
        let mut adj = vec![0u32; off[n] as usize];
        let mut cursor: Vec<u32> = off[..n].to_vec();
        for_each_edge(sched, records, |u, v, _| {
            adj[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
        });
        let succs = |u: usize| &adj[off[u] as usize..off[u + 1] as usize];

        // Kahn topological sort.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo.push(u);
            for &v in succs(u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v as usize);
                }
            }
        }
        let cycle_residue: Vec<usize> = if topo.len() == n {
            Vec::new()
        } else {
            (0..n).filter(|&i| indeg[i] > 0).collect()
        };

        // Transitive closure in reverse topological order: a node reaches
        // its successors plus everything they reach.
        let words = n.div_ceil(64);
        let mut reach = Vec::new();
        if closure && cycle_residue.is_empty() && n > 0 {
            reach = vec![0u64; n * words];
            for &u in topo.iter().rev() {
                for &v in succs(u) {
                    let v = v as usize;
                    reach[u * words + v / 64] |= 1u64 << (v % 64);
                    for w in 0..words {
                        let bits = reach[v * words + w];
                        reach[u * words + w] |= bits;
                    }
                }
            }
        }

        HbGraph { n, words, reach, cycle_residue }
    }

    /// Whether the graph has a cycle (mutually waiting streams).
    pub fn is_cyclic(&self) -> bool {
        !self.cycle_residue.is_empty()
    }

    /// Command indices stuck in (or behind) a cycle; empty when acyclic.
    pub(crate) fn cycle_residue(&self) -> &[usize] {
        &self.cycle_residue
    }

    /// Whether a happens-before path orders `i` and `j` (either direction).
    /// Only meaningful on acyclic graphs.
    pub fn ordered(&self, i: usize, j: usize) -> bool {
        debug_assert!(!self.is_cyclic());
        debug_assert!(i < self.n && j < self.n);
        self.reaches(i, j) || self.reaches(j, i)
    }

    /// Whether a happens-before path runs `from` → `to` (direction matters;
    /// the device-aliasing check needs writer-before-reader specifically).
    /// Only meaningful on acyclic graphs with the closure built. `reaches`
    /// excludes the node itself: `reaches(i, i)` is `false`.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        self.reach[from * self.words + to / 64] & (1u64 << (to % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{KernelDesc, StreamId};

    fn copy() -> KernelDesc {
        KernelDesc::MemCopy { bytes: 1.0 }
    }

    #[test]
    fn program_order_and_events_order_commands() {
        let mut s = Schedule::new(2);
        let a = s.launch(StreamId(0), copy()); // 0
        let ev = s.record(StreamId(0)); // 1
        let b = s.launch_after(StreamId(1), copy(), &[ev]); // 2
        let c = s.launch(StreamId(1), copy()); // 3
        let d = s.launch(StreamId(0), copy()); // 4
        let hb = HbGraph::build(&s);
        assert!(!hb.is_cyclic());
        assert!(hb.ordered(a, b), "record/wait orders across streams");
        assert!(hb.ordered(a, c), "transitively through stream 1 order");
        assert!(hb.ordered(a, d), "stream 0 program order");
        assert!(!hb.ordered(d, b), "parallel tails stay unordered");
        assert!(!hb.ordered(d, c));
    }

    #[test]
    fn barrier_joins_all_streams() {
        let mut s = Schedule::new(2);
        let a = s.launch(StreamId(0), copy()); // 0
        let b = s.launch(StreamId(1), copy()); // 1
        s.barrier(); // 2
        let c = s.launch(StreamId(1), copy()); // 3
        let hb = HbGraph::build(&s);
        assert!(hb.ordered(a, c), "barrier orders across streams");
        assert!(hb.ordered(b, c));
        assert!(!hb.ordered(a, b), "pre-barrier work on different streams is parallel");
    }

    #[test]
    fn circular_waits_are_a_cycle() {
        // 0: launch s0 waits[e1]   (e1 recorded at 3, behind the stuck wait
        //    on s1 — each stream waits for an event the other can only
        //    record after its own stuck launch: classic deadlock)
        // 1: record s0 -> e0
        // 2: launch s1 waits[e0]
        // 3: record s1 -> e1
        use astra_gpu::EventId;
        let mut s = Schedule::new(2);
        s.launch_after(StreamId(0), copy(), &[EventId(1)]);
        let e0 = s.record(StreamId(0));
        assert_eq!(e0, EventId(0));
        s.launch_after(StreamId(1), copy(), &[e0]);
        let e1 = s.record(StreamId(1));
        assert_eq!(e1, EventId(1));
        let hb = HbGraph::build(&s);
        assert!(hb.is_cyclic());
        assert!(!hb.cycle_residue().is_empty());
    }

    #[test]
    fn empty_schedule_is_acyclic() {
        let s = Schedule::new(1);
        let hb = HbGraph::build(&s);
        assert!(!hb.is_cyclic());
        assert!(hb.cycle_residue().is_empty());
    }

    #[test]
    fn transfers_chain_and_obey_waits() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        let p = s.launch(StreamId(0), copy()); // 0 producer on d0
        let e = s.record(StreamId(0)); // 1
        let t = s.transfer(StreamId(1), 4096, 0, 1, &[e]); // 2
        let c = s.launch(StreamId(1), copy()); // 3 consumer on d1
        let hb = HbGraph::build(&s);
        assert!(!hb.is_cyclic());
        assert!(hb.reaches(p, t), "record/wait orders producer before transfer");
        assert!(hb.reaches(t, c), "stream order chains transfer before consumer");
        assert!(hb.reaches(p, c));
    }

    #[test]
    fn allreduce_rendezvous_orders_arrivals_before_every_member() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        let a = s.launch(StreamId(0), copy()); // 0
        let b = s.launch(StreamId(1), copy()); // 1
        let r0 = s.all_reduce(StreamId(0), 1024, 0); // 2
        let r1 = s.all_reduce(StreamId(1), 1024, 0); // 3
        let c = s.launch(StreamId(0), copy()); // 4
        let hb = HbGraph::build(&s);
        assert!(!hb.is_cyclic());
        assert!(hb.reaches(a, r1), "s0's arrival gates s1's release");
        assert!(hb.reaches(b, r0), "s1's arrival gates s0's release");
        assert!(!hb.ordered(r0, r1), "member completions coincide");
        assert!(hb.reaches(b, c), "post-rendezvous work follows all arrivals");
    }

    #[test]
    fn crossed_allreduce_groups_are_a_cycle() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.all_reduce(StreamId(0), 64, 0); // 0: s0 meets g0 first
        s.all_reduce(StreamId(0), 64, 1); // 1
        s.all_reduce(StreamId(1), 64, 1); // 2: s1 meets g1 first
        s.all_reduce(StreamId(1), 64, 0); // 3
        let hb = HbGraph::build(&s);
        assert!(hb.is_cyclic(), "opposite rendezvous orders deadlock");
    }
}
