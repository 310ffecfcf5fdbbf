//! Redundant-sync detection and elision via transitive reduction of the
//! happens-before graph.
//!
//! A wait edge `record → waiter` is *redundant* when some other path
//! already orders the pair: then removing the wait cannot change
//! reachability. Removing any set of transitively-implied edges at once is
//! sound — every removed edge is justified by a path whose own edges span
//! strictly fewer topological positions, so by induction on span the kept
//! edges alone reproduce the relation (and span-adjacent edges are never
//! removable). Two waits can therefore never justify each other in a
//! cycle.
//!
//! Cost bit-identity: the engine charges one cross-stream sync penalty per
//! command with a *non-empty* wait list, and a redundant wait's event has
//! always fired by the time the command reaches its stream head — so
//! removing redundant entries (while keeping one wait whenever every entry
//! of a list is redundant) leaves every issue time, and hence the whole
//! simulated timeline, bit-identical.

use std::collections::HashMap;

use astra_gpu::{Cmd, EventId, Schedule};
use astra_verify::{happens_before_edges, HbEdge, HbGraph};

/// One happens-before in-neighbor of a command.
#[derive(Clone, Copy)]
struct InEdge {
    src: usize,
    /// The waited event when this is a record→wait edge.
    wait: Option<EventId>,
}

/// Finds every elidable wait as `(command index, wait-list position)`,
/// in dispatch order. Duplicate occurrences of one event in a wait list
/// are elidable past the first; a wait is otherwise elidable when its
/// (unique) record is a non-wait in-neighbor of the command or reaches
/// another in-neighbor. When *every* entry of a list is elidable the first
/// is kept, preserving the engine's non-empty-list sync penalty.
pub(crate) fn find_redundant(sched: &Schedule, workers: usize) -> Vec<(usize, usize)> {
    let hb = HbGraph::build(sched);
    if hb.is_cyclic() {
        // A deadlocked schedule is the verifier's problem; reachability
        // queries are meaningless here.
        return Vec::new();
    }

    let mut in_edges: Vec<Vec<InEdge>> = vec![Vec::new(); sched.cmds().len()];
    happens_before_edges(sched, |u, v, kind| {
        let wait = match kind {
            HbEdge::Wait(e) => Some(e),
            _ => None,
        };
        in_edges[v].push(InEdge { src: u, wait });
    });

    let mut records: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, cmd) in sched.cmds().iter().enumerate() {
        if let Cmd::Record { event, .. } = cmd {
            records.entry(event.0).or_default().push(i);
        }
    }

    let candidates: Vec<usize> = sched
        .cmds()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match *c {
            Cmd::Launch { waits, .. } | Cmd::Transfer { waits, .. } if !waits.is_empty() => {
                Some(i)
            }
            _ => None,
        })
        .collect();

    let scan = |chunk: &[usize]| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for &i in chunk {
            scan_cmd(sched, &hb, &in_edges, &records, i, &mut out);
        }
        out
    };

    let workers = workers.clamp(1, candidates.len().max(1));
    if workers <= 1 {
        return scan(&candidates);
    }
    let chunk = candidates.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> =
            candidates.chunks(chunk).map(|c| s.spawn(move || scan(c))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("lint worker panicked")).collect()
    })
}

/// Appends command `i`'s elidable wait positions to `out`.
fn scan_cmd(
    sched: &Schedule,
    hb: &HbGraph,
    in_edges: &[Vec<InEdge>],
    records: &HashMap<u32, Vec<usize>>,
    i: usize,
    out: &mut Vec<(usize, usize)>,
) {
    let waits = sched.cmd_waits(i);
    if waits.is_empty() {
        return;
    }
    let mut elide = vec![false; waits.len()];
    for (p, w) in waits.iter().enumerate() {
        if waits[..p].contains(w) {
            elide[p] = true; // duplicate occurrence adds nothing
            continue;
        }
        // Only a uniquely-recorded event has an unambiguous source; waits
        // on unrecorded or double-recorded events are left for the
        // verifier's liveness rules.
        let Some([r]) = records.get(&w.0).map(Vec::as_slice) else { continue };
        let implied = in_edges[i].iter().any(|e| {
            if e.wait == Some(*w) {
                return false; // the wait's own edge cannot justify it
            }
            match e.wait {
                // Another structural in-edge from the record itself, or
                // from anything the record reaches, already orders the
                // pair.
                None => e.src == *r || hb.reaches(*r, e.src),
                Some(_) => e.src != *r && hb.reaches(*r, e.src),
            }
        });
        if implied {
            elide[p] = true;
        }
    }
    if elide.iter().all(|&e| e) {
        elide[0] = false; // keep one wait: the sync penalty must survive
    }
    for (p, e) in elide.into_iter().enumerate() {
        if e {
            out.push((i, p));
        }
    }
}

/// The event a `(command, position)` pair waits on and its record's
/// command index.
///
/// # Panics
///
/// Panics if the pair does not name a wait with a recorded event — pairs
/// from [`find_redundant`] always do.
pub(crate) fn wait_source(sched: &Schedule, cmd: usize, pos: usize) -> (EventId, usize) {
    let w = sched.cmd_waits(cmd)[pos];
    let record = sched
        .cmds()
        .iter()
        .position(|c| matches!(c, Cmd::Record { event, .. } if *event == w))
        .expect("redundant wait must have a record");
    (w, record)
}

/// Rewrites `sched` without its redundant event waits (see
/// `find_redundant` for the soundness rules — reachability is preserved
/// exactly and every non-empty wait list stays non-empty). Returns the
/// rewritten schedule and the number of waits removed; zero removals
/// still returns a full (identical) rebuild.
///
/// Everything else — command order, streams, kernels, labels, tags,
/// boundaries, the device map — is replayed verbatim, so event ids
/// renumber identically and the schedule is interchangeable with the
/// original everywhere but its prefix hash.
pub fn elide_redundant_syncs(sched: &Schedule) -> (Schedule, usize) {
    let drop: std::collections::HashSet<(usize, usize)> =
        find_redundant(sched, 1).into_iter().collect();
    let mut out = Schedule::with_devices(sched.num_streams(), sched.stream_devices().to_vec());
    out.reserve(sched.cmds().len(), 0);
    let mut boundaries = sched.boundaries().iter().map(|&(at, _)| at).peekable();
    let mut kept: Vec<EventId> = Vec::new();
    for (i, cmd) in sched.cmds().iter().enumerate() {
        while boundaries.next_if(|&at| at == i).is_some() {
            out.mark_boundary();
        }
        kept.clear();
        let waits = sched.cmd_waits(i).iter().enumerate();
        kept.extend(waits.filter(|&(p, _)| !drop.contains(&(i, p))).map(|(_, &w)| w));
        match *cmd {
            Cmd::Launch { stream, kernel, .. } => match sched.label(i) {
                Some(l) => {
                    out.launch_labeled(stream, kernel, &kept, l);
                }
                None => {
                    out.launch_after(stream, kernel, &kept);
                }
            },
            Cmd::Record { stream, event } => {
                let ev = out.record(stream);
                debug_assert_eq!(ev, event, "records must renumber identically");
            }
            Cmd::Barrier => out.barrier(),
            Cmd::HostSync => out.host_sync(),
            Cmd::Transfer { stream, bytes, src, dst, .. } => {
                out.transfer(stream, bytes, src, dst, &kept);
            }
            Cmd::AllReduce { stream, bytes, group } => {
                out.all_reduce(stream, bytes, group);
            }
        }
        if let Some(t) = sched.tags()[i] {
            let last = out.cmds().len() - 1;
            out.set_tag(last, t);
        }
    }
    while boundaries.next().is_some() {
        out.mark_boundary();
    }
    (out, drop.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{KernelDesc, StreamId};

    fn copy() -> KernelDesc {
        KernelDesc::MemCopy { bytes: 1.0 }
    }

    #[test]
    fn wait_implied_by_stream_order_is_elided() {
        // The same-stream wait is covered by FIFO order; the cross-stream
        // one is load-bearing and keeps the list non-empty.
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e_same = s.record(StreamId(0));
        s.launch(StreamId(1), copy());
        let e_cross = s.record(StreamId(1));
        let w = s.launch_after(StreamId(0), copy(), &[e_same, e_cross]);
        assert_eq!(find_redundant(&s, 1), vec![(w, 0)]);
        let (elided, n) = elide_redundant_syncs(&s);
        assert_eq!(n, 1);
        assert_eq!(elided.cmd_waits(w), &[e_cross]);
    }

    #[test]
    fn a_sole_redundant_wait_is_kept_for_its_sync_penalty() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e = s.record(StreamId(0));
        s.launch_after(StreamId(0), copy(), &[e]);
        assert!(find_redundant(&s, 1).is_empty());
        let (_, n) = elide_redundant_syncs(&s);
        assert_eq!(n, 0);
    }

    #[test]
    fn wait_implied_by_another_wait_is_elided_once() {
        // e0 recorded before e1 on stream 0; a stream-1 launch waiting on
        // both needs only e1.
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e0 = s.record(StreamId(0));
        s.launch(StreamId(0), copy());
        let e1 = s.record(StreamId(0));
        let w = s.launch_after(StreamId(1), copy(), &[e0, e1]);
        assert_eq!(find_redundant(&s, 1), vec![(w, 0)]);
        let (elided, n) = elide_redundant_syncs(&s);
        assert_eq!(n, 1);
        assert_eq!(elided.cmd_waits(w), &[e1]);
    }

    #[test]
    fn necessary_cross_stream_wait_survives() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e = s.record(StreamId(0));
        s.launch_after(StreamId(1), copy(), &[e]);
        assert!(find_redundant(&s, 1).is_empty());
        let (elided, n) = elide_redundant_syncs(&s);
        assert_eq!(n, 0);
        assert_eq!(elided.render(), s.render());
        assert_eq!(elided.prefix_hash(), s.prefix_hash());
    }

    #[test]
    fn fully_redundant_list_keeps_its_first_wait() {
        // Barrier orders everything, making both waits redundant — but one
        // must survive so the sync penalty is unchanged.
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e0 = s.record(StreamId(0));
        s.launch(StreamId(1), copy());
        let e1 = s.record(StreamId(1));
        s.barrier();
        let w = s.launch_after(StreamId(0), copy(), &[e0, e1]);
        assert_eq!(find_redundant(&s, 1), vec![(w, 1)]);
        let (elided, _) = elide_redundant_syncs(&s);
        assert_eq!(elided.cmd_waits(w), &[e0]);
    }

    #[test]
    fn duplicate_wait_occurrences_collapse() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        let e = s.record(StreamId(0));
        let w = s.launch_after(StreamId(1), copy(), &[e, e]);
        assert_eq!(find_redundant(&s, 1), vec![(w, 1)]);
    }

    #[test]
    fn scan_is_worker_invariant() {
        let mut s = Schedule::new(3);
        let mut evs = Vec::new();
        for i in 0..12 {
            s.launch(StreamId(i % 3), copy());
            evs.push(s.record(StreamId(i % 3)));
        }
        s.barrier();
        for i in 0..6 {
            s.launch_after(StreamId(i % 3), copy(), &[evs[i], evs[i + 6]]);
        }
        let r1 = find_redundant(&s, 1);
        let r4 = find_redundant(&s, 4);
        let r9 = find_redundant(&s, 9);
        assert!(!r1.is_empty());
        assert_eq!(r1, r4);
        assert_eq!(r1, r9);
    }

    #[test]
    fn elision_preserves_metadata() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        let a = s.launch_labeled(StreamId(0), copy(), &[], "producer");
        s.set_tag(a, 7);
        let e = s.record(StreamId(0));
        s.mark_boundary();
        let t = s.transfer(StreamId(1), 64, 0, 1, &[e]);
        s.set_tag(t, 9);
        s.all_reduce(StreamId(1), 128, 0);
        let (elided, n) = elide_redundant_syncs(&s);
        assert_eq!(n, 0);
        assert_eq!(elided.render(), s.render());
        assert_eq!(elided.tags(), s.tags());
        assert_eq!(
            elided.boundaries().iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            s.boundaries().iter().map(|&(i, _)| i).collect::<Vec<_>>()
        );
        assert_eq!(elided.stream_devices(), s.stream_devices());
    }
}
