//! The rule implementations: event liveness, cycle reporting, dead-code
//! analysis, the (optionally parallel) cross-stream hazard scan, and the
//! allocation aliasing audit.

use std::collections::HashMap;

use astra_gpu::{AllocationPlan, BufId, Cmd, Schedule};

use crate::access::{overlaps, resolve, AccessTable, Region};
use crate::hb::HbGraph;
use crate::report::{Diagnostic, RuleId};

/// Span labels for the given command indices (only commands that have one).
fn labels_for(sched: &Schedule, cmds: &[usize]) -> Vec<String> {
    cmds.iter().filter_map(|&i| sched.span_label(i)).collect()
}

fn diag(sched: &Schedule, rule: RuleId, cmds: Vec<usize>, message: String) -> Diagnostic {
    let labels = labels_for(sched, &cmds);
    Diagnostic::new(rule, cmds, labels, message)
}

/// Records per event id, in command order. Built once per verification and
/// shared by every pass that follows event wiring.
pub(crate) fn records_by_event(sched: &Schedule) -> HashMap<u32, Vec<usize>> {
    let mut records: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, cmd) in sched.cmds().iter().enumerate() {
        if let Cmd::Record { event, .. } = cmd {
            records.entry(event.0).or_default().push(i);
        }
    }
    records
}

/// What the event-liveness pass learned, beyond its diagnostics: the two
/// cheap preconditions that let later passes skip their expensive work.
pub(crate) struct EventScan {
    /// The wait-never-recorded / wait-before-record / double-record /
    /// unwaited-event findings.
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Some wait is dispatched before a record of its event — the only way
    /// the happens-before graph can contain a backward edge (and thus the
    /// only way it can be cyclic).
    pub(crate) record_after_wait: bool,
    /// Some wait references an event no command records — the only root the
    /// dead-code analysis propagates from.
    pub(crate) missing_record: bool,
}

/// Event liveness rules: wait-never-recorded, wait-before-record,
/// double-record, unwaited-event.
pub(crate) fn check_events(sched: &Schedule, records: &HashMap<u32, Vec<usize>>) -> EventScan {
    let mut out = Vec::new();
    let mut waited: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut record_after_wait = false;
    let mut missing_record = false;

    for (i, cmd) in sched.cmds().iter().enumerate() {
        let (what, waits) = match *cmd {
            Cmd::Launch { waits, .. } => ("launch", waits),
            Cmd::Transfer { waits, .. } => ("transfer", waits),
            _ => continue,
        };
        for w in sched.waits(waits) {
            waited.insert(w.0);
            match records.get(&w.0) {
                None => {
                    missing_record = true;
                    out.push(diag(
                        sched,
                        RuleId::WaitNeverRecorded,
                        vec![i],
                        format!("{what} {i} waits on e{} which is never recorded", w.0),
                    ));
                }
                Some(recs) => {
                    record_after_wait |= recs.iter().any(|&r| r > i);
                    // Satisfiable only if some record is dispatched
                    // before the wait (cudaStreamWaitEvent on a
                    // not-yet-recorded event is a no-op on real
                    // hardware).
                    let first = *recs.first().expect("non-empty by construction");
                    if recs.iter().all(|&r| r > i) {
                        out.push(diag(
                            sched,
                            RuleId::WaitBeforeRecord,
                            vec![i, first],
                            format!(
                                "{what} {i} waits on e{} whose first record is at {first}, \
                                 after the wait",
                                w.0
                            ),
                        ));
                    }
                }
            }
        }
    }

    let mut events: Vec<(&u32, &Vec<usize>)> = records.iter().collect();
    events.sort();
    for (ev, recs) in events {
        if recs.len() > 1 {
            out.push(diag(
                sched,
                RuleId::DoubleRecord,
                recs.clone(),
                format!("e{ev} is recorded {} times", recs.len()),
            ));
        }
        if !waited.contains(ev) {
            out.push(diag(
                sched,
                RuleId::UnwaitedEvent,
                recs.clone(),
                format!("e{ev} is recorded but never waited on"),
            ));
        }
    }
    EventScan { diagnostics: out, record_after_wait, missing_record }
}

/// Cycle rule: one diagnostic naming every command stuck in (or behind) the
/// cycle.
pub(crate) fn check_cycle(sched: &Schedule, hb: &HbGraph) -> Option<Diagnostic> {
    if !hb.is_cyclic() {
        return None;
    }
    let cmds = hb.cycle_residue().to_vec();
    let msg = format!(
        "happens-before cycle: {} command(s) mutually wait on each other (deadlock)",
        cmds.len()
    );
    Some(diag(sched, RuleId::EventCycle, cmds, msg))
}

/// Orphan-barrier rule: barriers in a schedule where fewer than two streams
/// carry any work synchronize nothing.
pub(crate) fn check_orphan_barriers(sched: &Schedule) -> Option<Diagnostic> {
    let mut barrier_cmds = Vec::new();
    let mut active = vec![false; sched.num_streams()];
    for (i, cmd) in sched.cmds().iter().enumerate() {
        match cmd {
            Cmd::Barrier => barrier_cmds.push(i),
            Cmd::Launch { stream, .. }
            | Cmd::Record { stream, .. }
            | Cmd::Transfer { stream, .. }
            | Cmd::AllReduce { stream, .. } => active[stream.0] = true,
            Cmd::HostSync => {}
        }
    }
    let active_streams = active.iter().filter(|&&a| a).count();
    if barrier_cmds.is_empty() || active_streams >= 2 {
        return None;
    }
    let msg = format!(
        "{} barrier(s) in a schedule where only {active_streams} stream(s) carry work",
        barrier_cmds.len()
    );
    Some(diag(sched, RuleId::OrphanBarrier, barrier_cmds, msg))
}

/// Dead-code rule: commands that can never execute because they sit behind
/// an unsatisfiable wait, directly or through stream FIFO order, event
/// wiring, and barriers. The root launches (the ones with the bad wait) are
/// already reported as `wait-never-recorded`, so only the collateral is
/// reported here.
pub(crate) fn check_dead_code(
    sched: &Schedule,
    records: &HashMap<u32, Vec<usize>>,
) -> Option<Diagnostic> {
    let cmds = sched.cmds();
    let n = cmds.len();

    // Stuckness only ever starts at a wait on a never-recorded event; with
    // every wait recorded somewhere, nothing can be dead.
    let any_root =
        (0..n).any(|i| sched.cmd_waits(i).iter().any(|w| !records.contains_key(&w.0)));
    if !any_root {
        return None;
    }

    // Gating predecessors: same-stream FIFO order, with barriers and host
    // syncs joining every stream (same chains as the HB graph). Launches
    // and records have at most one (their stream predecessor); only the
    // join commands fan in.
    let mut chain_pred: Vec<u32> = vec![u32::MAX; n];
    let mut join_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut ar_members: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut last_in_stream: Vec<Option<usize>> = vec![None; sched.num_streams()];
    for (i, cmd) in cmds.iter().enumerate() {
        match cmd {
            Cmd::Launch { stream, .. }
            | Cmd::Record { stream, .. }
            | Cmd::Transfer { stream, .. }
            | Cmd::AllReduce { stream, .. } => {
                if let Some(p) = last_in_stream[stream.0] {
                    chain_pred[i] = p as u32;
                }
                last_in_stream[stream.0] = Some(i);
            }
            Cmd::Barrier | Cmd::HostSync => {
                for slot in &mut last_in_stream {
                    if let Some(p) = *slot {
                        join_preds[i].push(p);
                    }
                    *slot = Some(i);
                }
            }
        }
        if let Cmd::AllReduce { group, .. } = cmd {
            ar_members.entry(*group).or_default().push(i);
        }
    }

    let mut stuck = vec![false; n];
    let mut root = vec![false; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if stuck[i] {
                continue;
            }
            let mut is_stuck = (chain_pred[i] != u32::MAX && stuck[chain_pred[i] as usize])
                || join_preds[i].iter().any(|&p| stuck[p]);
            for w in sched.cmd_waits(i) {
                match records.get(&w.0) {
                    // A wait whose event is never recorded blocks its
                    // stream forever — this launch is a root.
                    None => {
                        is_stuck = true;
                        root[i] = true;
                    }
                    // If every record of the event is itself stuck, the
                    // event never fires.
                    Some(recs) => {
                        if recs.iter().all(|&r| stuck[r]) {
                            is_stuck = true;
                        }
                    }
                }
            }
            // A rendezvous whose other arrivals never happen never releases.
            if let Cmd::AllReduce { group, .. } = &cmds[i] {
                if ar_members[group].iter().any(|&m| m != i && stuck[m]) {
                    is_stuck = true;
                }
            }
            if is_stuck {
                stuck[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let collateral: Vec<usize> = (0..n).filter(|&i| stuck[i] && !root[i]).collect();
    if collateral.is_empty() {
        return None;
    }
    let msg = format!(
        "{} command(s) can never execute (stuck behind an unsatisfiable wait)",
        collateral.len()
    );
    Some(diag(sched, RuleId::DeadCode, collateral, msg))
}

/// One launch's resolved footprint, ready for pairwise hazard tests.
struct Footprint {
    cmd: usize,
    stream: usize,
    reads: Vec<(BufId, Region)>,
    writes: Vec<(BufId, Region)>,
}

fn any_overlap(a: &[(BufId, Region)], b: &[(BufId, Region)]) -> Option<[(BufId, Region); 2]> {
    for &x in a {
        for &y in b {
            if overlaps(x.1, y.1) {
                return Some([x, y]);
            }
        }
    }
    None
}

fn region_str(r: Region) -> String {
    match r {
        Region::Phys { lo, hi } => format!("[{lo}..{hi})"),
        Region::Virt(_) => "(unplaced)".to_string(),
    }
}

/// Classifies one unordered cross-stream pair, earliest command first.
/// Priority: WAW over RAW over WAR, one diagnostic per pair.
fn classify_pair(sched: &Schedule, a: &Footprint, b: &Footprint) -> Option<Diagnostic> {
    let (rule, [x, y]) = if let Some(hit) = any_overlap(&a.writes, &b.writes) {
        (RuleId::CrossStreamWaw, hit)
    } else if let Some(hit) = any_overlap(&a.writes, &b.reads) {
        (RuleId::CrossStreamRaw, hit)
    } else if let Some(hit) = any_overlap(&a.reads, &b.writes) {
        (RuleId::CrossStreamWar, hit)
    } else {
        return None;
    };
    let verb = match rule {
        RuleId::CrossStreamWaw => "both write",
        RuleId::CrossStreamRaw => "write then read",
        _ => "read then write",
    };
    let msg = format!(
        "launches {} (s{}) and {} (s{}) are unordered and {verb} overlapping memory \
         (buf {} {} vs buf {} {})",
        a.cmd,
        a.stream,
        b.cmd,
        b.stream,
        x.0 .0,
        region_str(x.1),
        y.0 .0,
        region_str(y.1),
    );
    Some(diag(sched, rule, vec![a.cmd, b.cmd], msg))
}

/// An ordered cross-device pair still races through memory: device memories
/// are not coherent, so a consumer ordered after a remote producer reads a
/// stale replica unless a matching transfer is interposed between them
/// (producer → transfer → consumer, shipping src-device bytes to the
/// consumer's device).
fn classify_cross_device(
    sched: &Schedule,
    a: &Footprint,
    b: &Footprint,
    devs: &[usize],
    transfers: &[(usize, usize, usize)],
    hb: &HbGraph,
) -> Option<Diagnostic> {
    let check = |w: &Footprint, r: &Footprint| -> Option<Diagnostic> {
        if !hb.reaches(w.cmd, r.cmd) {
            return None;
        }
        let [x, y] = any_overlap(&w.writes, &r.reads)?;
        let (dw, dr) = (devs[w.stream], devs[r.stream]);
        let shipped = transfers.iter().any(|&(t, src, dst)| {
            src == dw && dst == dr && hb.reaches(w.cmd, t) && hb.reaches(t, r.cmd)
        });
        if shipped {
            return None;
        }
        let msg = format!(
            "launch {} (s{} on d{dw}) produces buf {} {} that launch {} (s{} on d{dr}) \
             consumes as buf {} {} with no interposed d{dw}->d{dr} transfer",
            w.cmd,
            w.stream,
            x.0 .0,
            region_str(x.1),
            r.cmd,
            r.stream,
            y.0 .0,
            region_str(y.1),
        );
        let mut cmds = vec![w.cmd.min(r.cmd), w.cmd.max(r.cmd)];
        cmds.dedup();
        Some(diag(sched, RuleId::DeviceAliasing, cmds, msg))
    };
    check(a, b).or_else(|| check(b, a))
}

/// Cross-stream data-hazard scan. Returns the diagnostics plus the number
/// of cross-stream pairs examined. `workers > 1` splits the scan over that
/// many threads; the final report is sorted canonically, so the output is
/// identical at any worker count.
pub(crate) fn check_hazards(
    sched: &Schedule,
    access: &AccessTable,
    plan: Option<&AllocationPlan>,
    hb: &HbGraph,
    workers: usize,
) -> (Vec<Diagnostic>, u64) {
    if sched.num_streams() < 2 {
        return (Vec::new(), 0);
    }
    let mut fps: Vec<Footprint> = Vec::new();
    for (i, cmd) in sched.cmds().iter().enumerate() {
        let Cmd::Launch { stream, .. } = cmd else { continue };
        let Some(acc) = access.get(i) else { continue };
        fps.push(Footprint {
            cmd: i,
            stream: stream.0,
            reads: acc.reads.iter().map(|&b| (b, resolve(b, plan))).collect(),
            writes: acc.writes.iter().map(|&b| (b, resolve(b, plan))).collect(),
        });
    }
    let devs = sched.stream_devices();
    let transfers: Vec<(usize, usize, usize)> = sched
        .cmds()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c {
            Cmd::Transfer { src, dst, .. } => Some((i, *src, *dst)),
            _ => None,
        })
        .collect();

    let scan_chunk = |lo: usize, hi: usize| -> (Vec<Diagnostic>, u64) {
        let mut diags = Vec::new();
        let mut pairs = 0u64;
        for ai in lo..hi {
            let a = &fps[ai];
            for b in &fps[ai + 1..] {
                if a.stream == b.stream {
                    continue;
                }
                pairs += 1;
                if hb.ordered(a.cmd, b.cmd) {
                    if devs[a.stream] != devs[b.stream] {
                        if let Some(d) = classify_cross_device(sched, a, b, devs, &transfers, hb)
                        {
                            diags.push(d);
                        }
                    }
                    continue;
                }
                if let Some(d) = classify_pair(sched, a, b) {
                    diags.push(d);
                }
            }
        }
        (diags, pairs)
    };

    let workers = workers.max(1).min(fps.len().max(1));
    if workers == 1 {
        return scan_chunk(0, fps.len());
    }

    // Contiguous chunks of the outer index; each thread's findings are
    // concatenated in chunk order and the caller's canonical sort makes the
    // report independent of the split.
    let chunk = fps.len().div_ceil(workers);
    let results: Vec<(Vec<Diagnostic>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(fps.len());
                let scan = &scan_chunk;
                scope.spawn(move || scan(lo, hi.max(lo)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hazard scan worker panicked")).collect()
    });
    let mut diags = Vec::new();
    let mut pairs = 0u64;
    for (d, p) in results {
        diags.extend(d);
        pairs += p;
    }
    (diags, pairs)
}

/// Allocation aliasing audit: distinct placed buffers on overlapping arena
/// byte ranges whose live intervals (first to last access) overlap.
pub(crate) fn check_placements(
    sched: &Schedule,
    access: &AccessTable,
    plan: &AllocationPlan,
) -> Vec<Diagnostic> {
    // Sweep placements in offset order; compare each against the
    // still-open ones.
    let mut placed: Vec<(u64, u64, BufId)> = plan
        .placements()
        .map(|(b, p)| (p.offset, p.offset + p.bytes, b))
        .filter(|&(lo, hi, _)| hi > lo)
        .collect();
    placed.sort();

    // Live interval per *placed* buffer, from the access table — unplaced
    // buffers can never alias, so they are not worth tracking.
    let idx_of: HashMap<BufId, usize> =
        placed.iter().enumerate().map(|(k, &(_, _, b))| (b, k)).collect();
    let mut live: Vec<Option<(usize, usize)>> = vec![None; placed.len()];
    for i in 0..access.len() {
        let Some(acc) = access.get(i) else { continue };
        for b in acc.reads.iter().chain(acc.writes.iter()) {
            if let Some(&k) = idx_of.get(b) {
                match &mut live[k] {
                    Some((_, last)) => *last = i,
                    slot => *slot = Some((i, i)),
                }
            }
        }
    }
    let live = |b: BufId| idx_of.get(&b).and_then(|&k| live[k]);

    let mut out = Vec::new();
    for (i, &(alo, ahi, ba)) in placed.iter().enumerate() {
        let Some((afirst, alast)) = live(ba) else { continue };
        for &(blo, bhi, bb) in &placed[i + 1..] {
            if blo >= ahi {
                break; // sorted by offset: nothing further overlaps `a`
            }
            if !(alo < bhi && blo < ahi) {
                continue;
            }
            let Some((bfirst, blast)) = live(bb) else { continue };
            if afirst > blast || bfirst > alast {
                continue; // live ranges disjoint: co-placement is legal reuse
            }
            let mut cmds = vec![afirst.min(bfirst), afirst.max(bfirst)];
            cmds.dedup();
            out.push(diag(
                sched,
                RuleId::PlacementOverlap,
                cmds,
                format!(
                    "buf {} [{alo}..{ahi}) and buf {} [{blo}..{bhi}) overlap while both live \
                     (cmds {afirst}..={alast} vs {bfirst}..={blast})",
                    ba.0, bb.0
                ),
            ));
        }
    }
    out
}

/// Transfer-before-produce rule: a cross-device copy must wait on at least
/// one event recorded on its *source* device before it is dispatched —
/// otherwise the copy can ship bytes its producer has not written yet.
pub(crate) fn check_transfers(
    sched: &Schedule,
    records: &HashMap<u32, Vec<usize>>,
) -> Vec<Diagnostic> {
    let devs = sched.stream_devices();
    let cmds = sched.cmds();
    let mut out = Vec::new();
    for (i, cmd) in cmds.iter().enumerate() {
        let Cmd::Transfer { src, waits, .. } = cmd else { continue };
        let produced = sched.waits(*waits).iter().any(|w| {
            records.get(&w.0).is_some_and(|recs| {
                recs.iter().any(|&r| {
                    r < i
                        && matches!(&cmds[r], Cmd::Record { stream, .. }
                            if devs[stream.0] == *src)
                })
            })
        });
        if !produced {
            out.push(diag(
                sched,
                RuleId::TransferBeforeProduce,
                vec![i],
                format!(
                    "transfer {i} copies from d{src} without waiting on any event recorded \
                     on d{src}: the payload may not be produced yet"
                ),
            ));
        }
    }
    out
}

/// Link-deadlock rule: all-reduce rendezvous that can never complete. Two
/// shapes — one group arriving twice on the same stream (the first
/// rendezvous waits on an arrival queued behind itself), and two groups
/// meeting in opposite orders on different streams (each blocks the
/// other's missing arrival).
pub(crate) fn check_collectives(sched: &Schedule) -> Vec<Diagnostic> {
    let mut per_stream: Vec<Vec<(u32, usize)>> = vec![Vec::new(); sched.num_streams()];
    for (i, cmd) in sched.cmds().iter().enumerate() {
        if let Cmd::AllReduce { stream, group, .. } = cmd {
            per_stream[stream.0].push((*group, i));
        }
    }
    let mut out = Vec::new();

    for sv in &per_stream {
        for (k, &(g, i)) in sv.iter().enumerate() {
            if let Some(&(_, j)) = sv[k + 1..].iter().find(|&&(h, _)| h == g) {
                out.push(diag(
                    sched,
                    RuleId::LinkDeadlock,
                    vec![i, j],
                    format!(
                        "all-reduce group g{g} arrives twice on one stream (cmds {i} and {j}): \
                         the first rendezvous waits on an arrival queued behind it"
                    ),
                ));
            }
        }
    }

    // First witness of every observed "g rendezvouses before h" order; a
    // later stream observing the reverse order is a deadlock. One
    // diagnostic per unordered group pair.
    let mut seen: HashMap<(u32, u32), (usize, usize)> = HashMap::new();
    let mut flagged: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for sv in &per_stream {
        for a in 0..sv.len() {
            for b in a + 1..sv.len() {
                let (g, ig) = sv[a];
                let (h, ih) = sv[b];
                if g == h {
                    continue;
                }
                if let Some(&(jh, jg)) = seen.get(&(h, g)) {
                    let key = (g.min(h), g.max(h));
                    if flagged.insert(key) {
                        let mut cmds = vec![jh, jg, ig, ih];
                        cmds.sort_unstable();
                        cmds.dedup();
                        out.push(diag(
                            sched,
                            RuleId::LinkDeadlock,
                            cmds,
                            format!(
                                "all-reduce groups g{} and g{} rendezvous in opposite orders \
                                 on different streams (deadlock)",
                                key.0, key.1
                            ),
                        ));
                    }
                }
                seen.entry((g, h)).or_insert((ig, ih));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use astra_gpu::{EventId, KernelDesc, Placement, StreamId};

    fn copy() -> KernelDesc {
        KernelDesc::MemCopy { bytes: 1.0 }
    }

    fn events(s: &Schedule) -> Vec<Diagnostic> {
        check_events(s, &records_by_event(s)).diagnostics
    }

    fn dead(s: &Schedule) -> Option<Diagnostic> {
        check_dead_code(s, &records_by_event(s))
    }

    #[test]
    fn wait_never_recorded_and_dead_code() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy()); // 0 fine
        s.launch_after(StreamId(1), copy(), &[EventId(9)]); // 1 root
        s.launch(StreamId(1), copy()); // 2 collateral (behind the root)
        let scan = check_events(&s, &records_by_event(&s));
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, RuleId::WaitNeverRecorded);
        assert_eq!(scan.diagnostics[0].cmds, vec![1]);
        assert!(scan.missing_record, "never-recorded wait must set the dead-code precondition");
        assert!(!scan.record_after_wait);
        let dead = dead(&s).expect("collateral exists");
        assert_eq!(dead.cmds, vec![2], "root excluded, collateral flagged");
    }

    #[test]
    fn dead_code_propagates_through_events_and_barriers() {
        let mut s = Schedule::new(2);
        s.launch_after(StreamId(0), copy(), &[EventId(9)]); // 0 root
        let e = s.record(StreamId(0)); // 1 stuck record
        s.launch_after(StreamId(1), copy(), &[e]); // 2 stuck via event
        s.barrier(); // 3 stuck: s0 never drains
        let dead = dead(&s).expect("collateral exists");
        assert_eq!(dead.cmds, vec![1, 2, 3]);
    }

    #[test]
    fn fully_recorded_schedules_have_no_dead_code() {
        let mut s = Schedule::new(2);
        let e = s.record(StreamId(0));
        s.launch_after(StreamId(1), copy(), &[e]);
        assert!(dead(&s).is_none());
    }

    #[test]
    fn wait_before_record_and_double_record() {
        let mut s = Schedule::new(2);
        s.launch_after(StreamId(1), copy(), &[EventId(0)]); // 0: wait first
        let e = s.record(StreamId(0)); // 1
        assert_eq!(e, EventId(0));
        let scan = check_events(&s, &records_by_event(&s));
        let wbr: Vec<_> =
            scan.diagnostics.iter().filter(|d| d.rule == RuleId::WaitBeforeRecord).collect();
        assert_eq!(wbr.len(), 1);
        assert_eq!(wbr[0].cmds, vec![0, 1]);
        assert!(scan.record_after_wait, "record after wait must set the cycle precondition");

        let mut d = Schedule::new(2);
        let e0 = d.record(StreamId(0)); // 0
        d.launch_after(StreamId(1), copy(), &[e0]); // 1
        // Force a second record of e0 by replaying on another schedule is
        // not possible through the API (record() allocates fresh ids), so
        // double-record can only come from hand-built or parsed schedules.
        // Covered in the parse tests; here assert the clean case.
        assert!(events(&d).iter().all(|x| x.rule != RuleId::DoubleRecord));
    }

    #[test]
    fn unwaited_event_is_info_only() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), copy());
        s.record(StreamId(0));
        let evs = events(&s);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].rule, RuleId::UnwaitedEvent);
        assert_eq!(evs[0].severity, crate::Severity::Info);
    }

    #[test]
    fn orphan_barrier_flags_single_stream_work() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), copy());
        s.barrier();
        s.launch(StreamId(0), copy());
        let d = check_orphan_barriers(&s).expect("one active stream");
        assert_eq!(d.rule, RuleId::OrphanBarrier);
        assert_eq!(d.cmds, vec![1]);

        let mut ok = Schedule::new(2);
        ok.launch(StreamId(0), copy());
        ok.launch(StreamId(1), copy());
        ok.barrier();
        assert!(check_orphan_barriers(&ok).is_none());
    }

    fn hazard_fixture() -> (Schedule, AccessTable) {
        // Producer writes buf 1 on s0; consumer reads buf 1 on s1.
        let mut s = Schedule::new(2);
        let p = s.launch(StreamId(0), copy()); // 0
        let c = s.launch(StreamId(1), copy()); // 1 — no wait: RAW
        let mut t = AccessTable::new(s.cmds().len());
        t.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(c, Access { reads: vec![BufId(1)], writes: vec![BufId(2)] });
        (s, t)
    }

    #[test]
    fn missing_wait_is_a_raw_hazard() {
        let (s, t) = hazard_fixture();
        let hb = HbGraph::build(&s);
        let (diags, pairs) = check_hazards(&s, &t, None, &hb, 1);
        assert_eq!(pairs, 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::CrossStreamRaw);
        assert_eq!(diags[0].cmds, vec![0, 1]);
    }

    #[test]
    fn wait_orders_the_pair_away() {
        let mut s = Schedule::new(2);
        let p = s.launch(StreamId(0), copy()); // 0
        let e = s.record(StreamId(0)); // 1
        let c = s.launch_after(StreamId(1), copy(), &[e]); // 2
        let mut t = AccessTable::new(s.cmds().len());
        t.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(c, Access { reads: vec![BufId(1)], writes: vec![] });
        let hb = HbGraph::build(&s);
        let (diags, pairs) = check_hazards(&s, &t, None, &hb, 1);
        assert_eq!(pairs, 1);
        assert!(diags.is_empty(), "record/wait orders the pair");
    }

    #[test]
    fn waw_takes_priority_and_workers_agree() {
        let mut s = Schedule::new(2);
        let a = s.launch(StreamId(0), copy());
        let b = s.launch(StreamId(1), copy());
        let mut t = AccessTable::new(s.cmds().len());
        // Both read and write buf 1: WAW outranks RAW and WAR.
        t.set(a, Access { reads: vec![BufId(1)], writes: vec![BufId(1)] });
        t.set(b, Access { reads: vec![BufId(1)], writes: vec![BufId(1)] });
        let hb = HbGraph::build(&s);
        let (d1, p1) = check_hazards(&s, &t, None, &hb, 1);
        let (d4, p4) = check_hazards(&s, &t, None, &hb, 4);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].rule, RuleId::CrossStreamWaw);
        assert_eq!(p1, p4);
        assert_eq!(d1, d4, "worker count must not change findings");
    }

    #[test]
    fn transfer_without_source_event_is_flagged() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), copy()); // 0 producer, but no record
        s.transfer(StreamId(1), 4096, 0, 1, &[]); // 1: nothing guards the copy
        let diags = check_transfers(&s, &records_by_event(&s));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::TransferBeforeProduce);
        assert_eq!(diags[0].cmds, vec![1]);

        // Waiting on an event recorded on the *destination* is not enough.
        let mut w = Schedule::with_devices(2, vec![0, 1]);
        let e = w.record(StreamId(1));
        w.transfer(StreamId(1), 64, 0, 1, &[e]);
        assert_eq!(check_transfers(&w, &records_by_event(&w)).len(), 1);

        // The producer's done-event on the source device clears it.
        let mut ok = Schedule::with_devices(2, vec![0, 1]);
        ok.launch(StreamId(0), copy());
        let e = ok.record(StreamId(0));
        ok.transfer(StreamId(1), 64, 0, 1, &[e]);
        assert!(check_transfers(&ok, &records_by_event(&ok)).is_empty());
    }

    #[test]
    fn crossed_and_doubled_allreduce_groups_deadlock() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.all_reduce(StreamId(0), 64, 0);
        s.all_reduce(StreamId(0), 64, 1);
        s.all_reduce(StreamId(1), 64, 1);
        s.all_reduce(StreamId(1), 64, 0);
        let diags = check_collectives(&s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::LinkDeadlock);
        assert_eq!(diags[0].cmds, vec![0, 1, 2, 3]);

        let mut d = Schedule::with_devices(2, vec![0, 1]);
        d.all_reduce(StreamId(0), 64, 5);
        d.all_reduce(StreamId(0), 64, 5);
        let diags = check_collectives(&d);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].cmds, vec![0, 1]);

        let mut ok = Schedule::with_devices(2, vec![0, 1]);
        ok.all_reduce(StreamId(0), 64, 0);
        ok.all_reduce(StreamId(1), 64, 0);
        ok.all_reduce(StreamId(0), 64, 1);
        ok.all_reduce(StreamId(1), 64, 1);
        assert!(check_collectives(&ok).is_empty(), "consistent order is fine");
    }

    #[test]
    fn cross_device_raw_needs_an_interposed_transfer() {
        // Producer on d0, consumer on d1 ordered via record/wait but with no
        // transfer: stale-replica read.
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        let p = s.launch(StreamId(0), copy()); // 0
        let e = s.record(StreamId(0)); // 1
        let c = s.launch_after(StreamId(1), copy(), &[e]); // 2
        let mut t = AccessTable::new(s.cmds().len());
        t.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(c, Access { reads: vec![BufId(1)], writes: vec![] });
        let hb = HbGraph::build(&s);
        let (diags, _) = check_hazards(&s, &t, None, &hb, 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::DeviceAliasing);
        assert_eq!(diags[0].cmds, vec![0, 2]);

        // Same shape with the transfer interposed: clean.
        let mut s2 = Schedule::with_devices(2, vec![0, 1]);
        let p = s2.launch(StreamId(0), copy()); // 0
        let e = s2.record(StreamId(0)); // 1
        s2.transfer(StreamId(1), 64, 0, 1, &[e]); // 2
        let c = s2.launch(StreamId(1), copy()); // 3
        let mut t2 = AccessTable::new(s2.cmds().len());
        t2.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t2.set(c, Access { reads: vec![BufId(1)], writes: vec![] });
        let hb2 = HbGraph::build(&s2);
        let (diags2, _) = check_hazards(&s2, &t2, None, &hb2, 1);
        assert!(diags2.is_empty(), "shipped replica is coherent: {diags2:?}");

        // Same device, ordered: never flagged.
        let mut s3 = Schedule::new(2);
        let p = s3.launch(StreamId(0), copy());
        let e = s3.record(StreamId(0));
        let c = s3.launch_after(StreamId(1), copy(), &[e]);
        let mut t3 = AccessTable::new(s3.cmds().len());
        t3.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t3.set(c, Access { reads: vec![BufId(1)], writes: vec![] });
        let hb3 = HbGraph::build(&s3);
        let (diags3, _) = check_hazards(&s3, &t3, None, &hb3, 1);
        assert!(diags3.is_empty());
    }

    #[test]
    fn placement_overlap_requires_live_overlap() {
        let mut s = Schedule::new(1);
        let a = s.launch(StreamId(0), copy()); // 0 uses buf 1
        let b = s.launch(StreamId(0), copy()); // 1 uses buf 2
        let mut t = AccessTable::new(s.cmds().len());
        t.set(a, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(b, Access { reads: vec![BufId(1)], writes: vec![BufId(2)] });
        let mut plan = AllocationPlan::new();
        plan.place_at(BufId(1), Placement { offset: 0, bytes: 128 });
        plan.place_at(BufId(2), Placement { offset: 64, bytes: 128 });
        let diags = check_placements(&s, &t, &plan);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::PlacementOverlap);
        assert_eq!(diags[0].cmds, vec![0, 1]);

        // Same overlap but disjoint live ranges: buf 1 dies at cmd 0,
        // buf 3 is born at cmd 1 — legal arena reuse.
        let mut t2 = AccessTable::new(s.cmds().len());
        t2.set(a, Access { reads: vec![], writes: vec![BufId(1)] });
        t2.set(b, Access { reads: vec![], writes: vec![BufId(3)] });
        let mut plan2 = AllocationPlan::new();
        plan2.place_at(BufId(1), Placement { offset: 0, bytes: 128 });
        plan2.place_at(BufId(3), Placement { offset: 0, bytes: 128 });
        assert!(check_placements(&s, &t2, &plan2).is_empty());
    }
}
