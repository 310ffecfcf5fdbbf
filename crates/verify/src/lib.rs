//! Static schedule verifier.
//!
//! Astra's premise is that one measured mini-batch stands in for millions,
//! so a silently-wrong candidate schedule — a missing cross-stream wait, an
//! event waited on before it is recorded, two live buffers co-placed on
//! overlapping arena ranges — poisons the profile index and every decision
//! downstream. The discrete-event engine will happily simulate a racy or
//! deadlock-prone schedule and return a plausible-looking time; this crate
//! is the static backstop that runs *before* simulation.
//!
//! [`verify`] analyses a [`Schedule`] (optionally with the emitter's
//! [`AccessTable`] of per-command buffer footprints and the candidate's
//! [`AllocationPlan`]) in four passes:
//!
//! 1. **Event liveness** — waits on never-recorded events, waits dispatched
//!    before their record (a no-op on real hardware), double records, and
//!    recorded-but-unwaited events.
//! 2. **Happens-before graph** — stream program order, barrier/host-sync
//!    joins, record→wait edges, and (on multi-device schedules) transfer
//!    waits plus all-reduce rendezvous joins; a cycle is a guaranteed
//!    deadlock.
//! 3. **Cross-stream hazard scan** — every unordered cross-stream launch
//!    pair whose resolved footprints overlap is a RAW/WAR/WAW race; an
//!    *ordered* cross-device pair sharing a footprint with no interposed
//!    transfer is a stale-replica read (`device-aliasing`).
//! 4. **Allocation aliasing audit** — distinct buffers placed on
//!    overlapping arena ranges while both are live.
//!
//! Multi-device schedules get two more structural rules: every transfer
//! must wait on an event recorded on its source device
//! (`transfer-before-produce`), and all-reduce rendezvous orders must be
//! consistent across streams (`link-deadlock`).
//!
//! Results come back as a [`VerifyReport`] of [`Diagnostic`]s, each tagged
//! with a stable [`RuleId`] and [`Severity`]; [`VerifyReport::is_clean`] is
//! the accept/reject signal the exploration driver uses to quarantine bad
//! candidates, and [`VerifyReport::to_json`] feeds tooling.
//!
//! # Examples
//!
//! ```
//! use astra_gpu::{KernelDesc, Schedule, StreamId};
//! use astra_verify::{verify, RuleId, VerifyOptions};
//!
//! // A consumer on stream 1 that never waits for its producer's event.
//! let mut s = Schedule::new(2);
//! s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
//! s.launch_after(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 }, &[astra_gpu::EventId(7)]);
//! let report = verify(&s, None, None, &VerifyOptions::default());
//! assert!(!report.is_clean());
//! assert_eq!(report.diagnostics[0].rule, RuleId::WaitNeverRecorded);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod access;
mod checks;
mod hb;
mod parse;
mod report;

pub use access::{Access, AccessRef, AccessTable, AccessView};
pub use hb::{happens_before_edges, HbEdge, HbGraph};
pub use parse::parse_rendered;
pub use report::{Diagnostic, RuleId, Severity, VerifyReport};

use astra_gpu::{AllocationPlan, Schedule};

/// Knobs for one verification pass.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Threads for the cross-stream hazard scan (the only super-linear
    /// pass). The report is identical at any worker count; 0 and 1 both
    /// mean single-threaded.
    pub workers: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { workers: 1 }
    }
}

/// Runs every applicable rule over one schedule.
///
/// `access` supplies per-command buffer footprints (from the emitter); the
/// hazard scan and the aliasing audit need it and are skipped without it.
/// `plan` resolves buffers to physical arena ranges; without it buffers
/// only alias themselves, and the placement audit is skipped.
///
/// # Panics
///
/// Panics if `access` is present but sized for a different schedule
/// (`access.len() != sched.cmds().len()`) — that is a caller bug, not a
/// schedule defect.
pub fn verify(
    sched: &Schedule,
    access: Option<&AccessTable>,
    plan: Option<&AllocationPlan>,
    opts: &VerifyOptions,
) -> VerifyReport {
    if let Some(a) = access {
        assert_eq!(
            a.len(),
            sched.cmds().len(),
            "access table must cover exactly the schedule's commands"
        );
    }

    let records = checks::records_by_event(sched);
    let scan = checks::check_events(sched, &records);
    let mut diagnostics = scan.diagnostics;

    // The transitive closure only feeds the cross-stream hazard scan; skip
    // the quadratic work whenever that scan cannot run. The graph itself is
    // only needed for that scan or for cycle detection — and every HB edge
    // except record-after-wait wiring and all-reduce rendezvous joins
    // points forward in dispatch order, so without one of those the graph
    // is acyclic by construction and need not be built at all.
    let want_closure = sched.num_streams() >= 2 && access.is_some();
    let has_collectives = !sched.allreduce_groups().is_empty();
    let hb = if want_closure || scan.record_after_wait || has_collectives {
        Some(hb::HbGraph::build_with(sched, want_closure, &records))
    } else {
        None
    };
    if let Some(d) = hb.as_ref().and_then(|h| checks::check_cycle(sched, h)) {
        diagnostics.push(d);
    }
    if let Some(d) = checks::check_orphan_barriers(sched) {
        diagnostics.push(d);
    }
    diagnostics.extend(checks::check_transfers(sched, &records));
    diagnostics.extend(checks::check_collectives(sched));
    // Dead code only ever roots at a wait on a never-recorded event.
    if scan.missing_record {
        if let Some(d) = checks::check_dead_code(sched, &records) {
            diagnostics.push(d);
        }
    }

    let mut hazard_pairs_checked = 0;
    if let Some(acc) = access {
        if let Some(h) = hb.as_ref().filter(|h| !h.is_cyclic()) {
            let (hazards, pairs) = checks::check_hazards(sched, acc, plan, h, opts.workers.max(1));
            diagnostics.extend(hazards);
            hazard_pairs_checked = pairs;
        }
    }
    if let (Some(acc), Some(pl)) = (access, plan) {
        diagnostics.extend(checks::check_placements(sched, acc, pl));
    }

    diagnostics.sort_by_key(|d| d.sort_key());
    VerifyReport { diagnostics, cmds_checked: sched.cmds().len(), hazard_pairs_checked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_gpu::{BufId, KernelDesc, Placement, StreamId};

    fn copy() -> KernelDesc {
        KernelDesc::MemCopy { bytes: 1.0 }
    }

    #[test]
    fn well_formed_pipeline_is_clean() {
        let mut s = Schedule::new(2);
        let p = s.launch(StreamId(0), copy());
        let e = s.record(StreamId(0));
        let c = s.launch_after(StreamId(1), copy(), &[e]);
        s.barrier();
        s.host_sync();
        let mut t = AccessTable::new(s.cmds().len());
        t.set(p, Access { reads: vec![BufId(0)], writes: vec![BufId(1)] });
        t.set(c, Access { reads: vec![BufId(1)], writes: vec![BufId(2)] });
        let mut plan = AllocationPlan::new();
        plan.place_group(&[(BufId(0), 64), (BufId(1), 64), (BufId(2), 64)]);
        let report = verify(&s, Some(&t), Some(&plan), &VerifyOptions::default());
        assert!(report.is_clean(), "unexpected: {}", report.render());
        assert_eq!(report.cmds_checked, 5);
        assert_eq!(report.hazard_pairs_checked, 1);
    }

    #[test]
    fn missing_wait_surfaces_as_raw_hazard() {
        let mut s = Schedule::new(2);
        let p = s.launch(StreamId(0), copy());
        let _e = s.record(StreamId(0));
        let c = s.launch(StreamId(1), copy()); // forgot the wait
        let mut t = AccessTable::new(s.cmds().len());
        t.set(p, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(c, Access { reads: vec![BufId(1)], writes: vec![] });
        let report = verify(&s, Some(&t), None, &VerifyOptions::default());
        assert!(!report.is_clean());
        assert_eq!(report.of_rule(RuleId::CrossStreamRaw).len(), 1);
    }

    #[test]
    fn overlapping_live_placements_are_rejected() {
        let mut s = Schedule::new(1);
        let a = s.launch(StreamId(0), copy());
        let b = s.launch(StreamId(0), copy());
        let mut t = AccessTable::new(s.cmds().len());
        t.set(a, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(b, Access { reads: vec![BufId(1)], writes: vec![BufId(2)] });
        let mut plan = AllocationPlan::new();
        plan.place_at(BufId(1), Placement { offset: 0, bytes: 256 });
        plan.place_at(BufId(2), Placement { offset: 128, bytes: 256 });
        let report = verify(&s, Some(&t), Some(&plan), &VerifyOptions::default());
        assert_eq!(report.of_rule(RuleId::PlacementOverlap).len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn cycle_suppresses_hazard_scan() {
        use astra_gpu::EventId;
        let mut s = Schedule::new(2);
        let a = s.launch_after(StreamId(0), copy(), &[EventId(1)]);
        let e0 = s.record(StreamId(0));
        let b = s.launch_after(StreamId(1), copy(), &[e0]);
        let _e1 = s.record(StreamId(1));
        let mut t = AccessTable::new(s.cmds().len());
        t.set(a, Access { reads: vec![], writes: vec![BufId(1)] });
        t.set(b, Access { reads: vec![BufId(1)], writes: vec![] });
        let report = verify(&s, Some(&t), None, &VerifyOptions::default());
        assert_eq!(report.of_rule(RuleId::EventCycle).len(), 1);
        assert_eq!(report.hazard_pairs_checked, 0, "cyclic graphs skip the scan");
        assert!(!report.is_clean());
    }

    #[test]
    fn reports_are_worker_invariant() {
        // A wider schedule with several unordered cross-stream pairs.
        let mut s = Schedule::new(4);
        let mut idxs = Vec::new();
        for i in 0..12 {
            idxs.push(s.launch(StreamId(i % 4), copy()));
        }
        let mut t = AccessTable::new(s.cmds().len());
        for (k, &i) in idxs.iter().enumerate() {
            t.set(
                i,
                Access {
                    reads: vec![BufId(k as u64 % 3)],
                    writes: vec![BufId(10 + k as u64 % 2)],
                },
            );
        }
        let r1 = verify(&s, Some(&t), None, &VerifyOptions { workers: 1 });
        for workers in [0, 4, 9] {
            let r = verify(&s, Some(&t), None, &VerifyOptions { workers });
            assert_eq!(r1.render(), r.render(), "workers = {workers}");
            assert_eq!(r1.to_json(), r.to_json(), "workers = {workers}");
        }
        assert!(!r1.diagnostics.is_empty(), "fixture should actually find hazards");
    }

    #[test]
    #[should_panic(expected = "access table must cover")]
    fn mismatched_access_table_panics() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), copy());
        let t = AccessTable::new(7);
        let _ = verify(&s, Some(&t), None, &VerifyOptions::default());
    }
}
