//! Mutation tests for the static schedule verifier: four deterministic
//! corruptions of a known-clean candidate plan, each caught with its own
//! distinct rule id, and worker-count invariance of every report.
//!
//! The fixture is a two-stream SubLSTM plan with an adversarial round-robin
//! stream assignment — `emit_schedule` threads every cross-stream
//! dependency through events, so the emitted schedule verifies clean and
//! every mutation below breaks exactly the invariant its rule describes.

use astra::core::{
    access_table, build_allocation_plan, build_units, emit_schedule, placement_candidates,
    verify_plan, DevicePlacement, ExecConfig, PlanContext, ProbeSpec, Unit,
};
use astra::gpu::{
    AllocationPlan, Cmd, DeviceSpec, EventId, KernelDesc, LinkDesc, Placement, Schedule, Topology,
};
use astra::models::{Model, ModelConfig};
use astra::verify::{verify, RuleId, VerifyOptions, VerifyReport};

fn model() -> astra::models::BuiltModel {
    let cfg =
        ModelConfig { seq_len: 4, hidden: 64, input: 64, vocab: 128, ..ModelConfig::ptb(8) };
    Model::SubLstm.build(&cfg)
}

/// Two-stream round-robin plan: `(cfg, units, schedule)`, verified clean.
fn two_stream_plan(ctx: &PlanContext<'_>) -> (ExecConfig, Vec<Unit>, Schedule) {
    let mut cfg = ExecConfig::baseline();
    cfg.num_streams = 2;
    let units = build_units(ctx, &cfg).expect("baseline units build");
    for (i, u) in units.iter().enumerate() {
        cfg.streams.insert(u.id, i % 2);
    }
    let units = build_units(ctx, &cfg).expect("two-stream units build");
    let (sched, _) = emit_schedule(ctx, &cfg, &units, None, &ProbeSpec::none());
    (cfg, units, sched)
}

/// Model-parallel plan on a 2-device node: `(cfg, units, schedule)`,
/// verified clean. Ships every cross-cut dependency over the interconnect,
/// so the fixture has real guarded transfers to corrupt.
fn model_parallel_plan(ctx: &PlanContext<'_>) -> (ExecConfig, Vec<Unit>, Schedule) {
    let topo = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
    let mut cfg = ExecConfig::baseline();
    let units = build_units(ctx, &cfg).expect("baseline units build");
    cfg.placement = placement_candidates(&topo, &units)
        .into_iter()
        .find(|p| matches!(p, DevicePlacement::ModelParallel { .. }))
        .expect("2-device topology offers a model-parallel candidate");
    let (sched, _) = emit_schedule(ctx, &cfg, &units, None, &ProbeSpec::none());
    (cfg, units, sched)
}

/// Data-parallel plan on a 2-device node: `(cfg, units, schedule)`,
/// verified clean, with one all-reduce arrival per device.
fn data_parallel_plan(ctx: &PlanContext<'_>) -> (ExecConfig, Vec<Unit>, Schedule) {
    let mut cfg = ExecConfig::baseline();
    cfg.placement = DevicePlacement::DataParallel { shares: vec![1, 1] };
    let units = build_units(ctx, &cfg).expect("dp units build");
    let (sched, _) = emit_schedule(ctx, &cfg, &units, None, &ProbeSpec::none());
    (cfg, units, sched)
}

/// A fresh multi-device schedule shell matching `sched`'s stream→device map,
/// ready for [`replay_on`].
fn shell_of(sched: &Schedule) -> Schedule {
    Schedule::with_devices(sched.num_streams(), sched.stream_devices().to_vec())
}

/// One command lifted out of its schedule with everything the schedule
/// keeps beside it: its wait list, label and unit tag.
#[derive(Debug, Clone)]
struct Lifted {
    cmd: Cmd,
    waits: Vec<EventId>,
    label: Option<String>,
    tag: Option<u32>,
}

/// Replays `cmds` (with their unit tags) into a fresh schedule, remapping
/// each wait through `wait_map`. Record commands re-record in order, so as
/// long as the replay keeps every record, auto-assigned event ids match the
/// originals.
fn replay(num_streams: usize, cmds: &[Lifted], wait_map: impl Fn(EventId) -> EventId) -> Schedule {
    replay_on(Schedule::new(num_streams), cmds, wait_map)
}

/// Like [`replay`] but onto a caller-built (possibly multi-device) schedule.
fn replay_on(mut s: Schedule, cmds: &[Lifted], wait_map: impl Fn(EventId) -> EventId) -> Schedule {
    for c in cmds {
        let waits: Vec<EventId> = c.waits.iter().map(|&e| wait_map(e)).collect();
        let idx = match c.cmd {
            Cmd::Launch { stream, kernel, .. } => match &c.label {
                Some(l) => s.launch_labeled(stream, kernel, &waits, l.clone()),
                None => s.launch_after(stream, kernel, &waits),
            },
            Cmd::Record { stream, .. } => {
                let _ = s.record(stream);
                continue;
            }
            Cmd::Barrier => {
                s.barrier();
                continue;
            }
            Cmd::HostSync => {
                s.host_sync();
                continue;
            }
            Cmd::Transfer { stream, bytes, src, dst, .. } => {
                s.transfer(stream, bytes, src, dst, &waits)
            }
            Cmd::AllReduce { stream, bytes, group } => {
                let _ = s.all_reduce(stream, bytes, group);
                continue;
            }
        };
        if let Some(t) = c.tag {
            s.set_tag(idx, t);
        }
    }
    s
}

fn tagged_cmds(sched: &Schedule) -> Vec<Lifted> {
    (0..sched.cmds().len())
        .map(|i| Lifted {
            cmd: sched.cmds()[i],
            waits: sched.cmd_waits(i).to_vec(),
            label: sched.label(i).map(str::to_owned),
            tag: sched.tags()[i],
        })
        .collect()
}

/// Index of the record command for each event id.
fn record_index_of(sched: &Schedule) -> std::collections::HashMap<EventId, usize> {
    sched
        .cmds()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c {
            Cmd::Record { event, .. } => Some((*event, i)),
            _ => None,
        })
        .collect()
}

/// Both verifier entry points must be bit-identical at any worker count.
fn assert_worker_invariant(
    run: impl Fn(usize) -> VerifyReport,
    expected: RuleId,
) -> VerifyReport {
    let r1 = run(1);
    let r4 = run(4);
    assert_eq!(r1.render(), r4.render(), "workers 1 vs 4 must render identically");
    assert_eq!(r1.to_json(), r4.to_json(), "workers 1 vs 4 must serialize identically");
    assert!(
        !r1.of_rule(expected).is_empty(),
        "mutation must be flagged as {expected:?}:\n{}",
        r1.render()
    );
    assert!(!r1.is_clean(), "mutation must not verify clean");
    r1
}

#[test]
fn dropping_a_wait_flags_cross_stream_raw() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = two_stream_plan(&ctx);
    assert!(verify_plan(&ctx, &cfg, &units, &sched, 1).is_clean());

    // Strip the waits off the first launch that has any: its producer on
    // the other stream is no longer ordered before it, so the read of the
    // producer's output races the write.
    let mut cmds = tagged_cmds(&sched);
    let victim = cmds
        .iter()
        .position(|c| matches!(c.cmd, Cmd::Launch { .. }) && !c.waits.is_empty())
        .expect("two-stream schedule has cross-stream waits");
    cmds[victim].waits.clear();
    let mutated = replay(sched.num_streams(), &cmds, |e| e);

    let report =
        assert_worker_invariant(|w| verify_plan(&ctx, &cfg, &units, &mutated, w), RuleId::CrossStreamRaw);
    // The racing launch itself is named in some RAW diagnostic.
    assert!(
        report.of_rule(RuleId::CrossStreamRaw).iter().any(|d| d.cmds.contains(&victim)),
        "the stripped launch must appear in a RAW diagnostic:\n{}",
        report.render()
    );
}

#[test]
fn dropping_a_record_flags_wait_never_recorded() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = two_stream_plan(&ctx);

    // Drop the record some launch waits on. Replay re-records the remaining
    // events in order, so ids after the dropped one shift down by one; the
    // wait map keeps every surviving event pointing at its own record and
    // sends the dropped event to the one id no record produces.
    let rec_of = record_index_of(&sched);
    let total_events = rec_of.len() as u32;
    let dropped_ev = sched
        .cmds()
        .iter()
        .find_map(|c| match *c {
            Cmd::Launch { waits, .. } => sched.waits(waits).first().copied(),
            _ => None,
        })
        .expect("two-stream schedule has at least one wait");
    let dropped_idx = rec_of[&dropped_ev];
    let cmds: Vec<Lifted> = tagged_cmds(&sched)
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i != dropped_idx)
        .map(|(_, c)| c)
        .collect();
    let mutated = replay(sched.num_streams(), &cmds, |e| {
        use std::cmp::Ordering;
        match e.0.cmp(&dropped_ev.0) {
            Ordering::Less => e,
            Ordering::Equal => EventId(total_events - 1), // recorded by nothing
            Ordering::Greater => EventId(e.0 - 1),
        }
    });

    assert_worker_invariant(
        |w| verify_plan(&ctx, &cfg, &units, &mutated, w),
        RuleId::WaitNeverRecorded,
    );
}

#[test]
fn swapping_cross_stream_launches_flags_wait_before_record() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = two_stream_plan(&ctx);

    // Find a launch j waiting on an event recorded at r, and an earlier
    // launch i (i < r) on the other stream; swapping i and j moves the wait
    // in front of its record — a no-op wait under CUDA semantics.
    let rec_of = record_index_of(&sched);
    let cmds = tagged_cmds(&sched);
    let stream_of = |c: &Cmd| match c {
        Cmd::Launch { stream, .. } => Some(*stream),
        _ => None,
    };
    let mut pick = None;
    'outer: for (j, c) in cmds.iter().enumerate() {
        let Some(sj) = stream_of(&c.cmd) else { continue };
        for e in &c.waits {
            let r = rec_of[e];
            for (i, ci) in cmds.iter().enumerate().take(r) {
                if stream_of(&ci.cmd).is_some_and(|si| si != sj) {
                    pick = Some((i, j));
                    break 'outer;
                }
            }
        }
    }
    let (i, j) = pick.expect("fixture has a swappable cross-stream launch pair");
    let mut cmds = cmds;
    cmds.swap(i, j);
    let mutated = replay(sched.num_streams(), &cmds, |e| e);

    assert_worker_invariant(
        |w| verify_plan(&ctx, &cfg, &units, &mutated, w),
        RuleId::WaitBeforeRecord,
    );
}

#[test]
fn overlapping_placements_flag_placement_overlap() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = two_stream_plan(&ctx);
    let access = access_table(&units, &sched);
    let plan = build_allocation_plan(&ctx, &cfg);

    // Live interval (first..=last access) of every placed buffer, straight
    // from the access table the verifier itself consumes.
    let mut live: std::collections::HashMap<astra::gpu::BufId, (usize, usize)> =
        std::collections::HashMap::new();
    for i in 0..sched.cmds().len() {
        let Some(a) = access.get(i) else { continue };
        for &b in a.reads.iter().chain(a.writes.iter()) {
            if plan.placement(b).is_some() {
                let e = live.entry(b).or_insert((i, i));
                e.0 = e.0.min(i);
                e.1 = e.1.max(i);
            }
        }
    }
    // Two distinct placed buffers whose live ranges intersect: aliasing
    // their placements is a real (latent) corruption.
    let mut bufs: Vec<_> = live.iter().map(|(&b, &iv)| (b, iv)).collect();
    bufs.sort_unstable();
    let (victim, target) = bufs
        .iter()
        .flat_map(|&(a, (af, al))| {
            bufs.iter()
                .filter(move |&&(b, (bf, bl))| a != b && af <= bl && bf <= al)
                .map(move |&(b, _)| (a, b))
        })
        .next()
        .expect("two placed buffers are concurrently live");
    let mut mutated_plan = AllocationPlan::new();
    let target_at = plan.placement(target).expect("target buffer is placed");
    for (id, p) in plan.placements() {
        let p = if id == victim {
            Placement { offset: target_at.offset, bytes: p.bytes }
        } else {
            p
        };
        assert!(mutated_plan.place_at(id, p), "fresh plan accepts every placement");
    }

    let report = assert_worker_invariant(
        |w| verify(&sched, Some(&access), Some(&mutated_plan), &VerifyOptions { workers: w }),
        RuleId::PlacementOverlap,
    );
    assert!(report.errors() >= 1);
}

#[test]
fn stripping_transfer_waits_flags_transfer_before_produce() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = model_parallel_plan(&ctx);
    assert!(verify_plan(&ctx, &cfg, &units, &sched, 1).is_clean());

    // Strip the waits off the first guarded transfer: nothing orders the
    // copy behind its producer on the source device any more, so the copy
    // may ship bytes the producer has not written yet.
    let mut cmds = tagged_cmds(&sched);
    let victim = cmds
        .iter()
        .position(|c| matches!(c.cmd, Cmd::Transfer { .. }) && !c.waits.is_empty())
        .expect("model-parallel schedule ships data via guarded transfers");
    cmds[victim].waits.clear();
    let mutated = replay_on(shell_of(&sched), &cmds, |e| e);

    let report = assert_worker_invariant(
        |w| verify_plan(&ctx, &cfg, &units, &mutated, w),
        RuleId::TransferBeforeProduce,
    );
    assert!(
        report.of_rule(RuleId::TransferBeforeProduce).iter().any(|d| d.cmds.contains(&victim)),
        "the stripped transfer must be the one named:\n{}",
        report.render()
    );
}

#[test]
fn doubling_an_allreduce_arrival_flags_link_deadlock() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = data_parallel_plan(&ctx);
    assert!(verify_plan(&ctx, &cfg, &units, &sched, 1).is_clean());

    // Queue a second arrival of the gradient-sync group on a stream that
    // already participates: the first rendezvous waits on an arrival queued
    // behind itself, which can never come.
    let mut cmds = tagged_cmds(&sched);
    let arrival = cmds
        .iter()
        .find(|c| matches!(c.cmd, Cmd::AllReduce { .. }))
        .cloned()
        .expect("data-parallel schedule syncs gradients");
    cmds.push(arrival);
    let mutated = replay_on(shell_of(&sched), &cmds, |e| e);

    assert_worker_invariant(
        |w| verify_plan(&ctx, &cfg, &units, &mutated, w),
        RuleId::LinkDeadlock,
    );
}

#[test]
fn replacing_transfers_with_local_kernels_flags_device_aliasing() {
    let built = model();
    let ctx = PlanContext::new(&built.graph);
    let (cfg, units, sched) = model_parallel_plan(&ctx);
    assert!(verify_plan(&ctx, &cfg, &units, &sched, 1).is_clean());

    // Swap every cross-device transfer for a same-device kernel carrying
    // identical waits: the happens-before wiring survives untouched (every
    // record stays, every event keeps its id), but no bytes ever cross the
    // interconnect — each consumer now reads a stale remote replica.
    let mut cmds = tagged_cmds(&sched);
    let mut replaced = 0usize;
    for c in &mut cmds {
        if let Cmd::Transfer { stream, bytes, waits, .. } = c.cmd {
            c.cmd = Cmd::Launch {
                stream,
                kernel: KernelDesc::MemCopy { bytes: bytes as f64 },
                waits,
            };
            replaced += 1;
        }
    }
    assert!(replaced > 0, "model-parallel schedule has transfers to lose");
    let mutated = replay_on(shell_of(&sched), &cmds, |e| e);

    let report = assert_worker_invariant(
        |w| verify_plan(&ctx, &cfg, &units, &mutated, w),
        RuleId::DeviceAliasing,
    );
    assert!(report.errors() >= 1);
}

#[test]
fn the_seven_mutation_rules_are_distinct() {
    // The checklist's mutation classes must map to *different* rules — a
    // verifier that collapses them is much harder to act on.
    let rules = [
        RuleId::CrossStreamRaw,
        RuleId::WaitNeverRecorded,
        RuleId::WaitBeforeRecord,
        RuleId::PlacementOverlap,
        RuleId::TransferBeforeProduce,
        RuleId::LinkDeadlock,
        RuleId::DeviceAliasing,
    ];
    for (a, ra) in rules.iter().enumerate() {
        for rb in rules.iter().skip(a + 1) {
            assert_ne!(ra, rb);
            assert_ne!(ra.id(), rb.id(), "rule ids must be distinct strings");
        }
    }
}
