//! Randomized tests of the GPU engine over multi-stream schedules: no valid
//! schedule may deadlock, the timing invariants of the CUDA-style
//! execution model must hold, a span-free run must time everything a
//! span-recording run does, and no schedule — however wild its waits —
//! may panic the engine, and the linter's critical-path floor must never
//! exceed what the engine measures. Schedules are drawn from a seeded
//! in-tree PRNG so the cases are identical on every run.

use astra::gpu::{
    ClockMode, Cmd, DeviceSpec, Engine, EngineCheckpoint, EventId, FaultPlan, FaultSummary,
    GemmLibrary, GemmShape, GpuError, KernelDesc, RunResult, Schedule, StreamId, Topology,
};
use astra::lint::{critical_path_floor, elide_redundant_syncs};
use astra_util::Rng64;

/// Builds a random but *valid* schedule: kernels may wait only on events
/// already recorded earlier in program order (so every wait can fire).
fn random_schedule(streams: usize, moves: &[(u8, u8, u8)]) -> Schedule {
    random_schedule_logged(streams, moves).0
}

/// What one command of a generated schedule was appended with: its wait
/// list, explicit label and tag.
#[derive(Debug, Clone, PartialEq)]
struct Appended {
    waits: Vec<EventId>,
    label: Option<String>,
    tag: Option<u32>,
}

/// [`random_schedule`], plus what each command was appended with. Every
/// seventh move that waits takes a second event, every fifth launch is
/// labelled, and launches off every third move are tagged with the move
/// index.
fn random_schedule_logged(streams: usize, moves: &[(u8, u8, u8)]) -> (Schedule, Vec<Appended>) {
    let mut sched = Schedule::new(streams);
    let mut log = Vec::with_capacity(moves.len());
    let mut events: Vec<EventId> = Vec::new();
    for (m, &(what, s, pick)) in moves.iter().enumerate() {
        let stream = StreamId(s as usize % streams);
        let mut appended = Appended { waits: Vec::new(), label: None, tag: None };
        match what % 4 {
            0 | 1 => {
                let shape = GemmShape::new(
                    8 << (pick % 3),
                    64 << (pick % 2),
                    64 << (pick % 3),
                );
                let lib = GemmLibrary::all()[pick as usize % 3];
                let kernel = KernelDesc::Gemm { shape, lib };
                if !events.is_empty() && what % 2 == 1 {
                    appended.waits.push(events[pick as usize % events.len()]);
                    if m % 7 == 6 {
                        appended.waits.push(events[(pick as usize + 1) % events.len()]);
                    }
                }
                let c = if m % 5 == 4 {
                    let label = format!("k{m}");
                    appended.label = Some(label.clone());
                    sched.launch_labeled(stream, kernel, &appended.waits, label)
                } else {
                    sched.launch_after(stream, kernel, &appended.waits)
                };
                if m % 3 != 0 {
                    sched.set_tag(c, m as u32);
                    appended.tag = Some(m as u32);
                }
            }
            2 => {
                events.push(sched.record(stream));
            }
            _ => {
                sched.barrier();
            }
        }
        log.push(appended);
    }
    (sched, log)
}

/// Draws `(streams, moves)` matching the old generators: 1..4 streams (or a
/// caller-supplied floor) and `min_moves..40` moves of `(0..4, 0..4, 0..8)`.
fn draw_case(rng: &mut Rng64, min_streams: usize, min_moves: usize) -> (usize, Vec<(u8, u8, u8)>) {
    let streams = rng.gen_range_usize(min_streams, 3);
    let n = rng.gen_range_usize(min_moves, 39);
    let moves: Vec<(u8, u8, u8)> = (0..n)
        .map(|_| {
            (
                rng.gen_range_u32(0, 3) as u8,
                rng.gen_range_u32(0, 3) as u8,
                rng.gen_range_u32(0, 7) as u8,
            )
        })
        .collect();
    (streams, moves)
}

/// Any schedule whose waits reference already-recorded events runs to
/// completion — no deadlock, every launch produces a span.
#[test]
fn valid_schedules_never_deadlock() {
    let mut rng = Rng64::new(0xe91a);
    for _ in 0..48 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let dev = DeviceSpec::p100();
        let sched = random_schedule(streams, &moves);
        let r = Engine::new(&dev).run(&sched).expect("no deadlock");
        assert_eq!(r.spans.len(), sched.num_launches());
        assert!(r.total_ns.is_finite());
    }
}

/// Per-stream FIFO: spans on the same stream never overlap, and their
/// order matches program order.
#[test]
fn per_stream_fifo_holds() {
    let mut rng = Rng64::new(0x5c22);
    for _ in 0..48 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let dev = DeviceSpec::p100();
        let sched = random_schedule(streams, &moves);
        let r = Engine::new(&dev).run(&sched).expect("runs");
        for s in 0..streams {
            let mut spans: Vec<_> =
                r.spans.iter().filter(|sp| sp.stream == StreamId(s)).collect();
            spans.sort_by_key(|a| a.cmd_idx);
            for w in spans.windows(2) {
                assert!(
                    w[1].start_ns >= w[0].end_ns - 1e-6,
                    "stream {s} overlap: {:?} then {:?}",
                    (w[0].start_ns, w[0].end_ns),
                    (w[1].start_ns, w[1].end_ns)
                );
            }
        }
    }
}

/// The makespan covers every span and every event, and event times are
/// monotone in program order per stream.
#[test]
fn makespan_and_event_monotonicity() {
    let mut rng = Rng64::new(0x31f8);
    for _ in 0..48 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let dev = DeviceSpec::p100();
        let sched = random_schedule(streams, &moves);
        let r = Engine::new(&dev).run(&sched).expect("runs");
        for sp in &r.spans {
            assert!(sp.end_ns <= r.total_ns + 1e-6);
            assert!(sp.start_ns <= sp.end_ns);
        }
        for (_, t) in r.event_ns.iter() {
            assert!(t <= r.total_ns + 1e-6);
        }
        // Events recorded on the same stream fire in program order.
        let mut per_stream: Vec<Vec<(usize, EventId)>> = vec![Vec::new(); streams];
        for (idx, cmd) in sched.cmds().iter().enumerate() {
            if let Cmd::Record { stream, event } = cmd {
                per_stream[stream.0].push((idx, *event));
            }
        }
        for evs in per_stream {
            for w in evs.windows(2) {
                let (a, b) = (r.event_ns.get(w[0].1).unwrap(), r.event_ns.get(w[1].1).unwrap());
                assert!(a <= b + 1e-6, "event order violated: {a} then {b}");
            }
        }
    }
}

/// Waiting on an event never lets the dependent kernel start before the
/// event fires.
#[test]
fn waits_are_respected() {
    let mut rng = Rng64::new(0x84d7);
    for _ in 0..48 {
        let (streams, moves) = draw_case(&mut rng, 2, 4);
        let dev = DeviceSpec::p100();
        let sched = random_schedule(streams, &moves);
        let r = Engine::new(&dev).run(&sched).expect("runs");
        for (idx, cmd) in sched.cmds().iter().enumerate() {
            if let Cmd::Launch { waits, .. } = *cmd {
                let Some(span) = r.spans.iter().find(|sp| sp.cmd_idx == idx) else { continue };
                for ev in sched.waits(waits) {
                    let fire = r.event_ns.get(*ev).unwrap();
                    assert!(
                        span.start_ns >= fire - 1e-6,
                        "kernel at cmd {idx} started {} before its wait fired {}",
                        span.start_ns,
                        fire
                    );
                }
            }
        }
    }
}

/// A schedule keeps wait lists, labels and tags beside its commands (one
/// wait pool, a sparse label table, a tag per command): every generated
/// case reads each command's back exactly as appended, a clone and an
/// independent rebuild compare equal to it, and eliding its redundant
/// waits (a rebuild through the pool) keeps the engine's makespan bits
/// and replays every label and tag.
#[test]
fn generated_schedules_read_back_waits_labels_and_tags() {
    let mut rng = Rng64::new(0x9a11);
    let dev = DeviceSpec::p100();
    let (mut multi, mut labelled, mut elided_waits) = (0, 0, 0);
    for case in 0..64 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let (sched, log) = random_schedule_logged(streams, &moves);
        assert_eq!(sched.cmds().len(), log.len());
        for (i, want) in log.iter().enumerate() {
            assert_eq!(sched.cmd_waits(i), want.waits, "case {case} cmd {i}: waits");
            assert_eq!(sched.label(i), want.label.as_deref(), "case {case} cmd {i}: label");
            assert_eq!(sched.tags()[i], want.tag, "case {case} cmd {i}: tag");
            if let Cmd::Launch { waits, .. } = sched.cmds()[i] {
                assert_eq!(waits.len(), want.waits.len(), "case {case} cmd {i}: wait count");
                assert_eq!(sched.waits(waits), want.waits, "case {case} cmd {i}: wait range");
            }
            multi += usize::from(want.waits.len() > 1);
            labelled += usize::from(want.label.is_some());
        }
        assert_eq!(sched.clone(), sched, "case {case}: a clone compares equal");
        let rebuilt = random_schedule(streams, &moves);
        assert_eq!(rebuilt, sched, "case {case}: a rebuild compares equal");

        let (elided, removed) = elide_redundant_syncs(&sched);
        elided_waits += removed;
        let bits = |s: &Schedule| Engine::new(&dev).run(s).expect("runs").total_ns.to_bits();
        assert_eq!(bits(&elided), bits(&sched), "case {case}: elision keeps the makespan");
        assert_eq!(elided.tags(), sched.tags(), "case {case}: elision keeps the tags");
        for i in 0..log.len() {
            assert_eq!(elided.label(i), sched.label(i), "case {case} cmd {i}: elided label");
        }
    }
    assert!(multi > 0, "some generated wait list holds two events");
    assert!(labelled > 0, "some generated launch is labelled");
    assert!(elided_waits > 0, "some generated wait is redundant");
}

/// The lint report's critical-path floor is a sound lower bound: over
/// random schedules, `critical_path_floor` never exceeds the makespan.
/// Checked clean, under chaos faults and a heavier fault mix (straggler
/// factors >= 1, the soundness precondition), and under Autoboost clock
/// jitter.
#[test]
fn critical_path_floors_never_exceed_the_measured_times() {
    let mut rng = Rng64::new(0xf100);
    let dev = DeviceSpec::p100();
    let topo = Topology::single(dev.clone());
    let static_only = |_: &KernelDesc, _: usize| None;
    for case in 0..48u64 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let sched = random_schedule(streams, &moves);
        let floor = critical_path_floor(&sched, &topo, &static_only);
        let heavy = FaultPlan {
            spike_prob: 0.2,
            launch_fail_prob: 0.2,
            straggler_prob: 0.5,
            straggler_factor: 1.0 + (case % 3) as f64,
            ..FaultPlan::chaos(case)
        };
        let runs = [
            (ClockMode::Fixed, FaultPlan::none()),
            (ClockMode::Fixed, FaultPlan::chaos(case)),
            (ClockMode::Fixed, heavy),
            (ClockMode::Autoboost { seed: case }, FaultPlan::none()),
        ];
        for (clock, plan) in runs {
            let r = Engine::with_faults(&dev, clock, plan, case).run(&sched).expect("runs");
            assert!(
                floor <= r.total_ns,
                "case {case} {clock:?} {plan:?}: floor {floor} above makespan {}",
                r.total_ns
            );
        }
    }
}

/// What `parse_rendered` rebuilds from `s`'s text: every launch becomes the
/// parser's placeholder (a 1-byte copy) labelled with the launch's span
/// label; every other command is kept as is.
fn placeholder_twin(s: &Schedule) -> Schedule {
    let mut twin = Schedule::with_devices(s.num_streams(), s.stream_devices().to_vec());
    for (i, cmd) in s.cmds().iter().enumerate() {
        match *cmd {
            Cmd::Launch { stream, .. } => {
                let label = s.span_label(i).expect("launches carry a label");
                twin.launch_labeled(
                    stream,
                    KernelDesc::MemCopy { bytes: 1.0 },
                    s.cmd_waits(i),
                    label,
                );
            }
            Cmd::Record { stream, .. } => {
                twin.record(stream);
            }
            Cmd::Barrier => twin.barrier(),
            Cmd::HostSync => twin.host_sync(),
            Cmd::Transfer { stream, bytes, src, dst, .. } => {
                twin.transfer(stream, bytes, src, dst, s.cmd_waits(i));
            }
            Cmd::AllReduce { stream, bytes, group } => {
                twin.all_reduce(stream, bytes, group);
            }
        }
    }
    twin
}

/// Every generated schedule survives a render → parse round trip: the
/// parsed schedule re-renders to the same text, records the same events,
/// and has the prefix hash of the original with each kernel replaced by
/// the parser's labelled placeholder — so streams, waits, records and
/// barriers all round-trip into the hash. The kernel descriptor is the one
/// hashed field the text carries only as a label, so a schedule with a
/// launch cannot keep its own hash; one without launches does.
#[test]
fn generated_schedules_round_trip_through_render_and_parse() {
    use astra::verify::parse_rendered;

    let mut rng = Rng64::new(0x7e4d);
    for case in 0..64 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        // The same moves without their launches: records and barriers only.
        let bare: Vec<(u8, u8, u8)> = moves.iter().copied().filter(|m| m.0 % 4 >= 2).collect();
        for (sched, what) in
            [(random_schedule(streams, &moves), "full"), (random_schedule(streams, &bare), "bare")]
        {
            let text = sched.render();
            let parsed =
                parse_rendered(&text).unwrap_or_else(|e| panic!("case {case} {what}: {e}"));
            assert_eq!(parsed.render(), text, "case {case} {what}: re-render");
            assert_eq!(parsed.num_events(), sched.num_events(), "case {case} {what}: events");
            let twin = placeholder_twin(&sched);
            assert_eq!(parsed.prefix_hash(), twin.prefix_hash(), "case {case} {what}: prefix hash");
            if sched.num_launches() == 0 {
                assert_eq!(
                    parsed.prefix_hash(),
                    sched.prefix_hash(),
                    "case {case} {what}: own hash"
                );
            }
        }
    }
}

/// Everything but the spans: makespan, event times, fault summary, record
/// count and profiling overhead, floats as bits.
fn timing_bits(r: &RunResult) -> (u64, Vec<(EventId, u64)>, FaultSummary, usize, u64) {
    (
        r.total_ns.to_bits(),
        r.event_ns.iter().map(|(e, t)| (e, t.to_bits())).collect(),
        r.faults,
        r.num_records,
        r.profiling_overhead_ns.to_bits(),
    )
}

/// A span-free run times everything a span-recording run does, bit for
/// bit, clean and under chaos faults; its full-run memo replays the same
/// bits (memo replay = cold run); and a span-recording run refuses to
/// resume from it rather than return a result without spans.
#[test]
fn span_free_runs_time_and_memoize_like_span_recording_runs() {
    let mut rng = Rng64::new(0x5fa9);
    let dev = DeviceSpec::p100();
    let mut faulted = 0;
    for case in 0..48u64 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let mut sched = random_schedule(streams, &moves);
        sched.mark_boundary();
        let full = sched.cmds().len();
        for plan in [FaultPlan::none(), FaultPlan::chaos(case)] {
            let engine = || Engine::with_faults(&dev, ClockMode::Fixed, plan, case);
            let spans = engine().run(&sched).expect("runs");
            assert_eq!(spans.spans.len(), sched.num_launches());
            let want = timing_bits(&spans);
            faulted += usize::from(spans.faults.any());

            let (free, memo) = engine()
                .without_spans()
                .run_incremental(&sched, None, &[full])
                .expect("runs");
            assert!(free.spans.is_empty(), "case {case}: a span-free run records no span");
            assert_eq!(timing_bits(&free), want, "case {case}: span-free run diverged");

            let mut memos = vec![memo[0].clone()];
            // Clean memos also survive the persistable form.
            memos.extend(memo[0].export_memo().map(EngineCheckpoint::from_memo));
            assert_eq!(memos.len(), 1 + usize::from(plan.is_none()));
            for ck in &memos {
                let (replayed, again) = engine()
                    .without_spans()
                    .run_incremental(&sched, Some(ck), &[full])
                    .expect("memo replays");
                assert!(again.is_empty() && replayed.spans.is_empty());
                assert_eq!(timing_bits(&replayed), want, "case {case}: memo replay diverged");
                let err = engine().run_incremental(&sched, Some(ck), &[]).unwrap_err();
                assert!(matches!(err, GpuError::InvalidSchedule(_)), "case {case}: {err:?}");
            }
        }
    }
    assert!(faulted > 0, "chaos must inject faults in some case");
}

/// Builds a schedule whose waits need not be valid: each wait names an
/// event recorded earlier, one the schedule may still record later, or one
/// it never records, up to `EventId(u32::MAX)`.
fn wild_schedule(rng: &mut Rng64) -> Schedule {
    let streams = rng.gen_range_usize(1, 3);
    let mut sched = Schedule::new(streams);
    for _ in 0..rng.gen_range_usize(1, 30) {
        let stream = StreamId(rng.gen_range_usize(0, streams - 1));
        match rng.gen_range_u32(0, 5) {
            0 => sched.barrier(),
            1 | 2 => {
                sched.record(stream);
            }
            _ => {
                let recorded = sched.num_events() as u32;
                let waits: Vec<EventId> = (0..rng.gen_range_usize(0, 1))
                    .map(|_| match rng.gen_range_u32(0, 15) {
                        0..=9 if recorded > 0 => EventId(rng.gen_range_u32(0, recorded - 1)),
                        0..=12 => EventId(recorded + rng.gen_range_u32(0, 3)),
                        13 => EventId(rng.gen_range_u32(64, u32::MAX)),
                        14 => EventId(u32::MAX),
                        _ => EventId(u32::MAX - rng.gen_range_u32(1, 3)),
                    })
                    .collect();
                sched.launch_after(stream, KernelDesc::MemCopy { bytes: 4096.0 }, &waits);
            }
        }
    }
    sched.mark_boundary();
    sched
}

/// No input may panic the engine: over schedules with arbitrary waits,
/// every run returns `Ok` or `GpuError::Deadlock`, span-free or not. On
/// `Ok` the event table holds exactly ids `0..n`, one per record, and a
/// span-free run and every memo replay give the same bits.
#[test]
fn arbitrary_waits_run_or_deadlock_and_fill_the_event_table() {
    let mut rng = Rng64::new(0xe7e5);
    let dev = DeviceSpec::p100();
    let (mut ran, mut deadlocked) = (0, 0);
    for case in 0..96u64 {
        let sched = wild_schedule(&mut rng);
        let full = sched.cmds().len();
        let spans = Engine::new(&dev).run(&sched);
        let free = Engine::new(&dev).without_spans().run_incremental(&sched, None, &[full]);
        let (r, memo) = match (spans, free) {
            (Ok(r), Ok((free, memo))) => {
                assert_eq!(timing_bits(&free), timing_bits(&r), "case {case}: span-free diverged");
                (r, memo)
            }
            (Err(a), Err(b)) => {
                assert!(matches!(a, GpuError::Deadlock(_)), "case {case}: {a:?}");
                assert!(matches!(b, GpuError::Deadlock(_)), "case {case}: {b:?}");
                deadlocked += 1;
                continue;
            }
            (a, b) => panic!("case {case}: span-free run disagrees: {a:?} vs {b:?}"),
        };
        ran += 1;
        let ids: Vec<u32> = r.event_ns.iter().map(|(e, _)| e.0).collect();
        assert_eq!(ids, (0..sched.num_events() as u32).collect::<Vec<_>>(), "case {case}");
        assert_eq!((r.event_ns.len(), r.num_records), (sched.num_events(), sched.num_events()));
        let from_parts = memo[0].export_memo().map(EngineCheckpoint::from_memo).expect("exports");
        for ck in [&memo[0], &from_parts] {
            let (replayed, _) = Engine::new(&dev)
                .without_spans()
                .run_incremental(&sched, Some(ck), &[])
                .expect("memo replays");
            assert_eq!(timing_bits(&replayed), timing_bits(&r), "case {case}: replay diverged");
        }
    }
    assert!(ran > 10 && deadlocked > 10, "both outcomes drawn: {ran} ran, {deadlocked} deadlocked");
}
