//! Seeded schedule generators shared by the engine's property tests and
//! its digest fixture, so both draw exactly the same cases.

use astra::gpu::{EventId, GemmLibrary, GemmShape, KernelDesc, Schedule, StreamId};
use astra_util::Rng64;

/// Builds a random but *valid* schedule: kernels may wait only on events
/// already recorded earlier in program order (so every wait can fire).
pub fn random_schedule(streams: usize, moves: &[(u8, u8, u8)]) -> Schedule {
    random_schedule_logged(streams, moves).0
}

/// What one command of a generated schedule was appended with: its wait
/// list, explicit label and tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Appended {
    pub waits: Vec<EventId>,
    pub label: Option<String>,
    pub tag: Option<u32>,
}

/// [`random_schedule`], plus what each command was appended with. Every
/// seventh move that waits takes a second event, every fifth launch is
/// labelled, and launches off every third move are tagged with the move
/// index.
pub fn random_schedule_logged(streams: usize, moves: &[(u8, u8, u8)]) -> (Schedule, Vec<Appended>) {
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
pub fn draw_case(rng: &mut Rng64, min_streams: usize, min_moves: usize) -> (usize, Vec<(u8, u8, u8)>) {
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
/// Builds a schedule whose waits need not be valid: each wait names an
/// event recorded earlier, one the schedule may still record later, or one
/// it never records, up to `EventId(u32::MAX)`.
pub fn wild_schedule(rng: &mut Rng64) -> Schedule {
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
