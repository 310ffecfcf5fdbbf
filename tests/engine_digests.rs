//! Engine digests: pins the discrete-event engine's results bit for bit on
//! generated schedules.
//!
//! `tests/golden/schedules.digests` pins the engine only on the zoo's
//! emitted schedules, under a fixed clock and without faults. This fixture
//! pins it everywhere else the step loop has a path:
//!
//! * `small/*` and `long/*`: the generators of `tests/engine_properties.rs`
//!   (`tests/common`), at their own sizes and at up to 300 moves on up to
//!   four streams;
//! * `wild/*`: schedules with arbitrary waits, which run or deadlock;
//! * `mixed/*`: one device, every kernel kind (zero-demand host round trips
//!   and full-device compound kernels included), waits on two events, host
//!   syncs and barriers;
//! * `multi/*`: the same on two devices under a [`Topology`], plus
//!   transfers and all-reduces (some groups on one device), alternately
//!   over a shared PCIe bus between a P100 and a V100 and over
//!   point-to-point NVLink between two P100s.
//!
//! Every case runs under each combination of clock (`fixed`, `boost` =
//! autoboost), faults (`none`, `chaos` = [`FaultPlan::chaos`] with the
//! per-kernel and straggler probabilities raised so that every fault class
//! lands on these small schedules) and spans (`spans`, `free` =
//! [`Engine::without_spans`]), and reduces to one line:
//!
//! ```text
//! <family>/<case> <clock>/<faults>/<spans> cmds=<count> fnv=<fnv>
//! ```
//!
//! `fnv` is FNV-1a of `total_ns`, every event-table slot, the launch and
//! record counts, the profiling overhead, the fault counts and every span
//! (label, stream, start, end, command), floats as bits. A run that fails
//! reads `err=<fnv(message)>`. A faster engine must leave the fixture
//! byte-identical; a deliberate change to the model regenerates it with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test engine_digests
//! ```

mod common;

use std::fmt::Write as _;

use astra::gpu::{
    ClockMode, DeviceSpec, Engine, EventId, FaultPlan, GemmLibrary, GemmShape, KernelDesc,
    LinkDesc, RunResult, Schedule, StreamId, Topology,
};
use astra::store::fnv1a64;
use astra_util::Rng64;
use common::{draw_case, random_schedule, wild_schedule};

const FIXTURE: &str = "tests/golden/engine.digests";

/// Every kernel kind, sized by `pick`.
fn any_kernel(pick: u32) -> KernelDesc {
    let p = u64::from(pick);
    match pick % 8 {
        0 | 1 => KernelDesc::Gemm {
            shape: GemmShape::new(8 << (p % 4), 64 << (p % 3), 64 << (p % 5)),
            lib: GemmLibrary::all()[p as usize % 3],
        },
        2 => KernelDesc::Elementwise {
            elements: 1024 << (p % 9),
            flops_per_element: 1.0 + (p % 4) as f64,
            inputs: 1 + pick % 3,
            outputs: 1,
        },
        3 => KernelDesc::Softmax { rows: 16 << (p % 4), cols: 64 << (p % 3) },
        4 => KernelDesc::EmbeddingLookup { rows: 8 << (p % 5), width: 128 },
        5 => KernelDesc::Compound { flops: 1e6 * (1 + p % 7) as f64, bytes: 4e5 },
        6 => KernelDesc::MemCopy { bytes: 4096.0 * (1 + p % 50) as f64 },
        _ if p % 3 == 0 => KernelDesc::HostRoundtrip { bytes: 512.0 },
        _ => KernelDesc::Conv { batch: 4, gemm_m: 64 << (p % 3), gemm_k: 72, gemm_n: 32 },
    }
}

/// A valid schedule over every command kind: streams alternate between
/// devices 0 and 1 when `two_devices` (transfers and all-reduces need a
/// topology, so a one-device schedule has neither). Waits name events
/// already recorded; a transfer waits on one recorded on its source
/// device; every stream issues its all-reduces in group order, so no
/// rendezvous can deadlock.
fn mixed_schedule(rng: &mut Rng64, two_devices: bool) -> Schedule {
    let streams = rng.gen_range_usize(if two_devices { 2 } else { 1 }, 4);
    let device_of: Vec<usize> =
        (0..streams).map(|s| if two_devices { s % 2 } else { 0 }).collect();
    let mut sched = Schedule::with_devices(streams, device_of.clone());
    let mut events: Vec<(EventId, usize)> = Vec::new();
    let mut group = 0;
    for _ in 0..rng.gen_range_usize(4, 60) {
        let s = rng.gen_range_usize(0, streams - 1);
        let pick = rng.gen_range_u32(0, 1000);
        match rng.gen_range_u32(0, 15) {
            0..=5 => {
                let mut waits = Vec::new();
                if !events.is_empty() && pick % 2 == 1 {
                    waits.push(events[pick as usize % events.len()].0);
                    if pick % 5 == 1 {
                        waits.push(events[(pick as usize / 5) % events.len()].0);
                    }
                }
                sched.launch_after(StreamId(s), any_kernel(pick), &waits);
            }
            6..=8 => events.push((sched.record(StreamId(s)), device_of[s])),
            9 => sched.barrier(),
            10 => sched.host_sync(),
            11 | 12 if two_devices => {
                let dst = device_of[s];
                let src = 1 - dst;
                let from: Vec<EventId> =
                    events.iter().filter(|&&(_, d)| d == src).map(|&(e, _)| e).collect();
                let waits: Vec<EventId> =
                    from.get(pick as usize % from.len().max(1)).into_iter().copied().collect();
                sched.transfer(StreamId(s), 1000 * u64::from(1 + pick % 900), src, dst, &waits);
            }
            13 | 14 if two_devices => {
                // A random non-empty subset of the streams, in stream order.
                let members: Vec<usize> =
                    (0..streams).filter(|&m| m == s || (pick >> m) & 1 == 1).collect();
                for m in members {
                    sched.all_reduce(StreamId(m), 4096 * u64::from(1 + pick % 300), group);
                }
                group += 1;
            }
            _ => {
                sched.launch(StreamId(s), any_kernel(pick));
            }
        }
    }
    sched
}

/// Everything a run returns, floats as bits, reduced to one hash.
fn run_digest(r: &RunResult) -> u64 {
    let mut text = format!(
        "total={:016x} launches={} records={} overhead={:016x}\n",
        r.total_ns.to_bits(),
        r.num_launches,
        r.num_records,
        r.profiling_overhead_ns.to_bits()
    );
    let f = r.faults;
    let _ = writeln!(
        text,
        "faults={} {} {} {}",
        f.timing_spikes, f.launch_retries, f.alloc_retries, f.straggler_streams
    );
    let _ = writeln!(text, "events={}", r.event_ns.len());
    for (e, t) in r.event_ns.iter() {
        let _ = writeln!(text, "e{}={:016x}", e.0, t.to_bits());
    }
    for sp in &r.spans {
        let _ = writeln!(
            text,
            "{} s{} {:016x} {:016x} c{}",
            sp.label,
            sp.stream.0,
            sp.start_ns.to_bits(),
            sp.end_ns.to_bits(),
            sp.cmd_idx
        );
    }
    fnv1a64(text.as_bytes())
}

/// One line per clock, fault plan and span setting for case `label`.
fn case_lines(
    label: &str,
    seed: u64,
    sched: &Schedule,
    topo: Option<&Topology>,
    faults: &mut u32,
) -> Vec<String> {
    let dev = DeviceSpec::p100();
    let chaos = FaultPlan {
        spike_prob: 0.15,
        launch_fail_prob: 0.15,
        straggler_prob: 0.4,
        ..FaultPlan::chaos(seed)
    };
    let mut lines = Vec::new();
    for (clock, mode) in [("fixed", ClockMode::Fixed), ("boost", ClockMode::Autoboost { seed })] {
        for (fname, plan) in [("none", FaultPlan::none()), ("chaos", chaos)] {
            for (sname, spans) in [("spans", true), ("free", false)] {
                let mut engine = match topo {
                    Some(t) => Engine::with_topology(t, mode, plan, seed),
                    None => Engine::with_faults(&dev, mode, plan, seed),
                };
                if !spans {
                    engine = engine.without_spans();
                }
                let outcome = match engine.run(sched) {
                    Ok(r) => {
                        *faults |= u32::from(r.faults.timing_spikes > 0)
                            | u32::from(r.faults.launch_retries > 0) << 1
                            | u32::from(r.faults.alloc_retries > 0) << 2
                            | u32::from(r.faults.straggler_streams > 0) << 3;
                        format!("fnv={:016x}", run_digest(&r))
                    }
                    Err(e) => format!("err={:016x}", fnv1a64(e.to_string().as_bytes())),
                };
                lines.push(format!(
                    "{label} {clock}/{fname}/{sname} cmds={} {outcome}",
                    sched.cmds().len()
                ));
            }
        }
    }
    lines
}

fn all_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut faults = 0u32;
    let mut rng = Rng64::new(0xd16e);
    for case in 0..32u64 {
        let (streams, moves) = draw_case(&mut rng, 1, 1);
        let sched = random_schedule(streams, &moves);
        lines.extend(case_lines(&format!("small/{case:02}"), case, &sched, None, &mut faults));
    }
    for case in 0..8u64 {
        let streams = rng.gen_range_usize(2, 4);
        let moves: Vec<(u8, u8, u8)> = (0..rng.gen_range_usize(150, 300))
            .map(|_| {
                let what = rng.gen_range_u32(0, 15) as u8;
                // Mostly launches and records; a barrier now and then.
                let what = if what == 15 { 3 } else { what % 3 };
                (what, rng.gen_range_u32(0, 3) as u8, rng.gen_range_u32(0, 7) as u8)
            })
            .collect();
        let sched = random_schedule(streams, &moves);
        lines.extend(case_lines(&format!("long/{case:02}"), case, &sched, None, &mut faults));
    }
    for case in 0..24u64 {
        let sched = wild_schedule(&mut rng);
        lines.extend(case_lines(&format!("wild/{case:02}"), case, &sched, None, &mut faults));
    }
    for case in 0..16u64 {
        let sched = mixed_schedule(&mut rng, false);
        lines.extend(case_lines(&format!("mixed/{case:02}"), case, &sched, None, &mut faults));
    }
    let pcie = Topology::new(vec![DeviceSpec::p100(), DeviceSpec::v100()], LinkDesc::pcie3());
    let nvlink = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
    for case in 0..24u64 {
        let sched = mixed_schedule(&mut rng, true);
        let topo = if case % 2 == 0 { &pcie } else { &nvlink };
        lines.extend(case_lines(&format!("multi/{case:02}"), case, &sched, Some(topo), &mut faults));
    }
    assert_eq!(faults, 0b1111, "every fault class lands in some case");
    lines
}

#[test]
fn engine_digests_match_golden() {
    let got: String = all_lines().into_iter().map(|l| l + "\n").collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the digest fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test engine_digests",
            path.display()
        )
    });
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == want.lines().count(),
        "engine digests drifted ({} line(s)):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
