//! Negative suite: every `lint-*` rule id fires on a purpose-built
//! schedule — every report is bit-identical at any worker count, and the
//! memory scan alone reaches the full report's verdict.

use astra_gpu::{BufId, DeviceSpec, KernelDesc, Schedule, StreamId, Topology};
use astra_lint::{lint, lint_memory, LintOptions, LintReport};
use astra_verify::{AccessTable, RuleId, Severity};

fn copy(bytes: f64) -> KernelDesc {
    KernelDesc::MemCopy { bytes }
}

fn small_device(mem_bytes: u64) -> Topology {
    let mut d = DeviceSpec::p100();
    d.mem_bytes = mem_bytes;
    Topology::single(d)
}

/// Lints at one worker and at 0 and 4, asserts the rendered and JSON
/// reports are bit-identical and that the memory scan alone gives the same
/// error count and peaks, and returns the single-worker report.
fn lint_invariant(
    sched: &Schedule,
    topo: &Topology,
    access: Option<&AccessTable>,
    buf_bytes: Option<&dyn Fn(BufId) -> u64>,
) -> LintReport {
    let one = lint(sched, topo, access, buf_bytes, &LintOptions { workers: 1 });
    for workers in [0, 4] {
        let other = lint(sched, topo, access, buf_bytes, &LintOptions { workers });
        assert_eq!(one.render(), other.render(), "report depends on workers = {workers}");
        assert_eq!(one.to_json(), other.to_json(), "JSON depends on workers = {workers}");
    }
    let mem = lint_memory(sched, topo, access, buf_bytes);
    assert_eq!(mem.errors(), one.errors(), "the memory scan alone decides the verdict");
    assert_eq!(mem.peak_bytes, one.peak_bytes);
    one
}

/// Admission runs only the memory scan: that is sound while
/// `lint-mem-capacity` is the only lint rule with error severity.
#[test]
fn lint_mem_capacity_is_the_only_error_severity_lint_rule() {
    for rule in [RuleId::LintMemCapacity, RuleId::LintMemOccupancy, RuleId::LintRedundantSync] {
        assert_eq!(rule.severity() == Severity::Error, rule == RuleId::LintMemCapacity, "{rule}");
    }
}

#[test]
fn lint_mem_capacity_fires_on_an_oversubscribed_device() {
    let mut s = Schedule::new(1);
    s.launch(StreamId(0), copy(1.0));
    let mut access = AccessTable::new(s.cmds().len());
    // Two 600-byte buffers live at the same command on a 1000-byte device.
    let a = access.intern_slices(&[BufId(0), BufId(1)], &[]);
    access.assign(0, a);
    let topo = small_device(1000);
    let report =
        lint_invariant(&s, &topo, Some(&access), Some(&|_| 600));
    assert_eq!(report.errors(), 1, "over-capacity must be an error");
    assert!(!report.is_clean());
    assert_eq!(report.peak_bytes, vec![1200]);
    assert!(report.render().contains("lint-mem-capacity"), "{}", report.render());
}

#[test]
fn lint_mem_occupancy_warns_above_ninety_percent() {
    let mut s = Schedule::new(1);
    s.launch(StreamId(0), copy(1.0));
    let mut access = AccessTable::new(s.cmds().len());
    let a = access.intern_slices(&[BufId(0)], &[]);
    access.assign(0, a);
    let topo = small_device(1000);
    // 950 of 1000 bytes: above the 90% advisory line, below capacity.
    let report = lint_invariant(&s, &topo, Some(&access), Some(&|_| 950));
    assert_eq!(report.errors(), 0, "occupancy is advisory, not an error");
    assert!(report.is_clean());
    assert!(report.render().contains("lint-mem-occupancy"), "{}", report.render());
}

#[test]
fn lint_redundant_sync_fires_on_a_stream_order_implied_wait() {
    let mut s = Schedule::new(2);
    s.launch(StreamId(0), copy(1.0));
    let e_same = s.record(StreamId(0));
    s.launch(StreamId(1), copy(1.0));
    let e_cross = s.record(StreamId(1));
    // The same-stream wait is implied by FIFO order; the cross-stream one
    // is load-bearing and keeps the list non-empty (the pass never empties
    // a wait list, so a lone implied wait would be kept, not reported).
    s.launch_after(StreamId(0), copy(1.0), &[e_same, e_cross]);
    let topo = Topology::single(DeviceSpec::p100());
    let report = lint_invariant(&s, &topo, None, None);
    assert_eq!(report.errors(), 0, "redundant syncs are advisories");
    assert_eq!(report.redundant_waits.len(), 1);
    assert!(report.render().contains("lint-redundant-sync"), "{}", report.render());
}

#[test]
fn a_clean_schedule_reports_nothing() {
    let mut s = Schedule::new(2);
    s.launch(StreamId(0), copy(1.0));
    let e = s.record(StreamId(0));
    // Cross-stream wait with no other ordering: genuinely necessary.
    s.launch_after(StreamId(1), copy(1.0), &[e]);
    let mut access = AccessTable::new(s.cmds().len());
    let a = access.intern_slices(&[BufId(0)], &[]);
    access.assign(0, a);
    let topo = small_device(1 << 20);
    let report = lint_invariant(&s, &topo, Some(&access), Some(&|_| 64));
    assert!(report.is_clean());
    assert!(report.redundant_waits.is_empty());
    for rule in ["lint-mem-capacity", "lint-mem-occupancy", "lint-redundant-sync"] {
        assert!(!report.render().contains(rule), "unexpected {rule}: {}", report.render());
    }
    assert!(report.critical_path_floor_ns > 0.0);
}
