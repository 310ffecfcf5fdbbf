//! Static resource and performance linter for emitted schedules.
//!
//! `astra-verify` answers "is this schedule *correct*?"; this crate answers
//! "is it *executable and worth simulating*?". It reuses the verifier's
//! happens-before graph and diagnostics machinery (rule ids in the `lint-*`
//! namespace — see [`astra_verify::RuleId`]) for three analyses:
//!
//! 1. **Peak-memory accounting** — a live-interval sweep of placed buffers
//!    per device against [`DeviceSpec::mem_bytes`]. A device whose live set
//!    ever exceeds capacity gets a `lint-mem-capacity` error (the driver
//!    rejects the plan before simulating it); above
//!    [`OCCUPANCY_WARN_FRACTION`] of capacity it gets a `lint-mem-occupancy`
//!    advisory. `lint-mem-capacity` is the linter's only error-severity
//!    rule, so [`lint_memory`] alone decides whether a plan passes: the
//!    optimizer's admission runs only it, and [`lint`] runs it first.
//! 2. **Redundant-sync detection** — an event wait whose ordering is already
//!    implied by the rest of the happens-before graph (a transitively
//!    reducible edge) is reported as `lint-redundant-sync`, and
//!    [`elide_redundant_syncs`] rewrites the schedule without it. The
//!    rewrite is reachability-preserving (so it stays verify-clean) and
//!    keeps at least one wait per non-empty wait list (so the engine's
//!    per-command sync penalty — charged once for any non-empty list — is
//!    unchanged and the simulated cost stays bit-identical).
//! 3. **Critical-path lower bounds** — [`critical_path_floor`] propagates
//!    sound per-command duration floors (solo kernel cost plus launch
//!    overhead, link latency and bandwidth floors for transfers, ring
//!    all-reduce floors) along the happens-before critical path, and takes
//!    the max with the serial dispatch floor. The result never exceeds the
//!    simulated time; the lint report carries it as a diagnostic, and the
//!    optimizer never uses it to skip a candidate — it measures instead.
//!
//! The floor accepts an `observed` hook for profile-backed per-kernel
//! minima; the static [`KernelDesc::cost`] model (calibrated against the
//! paper's Table 1) is the baseline floor and the hook can only tighten it.
//!
//! [`DeviceSpec::mem_bytes`]: astra_gpu::DeviceSpec::mem_bytes
//! [`KernelDesc::cost`]: astra_gpu::KernelDesc::cost
//!
//! # Examples
//!
//! ```
//! use astra_gpu::{DeviceSpec, KernelDesc, Schedule, StreamId, Topology};
//! use astra_lint::{lint, LintOptions};
//!
//! let mut s = Schedule::new(2);
//! s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
//! let e = s.record(StreamId(0));
//! s.launch_after(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 }, &[e]);
//! let topo = Topology::single(DeviceSpec::p100());
//! let report = lint(&s, &topo, None, None, &LintOptions::default());
//! assert!(report.is_clean());
//! assert!(report.critical_path_floor_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod floor;
mod mem;
mod sync;

pub use floor::critical_path_floor;
pub use sync::elide_redundant_syncs;

use astra_gpu::{BufId, Cmd, Schedule, Topology};
use astra_verify::{AccessTable, Diagnostic, RuleId, Severity, VerifyReport};

/// Live-memory fraction above which `lint-mem-occupancy` fires.
pub const OCCUPANCY_WARN_FRACTION: f64 = 0.9;

/// Knobs for one lint pass.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Threads for the redundant-sync scan (the only super-linear pass).
    /// The report is identical at any worker count; 0 and 1 both mean
    /// single-threaded.
    pub workers: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { workers: 1 }
    }
}

/// Everything one lint pass found.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Findings (all in the `lint-*` rule namespace), rendered through the
    /// verifier's diagnostics machinery in canonical order.
    pub report: VerifyReport,
    /// Peak live placed bytes per device (index = device ordinal in the
    /// topology; zero without footprints or byte sizes).
    pub peak_bytes: Vec<u64>,
    /// Capacity of each device ([`astra_gpu::DeviceSpec::mem_bytes`]), for
    /// rendering occupancy.
    pub mem_bytes: Vec<u64>,
    /// Redundant event waits as `(command index, wait-list position)`
    /// pairs, in dispatch order — exactly the waits
    /// [`elide_redundant_syncs`] removes.
    pub redundant_waits: Vec<(usize, usize)>,
    /// Sound lower bound on the schedule's simulated wall-clock (ns).
    pub critical_path_floor_ns: f64,
}

impl LintReport {
    /// Whether the schedule passed: no error-severity findings.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.report.errors()
    }

    /// Stable line-oriented text: a summary line, one line per finding,
    /// then per-device peak-memory occupancy and the critical-path floor.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "linted {} commands: {} error(s), {} other finding(s)",
            self.report.cmds_checked,
            self.errors(),
            self.report.diagnostics.len() - self.errors(),
        );
        for d in &self.report.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        for (d, (&peak, &cap)) in self.peak_bytes.iter().zip(&self.mem_bytes).enumerate() {
            let pct = if cap == 0 { 0.0 } else { peak as f64 / cap as f64 * 100.0 };
            let _ = writeln!(out, "peak memory d{d}: {peak} / {cap} bytes ({pct:.1}%)");
        }
        let _ = writeln!(out, "critical-path floor: {:.1} ns", self.critical_path_floor_ns);
        out
    }

    /// Machine-readable JSON (hand-rolled; the workspace has no external
    /// dependencies). The verifier-shaped diagnostics nest under `report`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"clean\":{},\"peak_bytes\":[", self.is_clean());
        for (i, p) in self.peak_bytes.iter().enumerate() {
            let _ = write!(out, "{}{p}", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"mem_bytes\":[");
        for (i, c) in self.mem_bytes.iter().enumerate() {
            let _ = write!(out, "{}{c}", if i > 0 { "," } else { "" });
        }
        let _ = write!(
            out,
            "],\"redundant_syncs\":{},\"critical_path_floor_ns\":{:.1},\"report\":{}}}",
            self.redundant_waits.len(),
            self.critical_path_floor_ns,
            self.report.to_json(),
        );
        out
    }
}

/// The findings of the peak-memory analysis alone.
#[derive(Debug, Clone)]
pub struct MemoryLint {
    /// `lint-mem-capacity` errors and `lint-mem-occupancy` advisories, in
    /// device order.
    pub diagnostics: Vec<Diagnostic>,
    /// Peak live placed bytes per device (zero without footprints or byte
    /// sizes).
    pub peak_bytes: Vec<u64>,
    /// Capacity of each device ([`astra_gpu::DeviceSpec::mem_bytes`]).
    pub mem_bytes: Vec<u64>,
}

impl MemoryLint {
    /// Number of error-severity findings: the devices over capacity. A
    /// schedule passes the linter exactly when this is zero.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }
}

/// Runs the peak-memory analysis alone (analysis 1 above): the only lint
/// with an error-severity rule, so its [`MemoryLint::errors`] equal
/// [`lint`]'s on every schedule. Skips the redundant-sync scan and the
/// critical-path floor.
///
/// `access` supplies per-command buffer footprints and `buf_bytes` resolves
/// a buffer to its placed size; without either, every peak is zero.
///
/// # Panics
///
/// Panics if `access` is present but sized for a different schedule —
/// that is a caller bug, not a schedule defect.
pub fn lint_memory(
    sched: &Schedule,
    topo: &Topology,
    access: Option<&AccessTable>,
    buf_bytes: Option<&dyn Fn(BufId) -> u64>,
) -> MemoryLint {
    if let Some(a) = access {
        assert_eq!(
            a.len(),
            sched.cmds().len(),
            "access table must cover exactly the schedule's commands"
        );
    }
    let mem_bytes: Vec<u64> = topo.devices().iter().map(|d| d.mem_bytes).collect();
    let scan = match (access, buf_bytes) {
        (Some(a), Some(b)) => mem::scan(sched, a, b, topo.num_devices()),
        _ => mem::MemScan::empty(topo.num_devices()),
    };
    let mut diagnostics = Vec::new();
    for (d, (&peak, &cap)) in scan.peaks.iter().zip(&mem_bytes).enumerate() {
        let rule = if peak > cap {
            RuleId::LintMemCapacity
        } else if peak as f64 > cap as f64 * OCCUPANCY_WARN_FRACTION {
            RuleId::LintMemOccupancy
        } else {
            continue;
        };
        let cmds: Vec<usize> = scan.peak_cmd[d].into_iter().collect();
        let labels: Vec<String> = cmds.iter().filter_map(|&c| sched.span_label(c)).collect();
        let pct = if cap == 0 { f64::INFINITY } else { peak as f64 / cap as f64 * 100.0 };
        diagnostics.push(Diagnostic::new(
            rule,
            cmds,
            labels,
            format!(
                "device {d} ({}): peak live {peak} bytes of {cap} capacity ({pct:.1}%)",
                topo.device(d).name
            ),
        ));
    }
    MemoryLint { diagnostics, peak_bytes: scan.peaks, mem_bytes }
}

/// Runs every applicable lint over one schedule.
///
/// `access` supplies per-command buffer footprints and `buf_bytes` resolves
/// a buffer to its placed size; the peak-memory analysis needs both and is
/// skipped (peaks report zero) without either. The redundant-sync scan and
/// the critical-path floor always run.
///
/// # Panics
///
/// Panics if `access` is present but sized for a different schedule —
/// that is a caller bug, not a schedule defect.
pub fn lint(
    sched: &Schedule,
    topo: &Topology,
    access: Option<&AccessTable>,
    buf_bytes: Option<&dyn Fn(BufId) -> u64>,
    opts: &LintOptions,
) -> LintReport {
    let MemoryLint { mut diagnostics, peak_bytes, mem_bytes } =
        lint_memory(sched, topo, access, buf_bytes);

    let redundant_waits = sync::find_redundant(sched, opts.workers.max(1));
    for &(cmd, pos) in &redundant_waits {
        let (event, record) = sync::wait_source(sched, cmd, pos);
        let mut cmds = vec![record, cmd];
        cmds.sort_unstable();
        let labels: Vec<String> = cmds.iter().filter_map(|&c| sched.span_label(c)).collect();
        diagnostics.push(Diagnostic::new(
            RuleId::LintRedundantSync,
            cmds,
            labels,
            format!("wait on e{} is already implied by other happens-before edges", event.0),
        ));
    }

    let critical_path_floor_ns = floor::critical_path_floor(sched, topo, &|_, _| None);

    diagnostics.sort_by_key(|d| d.sort_key());
    LintReport {
        report: VerifyReport {
            diagnostics,
            cmds_checked: sched.cmds().len(),
            hazard_pairs_checked: 0,
        },
        peak_bytes,
        mem_bytes,
        redundant_waits,
        critical_path_floor_ns,
    }
}

/// Per-command device index: the stream's device for stream-bound
/// commands, `None` for barriers and host syncs.
pub(crate) fn device_of(sched: &Schedule, idx: usize) -> Option<usize> {
    match &sched.cmds()[idx] {
        Cmd::Launch { stream, .. }
        | Cmd::Record { stream, .. }
        | Cmd::Transfer { stream, .. }
        | Cmd::AllReduce { stream, .. } => Some(sched.stream_devices()[stream.0]),
        Cmd::Barrier | Cmd::HostSync => None,
    }
}
