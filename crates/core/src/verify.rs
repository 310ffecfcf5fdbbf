//! Glue between the wirer and the static schedule verifier: turns the unit
//! tags [`emit_schedule`](crate::emit_schedule) leaves on a schedule into
//! the per-command [`AccessTable`] `astra-verify` needs, and bundles the
//! allocation plan alongside. Both are built once per plan
//! ([`PlanFootprint`]) and shared by the verifier and the linter.

use astra_gpu::{AllocationPlan, BufId, Cmd, Schedule, Topology};
use astra_verify::{AccessRef, AccessTable, VerifyOptions, VerifyReport};

use crate::plan::{build_allocation_plan, ExecConfig, PlanContext, Unit};

/// Buffer-id stride separating per-device replica footprints in the access
/// table. Data-parallel emission replicates every unit once per device;
/// replicas of the *same* buffer on *different* devices live in different
/// memories and must not alias, so device `d`'s copy of buffer `b` is
/// presented to the verifier as `b + d * REPLICA_BUF_STRIDE`. The stride
/// sits far above both lowered tensor buffers and the synthetic range at
/// [`SYNTHETIC_BUF_BASE`](crate::plan::SYNTHETIC_BUF_BASE).
pub const REPLICA_BUF_STRIDE: u64 = 1 << 40;

/// Builds the per-command access table for a schedule emitted from `units`.
/// Every tagged command (the wirer tags kernel launches and their gather
/// copies with the unit index) gets that unit's read/write footprint;
/// untagged commands (records, barriers, host syncs, probes, transfers)
/// carry none. Commands of the same unit share one interned footprint.
///
/// When the same unit tag appears on more than one device — data-parallel
/// replication — each device's replica gets its own footprint, with buffer
/// ids offset by device ([`REPLICA_BUF_STRIDE`]): replica state is private
/// per device and must not produce cross-device aliasing diagnostics.
/// Model-parallel schedules place each unit on exactly one device and keep
/// the original buffer ids, so cross-device dataflow *is* checked for
/// interposed transfers.
///
/// # Panics
///
/// Panics if a tag indexes past `units` — that means the schedule was
/// emitted from a different unit vector.
pub fn access_table(units: &[Unit], sched: &Schedule) -> AccessTable {
    let mut table = AccessTable::new(sched.cmds().len());
    let devs = sched.stream_devices();
    let dev_of = |i: usize| -> usize {
        match &sched.cmds()[i] {
            Cmd::Launch { stream, .. } | Cmd::Transfer { stream, .. } => devs[stream.0],
            _ => 0,
        }
    };
    let mut home: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut replicated = false;
    for (i, tag) in sched.tags().iter().enumerate() {
        if let Some(t) = tag {
            let d = dev_of(i);
            if *home.entry(*t).or_insert(d) != d {
                replicated = true;
            }
        }
    }
    if !replicated {
        let mut interned: Vec<Option<AccessRef>> = vec![None; units.len()];
        for (i, tag) in sched.tags().iter().enumerate() {
            let Some(u) = tag else { continue };
            let u = *u as usize;
            let r = *interned[u]
                .get_or_insert_with(|| table.intern_slices(&units[u].reads, &units[u].writes));
            table.assign(i, r);
        }
    } else {
        let mut interned: std::collections::HashMap<(usize, usize), AccessRef> =
            std::collections::HashMap::new();
        for (i, tag) in sched.tags().iter().enumerate() {
            let Some(u) = tag else { continue };
            let u = *u as usize;
            let d = dev_of(i);
            let r = *interned.entry((u, d)).or_insert_with(|| {
                if d == 0 {
                    table.intern_slices(&units[u].reads, &units[u].writes)
                } else {
                    let off = |b: &BufId| BufId(b.0 + REPLICA_BUF_STRIDE * d as u64);
                    let reads: Vec<BufId> = units[u].reads.iter().map(off).collect();
                    let writes: Vec<BufId> = units[u].writes.iter().map(off).collect();
                    table.intern_slices(&reads, &writes)
                }
            });
            table.assign(i, r);
        }
    }
    table
}

/// What the static checks of one emitted plan share: the allocation plan
/// `cfg`'s strategy produces and the schedule's per-command access table.
/// Admission builds it once per plan for both the verifier and the linter.
pub(crate) struct PlanFootprint {
    plan: AllocationPlan,
    access: AccessTable,
}

impl PlanFootprint {
    pub(crate) fn new(
        ctx: &PlanContext<'_>,
        cfg: &ExecConfig,
        units: &[Unit],
        sched: &Schedule,
    ) -> Self {
        PlanFootprint { plan: build_allocation_plan(ctx, cfg), access: access_table(units, sched) }
    }

    /// The verifier's report on `sched` (see [`verify_plan`]).
    pub(crate) fn verify(&self, sched: &Schedule, workers: usize) -> VerifyReport {
        let opts = VerifyOptions { workers };
        astra_verify::verify(sched, Some(&self.access), Some(&self.plan), &opts)
    }

    /// A buffer's placed size. Per-device replica ids (offset by
    /// [`REPLICA_BUF_STRIDE`]) resolve to their base buffer's placement,
    /// so a replicated buffer is charged its placed size on every device
    /// holding a copy.
    fn buf_bytes(&self, b: BufId) -> u64 {
        let base = BufId(b.0 % REPLICA_BUF_STRIDE);
        self.plan.placement(base).map_or(0, |p| p.bytes)
    }

    /// The full lint report on `sched` (see [`lint_plan`]).
    pub(crate) fn lint(
        &self,
        sched: &Schedule,
        topo: &Topology,
        workers: usize,
    ) -> astra_lint::LintReport {
        astra_lint::lint(
            sched,
            topo,
            Some(&self.access),
            Some(&|b| self.buf_bytes(b)),
            &astra_lint::LintOptions { workers },
        )
    }

    /// Whether `sched` passes the linter: the peak-memory analysis alone
    /// ([`astra_lint::lint_memory`]), whose error count is the full
    /// report's.
    pub(crate) fn lint_admits(&self, sched: &Schedule, topo: &Topology) -> bool {
        let mem = astra_lint::lint_memory(
            sched,
            topo,
            Some(&self.access),
            Some(&|b| self.buf_bytes(b)),
        );
        mem.errors() == 0
    }
}

/// Statically verifies one candidate plan: the emitted `sched` against the
/// unit footprints and the allocation plan `cfg`'s strategy produces.
/// `workers` threads scan for hazards (the report is identical at any
/// count).
pub fn verify_plan(
    ctx: &PlanContext<'_>,
    cfg: &ExecConfig,
    units: &[Unit],
    sched: &Schedule,
    workers: usize,
) -> VerifyReport {
    PlanFootprint::new(ctx, cfg, units, sched).verify(sched, workers)
}

/// Statically lints one candidate plan (see [`astra_lint::lint`]): peak
/// live memory per device against `topo`'s capacities, redundant event
/// waits, and the critical-path lower bound. Buffer sizes come from the
/// allocation plan `cfg`'s strategy produces; per-device replica ids
/// (offset by [`REPLICA_BUF_STRIDE`]) resolve to their base buffer's
/// placement, so a replicated buffer is charged its placed size on every
/// device holding a copy.
pub fn lint_plan(
    ctx: &PlanContext<'_>,
    cfg: &ExecConfig,
    units: &[Unit],
    sched: &Schedule,
    topo: &Topology,
    workers: usize,
) -> astra_lint::LintReport {
    PlanFootprint::new(ctx, cfg, units, sched).lint(sched, topo, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_units, emit_schedule, ProbeSpec};

    fn tiny_model() -> astra_models::BuiltModel {
        use astra_models::{Model, ModelConfig};
        let cfg = ModelConfig {
            seq_len: 4,
            hidden: 64,
            input: 64,
            vocab: 128,
            ..ModelConfig::ptb(8)
        };
        Model::SubLstm.build(&cfg)
    }

    #[test]
    fn baseline_schedule_verifies_clean() {
        let built = tiny_model();
        let ctx = PlanContext::new(&built.graph);
        let cfg = ExecConfig::baseline();
        let units = build_units(&ctx, &cfg).unwrap();
        let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
        let report = verify_plan(&ctx, &cfg, &units, &sched, 1);
        assert!(report.is_clean(), "baseline must verify clean:\n{}", report.render());
        assert_eq!(report.cmds_checked, sched.cmds().len());
    }

    #[test]
    fn access_table_covers_every_launch() {
        let built = tiny_model();
        let ctx = PlanContext::new(&built.graph);
        let cfg = ExecConfig::baseline();
        let units = build_units(&ctx, &cfg).unwrap();
        let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
        let table = access_table(&units, &sched);
        for (i, cmd) in sched.cmds().iter().enumerate() {
            let is_launch = matches!(cmd, astra_gpu::Cmd::Launch { .. });
            assert_eq!(
                table.get(i).is_some(),
                is_launch,
                "cmd {i}: exactly the launches carry footprints"
            );
        }
    }

    #[test]
    fn lint_admission_matches_the_full_lint_verdict() {
        // At the device's real capacity every tiny plan fits; at 64 KiB
        // none does. The memory scan alone must agree with the full
        // report both ways.
        let built = tiny_model();
        let ctx = PlanContext::new(&built.graph);
        let cfg = ExecConfig::baseline();
        let units = build_units(&ctx, &cfg).unwrap();
        let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
        let footprint = PlanFootprint::new(&ctx, &cfg, &units, &sched);
        for mem_bytes in [astra_gpu::DeviceSpec::p100().mem_bytes, 64 << 10] {
            let dev = astra_gpu::DeviceSpec { mem_bytes, ..astra_gpu::DeviceSpec::p100() };
            let topo = Topology::single(dev);
            let full = lint_plan(&ctx, &cfg, &units, &sched, &topo, 1);
            assert_eq!(footprint.lint_admits(&sched, &topo), full.errors() == 0, "{mem_bytes}");
            assert_eq!(full.errors() == 0, mem_bytes > 64 << 10);
        }
    }

    #[test]
    fn dropping_a_cross_stream_wait_is_caught() {
        // Emit a 2-stream schedule, then strip the waits off a launch that
        // has some: the verifier must flag the unordered hazard.
        use astra_gpu::{Cmd, Schedule};
        let built = tiny_model();
        let ctx = PlanContext::new(&built.graph);
        let units = build_units(&ctx, &ExecConfig::baseline()).unwrap();
        let mut cfg = ExecConfig::baseline();
        cfg.num_streams = 2;
        for (i, u) in units.iter().enumerate() {
            cfg.streams.insert(u.id, i % 2);
        }
        let units = build_units(&ctx, &cfg).unwrap();
        let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
        let report = verify_plan(&ctx, &cfg, &units, &sched, 1);
        assert!(report.is_clean(), "2-stream emission must be clean:\n{}", report.render());

        // Mutate: rebuild the schedule without the first non-empty wait.
        let mut dropped = Schedule::new(sched.num_streams());
        let mut stripped = false;
        for (i, cmd) in sched.cmds().iter().enumerate() {
            match *cmd {
                Cmd::Launch { stream, kernel, waits } => {
                    let waits = if !stripped && !waits.is_empty() {
                        stripped = true;
                        &[]
                    } else {
                        sched.waits(waits)
                    };
                    let c = dropped.launch_after(stream, kernel, waits);
                    if let Some(t) = sched.tags()[i] {
                        dropped.set_tag(c, t);
                    }
                }
                Cmd::Record { stream, .. } => {
                    let _ = dropped.record(stream);
                }
                Cmd::Barrier => dropped.barrier(),
                Cmd::HostSync => dropped.host_sync(),
                Cmd::Transfer { stream, bytes, src, dst, waits } => {
                    let _ = dropped.transfer(stream, bytes, src, dst, sched.waits(waits));
                }
                Cmd::AllReduce { stream, bytes, group } => {
                    let _ = dropped.all_reduce(stream, bytes, group);
                }
            }
        }
        assert!(stripped, "fixture needs at least one cross-stream wait");
        let mutated = verify_plan(&ctx, &cfg, &units, &dropped, 1);
        assert!(!mutated.is_clean(), "dropping a wait must be caught");
    }
}
