//! The four exploration phases, as [`Phase`] implementations.
//!
//! [`Astra::run_phase`] owns everything the phases share; each phase here
//! only says what varies — its variables and profile keys, how a choice
//! lands in a configuration (or, for the stream phase, in a per-unit
//! stream vector), where its units come from, and what its probes
//! measure. Whether a run is suspect is not the phase's call: only a
//! reported fault marks one, in every phase.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use astra_gpu::{GemmLibrary, GemmShape, RunResult};
use astra_predict::FeatureVec;

use super::Astra;
use crate::adaptive::{ExploreMode, UpdateNode, UpdateTree};
use crate::enumerate::epochs::{
    epoch_choices, partition_units, write_streams, EpochAssignment, Partition,
};
use crate::error::AstraError;
use crate::parallel::parallel_map;
use crate::plan::{
    bind_libs, candidate_features, epoch_features, fusion_features, gradient_sync_bytes,
    kernel_features, placement_candidates, placement_features, DevicePlacement, ExecConfig,
    PlanCache, PlanContext, PlanKey, ProbeSpec, Probes, Unit, UnitId,
};
use crate::profile::{ProfileIndex, ProfileKey};

/// One adaptive variable of a phase: its update-tree id and slot, and the
/// profile key each of its choices is measured under.
pub(super) struct PhaseVar {
    pub id: String,
    pub slot: usize,
    pub keys: Vec<ProfileKey>,
}

/// A phase with the update tree that explores its variables, or `None`
/// when nothing is left to explore.
pub(super) type Space<P> = Option<(P, UpdateTree)>;

/// What one exploration phase supplies to the shared trial pipeline
/// ([`Astra::run_phase`]). A variable's position in [`Phase::vars`] is its
/// variable index (`vidx`) in every method.
pub(super) trait Phase {
    /// Names the phase's predictor model and its quarantine marks.
    const KIND: &'static str;

    /// The variables under exploration, in variable-index order.
    fn vars(&self) -> &[PhaseVar];

    /// Applies one trial's choices, one per variable, to `cfg`. The driver
    /// calls it for the phase's winner; a trial goes through
    /// [`Phase::prepare`], whose default applies it to a copy.
    fn materialize(&self, cfg: &mut ExecConfig, pick: &[usize]);

    /// One trial's configuration, and its per-unit stream vector when the
    /// phase resolves streams itself (the configuration's stream map is
    /// then left as it was, and the vector indexes the phase's units). By
    /// default: `cfg` with `pick` materialized, and no vector.
    fn prepare(&self, cfg: &ExecConfig, pick: &[usize]) -> (ExecConfig, Option<Vec<usize>>) {
        let mut c = cfg.clone();
        self.materialize(&mut c, pick);
        (c, None)
    }

    /// Each candidate's clean unit geometry; `None` marks a candidate whose
    /// geometry does not build.
    fn units(
        &self,
        astra: &mut Astra<'_>,
        cfgs: &[ExecConfig],
    ) -> Result<Vec<Option<Arc<[Unit]>>>, AstraError>;

    /// The probes every candidate schedule carries.
    fn probe_spec(&self) -> &ProbeSpec;

    /// The super-epoch partition candidates are emitted under, if any.
    fn partition(&self) -> Option<&Partition> {
        None
    }

    /// The variables a batch's predictor features cover, in index order.
    fn active(&self, _picks: &[Vec<usize>]) -> Vec<usize> {
        (0..self.vars().len()).collect()
    }

    /// Predictor features of choice `choice` of variable `v` in `cfg`.
    fn features(
        &self,
        ctx: &PlanContext<'_>,
        cfg: &ExecConfig,
        v: usize,
        choice: usize,
    ) -> Rc<FeatureVec>;

    /// The per-variable metrics `(vidx, ns)` one run measured, in commit
    /// order (the predictor trains in this order).
    fn decode(&self, probes: &Probes, r: &RunResult) -> Vec<(usize, f64)>;

    /// Features that train the predictor, at a zero prediction, on a
    /// committed metric of a variable outside the batch's active set.
    fn frozen_feature(&self, _v: usize, _choice: usize) -> Option<&FeatureVec> {
        None
    }
}

/// A profile key for choice `choice` of `entity`, under each context that
/// is set (innermost first).
fn phase_key(entity: String, choice: usize, contexts: [Option<&str>; 2]) -> ProfileKey {
    contexts.into_iter().flatten().fold(ProfileKey::entity(entity, choice), ProfileKey::in_context)
}

/// The best choice among `keys` when every one is already indexed (from a
/// previous strategy or session): such a variable is decided from the
/// profile index instead of explored.
fn indexed_best(index: &ProfileIndex, keys: &[ProfileKey]) -> Option<usize> {
    if !keys.iter().all(|k| index.contains(k)) {
        return None;
    }
    index.best_choice(|c| keys[c].clone(), keys.len()).map(|(c, _)| c)
}

/// A parallel update tree over `vars` (one trial advances every variable),
/// filling in each variable's slot; `None` when `vars` is empty.
fn parallel_tree(vars: &mut [PhaseVar]) -> Option<UpdateTree> {
    if vars.is_empty() {
        return None;
    }
    let nodes = vars.iter().map(|v| UpdateNode::var(v.id.clone(), v.keys.len())).collect();
    let tree = UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, nodes));
    for v in vars.iter_mut() {
        v.slot = tree.slot(&v.id).expect("every variable is in the tree");
    }
    Some(tree)
}

/// Phase F: every fusion set's (row chunk, col chunk) choice, explored in
/// parallel. Candidates differ in geometry, so each batch builds its units
/// through the plan cache.
pub(super) struct FusionPhase {
    vars: Vec<PhaseVar>,
    /// Per variable: the set's index in `ctx.sets` and its chunk choices.
    sets: Vec<(usize, Vec<(usize, usize)>)>,
    /// Index in `ctx.sets` → variable index.
    var_of: BTreeMap<usize, usize>,
    probes: ProbeSpec,
    topo_fp: u64,
}

impl FusionPhase {
    /// Sets whose every choice is already indexed are fixed in `cfg`
    /// instead of explored.
    pub fn new(astra: &Astra<'_>, cfg: &mut ExecConfig, strat_ctx: Option<&str>) -> Space<Self> {
        let ctx = &astra.ctx;
        let mut vars = Vec::new();
        let mut sets = Vec::new();
        for (si, set) in ctx.sets.iter().enumerate() {
            let choices: Vec<(usize, usize)> = set
                .row_chunks()
                .into_iter()
                .flat_map(|rc| set.col_chunks().into_iter().map(move |cc| (rc, cc)))
                .collect();
            // Sets that conflict under some allocation strategy measure
            // differently per strategy.
            let strat = strat_ctx.filter(|_| ctx.alloc.conflicted_sets.contains(&set.id));
            let contexts = [strat, astra.opts.key_context.as_deref()];
            let keys: Vec<ProfileKey> = (0..choices.len())
                .map(|c| phase_key(format!("fuse:{}", set.id), c, contexts))
                .collect();
            match indexed_best(&astra.index, &keys) {
                Some(best) => {
                    cfg.chunks.insert(set.id.clone(), choices[best]);
                }
                None => {
                    vars.push(PhaseVar { id: set.id.clone(), slot: 0, keys });
                    sets.push((si, choices));
                }
            }
        }
        let tree = parallel_tree(&mut vars)?;
        let var_of = sets.iter().enumerate().map(|(v, &(si, _))| (si, v)).collect();
        let probes = ProbeSpec::fusion_sets();
        Some((FusionPhase { vars, sets, var_of, probes, topo_fp: astra.topo_fp() }, tree))
    }
}

impl Phase for FusionPhase {
    const KIND: &'static str = "fuse";

    fn vars(&self) -> &[PhaseVar] {
        &self.vars
    }

    fn materialize(&self, cfg: &mut ExecConfig, pick: &[usize]) {
        for ((var, (_, choices)), &c) in self.vars.iter().zip(&self.sets).zip(pick) {
            cfg.chunks.insert(var.id.clone(), choices[c]);
        }
    }

    /// Hits and misses are counted in candidate order, so the counters are
    /// deterministic; the batch's missing geometries then build through
    /// [`parallel_map`].
    fn units(
        &self,
        astra: &mut Astra<'_>,
        cfgs: &[ExecConfig],
    ) -> Result<Vec<Option<Arc<[Unit]>>>, AstraError> {
        let keys: Vec<PlanKey> = cfgs.iter().map(|c| PlanCache::key(&astra.ctx, c)).collect();
        let mut to_build: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if astra.plan_cache.contains(key) || to_build.iter().any(|&j| keys[j] == *key) {
                astra.plan_cache.count_hit();
            } else {
                astra.plan_cache.count_miss();
                to_build.push(i);
            }
        }
        let ctx = &astra.ctx;
        let built = parallel_map(astra.workers(), &to_build, |_, &i| {
            PlanCache::build_structural(ctx, &cfgs[i])
        });
        for (&i, r) in to_build.iter().zip(built) {
            astra.plan_cache.insert(keys[i].clone(), r);
        }
        Ok(keys
            .iter()
            .zip(cfgs)
            .map(|(key, c)| match astra.plan_cache.get(key).expect("batch keys are built") {
                Ok(u) => Some(bind_libs(u, c)),
                Err(_) => None,
            })
            .collect())
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    fn features(
        &self,
        ctx: &PlanContext<'_>,
        cfg: &ExecConfig,
        v: usize,
        choice: usize,
    ) -> Rc<FeatureVec> {
        let (si, choices) = &self.sets[v];
        let (rc, cc) = choices[choice];
        Rc::new(fusion_features(cfg, self.topo_fp, &ctx.sets[*si], rc, cc))
    }

    /// A set's metric: its first block's probe region, scaled by the
    /// set's block count.
    fn decode(&self, probes: &Probes, r: &RunResult) -> Vec<(usize, f64)> {
        probes
            .set_regions
            .iter()
            .filter_map(|&(si, nblocks, start, end)| {
                let v = *self.var_of.get(&si)?;
                r.elapsed(start, end).map(|dt| (v, dt.max(0.0) * nblocks as f64))
            })
            .collect()
    }
}

/// Phase K: the kernel library of every realized GEMM shape, explored in
/// parallel. Candidates share the phase's geometry; `units_for` binds each
/// candidate's libraries into it.
pub(super) struct KernelPhase {
    vars: Vec<PhaseVar>,
    /// Per variable: the GEMM shape it picks a library for.
    shapes: Vec<GemmShape>,
    var_of: BTreeMap<GemmShape, usize>,
    probes: ProbeSpec,
    topo_fp: u64,
}

impl KernelPhase {
    /// Shapes whose every library is already indexed are fixed in `cfg`
    /// instead of explored.
    pub fn new(astra: &mut Astra<'_>, cfg: &mut ExecConfig) -> Result<Space<Self>, AstraError> {
        let units = astra.plan_cache.units_for(&astra.ctx, cfg)?;
        let mut all: Vec<GemmShape> = units.iter().filter_map(|u| u.gemm_shape).collect();
        all.sort_unstable();
        all.dedup();
        let mut vars = Vec::new();
        let mut shapes = Vec::new();
        for shape in all {
            // Kernel timings depend only on (shape, lib): context-free keys.
            let keys: Vec<ProfileKey> = (0..GemmLibrary::all().len())
                .map(|c| ProfileKey::entity(format!("kern:{shape}"), c))
                .collect();
            match indexed_best(&astra.index, &keys) {
                Some(best) => {
                    cfg.libs.insert(shape, GemmLibrary::all()[best]);
                }
                None => {
                    vars.push(PhaseVar { id: format!("{shape}"), slot: 0, keys });
                    shapes.push(shape);
                }
            }
        }
        let Some(tree) = parallel_tree(&mut vars) else {
            return Ok(None);
        };
        let var_of = shapes.iter().enumerate().map(|(v, &s)| (s, v)).collect();
        let probes = ProbeSpec::gemm_shapes();
        Ok(Some((KernelPhase { vars, shapes, var_of, probes, topo_fp: astra.topo_fp() }, tree)))
    }
}

impl Phase for KernelPhase {
    const KIND: &'static str = "kern";

    fn vars(&self) -> &[PhaseVar] {
        &self.vars
    }

    fn materialize(&self, cfg: &mut ExecConfig, pick: &[usize]) {
        for (&shape, &c) in self.shapes.iter().zip(pick) {
            cfg.libs.insert(shape, GemmLibrary::all()[c]);
        }
    }

    /// Every request after the phase's first is a plan-cache hit.
    fn units(
        &self,
        astra: &mut Astra<'_>,
        cfgs: &[ExecConfig],
    ) -> Result<Vec<Option<Arc<[Unit]>>>, AstraError> {
        cfgs.iter().map(|c| astra.plan_cache.units_for(&astra.ctx, c).map(Some)).collect()
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    fn features(
        &self,
        _ctx: &PlanContext<'_>,
        cfg: &ExecConfig,
        v: usize,
        choice: usize,
    ) -> Rc<FeatureVec> {
        Rc::new(kernel_features(cfg, self.topo_fp, self.shapes[v], GemmLibrary::all()[choice]))
    }

    /// A shape's metric: its first occurrence's probe region.
    fn decode(&self, probes: &Probes, r: &RunResult) -> Vec<(usize, f64)> {
        probes
            .shape_regions
            .iter()
            .filter_map(|&(shape, start, end)| {
                let v = *self.var_of.get(&shape)?;
                r.elapsed(start, end).map(|dt| (v, dt.max(0.0)))
            })
            .collect()
    }
}

/// One choice of a stream-phase epoch variable: the stream of each of the
/// epoch's units, and the predictor features every trial carrying this
/// choice shares.
pub(super) struct EpochChoice {
    pub assignment: EpochAssignment,
    pub feat: Rc<FeatureVec>,
}

/// One epoch variable of the stream phase.
pub(super) struct EpochVar {
    /// (super-epoch, epoch) position in the partition.
    pub pos: (usize, usize),
    pub choices: Vec<EpochChoice>,
}

/// The stream phase's search space over one partition, with everything
/// about a choice that no trial changes computed once.
pub(super) struct EpochSpace {
    /// Epochs with more than one choice, in id order (the order of a tree
    /// assignment's keys), and the choices of each.
    pub vars: Vec<PhaseVar>,
    pub epochs: Vec<EpochVar>,
    /// The update tree over `vars`: super-epochs in parallel, epochs
    /// prefix-wise within each. `None` when no epoch has a choice.
    pub tree: Option<UpdateTree>,
    /// The only assignment of every single-choice epoch.
    pub fixed: Vec<(usize, usize)>,
}

/// Builds the [`EpochSpace`] of `partition`: per-epoch stream choices, and
/// for each choice its [`epoch_features`] over `base` and its profile key
/// under the given contexts. Epochs with a single choice (one class member,
/// or one stream) get no adaptive variable and no probe.
pub(super) fn epoch_space(
    units: &[Unit],
    partition: &Partition,
    num_streams: usize,
    base: &FeatureVec,
    contexts: [Option<&str>; 2],
) -> EpochSpace {
    let mut fixed = Vec::new();
    let mut vars = Vec::new();
    let mut se_children = Vec::new();
    for (sei, se) in partition.super_epochs.iter().enumerate() {
        let mut epoch_nodes = Vec::new();
        for (ei, epoch) in se.epochs.iter().enumerate() {
            let options = epoch_choices(units, epoch, num_streams);
            if options.len() <= 1 {
                fixed.extend(options.into_iter().flatten());
                continue;
            }
            let id = format!("se{sei}.e{ei}");
            epoch_nodes.push(UpdateNode::var(id.clone(), options.len()));
            let keys =
                (0..options.len()).map(|c| phase_key(format!("epoch:{id}"), c, contexts)).collect();
            let choices = options
                .into_iter()
                .enumerate()
                .map(|(c, assignment)| EpochChoice {
                    feat: Rc::new(epoch_features(base, sei, ei, c, &assignment, units)),
                    assignment,
                })
                .collect();
            vars.push((PhaseVar { id, slot: 0, keys }, EpochVar { pos: (sei, ei), choices }));
        }
        if !epoch_nodes.is_empty() {
            se_children.push(UpdateNode::group(ExploreMode::Prefix, epoch_nodes));
        }
    }
    let tree = (!se_children.is_empty())
        .then(|| UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, se_children)));
    vars.sort_by(|a, b| a.0.id.cmp(&b.0.id));
    let (mut vars, epochs): (Vec<PhaseVar>, Vec<EpochVar>) = vars.into_iter().unzip();
    if let Some(tree) = &tree {
        for var in &mut vars {
            var.slot = tree.slot(&var.id).expect("every epoch variable is in the tree");
        }
    }
    EpochSpace { vars, epochs, tree, fixed }
}

/// Phase S: stream maps, explored in parallel across super-epochs and
/// prefix-wise across the epochs of each. Candidates share one geometry and
/// the phase's super-epoch partition, so a trial carries a per-unit stream
/// vector — the phase's base with its epochs' picks written over it — and
/// only the winner's is turned into a `cfg.streams` map.
pub(super) struct StreamPhase {
    vars: Vec<PhaseVar>,
    epochs: Vec<EpochVar>,
    /// Per unit index: the stream the single-choice epochs fix (every unit
    /// belongs to exactly one epoch; picks overwrite the rest).
    base: Vec<usize>,
    var_of: BTreeMap<(usize, usize), usize>,
    units: Arc<[Unit]>,
    partition: Partition,
    probes: ProbeSpec,
}

impl StreamPhase {
    /// Sets `cfg`'s stream count and returns the phase's partition (which
    /// the playoff emits under too). With no epoch to explore, `cfg` gets
    /// the fixed assignment directly.
    pub fn new(
        astra: &mut Astra<'_>,
        cfg: &mut ExecConfig,
        strat_ctx: Option<&str>,
    ) -> Result<(Partition, Space<Self>), AstraError> {
        cfg.num_streams = astra.opts.num_streams.max(2);
        let units = astra.plan_cache.units_for(&astra.ctx, cfg)?;
        let total_flops: f64 = units.iter().map(|u| u.flops).sum();
        // One super-epoch per eighth of the model's FLOPs.
        let budget = (total_flops / 8.0).max(1.0);
        let partition = partition_units(&units, budget);
        // Candidates differ from `cfg` only in their stream maps, which the
        // candidate base does not read: build it once for the phase.
        let base = candidate_features(cfg, astra.topo_fp());
        let contexts = [strat_ctx, astra.opts.key_context.as_deref()];
        let EpochSpace { vars, epochs, tree, fixed } =
            epoch_space(&units, &partition, cfg.num_streams, &base, contexts);
        let mut stream_base = vec![0; units.len()];
        write_streams(&mut stream_base, &fixed);
        let Some(tree) = tree else {
            cfg.streams = stream_map(&units, &stream_base);
            return Ok((partition, None));
        };
        let var_of = epochs.iter().enumerate().map(|(v, e)| (e.pos, v)).collect();
        let probes = ProbeSpec::epochs(epochs.iter().map(|e| e.pos).collect());
        let phase = StreamPhase {
            vars,
            epochs,
            base: stream_base,
            var_of,
            units,
            partition: partition.clone(),
            probes,
        };
        Ok((partition, Some((phase, tree))))
    }

    /// One trial's per-unit stream vector: the base, then each epoch's pick
    /// in variable order (a later write to the same unit would win; the
    /// epochs are disjoint).
    fn trial_streams(&self, pick: &[usize]) -> Vec<usize> {
        let mut streams = self.base.clone();
        for (e, &c) in self.epochs.iter().zip(pick) {
            write_streams(&mut streams, &e.choices[c].assignment);
        }
        streams
    }
}

/// The stream map of the per-unit stream vector `streams` over `units`.
fn stream_map(units: &[Unit], streams: &[usize]) -> BTreeMap<UnitId, usize> {
    units.iter().map(|u| u.id).zip(streams.iter().copied()).collect()
}

impl Phase for StreamPhase {
    const KIND: &'static str = "epoch";

    fn vars(&self) -> &[PhaseVar] {
        &self.vars
    }

    /// One bulk build of the whole map, from the trial's stream vector.
    fn materialize(&self, cfg: &mut ExecConfig, pick: &[usize]) {
        cfg.streams = stream_map(&self.units, &self.trial_streams(pick));
    }

    /// Trials differ from `cfg` only in their streams: no map is built.
    fn prepare(&self, cfg: &ExecConfig, pick: &[usize]) -> (ExecConfig, Option<Vec<usize>>) {
        (cfg.clone(), Some(self.trial_streams(pick)))
    }

    fn units(
        &self,
        _astra: &mut Astra<'_>,
        cfgs: &[ExecConfig],
    ) -> Result<Vec<Option<Arc<[Unit]>>>, AstraError> {
        Ok(vec![Some(Arc::clone(&self.units)); cfgs.len()])
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    fn partition(&self) -> Option<&Partition> {
        Some(&self.partition)
    }

    /// Only epochs whose choice varies across the batch carry features:
    /// prefix-frozen epochs never drive pruning.
    fn active(&self, picks: &[Vec<usize>]) -> Vec<usize> {
        (0..self.vars.len()).filter(|&v| picks.iter().any(|p| p[v] != picks[0][v])).collect()
    }

    fn features(
        &self,
        _ctx: &PlanContext<'_>,
        _cfg: &ExecConfig,
        v: usize,
        choice: usize,
    ) -> Rc<FeatureVec> {
        Rc::clone(&self.epochs[v].choices[choice].feat)
    }

    /// An epoch's metric: time from its super-epoch's start to the last
    /// kernel dispatched in any stream up to the epoch (§4.7).
    fn decode(&self, probes: &Probes, r: &RunResult) -> Vec<(usize, f64)> {
        let mut m = Vec::new();
        for ends in probes.epoch_ends.chunk_by(|a, b| a.0 == b.0) {
            let pos = &ends[0].0;
            let Some(&v) = self.var_of.get(pos) else {
                continue;
            };
            let Some(start_ev) = probes.se_starts.get(&pos.0) else {
                continue;
            };
            let Some(start) = r.event_ns.get(*start_ev) else {
                continue;
            };
            let end = ends.iter().filter_map(|&(_, e)| r.event_ns.get(e)).fold(f64::NAN, f64::max);
            if end.is_finite() {
                m.push((v, (end - start).max(0.0)));
            }
        }
        m
    }

    /// Frozen epochs' metrics are committed anyway; training on them warms
    /// the epoch model much faster than the few varying trials would.
    fn frozen_feature(&self, v: usize, choice: usize) -> Option<&FeatureVec> {
        Some(&self.epochs[v].choices[choice].feat)
    }
}

/// Phase P: the placement across a multi-device node's devices —
/// single-device, data-parallel splits and model-parallel cuts — as one
/// variable. There are no probes: the metric is the whole mini-batch time.
pub(super) struct PlacementPhase {
    vars: Vec<PhaseVar>,
    candidates: Vec<DevicePlacement>,
    units: Arc<[Unit]>,
    sync_bytes: u64,
    probes: ProbeSpec,
    topo_fp: u64,
}

impl PlacementPhase {
    /// `None` on a single-device node, with one candidate, or when every
    /// candidate is indexed (the indexed best is then fixed in `cfg`).
    /// Profile keys fold the topology fingerprint, so a shared index never
    /// leaks timings across device mixes.
    pub fn new(
        astra: &mut Astra<'_>,
        cfg: &mut ExecConfig,
        strat_ctx: Option<&str>,
    ) -> Result<Space<Self>, AstraError> {
        let Some(topo) = astra.topo.filter(|t| t.is_multi()) else {
            return Ok(None);
        };
        let units = astra.plan_cache.units_for(&astra.ctx, cfg)?;
        let candidates = placement_candidates(topo, &units);
        astra.stats.placements = astra.stats.placements.max(candidates.len());
        if candidates.len() <= 1 {
            return Ok(None);
        }
        let entity = format!("place:{:016x}", topo.fingerprint());
        let contexts = [strat_ctx, astra.opts.key_context.as_deref()];
        let keys: Vec<ProfileKey> =
            (0..candidates.len()).map(|c| phase_key(entity.clone(), c, contexts)).collect();
        if let Some(best) = indexed_best(&astra.index, &keys) {
            cfg.placement = candidates[best].clone();
            return Ok(None);
        }
        let mut vars = vec![PhaseVar { id: "placement".to_owned(), slot: 0, keys }];
        let tree = parallel_tree(&mut vars).expect("one variable");
        let phase = PlacementPhase {
            vars,
            candidates,
            units,
            sync_bytes: gradient_sync_bytes(astra.ctx.graph),
            probes: ProbeSpec::none(),
            topo_fp: astra.topo_fp(),
        };
        Ok(Some((phase, tree)))
    }
}

impl Phase for PlacementPhase {
    const KIND: &'static str = "place";

    fn vars(&self) -> &[PhaseVar] {
        &self.vars
    }

    fn materialize(&self, cfg: &mut ExecConfig, pick: &[usize]) {
        cfg.placement = self.candidates[pick[0]].clone();
    }

    /// Placements share the unit geometry; only the wiring differs.
    fn units(
        &self,
        _astra: &mut Astra<'_>,
        cfgs: &[ExecConfig],
    ) -> Result<Vec<Option<Arc<[Unit]>>>, AstraError> {
        Ok(vec![Some(Arc::clone(&self.units)); cfgs.len()])
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    fn features(
        &self,
        _ctx: &PlanContext<'_>,
        cfg: &ExecConfig,
        _v: usize,
        _choice: usize,
    ) -> Rc<FeatureVec> {
        Rc::new(placement_features(cfg, self.topo_fp, &self.units, self.sync_bytes))
    }

    fn decode(&self, _probes: &Probes, r: &RunResult) -> Vec<(usize, f64)> {
        vec![(0, r.total_ns)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astra::{AstraOptions, Templates};
    use crate::plan::{emit_schedule, unit_streams};
    use astra_gpu::DeviceSpec;
    use astra_models::Model;
    use astra_util::Rng64;

    /// A stream-phase trial carries no map: its configuration is the
    /// phase's, and its vector is the materialized map resolved per unit.
    /// That map is the one built from every epoch's pick keyed by unit id,
    /// and the driver's emission of the vector equals [`emit_schedule`] on
    /// the materialized configuration.
    #[test]
    fn stream_trials_match_their_materialized_configs() {
        let mut rng = Rng64::new(0x5_7e4);
        let mut trials = 0;
        for m in Model::all() {
            let mut c = m.default_config(8);
            (c.hidden, c.input, c.vocab, c.seq_len, c.layers) = (64, 64, 128, 3, c.layers.min(2));
            let built = m.build(&c);
            let dev = DeviceSpec::p100();
            for streams in [2, 3] {
                let opts = AstraOptions { num_streams: streams, ..AstraOptions::default() };
                let mut astra = Astra::new(&built.graph, &dev, opts);
                let mut cfg = ExecConfig::baseline();
                let (partition, space) = StreamPhase::new(&mut astra, &mut cfg, None).unwrap();
                let Some((phase, _)) = space else { continue };
                for _ in 0..4 {
                    let pick: Vec<usize> = phase
                        .vars
                        .iter()
                        .map(|v| rng.gen_range_usize(0, v.keys.len() - 1))
                        .collect();
                    let (trial, vector) = phase.prepare(&cfg, &pick);
                    let vector = vector.expect("stream trials carry a vector");
                    assert_eq!(trial, cfg, "{m}: only the vector varies");
                    let mut materialized = cfg.clone();
                    phase.materialize(&mut materialized, &pick);
                    let mut by_id = BTreeMap::new();
                    for (sei, se) in partition.super_epochs.iter().enumerate() {
                        for (ei, epoch) in se.epochs.iter().enumerate() {
                            let options = epoch_choices(&phase.units, epoch, streams);
                            let c = phase.var_of.get(&(sei, ei)).map_or(0, |&v| pick[v]);
                            by_id.extend(options[c].iter().map(|&(i, s)| (phase.units[i].id, s)));
                        }
                    }
                    assert_eq!(materialized.streams, by_id, "{m}: materialized map");
                    assert_eq!(vector, unit_streams(&materialized, &phase.units, streams), "{m}");
                    let vector: Rc<[usize]> = vector.into();
                    let mut templates = Templates::default();
                    let (units, wiring) = astra
                        .wire_attempt(
                            &phase,
                            &trial,
                            Some(&vector),
                            &phase.units,
                            0,
                            &mut templates,
                        )
                        .unwrap();
                    let key = wiring.key();
                    let (sched, probes) = wiring.into_built();
                    assert_eq!((key.hash, key.cmds), (sched.prefix_hash(), sched.cmds().len()));
                    assert_eq!(key.probes, probes, "{m}: key-pass probes");
                    let (want, want_probes) = emit_schedule(
                        &astra.ctx,
                        &materialized,
                        &units,
                        Some(&partition),
                        phase.probe_spec(),
                    );
                    assert_eq!(sched, want, "{m}: driver emission differs");
                    assert_eq!(probes, want_probes, "{m}");
                    trials += 1;
                }
            }
        }
        assert!(trials > 0, "some zoo model must explore streams");
    }

    #[test]
    fn epoch_space_entries_equal_direct_feature_and_key_builds() {
        for m in Model::all() {
            let mut c = m.default_config(8);
            (c.hidden, c.input, c.vocab, c.seq_len, c.layers) = (64, 64, 128, 3, c.layers.min(2));
            let built = m.build(&c);
            let dev = DeviceSpec::p100();
            let mut astra = Astra::new(&built.graph, &dev, AstraOptions::default());
            for streams in [2, 3] {
                let cfg = ExecConfig { num_streams: streams, ..ExecConfig::baseline() };
                let units = astra.plan_cache.units_for(&astra.ctx, &cfg).unwrap();
                let total: f64 = units.iter().map(|u| u.flops).sum();
                let partition = partition_units(&units, (total / 8.0).max(1.0));
                let base = candidate_features(&cfg, 0);
                let contexts = [Some("alloc:1"), Some("bucket:3")];
                let space = epoch_space(&units, &partition, streams, &base, contexts);
                let mut probed = 0;
                for (sei, se) in partition.super_epochs.iter().enumerate() {
                    for (ei, epoch) in se.epochs.iter().enumerate() {
                        let options = epoch_choices(&units, epoch, streams);
                        let id = format!("se{sei}.e{ei}");
                        let Some(v) = space.vars.iter().position(|v| v.id == id) else {
                            assert!(options.len() <= 1, "{m}: {id} has choices but no variable");
                            continue;
                        };
                        probed += 1;
                        let (var, epoch) = (&space.vars[v], &space.epochs[v]);
                        assert_eq!(epoch.pos, (sei, ei));
                        assert_eq!(epoch.choices.len(), options.len());
                        assert_eq!(var.keys.len(), options.len());
                        let pairs = epoch.choices.iter().zip(&options);
                        for (c, (choice, assignment)) in pairs.enumerate() {
                            assert_eq!(&choice.assignment, assignment);
                            let direct = epoch_features(&base, sei, ei, c, assignment, &units);
                            let bits = |f: &FeatureVec| -> Vec<u64> {
                                f.values().iter().map(|v| v.to_bits()).collect()
                            };
                            assert_eq!(bits(&choice.feat), bits(&direct), "{m}: {id} choice {c}");
                            assert_eq!(choice.feat.fingerprint(), direct.fingerprint());
                            let key = ProfileKey::entity(format!("epoch:{id}"), c)
                                .in_context("alloc:1")
                                .in_context("bucket:3");
                            assert_eq!(var.keys[c], key);
                        }
                    }
                }
                assert_eq!(space.vars.len(), probed);
                assert!(space.vars.windows(2).all(|w| w[0].id < w[1].id), "vars in id order");
                if let Some(mut tree) = space.tree {
                    assert!(tree.advance());
                    assert!(tree.assignment().keys().eq(space.vars.iter().map(|v| &v.id)));
                    for var in &space.vars {
                        assert_eq!(tree.slot(&var.id), Some(var.slot));
                    }
                } else {
                    assert!(space.vars.is_empty());
                }
            }
        }
    }
}
