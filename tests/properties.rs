//! Randomized tests over generated graphs and configurations: the invariants
//! that must hold for *any* model Astra is handed, not just the five from the
//! paper. Inputs come from a seeded in-tree PRNG so every run — including
//! offline CI — exercises exactly the same cases.

use astra::core::{
    build_units, emit_schedule, ExecConfig, PlanContext, ProbeSpec, ProfileIndex, ProfileKey,
};
use astra::exec::{fuse_elementwise_chains, lower, native_schedule};
use astra::gpu::{
    Cmd, DeviceSpec, Engine, EventId, GemmLibrary, GemmShape, KernelDesc, Schedule, StreamId,
    Waits,
};
use astra::ir::{append_backward, Graph, OpKind, Provenance, Shape, TensorId};
use astra_util::Rng64;

/// A random small feed-forward/recurrent-ish graph builder driven by a
/// sequence of choices.
fn random_graph(ops: &[u8], widths: &[u64]) -> Graph {
    let mut g = Graph::new();
    let w = |i: usize| widths[i % widths.len()].max(2);
    let mut pool: Vec<TensorId> = Vec::new();
    pool.push(g.input(Shape::matrix(4, w(0)), "x0"));
    for (i, &op) in ops.iter().enumerate() {
        let a = pool[(op as usize * 7 + i) % pool.len()];
        let (rows, cols) = {
            let s = g.shape(a);
            (s.dims()[0], s.dims()[1])
        };
        g.set_context(Provenance::layer(format!("l{}", i % 3)).at_step((i / 3) as u32).with_role(format!("r{}", op % 5)));
        let t = match op % 6 {
            0 => {
                let p = g.param(Shape::matrix(cols, w(i + 1)), format!("w{i}"));
                g.mm(a, p)
            }
            1 => g.sigmoid(a),
            2 => g.tanh(a),
            3 => {
                let b = pool
                    .iter()
                    .rev()
                    .find(|&&b| g.shape(b) == &Shape::matrix(rows, cols))
                    .copied()
                    .unwrap_or(a);
                g.add(a, b)
            }
            4 => {
                let p = g.param(Shape::matrix(1, cols), format!("b{i}"));
                g.add(a, p)
            }
            _ => g.relu(a),
        };
        pool.push(t);
    }
    let last = *pool.last().expect("non-empty");
    let flat = g.apply(OpKind::ReduceSum, &[last]);
    let _ = append_backward(&mut g, flat);
    g
}

/// Draws the `(ops, widths)` choice vectors the old generators produced:
/// 3..24 ops in 0..=5, 1..4 widths in 2..96.
fn draw_case(rng: &mut Rng64) -> (Vec<u8>, Vec<u64>) {
    let n_ops = rng.gen_range_usize(3, 23);
    let ops: Vec<u8> = (0..n_ops).map(|_| rng.gen_range_u32(0, 5) as u8).collect();
    let n_w = rng.gen_range_usize(1, 3);
    let widths: Vec<u64> = (0..n_w).map(|_| rng.gen_range_u64(2, 95)).collect();
    (ops, widths)
}

/// Any generated graph validates and lowers with a kernel per
/// non-elided node.
#[test]
fn generated_graphs_validate_and_lower() {
    let mut rng = Rng64::new(0x9a71);
    for _ in 0..24 {
        let (ops, widths) = draw_case(&mut rng);
        let g = random_graph(&ops, &widths);
        assert!(g.validate().is_ok());
        let lowering = lower(&g);
        assert!(lowering.num_kernels() > 0);
        let elided = g.nodes().iter().filter(|n| matches!(n.op, OpKind::Transpose)).count();
        assert_eq!(lowering.num_kernels() + elided, g.nodes().len());
    }
}

/// The native schedule of any generated graph executes without
/// deadlock and runs every kernel.
#[test]
fn native_schedules_never_deadlock() {
    let mut rng = Rng64::new(0x1d3f);
    for _ in 0..24 {
        let (ops, widths) = draw_case(&mut rng);
        let g = random_graph(&ops, &widths);
        let dev = DeviceSpec::p100();
        let lowering = lower(&g);
        let sched = native_schedule(&lowering);
        let r = Engine::new(&dev).run(&sched).expect("no deadlock");
        assert_eq!(r.spans.len(), lowering.num_kernels());
    }
}

/// Element-wise chains partition the element-wise nodes: every
/// element-wise node appears in exactly one chain.
#[test]
fn elementwise_chains_partition() {
    let mut rng = Rng64::new(0x77aa);
    for _ in 0..24 {
        let (ops, widths) = draw_case(&mut rng);
        let g = random_graph(&ops, &widths);
        let lowering = lower(&g);
        let chains = fuse_elementwise_chains(&g, &lowering);
        let mut seen = std::collections::HashSet::new();
        for chain in &chains {
            for &n in &chain.nodes {
                assert!(seen.insert(n), "node in two chains");
                assert!(g.node(n).op.is_elementwise());
            }
        }
        let ew_total = g.nodes().iter().filter(|n| n.op.is_elementwise()).count();
        assert_eq!(seen.len(), ew_total);
    }
}

/// Fusion sets are node-disjoint, shape-uniform, and their chunked
/// schedules execute to the same kernel coverage as the baseline.
#[test]
fn fusion_configs_execute_for_random_graphs() {
    let mut rng = Rng64::new(0xf051);
    for _ in 0..24 {
        let n_ops = rng.gen_range_usize(6, 23);
        let ops: Vec<u8> = (0..n_ops).map(|_| rng.gen_range_u32(0, 5) as u8).collect();
        let n_w = rng.gen_range_usize(1, 2);
        let widths: Vec<u64> = (0..n_w).map(|_| rng.gen_range_u64(8, 63)).collect();
        let chunk_seed = rng.gen_range_usize(0, 6);

        let g = random_graph(&ops, &widths);
        let dev = DeviceSpec::p100();
        let ctx = PlanContext::new(&g);

        // Node-disjointness + shape uniformity.
        let mut seen = std::collections::HashSet::new();
        for set in &ctx.sets {
            for row in &set.nodes {
                for &n in row {
                    assert!(seen.insert(n));
                    assert!(matches!(g.node(n).op, OpKind::MatMul));
                }
            }
        }

        // A pseudo-random chunk configuration still builds and runs (or is
        // rejected as cyclic, never panics).
        let mut cfg = ExecConfig::baseline();
        for (i, set) in ctx.sets.iter().enumerate() {
            let rcs = set.row_chunks();
            let ccs = set.col_chunks();
            cfg.chunks.insert(
                set.id.clone(),
                (rcs[(chunk_seed + i) % rcs.len()], ccs[(chunk_seed * 3 + i) % ccs.len()]),
            );
        }
        if let Ok(units) = build_units(&ctx, &cfg) {
            // Topological invariant.
            for (i, u) in units.iter().enumerate() {
                for &d in &u.deps {
                    assert!(d < i);
                }
            }
            let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
            let r = Engine::new(&dev).run(&sched).expect("no deadlock");
            assert!(r.total_ns > 0.0);
        }
    }
}

/// Draws a random profile-key triple whose parts deliberately contain the
/// `/` and `#` separators the textual mangling uses — the structural keys
/// must stay injective anyway.
fn draw_key_triple(rng: &mut Rng64) -> (Vec<String>, String, usize) {
    let fragment = |rng: &mut Rng64| {
        let parts = ["alloc", "bucket", "fuse", "a/b", "x#1", "epoch", "se0.e1", ""];
        let n = rng.gen_range_usize(1, 3);
        (0..n)
            .map(|_| parts[rng.gen_range_usize(0, parts.len() - 1)])
            .collect::<Vec<_>>()
            .join("/")
    };
    let n_ctx = rng.gen_range_usize(0, 2);
    let contexts: Vec<String> = (0..n_ctx).map(|_| fragment(rng)).collect();
    let entity = fragment(rng);
    let choice = rng.gen_range_usize(0, 5);
    (contexts, entity, choice)
}

fn key_of(triple: &(Vec<String>, String, usize)) -> ProfileKey {
    let mut k = ProfileKey::entity(triple.1.clone(), triple.2);
    // `in_context` prepends, so outermost context last.
    for c in triple.0.iter().rev() {
        k = k.in_context(c.clone());
    }
    k
}

/// Profile-key mangling is injective: two keys compare equal if and only if
/// their `(contexts, entity, choice)` triples are equal — even when the
/// names themselves contain the textual separators.
#[test]
fn profile_keys_are_injective_on_triples() {
    let mut rng = Rng64::new(0x8e11);
    let triples: Vec<_> = (0..60).map(|_| draw_key_triple(&mut rng)).collect();
    for (i, a) in triples.iter().enumerate() {
        for (j, b) in triples.iter().enumerate() {
            let (ka, kb) = (key_of(a), key_of(b));
            if a == b {
                assert_eq!(ka, kb, "equal triples {i},{j} must give equal keys");
            } else {
                assert_ne!(
                    ka, kb,
                    "distinct triples {i},{j} collided: {a:?} vs {b:?} (both {ka})"
                );
            }
        }
    }
    // And distinct keys never alias a slot in the index.
    let mut idx = ProfileIndex::new();
    for (i, t) in triples.iter().enumerate() {
        idx.record(&key_of(t), i as f64);
    }
    let distinct: std::collections::BTreeSet<_> = triples.iter().map(key_of).collect();
    assert_eq!(idx.len(), distinct.len());
}

/// Sample statistics obey their invariants under arbitrary record
/// sequences: count matches the number of records, min <= mean, the min is
/// the true minimum, and variance is non-negative (zero for singletons).
#[test]
fn sample_stats_invariants_hold_for_random_sequences() {
    let mut rng = Rng64::new(0x57a7);
    for case in 0..40 {
        let key = ProfileKey::entity(format!("e{case}"), 0);
        let mut idx = ProfileIndex::new();
        let n = rng.gen_range_usize(1, 30);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            // Heavy-tailed-ish spread, including exact repeats and zero.
            let v = match rng.gen_range_u32(0, 4) {
                0 => 0.0,
                1 => rng.gen_range_f64(0.0, 1.0),
                2 => rng.gen_range_f64(1.0, 1e6),
                _ => *values.first().unwrap_or(&42.0),
            };
            values.push(v);
            idx.record(&key, v);
        }
        let s = idx.stats(&key).expect("recorded key has stats");
        assert_eq!(s.count(), n as u64, "case {case}: count");
        let true_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(s.min(), true_min, "case {case}: min is the true minimum");
        assert!(s.min() <= s.mean() + 1e-9, "case {case}: min {} > mean {}", s.min(), s.mean());
        assert!(s.variance() >= 0.0, "case {case}: negative variance {}", s.variance());
        if n == 1 {
            assert_eq!(s.variance(), 0.0, "case {case}: singleton variance");
        }
        let true_mean = values.iter().sum::<f64>() / n as f64;
        let tol = 1e-9 * true_mean.abs().max(1.0);
        assert!(
            (s.mean() - true_mean).abs() <= tol,
            "case {case}: mean {} vs {}",
            s.mean(),
            true_mean
        );
        assert_eq!(idx.get(&key), Some(true_min), "case {case}: index lookups use the min");
    }
}

/// Grows a schedule from a choice vector, returning the canonical rendering
/// and rolling prefix hash after every command.
fn grow_schedule(num_streams: usize, choices: &[u8]) -> Vec<(String, u64)> {
    let mut sched = Schedule::new(num_streams);
    let mut last_event = None;
    let mut trace = Vec::with_capacity(choices.len());
    for (i, &c) in choices.iter().enumerate() {
        let stream = StreamId(c as usize % num_streams);
        match c % 5 {
            0 => {
                let shape = GemmShape::new(8 + (c as u64 % 3) * 8, 64, 32 + i as u64);
                sched.launch(stream, KernelDesc::Gemm { shape, lib: GemmLibrary::CublasLike });
            }
            1 => {
                let shape = GemmShape::new(16, 16, 16);
                let waits: Vec<EventId> = last_event.into_iter().collect();
                sched.launch_labeled(
                    stream,
                    KernelDesc::Gemm { shape, lib: GemmLibrary::OaiWide },
                    &waits,
                    format!("u{}", c / 5),
                );
            }
            2 => {
                last_event = Some(sched.record(stream));
            }
            3 => sched.barrier(),
            _ => {
                let k = KernelDesc::Elementwise {
                    elements: 64 * (1 + c as u64 % 4),
                    flops_per_element: 2.0,
                    inputs: 1,
                    outputs: 1,
                };
                sched.launch(stream, k);
            }
        }
        trace.push((sched.render(), sched.prefix_hash()));
    }
    trace
}

/// The rolling schedule prefix hash is injective on (stream count, command
/// prefix): equal prefixes always produce equal hashes, and across hundreds
/// of randomly grown prefixes no two distinct ones collide. This is the
/// property the sim cache's checkpoint key rests on.
#[test]
fn schedule_prefix_hash_is_injective_on_prefixes() {
    let mut rng = Rng64::new(0xca5e);
    let mut by_hash: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for _ in 0..40 {
        let num_streams = rng.gen_range_usize(1, 3);
        let n = rng.gen_range_usize(4, 20);
        let choices: Vec<u8> = (0..n).map(|_| rng.gen_range_u32(0, 255) as u8).collect();

        // Determinism: regrowing the identical prefix reproduces every hash.
        let trace = grow_schedule(num_streams, &choices);
        let again = grow_schedule(num_streams, &choices);
        assert_eq!(trace, again, "same prefix must rehash identically");

        for (rendered, hash) in trace {
            // The render begins with the stream count, so it is a faithful
            // canonical form of (num_streams, cmds prefix).
            match by_hash.entry(hash) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(
                        e.get(),
                        &rendered,
                        "prefix hash {hash:#x} collided on distinct prefixes"
                    );
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rendered);
                }
            }
        }
    }
    assert!(by_hash.len() > 200, "expected many distinct prefixes, got {}", by_hash.len());
}

/// Work conservation in the engine: makespan of any single-stream
/// schedule equals the sum of its parts (dispatch pipelining aside).
#[test]
fn single_stream_time_is_additive() {
    let mut rng = Rng64::new(0x2bc4);
    for _ in 0..24 {
        let n_ops = rng.gen_range_usize(3, 15);
        let ops: Vec<u8> = (0..n_ops).map(|_| rng.gen_range_u32(0, 5) as u8).collect();
        let n_w = rng.gen_range_usize(1, 2);
        let widths: Vec<u64> = (0..n_w).map(|_| rng.gen_range_u64(8, 63)).collect();
        let g = random_graph(&ops, &widths);
        let dev = DeviceSpec::p100();
        let lowering = lower(&g);
        let sched = native_schedule(&lowering);
        let r = Engine::new(&dev).run(&sched).expect("runs");
        let kernel_time: f64 = lowering
            .ops()
            .iter()
            .filter_map(|o| o.kernel.as_ref())
            .map(|k| k.cost(&dev).exec_ns + dev.launch_overhead_ns)
            .sum();
        assert!(r.total_ns >= kernel_time - 1.0);
        assert!(r.total_ns <= kernel_time + dev.dispatch_cost_ns * (lowering.num_kernels() as f64) + 1.0);
    }
}

/// Generator–verifier agreement: every schedule `emit_schedule` produces —
/// across the whole model zoo, every allocation strategy, every per-set
/// fusion chunk choice, single- and multi-stream emission, and the
/// partitioned (super-epoch barrier) path — must pass the static verifier.
/// A finding here is a real latent hazard in the planner, not a test bug.
#[test]
fn enumerated_plans_verify_clean_across_the_zoo() {
    use astra::core::enumerate::epochs::partition_units;
    use astra::core::verify_plan;
    use astra::models::Model;

    for m in Model::all() {
        let mut c = m.default_config(8);
        c.hidden = 64;
        c.input = 64;
        c.vocab = 128;
        c.seq_len = 3;
        c.layers = c.layers.min(2);
        let built = m.build(&c);
        let ctx = PlanContext::new(&built.graph);

        // Every strategy keeps a chunkless base config; each fusion set then
        // varies its (row, col) chunk choices one set at a time — the same
        // neighborhood the exploration driver walks.
        let mut cfgs = Vec::new();
        for strategy in 0..ctx.alloc.strategies.len().max(1) {
            let mut base = ExecConfig::baseline();
            base.strategy = strategy;
            cfgs.push(base.clone());
            for set in &ctx.sets {
                for &rc in &set.row_chunks() {
                    for &cc in &set.col_chunks() {
                        let mut cfg = base.clone();
                        cfg.chunks.insert(set.id.clone(), (rc, cc));
                        cfgs.push(cfg);
                    }
                }
            }
        }

        for (ci, base_cfg) in cfgs.iter().enumerate() {
            // Chunk-varied configs exercise the hazard-prone multi-stream
            // path only; the chunkless bases also cover single-stream.
            let stream_counts: &[usize] =
                if base_cfg.chunks.is_empty() { &[1, 3] } else { &[3] };
            for &streams in stream_counts {
                let mut cfg = base_cfg.clone();
                // Cyclic chunk combinations are skipped by the driver too.
                let Ok(units) = build_units(&ctx, &cfg) else { continue };
                if streams > 1 {
                    // Streams never influence unit building, so the round-
                    // robin map needs no rebuild.
                    cfg.num_streams = streams;
                    for (i, u) in units.iter().enumerate() {
                        cfg.streams.insert(u.id, i % streams);
                    }
                }
                let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
                let report = verify_plan(&ctx, &cfg, &units, &sched, 2);
                assert!(
                    report.is_clean(),
                    "{m} cfg #{ci} x {streams} stream(s) must verify clean:\n{}",
                    report.render()
                );

                // Partitioned emission (barriers + epoch records) for the
                // chunkless bases keeps the super-epoch path covered.
                if streams > 1 && base_cfg.chunks.is_empty() {
                    let total: f64 = units.iter().map(|u| u.flops).sum();
                    let partition = partition_units(&units, (total / 4.0).max(1.0));
                    let (sched, _) =
                        emit_schedule(&ctx, &cfg, &units, Some(&partition), &ProbeSpec::none());
                    let report = verify_plan(&ctx, &cfg, &units, &sched, 2);
                    assert!(
                        report.is_clean(),
                        "{m} partitioned strategy {} must verify clean:\n{}",
                        base_cfg.strategy,
                        report.render()
                    );
                }
            }
        }
    }
}

/// Checks one emitted schedule against its unit program, `replicas` copies
/// of it (data parallelism runs one per device): every launch carries its
/// unit index as a tag, runs on the stream `stream_of(unit, replica)`, and
/// has the span label its explicit label or kernel implies; each replica of
/// a unit launches once, after a gather copy when the unit has one. On
/// single-device schedules the launches are the unit's own copy and kernel,
/// and a unit's first launch waits exactly on the completion events of its
/// dependencies on other streams, in dependency order.
fn check_emission(
    what: &str,
    units: &[astra::core::Unit],
    sched: &Schedule,
    replicas: usize,
    stream_of: &dyn Fn(usize, usize) -> usize,
) {
    let single = !sched.is_multi_device();
    let tags = sched.tags();
    let launches_per_replica = |i: usize| 1 + usize::from(units[i].pre_copy_bytes > 0.0);
    let mut launches = vec![0usize; units.len()];
    // A unit records its completion event right after its kernel launch.
    let mut done: Vec<Option<EventId>> = vec![None; units.len()];
    for (j, cmd) in sched.cmds().iter().enumerate() {
        match cmd {
            Cmd::Launch { stream, kernel, waits } => {
                let expect = sched.label(j).map_or_else(|| kernel.label(), str::to_owned);
                assert_eq!(sched.span_label(j), Some(expect), "{what}: cmd {j} label");
                let Some(i) = tags[j].map(|t| t as usize) else {
                    panic!("{what}: launch {j} has no unit tag");
                };
                let u = &units[i];
                let replica = launches[i] / launches_per_replica(i);
                let first = launches[i].is_multiple_of(launches_per_replica(i));
                launches[i] += 1;
                assert_eq!(stream.0, stream_of(i, replica), "{what}: unit {i} stream");
                if !single {
                    continue;
                }
                if first && u.pre_copy_bytes > 0.0 {
                    assert_eq!(*kernel, KernelDesc::MemCopy { bytes: u.pre_copy_bytes });
                } else {
                    assert_eq!(*kernel, u.kernel, "{what}: unit {i} kernel");
                }
                let expect: Vec<EventId> = if first {
                    u.deps
                        .iter()
                        .filter(|&&d| stream_of(d, 0) != stream_of(i, 0))
                        .map(|&d| done[d].expect("cross-stream producers record an event"))
                        .collect()
                } else {
                    Vec::new()
                };
                assert_eq!(sched.waits(*waits), expect, "{what}: unit {i} waits");
            }
            Cmd::Record { event, .. } if single => {
                let i = tags[j - 1].expect("records follow a tagged launch") as usize;
                done[i] = Some(*event);
                assert_eq!(sched.span_label(j), None, "{what}: records carry no label");
            }
            _ => assert!(tags[j].is_none(), "{what}: cmd {j} is not a launch but is tagged"),
        }
    }
    for (i, &n) in launches.iter().enumerate() {
        assert_eq!(n, replicas * launches_per_replica(i), "{what}: unit {i} launches");
    }
}

/// Emission resolves each unit's stream from the configuration's stream map
/// (unmapped units on stream 0, out-of-range streams clamped to the last),
/// tags every launch with its unit, labels it with its explicit label or
/// its kernel's, and wires exactly the cross-stream dependencies — across
/// the model zoo, for the baseline config and seeded random fusion choices
/// and stream maps, with and without a super-epoch partition, and under
/// data- and model-parallel placements.
#[test]
fn emission_follows_the_stream_map_across_the_zoo() {
    use astra::core::enumerate::epochs::partition_units;
    use astra::core::{flop_balanced_cuts, DevicePlacement};
    use astra::models::Model;

    let mut rng = Rng64::new(0x5eed_e417);
    for m in Model::all() {
        let mut c = m.default_config(8);
        c.hidden = 64;
        c.input = 64;
        c.vocab = 128;
        c.seq_len = 3;
        c.layers = c.layers.min(2);
        let built = m.build(&c);
        let ctx = PlanContext::new(&built.graph);

        for trial in 0..4 {
            let mut cfg = ExecConfig::baseline();
            if trial > 0 {
                cfg.strategy = rng.gen_range_usize(0, ctx.alloc.strategies.len().max(1) - 1);
                for set in &ctx.sets {
                    let rcs = set.row_chunks();
                    let ccs = set.col_chunks();
                    let rc = rcs[rng.gen_range_usize(0, rcs.len() - 1)];
                    let cc = ccs[rng.gen_range_usize(0, ccs.len() - 1)];
                    let prev = cfg.chunks.insert(set.id.clone(), (rc, cc));
                    if build_units(&ctx, &cfg).is_err() {
                        match prev {
                            Some(p) => cfg.chunks.insert(set.id.clone(), p),
                            None => cfg.chunks.remove(&set.id),
                        };
                    }
                }
            }
            let units = build_units(&ctx, &cfg).expect("reverted chunk choices stay valid");
            if trial > 0 {
                // Leave some units unmapped and map some past the last stream.
                cfg.num_streams = rng.gen_range_usize(1, 4);
                for u in &units {
                    if rng.gen_range_u32(0, 4) > 0 {
                        cfg.streams.insert(u.id, rng.gen_range_usize(0, cfg.num_streams));
                    }
                }
            }
            let per = cfg.num_streams.max(1);
            let mapped = |i: usize| cfg.streams.get(&units[i].id).copied().unwrap_or(0).min(per - 1);
            let what = format!("{m} trial {trial}");

            let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
            check_emission(&what, &units, &sched, 1, &|i, _| mapped(i));

            let total: f64 = units.iter().map(|u| u.flops).sum();
            let partition = partition_units(&units, (total / 4.0).max(1.0));
            let (sched, _) =
                emit_schedule(&ctx, &cfg, &units, Some(&partition), &ProbeSpec::none());
            check_emission(&format!("{what} partitioned"), &units, &sched, 1, &|i, _| mapped(i));

            // Data parallelism: replica `d` runs on device `d`'s stream block.
            let mut dp = cfg.clone();
            dp.placement = DevicePlacement::DataParallel { shares: vec![2, 1] };
            let (sched, _) = emit_schedule(&ctx, &dp, &units, None, &ProbeSpec::none());
            check_emission(&format!("{what} dp"), &units, &sched, 2, &|i, d| d * per + mapped(i));

            // Model parallelism: unit `i` runs on its segment's device.
            let cuts = flop_balanced_cuts(&units, &[1.0, 1.0]);
            let dev_of = |i: usize| cuts.iter().take_while(|&&c| c <= i).count();
            let mut mp = cfg.clone();
            mp.placement = DevicePlacement::ModelParallel { cuts: cuts.clone() };
            let (sched, _) = emit_schedule(&ctx, &mp, &units, None, &ProbeSpec::none());
            check_emission(&format!("{what} mp"), &units, &sched, 1, &|i, _| {
                dev_of(i) * per + mapped(i)
            });
        }
    }
}

/// The stream phase's trial path matches the stream map it replaces. A
/// trial's per-unit stream vector — the single-choice epochs'
/// assignments, then one generated pick per epoch with choices, written by
/// unit index — resolves exactly like the `cfg.streams` map the same picks
/// make keyed by unit id, and emitting through the vector
/// (`emit_with_streams`) equals `emit_schedule` under that map: commands,
/// prefix hash, boundaries, tags and probes. Checked across the zoo at two
/// and three streams, on a fused geometry and on a fragmented build of it
/// (which keeps the unit order, so the same vector and partition index it).
#[test]
fn stream_vectors_emit_like_the_stream_map_across_the_zoo() {
    use astra::core::enumerate::{epoch_choices, partition_units, write_streams};
    use astra::core::{build_units_fragmented, emit_with_streams};
    use astra::models::Model;
    use std::collections::BTreeMap;

    let mut rng = Rng64::new(0x57e4_7ec5);
    let (mut multi_stream, mut fragmented) = (false, false);
    for m in Model::all() {
        let mut c = m.default_config(8);
        (c.hidden, c.input, c.vocab, c.seq_len, c.layers) = (64, 64, 128, 3, c.layers.min(2));
        let built = m.build(&c);
        let ctx = PlanContext::new(&built.graph);
        // The widest chunking that builds, so fragmentation has gathers to
        // inflate.
        let mut fused = ExecConfig::baseline();
        for set in &ctx.sets {
            let chunk = (*set.row_chunks().last().unwrap(), *set.col_chunks().last().unwrap());
            fused.chunks.insert(set.id.clone(), chunk);
            if build_units(&ctx, &fused).is_err() {
                fused.chunks.remove(&set.id);
            }
        }
        let units = build_units(&ctx, &fused).expect("reverted chunk choices stay valid");
        let ids: BTreeMap<_, _> = units.iter().enumerate().map(|(i, u)| (u.id, i)).collect();
        assert_eq!(ids.len(), units.len(), "{m}: unit ids are unique");
        let shattered = build_units_fragmented(&ctx, &fused, u64::MAX).expect("fragmented build");
        fragmented |=
            shattered.iter().zip(&units).any(|(f, u)| f.pre_copy_bytes != u.pre_copy_bytes);
        let total: f64 = units.iter().map(|u| u.flops).sum();
        let partition = partition_units(&units, (total / 8.0).max(1.0));
        for streams in [2, 3] {
            let mut options = Vec::new();
            for (sei, se) in partition.super_epochs.iter().enumerate() {
                for (ei, epoch) in se.epochs.iter().enumerate() {
                    options.push(((sei, ei), epoch_choices(&units, epoch, streams)));
                }
            }
            let probe = ProbeSpec::epochs(
                options.iter().filter(|(_, o)| o.len() > 1).map(|&(pos, _)| pos).collect(),
            );
            let mut base = vec![0; units.len()];
            write_streams(
                &mut base,
                options.iter().filter(|(_, o)| o.len() == 1).flat_map(|(_, o)| &o[0]),
            );
            for trial in 0..4 {
                let picked: Vec<&Vec<(usize, usize)>> =
                    options.iter().map(|(_, o)| &o[rng.gen_range_usize(0, o.len() - 1)]).collect();
                let mut vector = base.clone();
                for (asg, (_, o)) in picked.iter().zip(&options) {
                    if o.len() > 1 {
                        write_streams(&mut vector, *asg);
                    }
                }
                let mut cfg = ExecConfig { num_streams: streams, ..fused.clone() };
                for asg in &picked {
                    cfg.streams.extend(asg.iter().map(|&(i, s)| (units[i].id, s)));
                }
                let what = format!("{m} streams={streams} trial {trial}");
                let resolved: Vec<usize> = units
                    .iter()
                    .map(|u| cfg.streams.get(&u.id).copied().unwrap_or(0).min(streams - 1))
                    .collect();
                assert_eq!(vector, resolved, "{what}: vector resolves like the map");
                multi_stream |= vector.iter().any(|&s| s > 0);

                // Past-the-end streams clamp to the last one on both paths.
                let wide: Vec<usize> = vector.iter().map(|&s| s + streams).collect();
                let mut wide_cfg = cfg.clone();
                wide_cfg.streams.values_mut().for_each(|s| *s += streams);
                let (a, _) = emit_with_streams(streams, &units, &wide, None, &ProbeSpec::none());
                let (b, _) = emit_schedule(&ctx, &wide_cfg, &units, None, &ProbeSpec::none());
                assert_eq!(a, b, "{what}: clamped schedules differ");

                for (geometry, label) in [(&units, "fused"), (&shattered, "fragmented")] {
                    let (a, pa) =
                        emit_with_streams(streams, geometry, &vector, Some(&partition), &probe);
                    let (b, pb) = emit_schedule(&ctx, &cfg, geometry, Some(&partition), &probe);
                    assert_eq!(a, b, "{what} {label}: schedules differ");
                    assert_eq!(a.prefix_hash(), b.prefix_hash(), "{what} {label}");
                    assert_eq!(a.boundaries(), b.boundaries(), "{what} {label}");
                    assert_eq!(a.tags(), b.tags(), "{what} {label}");
                    assert_eq!(pa, pb, "{what} {label}: probes differ");
                }
            }
        }
    }
    assert!(multi_stream, "some trial must use more than one stream");
    assert!(fragmented, "some fragmented build must change a gather copy");
}

/// Dynamic-graph coverage: the schedule of every PTB bucket length (§5.5)
/// verifies clean under a two-stream round-robin assignment.
#[test]
fn every_ptb_bucket_schedule_verifies_clean() {
    use astra::core::verify_plan;
    use astra::models::{Model, PTB_BUCKETS};

    for &bucket in &PTB_BUCKETS {
        let mut c = Model::SubLstm.default_config(4);
        c.hidden = 32;
        c.input = 32;
        c.vocab = 64;
        c.seq_len = bucket;
        let built = Model::SubLstm.build(&c);
        let ctx = PlanContext::new(&built.graph);
        let mut cfg = ExecConfig::baseline();
        cfg.num_streams = 2;
        let units = build_units(&ctx, &cfg).expect("bucket units build");
        for (i, u) in units.iter().enumerate() {
            cfg.streams.insert(u.id, i % 2);
        }
        let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
        let report = verify_plan(&ctx, &cfg, &units, &sched, 2);
        assert!(
            report.is_clean(),
            "bucket {bucket} must verify clean:\n{}",
            report.render()
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-device properties: placement round-trips and topology-keyed caching.
// ---------------------------------------------------------------------------

fn small_built_model() -> astra::models::BuiltModel {
    use astra::models::{Model, ModelConfig};
    let cfg =
        ModelConfig { seq_len: 2, hidden: 32, input: 32, vocab: 64, ..ModelConfig::ptb(8) };
    Model::SubLstm.build(&cfg)
}

fn property_topologies() -> Vec<(&'static str, astra::gpu::Topology)> {
    use astra::gpu::{DeviceSpec, LinkDesc, Topology};
    vec![
        ("2xp100-nvlink", Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink())),
        ("2xp100-pcie3", Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::pcie3())),
        ("4xp100-nvlink", Topology::homogeneous(DeviceSpec::p100(), 4, LinkDesc::nvlink())),
        (
            "p100+v100-nvlink",
            Topology::new(vec![DeviceSpec::p100(), DeviceSpec::v100()], LinkDesc::nvlink()),
        ),
        (
            "v100+p100-nvlink",
            Topology::new(vec![DeviceSpec::v100(), DeviceSpec::p100()], LinkDesc::nvlink()),
        ),
    ]
}

/// Generator–verifier agreement, multi-device edition: every placement
/// candidate on every topology, for every model in the zoo, emits a
/// schedule the static verifier accepts — transfers ordered behind their
/// producers, all-reduce rendezvous deadlock-free, replicas coherent. A
/// finding here is a real latent hazard in the placement emitter.
#[test]
fn emitted_placements_verify_clean_across_zoo_and_topologies() {
    use astra::core::{placement_candidates, verify_plan};
    use astra::models::Model;

    for m in Model::all() {
        let mut c = m.default_config(8);
        c.hidden = 64;
        c.input = 64;
        c.vocab = 128;
        c.seq_len = 3;
        c.layers = c.layers.min(2);
        let built = m.build(&c);
        let ctx = PlanContext::new(&built.graph);
        let base = ExecConfig::baseline();
        let units = build_units(&ctx, &base).expect("baseline units build");
        for (name, topo) in property_topologies() {
            for placement in placement_candidates(&topo, &units) {
                let mut cfg = base.clone();
                cfg.placement = placement;
                let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
                let report = verify_plan(&ctx, &cfg, &units, &sched, 2);
                assert!(
                    report.is_clean(),
                    "{m} on {name} with {} must verify clean:\n{}",
                    cfg.placement.label(),
                    report.render()
                );
            }
        }
    }
}

/// Every emitted placement's cross-device wiring survives a render →
/// parse round-trip: stream count, stream→device map, the multiset of
/// transfers (with their wait counts), and the all-reduce group table all
/// reconstruct exactly from the text. (Kernel bodies intentionally parse as
/// placeholders, so the comparison targets the wiring, not kernel costs.)
#[test]
fn placement_wiring_round_trips_through_render_and_parse() {
    use astra::core::placement_candidates;
    use astra::gpu::Cmd;
    use astra::verify::parse_rendered;

    let wiring = |s: &Schedule| {
        let mut transfers: Vec<(usize, u64, usize, usize, usize)> = Vec::new();
        let mut reduces: Vec<(usize, u64, u32)> = Vec::new();
        for cmd in s.cmds() {
            match cmd {
                Cmd::Transfer { stream, bytes, src, dst, waits } => {
                    transfers.push((stream.0, *bytes, *src, *dst, waits.len()));
                }
                Cmd::AllReduce { stream, bytes, group } => {
                    reduces.push((stream.0, *bytes, *group));
                }
                _ => {}
            }
        }
        transfers.sort_unstable();
        reduces.sort_unstable();
        (transfers, reduces)
    };

    let built = small_built_model();
    let ctx = PlanContext::new(&built.graph);
    let base = ExecConfig::baseline();
    let units = build_units(&ctx, &base).expect("baseline units build");
    for (name, topo) in property_topologies() {
        for placement in placement_candidates(&topo, &units) {
            let mut cfg = base.clone();
            cfg.placement = placement;
            let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
            let parsed = parse_rendered(&sched.render())
                .unwrap_or_else(|e| panic!("{name}/{}: parse failed: {e}", cfg.placement.label()));
            let tag = format!("{name}/{}", cfg.placement.label());
            assert_eq!(parsed.num_streams(), sched.num_streams(), "{tag}: stream count");
            assert_eq!(parsed.stream_devices(), sched.stream_devices(), "{tag}: device map");
            assert_eq!(parsed.num_devices(), sched.num_devices(), "{tag}: device span");
            assert_eq!(wiring(&parsed), wiring(&sched), "{tag}: cross-device wiring");
            assert_eq!(
                parsed.allreduce_groups(),
                sched.allreduce_groups(),
                "{tag}: all-reduce rendezvous table"
            );
        }
    }
}

/// The stream→device map participates in the schedule prefix hash: the same
/// command sequence bound to different device maps must never share a hash
/// (its checkpoints describe different engine states), while the all-zeros
/// map is identical to a plain single-device schedule.
#[test]
fn device_maps_perturb_the_prefix_hash() {
    let fill = |mut s: Schedule| {
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 512.0 });
        let ev = s.record(StreamId(0));
        s.launch(StreamId(1), KernelDesc::MemCopy { bytes: 256.0 });
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 64.0 }, &[ev], "tail");
        s
    };
    let maps: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 0], vec![0, 2], vec![1, 1]];
    let mut hashes: Vec<(Vec<usize>, u64)> = Vec::new();
    for map in maps {
        let s = fill(Schedule::with_devices(2, map.clone()));
        hashes.push((map, s.prefix_hash()));
    }
    let plain = fill(Schedule::new(2));
    hashes.push((vec![0, 0], plain.prefix_hash()));
    for i in 0..hashes.len() {
        for j in (i + 1)..hashes.len() {
            assert_ne!(
                hashes[i].1, hashes[j].1,
                "maps {:?} and {:?} must hash apart",
                hashes[i].0, hashes[j].0
            );
        }
    }
    // The trivial map *is* the single-device schedule.
    let zeroed = fill(Schedule::with_devices(2, vec![0, 0]));
    assert_eq!(zeroed.prefix_hash(), plain.prefix_hash());
    assert_eq!(zeroed.render(), plain.render());
}

/// The next representable `f64` above `x` (one ulp up).
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Every kernel variant, each with copies that differ from it in exactly one
/// field, plus the f64 fields set to `0.0` and `-0.0`.
fn kernel_field_mutants() -> Vec<(KernelDesc, Vec<KernelDesc>)> {
    use KernelDesc as K;
    let shape = |m, k, n| GemmShape { m, k, n };
    let gemm = |s, lib| K::Gemm { shape: s, lib };
    let ew = |elements, flops_per_element, inputs, outputs| K::Elementwise {
        elements,
        flops_per_element,
        inputs,
        outputs,
    };
    let conv = |batch, gemm_m, gemm_k, gemm_n| K::Conv { batch, gemm_m, gemm_k, gemm_n };
    let cublas = GemmLibrary::CublasLike;
    vec![
        (
            gemm(shape(16, 32, 64), cublas),
            vec![
                gemm(shape(17, 32, 64), cublas),
                gemm(shape(16, 33, 64), cublas),
                gemm(shape(16, 32, 65), cublas),
                gemm(shape(16, 32, 64), GemmLibrary::OaiWide),
                gemm(shape(16, 32, 64), GemmLibrary::OaiTall),
            ],
        ),
        (
            ew(4096, 2.5, 2, 1),
            vec![
                ew(4097, 2.5, 2, 1),
                ew(4096, ulp_up(2.5), 2, 1),
                ew(4096, 0.0, 2, 1),
                ew(4096, -0.0, 2, 1),
                ew(4096, 2.5, 3, 1),
                ew(4096, 2.5, 2, 2),
            ],
        ),
        (K::Softmax { rows: 8, cols: 16 }, vec![
            K::Softmax { rows: 9, cols: 16 },
            K::Softmax { rows: 8, cols: 17 },
        ]),
        (K::EmbeddingLookup { rows: 8, width: 16 }, vec![
            K::EmbeddingLookup { rows: 9, width: 16 },
            K::EmbeddingLookup { rows: 8, width: 17 },
        ]),
        (K::Compound { flops: 1e6, bytes: 4096.0 }, vec![
            K::Compound { flops: ulp_up(1e6), bytes: 4096.0 },
            K::Compound { flops: 0.0, bytes: 4096.0 },
            K::Compound { flops: -0.0, bytes: 4096.0 },
            K::Compound { flops: 1e6, bytes: ulp_up(4096.0) },
            K::Compound { flops: 1e6, bytes: 0.0 },
            K::Compound { flops: 1e6, bytes: -0.0 },
        ]),
        (K::MemCopy { bytes: 512.0 }, vec![
            K::MemCopy { bytes: ulp_up(512.0) },
            K::MemCopy { bytes: 0.0 },
            K::MemCopy { bytes: -0.0 },
        ]),
        (K::HostRoundtrip { bytes: 512.0 }, vec![
            K::HostRoundtrip { bytes: ulp_up(512.0) },
            K::HostRoundtrip { bytes: 0.0 },
            K::HostRoundtrip { bytes: -0.0 },
        ]),
        (
            conv(2, 8, 16, 32),
            vec![conv(3, 8, 16, 32), conv(2, 9, 16, 32), conv(2, 8, 17, 32), conv(2, 8, 16, 33)],
        ),
    ]
}

/// A command as a caller asks the builders for it: the command, its wait
/// list and a launch's explicit label.
#[derive(Debug, Clone)]
struct CmdSpec {
    cmd: Cmd,
    waits: Vec<EventId>,
    label: Option<&'static str>,
}

/// Every command variant, each with copies that differ from it in exactly
/// one field the schedule builders let a caller choose. (A record's event
/// id is assigned by the schedule, and a transfer's destination is pinned
/// by its stream's device; the crate's unit tests cover those two fields.)
fn cmd_field_mutants() -> Vec<(CmdSpec, Vec<CmdSpec>)> {
    let (s0, s1, s2, s3) = (StreamId(0), StreamId(1), StreamId(2), StreamId(3));
    let (e0, e1) = (EventId(0), EventId(1));
    let copy = KernelDesc::MemCopy { bytes: 64.0 };
    let launch = |stream, kernel, waits: Vec<EventId>, label: Option<&'static str>| CmdSpec {
        cmd: Cmd::Launch { stream, kernel, waits: Waits::default() },
        waits,
        label,
    };
    let xfer = |stream, bytes, src, waits: Vec<EventId>| CmdSpec {
        cmd: Cmd::Transfer { stream, bytes, src, dst: 1, waits: Waits::default() },
        waits,
        label: None,
    };
    let plain = |cmd| CmdSpec { cmd, waits: Vec::new(), label: None };
    let ar = |stream, bytes, group| plain(Cmd::AllReduce { stream, bytes, group });
    let mut out = vec![
        (launch(s0, copy, vec![e0, e1], Some("mine")), vec![
            launch(s2, copy, vec![e0, e1], Some("mine")),
            launch(s0, copy, vec![e0, EventId(5)], Some("mine")),
            launch(s0, copy, vec![e1, e0], Some("mine")),
            launch(s0, copy, vec![e0], Some("mine")),
            launch(s0, copy, vec![e0, e1], None),
            launch(s0, copy, vec![e0, e1], Some("")),
            launch(s0, copy, vec![e0, e1], Some("mind")),
            launch(s0, copy, vec![e0, e1], Some("mine\0")),
        ]),
        (plain(Cmd::Record { stream: s0, event: e0 }), vec![plain(Cmd::Record {
            stream: s1,
            event: e0,
        })]),
        (plain(Cmd::Barrier), vec![]),
        (plain(Cmd::HostSync), vec![]),
        (xfer(s1, 4096, 0, vec![e0]), vec![
            xfer(s3, 4096, 0, vec![e0]),
            xfer(s1, 4097, 0, vec![e0]),
            xfer(s1, 4096, 2, vec![e0]),
            xfer(s1, 4096, 0, vec![e1]),
            xfer(s1, 4096, 0, vec![]),
            xfer(s1, 4096, 0, vec![e0, e1]),
            xfer(s1, 4096, 0, vec![e1, e0]),
        ]),
        (ar(s0, 1024, 0), vec![ar(s1, 1024, 0), ar(s0, 1025, 0), ar(s0, 1024, 1)]),
    ];
    // Launches of every kernel variant and of each of its one-field mutants.
    for (kernel, mutants) in kernel_field_mutants() {
        let on = |k| launch(s0, k, vec![], None);
        out.push((on(kernel), mutants.into_iter().map(on).collect()));
    }
    out
}

/// Appends `cmd` through the public builder that makes it (a record takes
/// the schedule's next event id, whatever `cmd` names).
fn append_cmd(s: &mut Schedule, spec: &CmdSpec) {
    let waits = &spec.waits;
    match spec.cmd {
        Cmd::Launch { stream, kernel, .. } => match spec.label {
            None => {
                s.launch_after(stream, kernel, waits);
            }
            Some(l) => {
                s.launch_labeled(stream, kernel, waits, l);
            }
        },
        Cmd::Record { stream, .. } => {
            s.record(stream);
        }
        Cmd::Barrier => s.barrier(),
        Cmd::HostSync => s.host_sync(),
        Cmd::Transfer { stream, bytes, src, dst, .. } => {
            s.transfer(stream, bytes, src, dst, waits);
        }
        Cmd::AllReduce { stream, bytes, group } => {
            s.all_reduce(stream, bytes, group);
        }
    }
}

/// Streams 0..4 on devices 0, 1, 2, 1, so transfers into device 1 can come
/// from two sources on two streams.
fn four_stream_schedule() -> Schedule {
    Schedule::with_devices(4, vec![0, 1, 2, 1])
}

/// The prefix hash of a fixed prefix followed by `cmd`.
fn hash_after_prefix(cmd: &CmdSpec) -> u64 {
    let mut s = four_stream_schedule();
    s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 32.0 });
    s.record(StreamId(0));
    append_cmd(&mut s, cmd);
    s.prefix_hash()
}

/// The structural prefix hash sees every field of every command and kernel
/// variant: changing any single one (an f64 by one ulp, `0.0` to `-0.0`, one
/// wait id, the order of two waits, a label to `None`) changes the hash, no
/// two of these commands share a hash, and rebuilding any of them — or a
/// whole schedule of all of them — independently hashes equal.
#[test]
fn prefix_hash_sees_every_command_and_kernel_field() {
    let cases = cmd_field_mutants();
    let mut seen: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for (base, mutants) in &cases {
        let h = hash_after_prefix(base);
        assert_eq!(h, hash_after_prefix(base), "{base:?}: rebuilding must rehash equal");
        for m in mutants {
            assert_ne!(hash_after_prefix(m), h, "{m:?} must hash apart from {base:?}");
        }
        for c in std::iter::once(base).chain(mutants) {
            if let Some(prev) = seen.insert(hash_after_prefix(c), format!("{c:?}")) {
                panic!("{c:?} collides with {prev}");
            }
        }
    }
    assert!(seen.len() > 60, "expected a full variant sweep, got {}", seen.len());

    // Two independently built schedules holding every case hash equal at
    // every command.
    let build = || {
        let mut s = four_stream_schedule();
        let mut hashes = Vec::new();
        for (base, mutants) in cmd_field_mutants() {
            for c in std::iter::once(base).chain(mutants) {
                append_cmd(&mut s, &c);
                hashes.push(s.prefix_hash());
            }
        }
        hashes
    };
    assert_eq!(build(), build());
}

// ---------------------------------------------------------------------------
// Predictor properties: feature extraction and training order.
// ---------------------------------------------------------------------------

/// Candidate feature extraction is deterministic and injective: the same
/// `(chunks, strategy, placement, topology)` candidate always produces
/// bit-identical vectors, and distinct candidates always have distinct
/// fingerprints — even when their hashed bucket views collide.
#[test]
fn candidate_features_are_deterministic_and_injective() {
    use astra::core::{build_units, fusion_features, placement_features, DevicePlacement};

    let built = small_built_model();
    let ctx = PlanContext::new(&built.graph);
    let set = &ctx.sets[0];
    let placements = [
        DevicePlacement::Single,
        DevicePlacement::DataParallel { shares: vec![1, 1] },
        DevicePlacement::DataParallel { shares: vec![2, 1] },
        DevicePlacement::ModelParallel { cuts: vec![1] },
    ];

    let mut seen: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for strategy in 0..ctx.alloc.strategies.len().clamp(1, 2) {
        for placement in &placements {
            for topo_fp in [0u64, 0x9e37_79b9_7f4a_7c15] {
                for &rc in &set.row_chunks() {
                    for &cc in &set.col_chunks() {
                        let mut cfg = ExecConfig::baseline();
                        cfg.strategy = strategy;
                        cfg.placement = placement.clone();
                        cfg.chunks.insert(set.id.clone(), (rc, cc));
                        let label = format!(
                            "s{strategy}/{}/t{topo_fp:x}/{rc}x{cc}",
                            placement.label()
                        );

                        // Determinism: re-extraction is bit-identical.
                        let a = fusion_features(&cfg, topo_fp, set, rc, cc);
                        let b = fusion_features(&cfg, topo_fp, set, rc, cc);
                        assert_eq!(a, b, "{label}: extraction must be deterministic");

                        // Injectivity on the fingerprint.
                        if let Some(prev) = seen.insert(a.fingerprint(), label.clone()) {
                            panic!("fingerprint collision: {label} vs {prev}");
                        }

                        // Placement features are injective over the same axes
                        // (minus the chunk choice, which they fold via the
                        // candidate base's chunk note).
                        if let Ok(units) = build_units(&ctx, &cfg) {
                            let pa = placement_features(&cfg, topo_fp, &units, 4096);
                            let pb = placement_features(&cfg, topo_fp, &units, 4096);
                            assert_eq!(pa, pb, "{label}: placement extraction deterministic");
                        }
                    }
                }
            }
        }
    }
    assert!(seen.len() > 30, "expected a real candidate sweep, got {}", seen.len());
}

/// Kernel and epoch features distinguish their own choice axes: library
/// for a fixed shape, stream assignment for a fixed epoch.
#[test]
fn kernel_and_epoch_features_distinguish_choices() {
    use astra::core::{candidate_features, epoch_features, kernel_features};
    use astra::gpu::{GemmLibrary, GemmShape};

    let cfg = ExecConfig::baseline();
    let shape = GemmShape::new(64, 128, 256);
    let mut fps = std::collections::HashSet::new();
    for lib in [GemmLibrary::CublasLike, GemmLibrary::OaiWide, GemmLibrary::OaiTall] {
        assert!(fps.insert(kernel_features(&cfg, 0, shape, lib).fingerprint()));
    }

    let built = small_built_model();
    let ctx = PlanContext::new(&built.graph);
    let mut units = build_units(&ctx, &cfg).expect("baseline units build");
    units.truncate(2);
    (units[0].flops, units[1].flops) = (1e6, 2e6);
    let asg_a = [(0, 0), (1, 0)];
    let asg_b = [(0, 0), (1, 1)];
    let base = candidate_features(&cfg, 0);
    let ea = epoch_features(&base, 0, 1, 0, &asg_a, &units);
    let eb = epoch_features(&base, 0, 1, 1, &asg_b, &units);
    assert_ne!(ea.fingerprint(), eb.fingerprint(), "assignments must be distinct");
    assert_ne!(ea.values(), eb.values(), "fanout/balance features must differ");
}

/// The predictor trains in *committed candidate order*, and that order is
/// load-bearing: replaying the same measurement sequence reproduces the
/// model bit-for-bit, while permuting it changes the learned weights (the
/// first sample seeds the bias, and NLMS steps compound). This is why the
/// driver commits batches in candidate order at every worker count — the
/// worker-invariance suite pins the order, this test documents why.
#[test]
fn predictor_training_order_is_pinned_and_load_bearing() {
    use astra::predict::{CostModel, FeatureVec};

    let sample = |i: u64, ns: f64| {
        let mut f = FeatureVec::new();
        f.push("choice", i as f64);
        f.push_log("flops", 1e6 * (1 + i) as f64);
        (f, ns)
    };
    let seq: Vec<_> =
        (0..12).map(|i| sample(i, 1e4 * (12 - i) as f64)).collect();

    let train = |order: &[usize]| {
        let mut m = CostModel::new();
        for &i in order {
            m.observe(&seq[i].0, seq[i].1);
        }
        seq.iter().map(|(f, _)| m.predict_ns(f).to_bits()).collect::<Vec<_>>()
    };

    let committed: Vec<usize> = (0..seq.len()).collect();
    assert_eq!(train(&committed), train(&committed), "same order must replay bit-identically");
    let mut reversed = committed.clone();
    reversed.reverse();
    assert_ne!(
        train(&committed),
        train(&reversed),
        "training order must matter — otherwise pinning it would be vacuous"
    );
}

/// Checkpoint keys are injective across topologies: a checkpoint absorbed
/// under one device mix must never resume a run of the *same schedule* on a
/// different mix (different per-device clocks and link state), while a
/// single-device topology's context stays interchangeable with the plain
/// device context so its checkpoints are shared, not duplicated.
#[test]
fn simcache_checkpoints_never_cross_topologies() {
    use astra::core::{DevicePlacement, KeyCtx, SimCache};
    use astra::gpu::{ClockMode, DeviceSpec, Engine, FaultPlan, Topology};

    let built = small_built_model();
    let ctx = PlanContext::new(&built.graph);
    let mut cfg = ExecConfig::baseline();
    cfg.placement = DevicePlacement::DataParallel { shares: vec![1, 1] };
    let units = build_units(&ctx, &cfg).expect("dp units build");
    let (sched, _) = emit_schedule(&ctx, &cfg, &units, None, &ProbeSpec::none());
    assert!(!sched.boundaries().is_empty(), "dp emission must mark boundaries");

    let topos = property_topologies();
    let (home_name, home) = &topos[0];
    let mut cache = SimCache::new();
    let key_of = |t: &Topology| KeyCtx::with_topology(t, ClockMode::Fixed, &FaultPlan::none());

    // Populate the cache from a run on the home topology.
    let home_ctx = key_of(home);
    let (resume, caps) = cache.probe_and_plan_ctx(&sched, &home_ctx, 0);
    assert!(resume.is_none(), "cold cache must miss");
    assert!(!caps.is_empty(), "cold probe must plan captures");
    let (_, captured) = Engine::with_topology(home, ClockMode::Fixed, FaultPlan::none(), 0)
        .run_incremental(&sched, None, &caps)
        .expect("home run");
    assert!(!captured.is_empty(), "home run must capture checkpoints");
    cache.absorb_ctx(&home_ctx, 0, captured);

    // The matching context resumes; every other topology's context misses.
    let (hit, _) = cache.probe_and_plan_ctx(&sched, &home_ctx, 0);
    assert!(hit.is_some(), "{home_name}: same topology must resume its own checkpoint");
    for (name, other) in &topos[1..] {
        let (stolen, _) = cache.probe_and_plan_ctx(&sched, &key_of(other), 0);
        assert!(
            stolen.is_none(),
            "{name}: checkpoint captured on {home_name} must not resume here"
        );
    }

    // A 1-device topology degenerates to the plain device context: a
    // checkpoint absorbed under KeyCtx::new is visible through it.
    let dev = DeviceSpec::p100();
    let single = Topology::single(DeviceSpec::p100());
    let base = ExecConfig::baseline();
    let sunits = build_units(&ctx, &base).expect("single units build");
    let (ssched, _) = emit_schedule(&ctx, &base, &sunits, None, &ProbeSpec::none());
    let plain_ctx = KeyCtx::new(&dev, ClockMode::Fixed, &FaultPlan::none());
    let (_, scaps) = cache.probe_and_plan_ctx(&ssched, &plain_ctx, 0);
    let (_, scaptured) = Engine::with_faults(&dev, ClockMode::Fixed, FaultPlan::none(), 0)
        .run_incremental(&ssched, None, &scaps)
        .expect("single-device run");
    cache.absorb_ctx(&plain_ctx, 0, scaptured);
    let single_ctx = KeyCtx::with_topology(&single, ClockMode::Fixed, &FaultPlan::none());
    let (shared, _) = cache.probe_and_plan_ctx(&ssched, &single_ctx, 0);
    assert!(
        shared.is_some(),
        "a 1-device topology context must share plain-device checkpoints"
    );
}
