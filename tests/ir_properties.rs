//! Randomized tests of the IR: autodiff correctness against finite
//! differences on generated graphs, structural invariants of the
//! generated backward pass, the graph's consumer index against a
//! brute-force scan, and the wirer's memo-key pass against the schedule
//! it stands for on unit programs built from generated graphs. Cases come
//! from a seeded in-tree PRNG so every run checks the same graphs.

use std::collections::HashSet;

use astra::core::enumerate::partition_units;
use astra::core::{
    build_units, build_units_fragmented, emit_with_streams, ExecConfig, PlanContext, ProbeSpec,
    Unit, WiringTemplate,
};
use astra::ir::{
    append_backward, evaluate, Env, Graph, NodeId, Pass, Provenance, Shape, TensorId, TensorKind,
};
use astra::models::Model;
use astra_util::Rng64;

/// A random differentiable network driven by choice bytes. Every op used
/// here has an autodiff rule and smooth derivatives (no relu, whose kink
/// breaks finite differences).
fn random_net(ops: &[u8], dims: (u64, u64)) -> (Graph, Vec<TensorId>, TensorId) {
    let (rows, width) = dims;
    let mut g = Graph::new();
    let mut params = Vec::new();
    let x = g.input(Shape::matrix(rows, width), "x");
    let mut cur = x;
    for (i, &op) in ops.iter().enumerate() {
        g.set_context(Provenance::layer(format!("l{i}")).with_role(format!("o{op}")));
        cur = match op % 6 {
            0 => {
                let w = g.param(Shape::matrix(width, width), format!("w{i}"));
                params.push(w);
                g.mm(cur, w)
            }
            1 => g.sigmoid(cur),
            2 => g.tanh(cur),
            3 => {
                let b = g.param(Shape::matrix(1, width), format!("b{i}"));
                params.push(b);
                g.add(cur, b)
            }
            4 => {
                let m = g.param(Shape::matrix(1, width), format!("m{i}"));
                params.push(m);
                g.mul(cur, m)
            }
            _ => g.softmax(cur),
        };
    }
    let loss = g.reduce_sum(cur);
    (g, params, loss)
}

fn bind_all(g: &Graph, env: &mut Env, values: &[(TensorId, Vec<f64>)]) {
    let _ = g;
    for (t, v) in values {
        env.bind(*t, v.clone());
    }
}

fn draw_ops(rng: &mut Rng64, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range_usize(1, max_len);
    (0..n).map(|_| rng.gen_range_u32(0, 5) as u8).collect()
}

/// Autodiff gradients match central finite differences on every
/// parameter of a random smooth network.
#[test]
fn gradients_match_finite_differences() {
    let mut rng = Rng64::new(0xab30);
    for case in 0..16usize {
        let ops = draw_ops(&mut rng, 5);
        let (mut g, params, loss) = random_net(&ops, (3, 5));
        let back = append_backward(&mut g, loss);

        let mut base: Vec<(TensorId, Vec<f64>)> = Vec::new();
        for t in 0..g.num_tensors() as u32 {
            let id = TensorId(t);
            let info = g.tensor(id);
            if matches!(info.kind, TensorKind::Input | TensorKind::Param) && id != back.seed {
                let n = g.shape(id).elements() as usize;
                base.push((id, (0..n).map(|_| rng.gen_range_f64(-0.8, 0.8)).collect()));
            }
        }

        let loss_at = |values: &[(TensorId, Vec<f64>)]| -> f64 {
            let mut env = Env::new();
            bind_all(&g, &mut env, values);
            env.bind(back.seed, vec![1.0]);
            evaluate(&g, &mut env).expect("evaluates");
            env.value(loss).expect("loss computed")[0]
        };

        let mut env = Env::new();
        bind_all(&g, &mut env, &base);
        env.bind(back.seed, vec![1.0]);
        evaluate(&g, &mut env).expect("evaluates");

        let eps = 1e-5;
        for &param in &params {
            let Some(grad) = back.grad(param) else { continue };
            let analytic = env.value(grad).expect("grad computed").to_vec();
            // Spot-check one element per parameter (full sweeps are slow).
            let elem = case % analytic.len();
            let pi = base.iter().position(|(t, _)| *t == param).expect("param bound");
            let mut plus = base.clone();
            plus[pi].1[elem] += eps;
            let mut minus = base.clone();
            minus[pi].1[elem] -= eps;
            let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps);
            assert!(
                (analytic[elem] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "param {param} elem {elem}: analytic {} vs numeric {numeric}",
                analytic[elem]
            );
        }
    }
}

/// The generated backward graph always validates, never reuses a
/// forward tensor as an output, and puts every generated node in the
/// backward pass.
#[test]
fn backward_graph_is_structurally_sound() {
    let mut rng = Rng64::new(0x66e1);
    for _ in 0..16 {
        let ops = draw_ops(&mut rng, 7);
        let (mut g, params, loss) = random_net(&ops, (2, 4));
        let n_forward = g.nodes().len();
        let back = append_backward(&mut g, loss);
        assert!(g.validate().is_ok());
        for node in &g.nodes()[n_forward..] {
            assert_eq!(node.prov.pass, Pass::Backward);
        }
        // Every parameter influencing the loss has a gradient of its shape.
        for &p in &params {
            if let Some(d) = back.grad(p) {
                assert_eq!(g.shape(d), g.shape(p));
            }
        }
    }
}

/// Value preservation of the interpreter under graph re-evaluation:
/// evaluating twice with the same bindings gives identical results.
#[test]
fn evaluation_is_deterministic() {
    let mut rng = Rng64::new(0x09cd);
    for _ in 0..16 {
        let ops = draw_ops(&mut rng, 5);
        let fill = rng.gen_range_f64(-0.5, 0.5);
        let (mut g, _params, loss) = random_net(&ops, (2, 4));
        let back = append_backward(&mut g, loss);
        let run = || -> f64 {
            let mut env = Env::new();
            for t in 0..g.num_tensors() as u32 {
                let id = TensorId(t);
                if matches!(g.tensor(id).kind, TensorKind::Input | TensorKind::Param) {
                    env.bind_fill(&g, id, fill);
                }
            }
            env.bind(back.seed, vec![1.0]);
            evaluate(&g, &mut env).expect("evaluates");
            env.value(loss).expect("loss")[0]
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.is_finite());
    }
}

/// Every node reading `t`, in node order, once each — the reference for
/// [`Graph::consumers`].
fn scan_consumers(g: &Graph, t: TensorId) -> Vec<NodeId> {
    g.nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.inputs.contains(&t))
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

fn assert_consumer_index(g: &Graph, what: &str) {
    for t in 0..g.num_tensors() as u32 {
        let t = TensorId(t);
        let got = g.consumers(t);
        assert_eq!(got, scan_consumers(g, t).as_slice(), "{what}: consumers({t})");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "{what}: consumers({t}) must be in node order without duplicates: {got:?}"
        );
    }
    g.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// Appends `n` random same-shape operators over the graph's existing
/// `[4, 4]` tensors, drawing operands with replacement so binary ops
/// often read one tensor twice (`mul(x, x)`, `add(x, x)`).
fn grow_random(g: &mut Graph, pool: &mut Vec<TensorId>, rng: &mut Rng64, n: usize) {
    for _ in 0..n {
        let a = pool[rng.gen_range_usize(0, pool.len() - 1)];
        let b = pool[rng.gen_range_usize(0, pool.len() - 1)];
        let t = match rng.gen_range_u32(0, 6) {
            0 => g.mul(a, a),
            1 => g.add(a, b),
            2 => g.mul(a, b),
            3 => g.sub(b, a),
            4 => g.mm(a, b),
            5 => g.sigmoid(a),
            _ => g.tanh(b),
        };
        pool.push(t);
    }
}

/// The consumer index equals a brute-force scan on every tensor of every
/// zoo model's training graph.
#[test]
fn consumer_index_matches_a_scan_on_the_zoo() {
    for m in Model::all() {
        let mut c = m.default_config(4);
        c.seq_len = c.seq_len.min(3);
        let built = m.build(&c);
        assert_consumer_index(&built.graph, &format!("{m}"));
    }
}

/// The consumer index equals a brute-force scan on seeded random graphs
/// with repeated operands, and a clone keeps its own index: extending the
/// clone leaves the original's consumers untouched.
#[test]
fn consumer_index_matches_a_scan_on_random_graphs() {
    let mut rng = Rng64::new(0xc0_5e);
    for case in 0..64 {
        let mut g = Graph::new();
        let mut pool = vec![g.input(Shape::matrix(4, 4), "x"), g.param(Shape::matrix(4, 4), "w")];
        let x = pool[0];
        let sq = g.mul(x, x);
        pool.push(sq);
        let n = rng.gen_range_usize(1, 40);
        grow_random(&mut g, &mut pool, &mut rng, n);
        assert_consumer_index(&g, &format!("case {case}"));
        assert_eq!(g.consumers(x).first(), Some(&NodeId(0)), "mul(x, x) lists its node once");

        let before: Vec<Vec<NodeId>> =
            (0..g.num_tensors() as u32).map(|t| g.consumers(TensorId(t)).to_vec()).collect();
        let mut grown = g.clone();
        let mut grown_pool = pool.clone();
        let n = rng.gen_range_usize(1, 20);
        grow_random(&mut grown, &mut grown_pool, &mut rng, n);
        assert_consumer_index(&grown, &format!("case {case}, grown clone"));
        assert_consumer_index(&g, &format!("case {case}, original after clone grew"));
        for (t, users) in before.iter().enumerate() {
            assert_eq!(g.consumers(TensorId(t as u32)), users.as_slice());
        }
    }
}

/// Coverage of the wirer's generated cases.
#[derive(Default)]
struct WireCoverage {
    partitioned: usize,
    epoch_ends: usize,
    regions: usize,
    waits: usize,
    copies: usize,
}

/// Wires `units` under a random stream vector (entries past the stream
/// count included, which clamp), with or without a super-epoch partition
/// at a random budget, under a random probe spec (fusion sets, GEMM
/// shapes, a random subset of the partition's epochs), and checks that
/// the key pass agrees exactly with the schedule it stands for.
fn check_key_pass(units: &[Unit], rng: &mut Rng64, label: &str, cov: &mut WireCoverage) {
    let num_streams = rng.gen_range_usize(1, 4);
    let streams: Vec<usize> =
        (0..units.len()).map(|_| rng.gen_range_usize(0, num_streams)).collect();
    let total: f64 = units.iter().map(|u| u.flops).sum();
    let partition = (rng.gen_range_u32(0, 2) > 0).then(|| {
        let share = [2.0, 4.0, 8.0, 32.0][rng.gen_range_usize(0, 3)];
        partition_units(units, (total / share).max(1.0))
    });
    let mut epochs = HashSet::new();
    for (sei, se) in partition.iter().flat_map(|p| p.super_epochs.iter().enumerate()) {
        for ei in 0..se.epochs.len() {
            if rng.gen_range_u32(0, 2) > 0 {
                epochs.insert((sei, ei));
            }
        }
    }
    let probe = ProbeSpec {
        sets: rng.gen_range_u32(0, 1) == 1,
        shapes: rng.gen_range_u32(0, 1) == 1,
        epochs,
    };

    let template = WiringTemplate::new(units, partition.as_ref(), &probe);
    let (key, key_probes) = template.key(units, num_streams, &streams);
    let (sched, probes) = template.emit(units, num_streams, &streams);
    assert_eq!(key.prefix_hash(), sched.prefix_hash(), "{label}: prefix hash");
    assert_eq!(key.num_cmds(), sched.cmds().len(), "{label}: command count");
    let pooled: usize = (0..sched.cmds().len()).map(|i| sched.cmd_waits(i).len()).sum();
    assert_eq!(key.num_waits(), pooled, "{label}: wait total");
    assert_eq!(key_probes, probes, "{label}: probes");
    assert_eq!(
        sched.boundaries().last(),
        Some(&(sched.cmds().len(), sched.prefix_hash())),
        "{label}: a final boundary closes the schedule"
    );
    let direct = emit_with_streams(num_streams, units, &streams, partition.as_ref(), &probe);
    assert_eq!((&sched, &probes), (&direct.0, &direct.1), "{label}: emit_with_streams");

    cov.partitioned += usize::from(partition.is_some());
    cov.epoch_ends += probes.epoch_ends.len();
    cov.regions += probes.set_regions.len() + probes.shape_regions.len();
    cov.waits += pooled;
    cov.copies += units.iter().filter(|u| u.pre_copy_bytes > 0.0).count();
}

/// The wirer's key pass agrees with the schedule it stands for:
/// [`WiringTemplate::key`] returns exactly the prefix hash, command count,
/// wait total and probes of the schedule [`WiringTemplate::emit`]
/// materializes, and that schedule is [`emit_with_streams`]' own, closed
/// by a final boundary (see [`check_key_pass`] for the wiring inputs). The
/// unit programs are built from generated training graphs, plus one
/// fault-fragmented build of a tiny zoo model, whose denied allocation
/// groups put gather copies ahead of some kernels.
#[test]
fn key_pass_matches_materialized_schedules() {
    let mut rng = Rng64::new(0x6e7_4b3);
    let mut cov = WireCoverage::default();
    for case in 0..48usize {
        let ops = draw_ops(&mut rng, 8);
        let dims = (rng.gen_range_u32(2, 16) as u64, rng.gen_range_u32(2, 24) as u64);
        let (mut g, _, loss) = random_net(&ops, dims);
        append_backward(&mut g, loss);
        let ctx = PlanContext::new(&g);
        let units = build_units(&ctx, &ExecConfig::baseline()).expect("generated nets build");
        check_key_pass(&units, &mut rng, &format!("case {case}"), &mut cov);
    }
    assert!(cov.partitioned > 10, "only {} partitioned cases", cov.partitioned);
    assert!(cov.epoch_ends > 0 && cov.regions > 0 && cov.waits > 0, "probes and waits unexercised");

    let mut c = Model::Scrnn.default_config(8);
    (c.hidden, c.input, c.vocab, c.seq_len) = (64, 64, 128, 3);
    let built = Model::Scrnn.build(&c);
    let ctx = PlanContext::new(&built.graph);
    let mut cfg = ExecConfig::baseline();
    for set in &ctx.sets {
        let widest = |chunks: Vec<usize>| chunks.into_iter().max().unwrap_or(1);
        cfg.chunks.insert(set.id.clone(), (widest(set.row_chunks()), widest(set.col_chunks())));
        if build_units(&ctx, &cfg).is_err() {
            cfg.chunks.remove(&set.id);
        }
    }
    let units = build_units_fragmented(&ctx, &cfg, 0x5555_5555_5555_5555).expect("it builds");
    let copies = cov.copies;
    for case in 0..4 {
        check_key_pass(&units, &mut rng, &format!("fragmented {case}"), &mut cov);
    }
    assert!(cov.copies > copies, "the fragmented build has no gather copy");
}
