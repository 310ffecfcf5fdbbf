//! Randomized tests of the IR: autodiff correctness against finite
//! differences on generated graphs, structural invariants of the
//! generated backward pass, and the graph's consumer index against a
//! brute-force scan. Cases come from a seeded in-tree PRNG so every run
//! checks the same graphs.

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
