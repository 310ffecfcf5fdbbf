//! Randomized equivalence of the static enumeration's analyses with the
//! straightforward algorithms they replace.
//!
//! The enumerator answers two questions in near-linear time: whether fusion
//! rows (or columns) depend on one another ([`Graph::groups_independent`],
//! one forward sweep), and which adjacency requirements survive static
//! resolution and how the remaining conflicts fork into allocation
//! strategies ([`enumerate_alloc_from`], an incremental pair index). The
//! `reference` module keeps the earlier quadratic formulations verbatim:
//! pairwise `Graph::depends_on` calls, and a static resolution that rescans
//! every pair from the start after each fix. Both are checked against the
//! fast forms on generated inputs from a seeded in-tree PRNG, so every run
//! checks the same cases.

use astra::core::enumerate::{enumerate_alloc_from, AllocEnumeration};
use astra::gpu::BufId;
use astra::ir::{append_backward, Graph, NodeId, Provenance, Shape, TensorId};
use astra_util::Rng64;

/// The earlier enumeration code, kept verbatim as the oracle.
mod reference {
    use std::collections::{HashMap, HashSet};

    use astra::core::enumerate::{AllocEnumeration, AllocStrategy};
    use astra::gpu::BufId;
    use astra::ir::{Graph, NodeId};

    /// Whether two adjacency requirements are compatible: disjoint, equal, or
    /// one a consecutive sublist of the other.
    fn compatible(a: &[BufId], b: &[BufId]) -> bool {
        let sa: HashSet<_> = a.iter().collect();
        let sb: HashSet<_> = b.iter().collect();
        if sa.is_disjoint(&sb) {
            return true;
        }
        let sublist =
            |small: &[BufId], big: &[BufId]| big.windows(small.len()).any(|w| w == small);
        if a.len() <= b.len() {
            sublist(a, b)
        } else {
            sublist(b, a)
        }
    }

    /// The buffers shared between two requirements.
    fn overlap(a: &[BufId], b: &[BufId]) -> Vec<BufId> {
        let sb: HashSet<_> = b.iter().collect();
        a.iter().filter(|t| sb.contains(t)).copied().collect()
    }

    /// True when no member of any row depends on a member of another row in
    /// *either* direction (stacking rows along M is then legal). Backward-pass
    /// rows run in reverse timestep order, so both directions must be checked.
    pub fn rows_independent(graph: &Graph, nodes: &[Vec<NodeId>]) -> bool {
        if nodes.len() < 2 {
            return false;
        }
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                for &a in &nodes[i] {
                    for &b in &nodes[j] {
                        if graph.depends_on(b, a) || graph.depends_on(a, b) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// The shared-left-argument sets' row-0 column check.
    pub fn columns_independent(graph: &Graph, row0: &[NodeId]) -> bool {
        let mut independent = true;
        'dep: for &a in row0 {
            for &b in row0 {
                if a != b && (graph.depends_on(b, a) || graph.depends_on(a, b)) {
                    independent = false;
                    break 'dep;
                }
            }
        }
        independent
    }

    /// Static resolution by rescanning every pair after each fix; returns
    /// the number of fixes.
    pub fn static_resolution(reqs: &mut [(String, Vec<BufId>)]) -> usize {
        // Static resolution: single-tensor overlaps drop the offending tensor
        // from the *longer* requirement (both fusions then coexist, §4.5.2).
        let mut static_resolutions = 0;
        loop {
            let mut changed = false;
            'outer: for i in 0..reqs.len() {
                for j in (i + 1)..reqs.len() {
                    if compatible(&reqs[i].1, &reqs[j].1) {
                        continue;
                    }
                    let ov = overlap(&reqs[i].1, &reqs[j].1);
                    if ov.len() == 1 {
                        let victim = if reqs[i].1.len() >= reqs[j].1.len() { i } else { j };
                        reqs[victim].1.retain(|t| *t != ov[0]);
                        static_resolutions += 1;
                        changed = true;
                        break 'outer;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        static_resolutions
    }

    /// Static resolution, conflict graph and strategy expansion over
    /// gathered requirements.
    pub fn enumerate_alloc_from(mut reqs: Vec<(String, Vec<BufId>)>) -> AllocEnumeration {
        /// Cap on strategies per conflict component.
        const PER_COMPONENT: usize = 3;
        /// Cap on total strategies.
        const TOTAL_CAP: usize = 6;

        let static_resolutions = static_resolution(&mut reqs);
        reqs.retain(|(_, r)| r.len() > 1);

        // Conflict graph over remaining requirements.
        let n = reqs.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if !compatible(&reqs[i].1, &reqs[j].1) {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }

        // Connected components with at least one edge are conflict components.
        let mut comp: Vec<Option<usize>> = vec![None; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            if comp[i].is_some() || adj[i].is_empty() {
                continue;
            }
            let cid = components.len();
            let mut stack = vec![i];
            let mut members = Vec::new();
            while let Some(x) = stack.pop() {
                if comp[x].is_some() {
                    continue;
                }
                comp[x] = Some(cid);
                members.push(x);
                stack.extend(adj[x].iter().copied());
            }
            members.sort_unstable();
            components.push(members);
        }

        // Per-component alternatives: for the first PER_COMPONENT members,
        // "member m wins" — grant m, then greedily grant whatever else fits.
        let greedy = |prefer: &[usize]| -> Vec<usize> {
            let mut granted: Vec<usize> = Vec::new();
            let order: Vec<usize> =
                prefer.iter().copied().chain((0..n).filter(|i| !prefer.contains(i))).collect();
            for i in order {
                if granted.iter().all(|&g| compatible(&reqs[g].1, &reqs[i].1)) {
                    granted.push(i);
                }
            }
            granted.sort_unstable();
            granted
        };

        let mut strategy_grants: Vec<(String, Vec<usize>)> = vec![("default".into(), greedy(&[]))];
        for members in &components {
            let base: Vec<(String, Vec<usize>)> = strategy_grants.clone();
            let mut expanded = Vec::new();
            for (label, _grants) in &base {
                for &m in members.iter().take(PER_COMPONENT) {
                    let mut prefer = vec![m];
                    // Keep earlier components' preferences by re-greedy with the
                    // label breadcrumbs only; simplest: prefer = [m].
                    let g = greedy(&prefer);
                    prefer.clear();
                    expanded.push((format!("{label}+{}", reqs[m].0), g));
                }
            }
            strategy_grants.extend(expanded);
            strategy_grants.dedup_by(|a, b| a.1 == b.1);
            if strategy_grants.len() >= TOTAL_CAP {
                strategy_grants.truncate(TOTAL_CAP);
                break;
            }
        }
        // Dedup identical grant sets across all collected strategies.
        let mut seen: HashMap<Vec<usize>, ()> = HashMap::new();
        strategy_grants.retain(|(_, g)| seen.insert(g.clone(), ()).is_none());

        let strategies = strategy_grants
            .into_iter()
            .map(|(label, grants)| AllocStrategy {
                label,
                granted: grants.iter().map(|&i| reqs[i].1.clone()).collect(),
            })
            .collect();

        let conflicted_sets: HashSet<String> = components
            .iter()
            .flatten()
            .map(|&i| reqs[i].0.clone())
            .collect();

        AllocEnumeration {
            strategies,
            static_resolutions,
            conflict_components: components.len(),
            conflicted_sets,
        }
    }
}

/// A random DAG in the style of `random_net` (tests/ir_properties.rs), but
/// branching: each op reads tensors drawn from everything built so far
/// (mostly recent ones), and fresh inputs start new branches, so member
/// nodes are sometimes independent and sometimes linked in either id
/// order. Half the graphs get a generated backward pass.
fn random_dag(rng: &mut Rng64, ops: usize) -> Graph {
    let mut g = Graph::new();
    let sq = || Shape::matrix(4, 4);
    let mut pool: Vec<TensorId> = vec![g.input(sq(), "x0"), g.param(sq(), "w0")];
    let mut cur = pool[0];
    for i in 0..ops {
        let pick = |rng: &mut Rng64, pool: &[TensorId]| {
            let lo = if rng.gen_range_u32(0, 3) == 0 { pool.len().saturating_sub(4) } else { 0 };
            pool[rng.gen_range_usize(lo, pool.len() - 1)]
        };
        g.set_context(Provenance::layer("l").at_step(i as u32).with_role("r"));
        let a = pick(rng, &pool);
        let b = pick(rng, &pool);
        let t = match rng.gen_range_u32(0, 6) {
            0 | 1 => g.mm(a, b),
            2 => g.add(a, b),
            3 => g.mul(a, b),
            4 => g.sigmoid(a),
            5 => g.tanh(a),
            _ => g.param(sq(), format!("w{i}")),
        };
        pool.push(t);
        if rng.gen_range_u32(0, 2) == 0 {
            cur = g.add(cur, t);
        }
        if rng.gen_range_u32(0, 4) == 0 {
            pool.push(g.input(sq(), format!("x{}", i + 1)));
        }
    }
    if rng.gen_range_u32(0, 1) == 0 {
        let loss = g.reduce_sum(cur);
        append_backward(&mut g, loss);
    }
    g
}

/// `count` distinct node ids, drawn from a window of the graph so that
/// members land near each other often enough to be independent.
fn draw_members(rng: &mut Rng64, g: &Graph, count: usize) -> Vec<NodeId> {
    let n = g.nodes().len();
    let width = rng.gen_range_usize(count.min(n), n);
    let start = rng.gen_range_usize(0, n - width);
    let mut out: Vec<NodeId> = Vec::new();
    while out.len() < count.min(width) {
        let id = NodeId(rng.gen_range_usize(start, start + width - 1) as u32);
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

/// Generated row partitions: the sweep agrees with pairwise `depends_on`
/// for rows (row-fusability) and for singleton columns (the shared-left
/// column check), and both verdicts occur often.
#[test]
fn groups_independent_matches_pairwise_depends_on() {
    let mut rng = Rng64::new(0x5eed_0025);
    let (mut rows_true, mut rows_false, mut cols_true, mut cols_false) = (0, 0, 0, 0);
    for case in 0..600 {
        let ops = rng.gen_range_usize(3, 40);
        let g = random_dag(&mut rng, ops);
        let rows = rng.gen_range_usize(2, 4);
        let per_row = rng.gen_range_usize(1, 3);
        let members = draw_members(&mut rng, &g, rows * per_row);
        // Row labels are assigned in drawn order, not id order, so a later
        // row's member may precede an earlier row's.
        let groups: Vec<Vec<NodeId>> = members.chunks(per_row).map(<[NodeId]>::to_vec).collect();
        let want = reference::rows_independent(&g, &groups);
        assert_eq!(
            groups.len() >= 2 && g.groups_independent(&groups),
            want,
            "case {case}: rows {groups:?}"
        );
        *if want { &mut rows_true } else { &mut rows_false } += 1;

        let singletons: Vec<Vec<NodeId>> = members.iter().map(|&n| vec![n]).collect();
        let want = reference::columns_independent(&g, &members);
        assert_eq!(g.groups_independent(&singletons), want, "case {case}: columns {members:?}");
        *if want { &mut cols_true } else { &mut cols_false } += 1;
    }
    for (what, count) in [
        ("independent rows", rows_true),
        ("dependent rows", rows_false),
        ("independent columns", cols_true),
        ("dependent columns", cols_false),
    ] {
        assert!(count >= 100, "only {count} cases of {what}");
    }
}

/// A generated requirement list over a small buffer alphabet, so overlaps,
/// sublists, repeated buffers and lists that shrink to 0 or 1 buffers all
/// occur. Owning-set ids repeat across requirements.
fn random_reqs(rng: &mut Rng64) -> Vec<(String, Vec<BufId>)> {
    let alphabet = rng.gen_range_u64(3, 8);
    (0..rng.gen_range_usize(0, 14))
        .map(|_| {
            let set = format!("S{}", rng.gen_range_u32(0, 5));
            let len = rng.gen_range_usize(1, 5);
            (set, (0..len).map(|_| BufId(rng.gen_range_u64(0, alphabet - 1))).collect())
        })
        .collect()
}

/// Everything an [`AllocEnumeration`] pins, with the conflicted sets
/// sorted.
#[allow(clippy::type_complexity)]
fn outputs(e: &AllocEnumeration) -> (Vec<(String, Vec<Vec<BufId>>)>, usize, usize, Vec<String>) {
    let mut conflicted: Vec<String> = e.conflicted_sets.iter().cloned().collect();
    conflicted.sort();
    (
        e.strategies.iter().map(|s| (s.label.clone(), s.granted.clone())).collect(),
        e.static_resolutions,
        e.conflict_components,
        conflicted,
    )
}

/// Generated requirement lists: static resolution, the conflict components
/// and the strategy fork equal the rescan-from-start reference.
#[test]
fn alloc_enumeration_matches_rescanning_reference() {
    let mut rng = Rng64::new(0xa110_c025);
    let (mut resolved, mut forked, mut shrunk) = (0, 0, 0);
    for case in 0..1500 {
        let reqs = random_reqs(&mut rng);
        let want = reference::enumerate_alloc_from(reqs.clone());
        let got = enumerate_alloc_from(reqs.clone());
        assert_eq!(outputs(&got), outputs(&want), "case {case}: {reqs:?}");
        resolved += usize::from(want.static_resolutions > 0);
        forked += usize::from(want.strategies.len() > 1);
        // Some requirement lost buffers until at most one remained.
        let mut after = reqs.clone();
        reference::static_resolution(&mut after);
        shrunk +=
            usize::from(after.iter().zip(&reqs).any(|(a, r)| r.1.len() > 1 && a.1.len() <= 1));
    }
    for (what, count) in
        [("static resolutions", resolved), ("forks", forked), ("shrunk lists", shrunk)]
    {
        assert!(count >= 200, "only {count} cases with {what}");
    }
}
