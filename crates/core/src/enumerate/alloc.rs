//! Memory-allocation strategy enumeration (paper §4.5.2, Figure 1).
//!
//! Zero-copy GEMM fusion requires the fused operands to be contiguous in
//! GPU memory. Each fusion set therefore imposes *adjacency requirements* —
//! ordered tensor lists that must be co-allocated. Requirements from
//! different sets can conflict: the classic case (the paper's Figure 1, from
//! the SC-RNN backward pass) is a gate-gradient tensor that one ladder wants
//! adjacent to its *sibling gates at the same timestep* while another wants
//! it adjacent to *the same gate at neighbouring timesteps*.
//!
//! Per the paper: conflicts resolvable by dropping a single offending tensor
//! are resolved statically; non-trivial conflicts produce a *fork* of
//! allocation strategies that the custom wirer explores by measurement.

use std::collections::{BTreeSet, HashMap, HashSet};

use astra_exec::Lowering;
use astra_gpu::BufId;
use astra_ir::Graph;

use super::fusion::FusionSet;

/// One allocation strategy: the adjacency requirements it grants.
#[derive(Debug, Clone)]
pub struct AllocStrategy {
    /// Human-readable label (shown in reports).
    pub label: String,
    /// Ordered buffer lists co-allocated contiguously, in placement order.
    /// Requirements are expressed on *physical buffers* (transpose views
    /// resolved), so a weight and its backward-pass transpose view count as
    /// the same storage.
    pub granted: Vec<Vec<BufId>>,
}

/// Output of allocation enumeration.
#[derive(Debug, Clone)]
pub struct AllocEnumeration {
    /// The strategies to fork over (always at least one).
    pub strategies: Vec<AllocStrategy>,
    /// Number of conflicts resolved statically (single-tensor overlaps).
    pub static_resolutions: usize,
    /// Number of non-trivial conflict components that caused the fork.
    pub conflict_components: usize,
    /// Ids of fusion sets whose requirements participate in a conflict:
    /// their measurements are allocation-context-dependent (§4.6), so their
    /// profile keys get the strategy prefix and they re-explore per
    /// strategy; unaffected sets' measurements are shared across strategies.
    pub conflicted_sets: HashSet<String>,
}

/// Whether two adjacency requirements are compatible: disjoint, equal, or
/// one a consecutive sublist of the other.
fn compatible(a: &[BufId], b: &[BufId]) -> bool {
    // Requirements are a handful of buffers long: linear scans beat sets.
    if !a.iter().any(|t| b.contains(t)) {
        return true;
    }
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    big.windows(small.len()).any(|w| w == small)
}

/// The buffer of a statically resolvable conflict: `a` and `b` are
/// incompatible and exactly one entry of `a` lies in `b`.
fn single_overlap(a: &[BufId], b: &[BufId]) -> Option<BufId> {
    if compatible(a, b) {
        return None;
    }
    let mut shared = a.iter().filter(|t| b.contains(t));
    match (shared.next(), shared.next()) {
        (Some(&t), None) => Some(t),
        _ => None,
    }
}

/// The requirements holding each buffer, in ascending index order. Only
/// requirements that share a buffer can be incompatible.
fn holders(reqs: &[(String, Vec<BufId>)]) -> HashMap<BufId, Vec<usize>> {
    let mut holders: HashMap<BufId, Vec<usize>> = HashMap::new();
    for (i, (_, r)) in reqs.iter().enumerate() {
        for &t in r {
            let h = holders.entry(t).or_default();
            if h.last() != Some(&i) {
                h.push(i);
            }
        }
    }
    holders
}

/// The requirements other than `i` that share a buffer with `reqs[i]`,
/// ascending.
fn partners(
    holders: &HashMap<BufId, Vec<usize>>,
    reqs: &[(String, Vec<BufId>)],
    i: usize,
) -> Vec<usize> {
    let mut out: Vec<usize> =
        reqs[i].1.iter().flat_map(|t| &holders[t]).copied().filter(|&k| k != i).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Static resolution: single-tensor overlaps drop the offending tensor
/// from the *longer* requirement (both fusions then coexist, §4.5.2).
/// Returns the number of fixes.
///
/// Each fix takes the lexicographically first pair `(i, j)`, `i < j`,
/// that [`single_overlap`] resolves, exactly as rescanning every pair
/// from `(0, 0)` after each fix would. The resolvable pairs live in an
/// ordered set. A fix changes only the victim's list, so only pairs that
/// shared a buffer with the victim before the fix are re-evaluated (the
/// rest stay disjoint), wherever they sit in the order: a fix can make an
/// earlier pair resolvable, as dropping `b` from `[a,b,c]` turns its
/// compatible pair with `[b,c]` into `[a,c]` against `[b,c]`.
fn resolve_static(reqs: &mut [(String, Vec<BufId>)]) -> usize {
    let mut holders = holders(reqs);
    let mut pending: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..reqs.len() {
        for j in partners(&holders, reqs, i).into_iter().filter(|&j| j > i) {
            if single_overlap(&reqs[i].1, &reqs[j].1).is_some() {
                pending.insert((i, j));
            }
        }
    }
    let mut fixes = 0;
    while let Some((i, j)) = pending.pop_first() {
        let t = single_overlap(&reqs[i].1, &reqs[j].1).expect("a pending pair is resolvable");
        let victim = if reqs[i].1.len() >= reqs[j].1.len() { i } else { j };
        let touched = partners(&holders, reqs, victim);
        reqs[victim].1.retain(|b| *b != t);
        holders.get_mut(&t).expect("the victim holds t").retain(|&h| h != victim);
        for k in touched {
            let pair = (victim.min(k), victim.max(k));
            if single_overlap(&reqs[pair.0].1, &reqs[pair.1].1).is_some() {
                pending.insert(pair);
            } else {
                pending.remove(&pair);
            }
        }
        fixes += 1;
    }
    fixes
}

/// Enumerates allocation strategies for a collection of fusion sets.
///
/// Strategy 0 is the greedy default (grant requirements in declaration
/// order; later conflicting ones lose). Additional strategies permute which
/// requirement of each conflict component wins. The fork is capped to keep
/// exploration bounded.
pub fn enumerate_alloc(graph: &Graph, lowering: &Lowering, sets: &[FusionSet]) -> AllocEnumeration {
    // Gather requirements with owning-set labels, resolved to buffers.
    let mut reqs: Vec<(String, Vec<BufId>)> = Vec::new();
    for set in sets {
        for r in set.adjacency_requirements(graph) {
            let bufs: Vec<BufId> = r.iter().map(|&t| lowering.buffer(t)).collect();
            reqs.push((set.id.clone(), bufs));
        }
    }
    enumerate_alloc_from(reqs)
}

/// [`enumerate_alloc`] over requirements already gathered: `(owning set
/// id, buffers to co-allocate)`, in declaration order.
pub fn enumerate_alloc_from(mut reqs: Vec<(String, Vec<BufId>)>) -> AllocEnumeration {
    /// Cap on strategies per conflict component.
    const PER_COMPONENT: usize = 3;
    /// Cap on total strategies.
    const TOTAL_CAP: usize = 6;

    let static_resolutions = resolve_static(&mut reqs);
    reqs.retain(|(_, r)| r.len() > 1);

    // Conflict graph over remaining requirements; adjacency lists ascend.
    let n = reqs.len();
    let holders = holders(&reqs);
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut ks = partners(&holders, &reqs, i);
            ks.retain(|&k| !compatible(&reqs[i].1, &reqs[k].1));
            ks
        })
        .collect();

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

    // Grant `first` (if any), then every other requirement in declaration
    // order that conflicts with nothing granted so far.
    let greedy = |first: Option<usize>| -> Vec<usize> {
        let mut granted = vec![false; n];
        for i in first.into_iter().chain((0..n).filter(|&i| Some(i) != first)) {
            granted[i] = adj[i].iter().all(|&k| !granted[k]);
        }
        (0..n).filter(|&i| granted[i]).collect()
    };

    // Per-component alternatives: for the first PER_COMPONENT members,
    // "member m wins" — grant m, then greedily grant whatever else fits.
    // Every strategy so far forks once per alternative.
    let mut strategy_grants: Vec<(String, Vec<usize>)> = vec![("default".into(), greedy(None))];
    for members in &components {
        let wins: Vec<(&str, Vec<usize>)> = members
            .iter()
            .take(PER_COMPONENT)
            .map(|&m| (reqs[m].0.as_str(), greedy(Some(m))))
            .collect();
        let expanded: Vec<(String, Vec<usize>)> = strategy_grants
            .iter()
            .flat_map(|(label, _)| {
                wins.iter().map(move |(set, g)| (format!("{label}+{set}"), g.clone()))
            })
            .collect();
        strategy_grants.extend(expanded);
        strategy_grants.dedup_by(|a, b| a.1 == b.1);
        if strategy_grants.len() >= TOTAL_CAP {
            strategy_grants.truncate(TOTAL_CAP);
            break;
        }
    }
    // Dedup identical grant sets across all collected strategies.
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    strategy_grants.retain(|(_, g)| seen.insert(g.clone()));

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::fusion::enumerate_fusion;
    use astra_exec::lower;
    use astra_ir::{append_backward, Provenance, Shape};

    fn t(i: u64) -> BufId {
        BufId(i)
    }

    #[test]
    fn compatibility_rules() {
        assert!(compatible(&[t(1), t(2)], &[t(3), t(4)]));
        assert!(compatible(&[t(1), t(2)], &[t(1), t(2)]));
        assert!(compatible(&[t(2), t(3)], &[t(1), t(2), t(3), t(4)]));
        // Shared tensor, different neighbours: conflict.
        assert!(!compatible(&[t(1), t(2)], &[t(2), t(3)]));
        // Same set, different order: conflict.
        assert!(!compatible(&[t(1), t(2)], &[t(2), t(1)]));
        // Non-consecutive subset: conflict.
        assert!(!compatible(&[t(1), t(3)], &[t(1), t(2), t(3)]));
    }

    #[test]
    fn no_conflicts_yields_single_strategy() {
        // Independent gate fusion only: requirements are disjoint.
        let mut g = Graph::new();
        let x = g.input(Shape::matrix(8, 64), "x");
        for i in 0..4 {
            let w = g.param(Shape::matrix(64, 64), format!("w{i}"));
            g.set_context(Provenance::layer("l").with_role(format!("g{i}.x")));
            let _ = g.mm(x, w);
        }
        let sets = enumerate_fusion(&g);
        let e = enumerate_alloc(&g, &lower(&g), &sets);
        assert_eq!(e.strategies.len(), 1);
        assert_eq!(e.conflict_components, 0);
    }

    /// The Figure-1 situation: a recurrent model whose backward pass has
    /// both per-step gate ladders and cross-step weight-gradient ladders
    /// sharing the gate-gradient tensors.
    #[test]
    fn recurrent_backward_forks_strategies() {
        let mut g = Graph::new();
        let w1 = g.param(Shape::matrix(32, 32), "w1");
        let w2 = g.param(Shape::matrix(32, 32), "w2");
        let mut h: Option<astra_ir::TensorId> = None;
        let mut acc: Option<astra_ir::TensorId> = None;
        for step in 0..3 {
            let x = g.input(Shape::matrix(8, 32), format!("x{step}"));
            let inp = match h {
                None => x,
                Some(prev) => {
                    g.set_context(Provenance::layer("cell").at_step(step).with_role("mix"));
                    g.add(prev, x)
                }
            };
            g.set_context(Provenance::layer("cell").at_step(step).with_role("a"));
            let a = g.mm(inp, w1);
            g.set_context(Provenance::layer("cell").at_step(step).with_role("b"));
            let b = g.mm(inp, w2);
            g.set_context(Provenance::layer("cell").at_step(step).with_role("join"));
            let s = g.mul(a, b);
            h = Some(s);
            let sl = g.reduce_sum(s);
            acc = Some(match acc {
                None => sl,
                Some(prev) => g.add(prev, sl),
            });
        }
        append_backward(&mut g, acc.unwrap());
        let sets = enumerate_fusion(&g);
        let e = enumerate_alloc(&g, &lower(&g), &sets);
        // Whether or not this specific graph conflicts, the enumeration must
        // be sound: at least one strategy, all grants mutually compatible.
        assert!(!e.strategies.is_empty());
        for s in &e.strategies {
            for i in 0..s.granted.len() {
                for j in (i + 1)..s.granted.len() {
                    assert!(
                        compatible(&s.granted[i], &s.granted[j]),
                        "strategy {} grants conflicting requirements",
                        s.label
                    );
                }
            }
        }
    }

    #[test]
    fn forced_conflict_produces_multiple_strategies() {
        // Construct requirements that conflict by hand through two fusion
        // sets sharing operand tensors with different neighbours:
        // set1 wants [a, b] adjacent; set2 wants [b, c] adjacent.
        // We simulate via the low-level pieces: two ladders over shared dz.
        let mut g = Graph::new();
        let a0 = g.input(Shape::matrix(4, 8), "a0");
        let a1 = g.input(Shape::matrix(4, 8), "a1");
        let a2 = g.input(Shape::matrix(4, 8), "a2");
        let b = g.param(Shape::matrix(8, 8), "b");
        // Ladder 1: mm(a0,b)+mm(a1,b) — wants [a0, a1] adjacent.
        g.set_context(Provenance::layer("l1").with_role("p"));
        let m1 = g.mm(a0, b);
        g.set_context(Provenance::layer("l1").with_role("q"));
        let m2 = g.mm(a1, b);
        g.set_context(Provenance::layer("l1").with_role("acc"));
        let _ = g.add(m1, m2);
        // Ladder 2: mm(a1,b)+mm(a2,b) — wants [a1, a2] adjacent. (A second
        // use of a1 as a left operand.)
        g.set_context(Provenance::layer("l2").with_role("p"));
        let m3 = g.mm(a1, b);
        g.set_context(Provenance::layer("l2").with_role("q"));
        let m4 = g.mm(a2, b);
        g.set_context(Provenance::layer("l2").with_role("acc"));
        let _ = g.add(m3, m4);

        let sets = enumerate_fusion(&g);
        let e = enumerate_alloc(&g, &lower(&g), &sets);
        // [a0,a1] vs [a1,a2]: single-tensor overlap (a1) -> statically
        // resolved per the paper, not forked.
        assert!(e.static_resolutions >= 1 || e.strategies.len() > 1);
    }
}
