//! Adaptive variables and the update tree (paper §4.4.2).
//!
//! The enumerator organises every tunable decision into an *adaptive
//! variable* — `initialize` / `iterate` / `get_profile_value` — and arranges
//! the variables in an *update tree* whose interior nodes are annotated with
//! an exploration mode:
//!
//! * [`ExploreMode::Parallel`] — children iterate simultaneously; one trial
//!   advances every unfinished child (fine-grained profiling makes their
//!   measurements independent, §4.5.1). The state space is *additive*.
//! * [`ExploreMode::Exhaustive`] — brute-force cartesian product (used for
//!   small history-sensitive sets, §4.5.3).
//! * [`ExploreMode::Prefix`] — children explored one at a time, in order;
//!   a finished child is frozen at its best value before the next starts
//!   (§4.5.4). The state space is additive in the number of children.
//!
//! The custom wirer drives the tree: each `advance` produces the next trial
//! configuration; after running a mini-batch under it, per-variable metrics
//! are reported back by slot with [`UpdateTree::record_at`].

use std::collections::{BTreeMap, HashMap};

/// How an interior node explores its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// All children advance together (independent measurements).
    Parallel,
    /// Cartesian product of children (odometer).
    Exhaustive,
    /// One child at a time; earlier children frozen at their best.
    Prefix,
}

/// One node of the update tree.
#[derive(Debug, Clone)]
pub enum UpdateNode {
    /// A leaf adaptive variable.
    Var(AdaptiveVar),
    /// An interior node exploring `children` under `mode`.
    Group {
        /// Exploration mode annotation from the enumerator.
        mode: ExploreMode,
        /// Child nodes.
        children: Vec<UpdateNode>,
        /// For [`ExploreMode::Prefix`]: index of the child currently
        /// exploring.
        active: usize,
    },
}

/// A leaf adaptive variable: a named decision with `choices` options.
#[derive(Debug, Clone)]
pub struct AdaptiveVar {
    id: String,
    choices: usize,
    current: usize,
    best: Option<(usize, f64)>,
    exhausted: bool,
}

impl AdaptiveVar {
    /// Creates a variable with `choices` options, starting at option 0.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is zero.
    pub fn new(id: impl Into<String>, choices: usize) -> Self {
        assert!(choices > 0, "adaptive variable needs at least one choice");
        AdaptiveVar { id: id.into(), choices, current: 0, best: None, exhausted: choices == 1 }
    }

    /// The variable's identity (also its profile-key entity).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of options.
    pub fn choices(&self) -> usize {
        self.choices
    }

    /// The option used in the current trial.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The best (option, metric) observed so far.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.best
    }

    /// Resets to the default choice (paper's `initialize`).
    pub fn initialize(&mut self) {
        self.current = 0;
        self.best = None;
        self.exhausted = self.choices == 1;
    }

    fn record(&mut self, metric: f64) {
        // A NaN metric (corrupted measurement) must never poison the
        // comparison chain: map it to +inf, which any finite later sample
        // displaces, while two infinities deterministically keep the first.
        let metric = if metric.is_nan() { f64::INFINITY } else { metric };
        if self.best.is_none_or(|(_, b)| metric < b) {
            self.best = Some((self.current, metric));
        }
    }

    fn iterate(&mut self) -> bool {
        if self.current + 1 < self.choices {
            self.current += 1;
            true
        } else {
            self.exhausted = true;
            false
        }
    }

    fn freeze_best(&mut self) {
        if let Some((c, _)) = self.best {
            self.current = c;
        }
    }
}

impl UpdateNode {
    /// A leaf node.
    pub fn var(id: impl Into<String>, choices: usize) -> Self {
        UpdateNode::Var(AdaptiveVar::new(id, choices))
    }

    /// An interior node.
    pub fn group(mode: ExploreMode, children: Vec<UpdateNode>) -> Self {
        UpdateNode::Group { mode, children, active: 0 }
    }

    fn exhausted(&self) -> bool {
        match self {
            UpdateNode::Var(v) => v.exhausted,
            UpdateNode::Group { mode, children, active } => match mode {
                ExploreMode::Parallel | ExploreMode::Exhaustive => {
                    children.iter().all(|c| c.exhausted())
                }
                ExploreMode::Prefix => *active >= children.len(),
            },
        }
    }

    /// Advances to the next configuration. Returns `false` when exhausted.
    fn advance(&mut self) -> bool {
        let mut froze = false;
        self.advance_tracking(&mut froze)
    }

    /// Like `advance`, but flags whether the step froze a prefix child at
    /// its best observed choice — the only *metric-dependent* transition in
    /// the tree. Everything else (parallel stepping, odometer carries,
    /// resets) depends only on the tree's shape, which is what makes
    /// [`UpdateTree::lookahead`] sound.
    fn advance_tracking(&mut self, froze: &mut bool) -> bool {
        match self {
            UpdateNode::Var(v) => v.iterate(),
            UpdateNode::Group { mode, children, active } => match mode {
                ExploreMode::Parallel => {
                    let mut any = false;
                    for c in children {
                        if !c.exhausted() && c.advance_tracking(froze) {
                            any = true;
                        }
                    }
                    any
                }
                ExploreMode::Exhaustive => {
                    // Odometer: advance the first child that can; reset all
                    // children before it.
                    for i in 0..children.len() {
                        if children[i].advance_tracking(froze) {
                            for c in children.iter_mut().take(i) {
                                c.reset_choices();
                            }
                            return true;
                        }
                    }
                    false
                }
                ExploreMode::Prefix => {
                    while *active < children.len() {
                        if children[*active].advance_tracking(froze) {
                            return true;
                        }
                        children[*active].freeze_best();
                        *froze = true;
                        *active += 1;
                        // The next child starts from its initial choice,
                        // which it already occupies; running one trial at
                        // that position is handled by the caller's loop.
                        if *active < children.len() {
                            return true;
                        }
                    }
                    false
                }
            },
        }
    }

    fn reset_choices(&mut self) {
        match self {
            UpdateNode::Var(v) => {
                v.current = 0;
                v.exhausted = v.choices == 1;
            }
            UpdateNode::Group { children, active, .. } => {
                *active = 0;
                for c in children {
                    c.reset_choices();
                }
            }
        }
    }

    fn freeze_best(&mut self) {
        match self {
            UpdateNode::Var(v) => v.freeze_best(),
            UpdateNode::Group { children, .. } => {
                for c in children {
                    c.freeze_best();
                }
            }
        }
    }

    fn visit_vars<'a>(&'a self, out: &mut Vec<&'a AdaptiveVar>) {
        match self {
            UpdateNode::Var(v) => out.push(v),
            UpdateNode::Group { children, .. } => {
                for c in children {
                    c.visit_vars(out);
                }
            }
        }
    }

    /// Every variable's current choice, in depth-first (slot) order.
    fn picks(&self) -> Vec<usize> {
        fn visit(node: &UpdateNode, out: &mut Vec<usize>) {
            match node {
                UpdateNode::Var(v) => out.push(v.current),
                UpdateNode::Group { children, .. } => {
                    for c in children {
                        visit(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        visit(self, &mut out);
        out
    }
}

/// The update tree: drives exploration trials and records metrics.
///
/// Every variable has a *slot*: its position in the tree's depth-first
/// variable order, fixed at construction. The tree is driven in slots:
/// [`UpdateTree::lookahead`] and [`UpdateTree::picks`] give one choice per
/// slot, [`UpdateTree::advance`] steps to the next trial, and
/// [`UpdateTree::record_at`] reports a variable's metric by slot.
/// [`UpdateTree::slot`] resolves a variable id through an index built
/// once, and [`UpdateTree::assignment`] maps every variable's id to its
/// current choice, for callers that want names.
#[derive(Debug, Clone)]
pub struct UpdateTree {
    root: UpdateNode,
    /// Child-index path from the root to each slot's variable.
    paths: Vec<Vec<usize>>,
    /// Variable id → slot (the first variable carrying the id).
    slots: HashMap<String, usize>,
    started: bool,
}

impl UpdateTree {
    /// Wraps a root node.
    pub fn new(root: UpdateNode) -> Self {
        fn walk(
            node: &UpdateNode,
            path: &mut Vec<usize>,
            paths: &mut Vec<Vec<usize>>,
            slots: &mut HashMap<String, usize>,
        ) {
            match node {
                UpdateNode::Var(v) => {
                    slots.entry(v.id.clone()).or_insert(paths.len());
                    paths.push(path.clone());
                }
                UpdateNode::Group { children, .. } => {
                    for (i, c) in children.iter().enumerate() {
                        path.push(i);
                        walk(c, path, paths, slots);
                        path.pop();
                    }
                }
            }
        }
        let mut paths = Vec::new();
        let mut slots = HashMap::new();
        walk(&root, &mut Vec::new(), &mut paths, &mut slots);
        UpdateTree { root, paths, slots, started: false }
    }

    /// The slot of the variable named `id`, if the tree has one.
    pub fn slot(&self, id: &str) -> Option<usize> {
        self.slots.get(id).copied()
    }

    fn var_at_mut(&mut self, slot: usize) -> &mut AdaptiveVar {
        let mut node = &mut self.root;
        for &i in &self.paths[slot] {
            let UpdateNode::Group { children, .. } = node else {
                unreachable!("slot paths run through groups")
            };
            node = &mut children[i];
        }
        let UpdateNode::Var(v) = node else { unreachable!("slot paths end at variables") };
        v
    }

    /// Steps to the next trial, or returns `false` when the space is
    /// exhausted. The first call stays at the initial configuration; later
    /// calls advance the tree. [`UpdateTree::picks`] reads the trial.
    pub fn advance(&mut self) -> bool {
        if self.started {
            if !self.root.advance() {
                return false;
            }
        } else {
            self.started = true;
        }
        true
    }

    /// Peeks at up to `max` upcoming trials without consuming them. Each
    /// trial is its [`UpdateTree::picks`]: one choice per slot.
    ///
    /// The batch stops early at any *metric-dependent* transition — a
    /// prefix child freezing at its best-so-far choice — because trials
    /// still in the batch may change which choice is best. (A freeze on the
    /// batch's very first advance is fine: it can only use metrics recorded
    /// before this batch.) Every other advance depends only on the tree's
    /// shape, so calling [`UpdateTree::advance`] once per returned trial —
    /// recording metrics between calls exactly as a sequential driver
    /// would — reproduces this batch verbatim. That is the contract the
    /// exploration driver relies on: it evaluates a whole batch, in any
    /// order (simulations fan out to workers), and then commits the results
    /// in candidate order.
    ///
    /// Only the root is cloned to peek; the slot index and path table stay
    /// with `self`.
    pub fn lookahead(&self, max: usize) -> Vec<Vec<usize>> {
        let mut root = self.root.clone();
        let mut started = self.started;
        let mut out = Vec::new();
        while out.len() < max {
            if started {
                let mut froze = false;
                if !root.advance_tracking(&mut froze) {
                    break;
                }
                if froze && !out.is_empty() {
                    break;
                }
            } else {
                started = true;
            }
            out.push(root.picks());
        }
        out
    }

    /// Every variable's current choice, in slot order.
    pub fn picks(&self) -> Vec<usize> {
        self.root.picks()
    }

    /// The current assignment of every variable.
    pub fn assignment(&self) -> BTreeMap<String, usize> {
        let mut vars = Vec::new();
        self.root.visit_vars(&mut vars);
        vars.into_iter().map(|v| (v.id.clone(), v.current)).collect()
    }

    /// Reports the measured metric for the variable in `slot` in the
    /// *current* trial.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a slot of this tree.
    pub fn record_at(&mut self, slot: usize, metric: f64) {
        self.var_at_mut(slot).record(metric);
    }

    /// Quarantines every variable's *current* choice: records +inf for
    /// it, so it can never be frozen as best unless every other choice is
    /// also quarantined. The robust exploration driver calls this for
    /// candidates whose measurements stayed faulted through all retries,
    /// and for structurally invalid configurations.
    pub fn poison_all(&mut self) {
        for slot in 0..self.paths.len() {
            self.record_at(slot, f64::INFINITY);
        }
    }

    /// Freezes every variable at its best observed choice and returns the
    /// final assignment.
    pub fn best_assignment(&mut self) -> BTreeMap<String, usize> {
        self.root.freeze_best();
        self.assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a tree to exhaustion with a synthetic metric; returns the
    /// number of trials.
    fn drive(tree: &mut UpdateTree, metric: impl Fn(&BTreeMap<String, usize>, &str) -> f64) -> usize {
        let mut n = 0;
        while tree.advance() {
            n += 1;
            let asg = tree.assignment();
            for id in asg.keys() {
                let slot = tree.slot(id).expect("every variable has a slot");
                tree.record_at(slot, metric(&asg, id));
            }
            assert!(n < 10_000, "runaway exploration");
        }
        n
    }

    #[test]
    fn parallel_is_additive_not_multiplicative() {
        // 5 groups x 6 choices: parallel exploration needs 6 trials, not 6^5
        // (the paper's §4.5.1 example).
        let children: Vec<UpdateNode> =
            (0..5).map(|i| UpdateNode::var(format!("g{i}"), 6)).collect();
        let mut tree = UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, children));
        let trials = drive(&mut tree, |asg, id| (asg[id] as f64 - 3.0).abs());
        assert_eq!(trials, 6);
        // Every variable found its own optimum (choice 3).
        let best = tree.best_assignment();
        for i in 0..5 {
            assert_eq!(best[&format!("g{i}")], 3);
        }
    }

    #[test]
    fn exhaustive_is_multiplicative() {
        let children = vec![UpdateNode::var("a", 3), UpdateNode::var("b", 4)];
        let mut tree = UpdateTree::new(UpdateNode::group(ExploreMode::Exhaustive, children));
        let mut seen = std::collections::HashSet::new();
        while tree.advance() {
            let asg = tree.assignment();
            seen.insert((asg["a"], asg["b"]));
        }
        assert_eq!(seen.len(), 12, "all 3x4 combinations visited");
    }

    #[test]
    fn prefix_freezes_earlier_children() {
        // Two children of 4 choices: prefix explores ~4 + 4 trials, and when
        // the second child explores, the first sits at its best.
        let children = vec![UpdateNode::var("e0", 4), UpdateNode::var("e1", 4)];
        let mut tree = UpdateTree::new(UpdateNode::group(ExploreMode::Prefix, children));
        let (e0, e1) = (tree.slot("e0").unwrap(), tree.slot("e1").unwrap());
        let mut e0_during_e1 = Vec::new();
        let mut prev_e1 = None;
        let mut trials = 0;
        while tree.advance() {
            trials += 1;
            let asg = tree.assignment();
            // Metric: e0 best at 2, e1 best at 1.
            tree.record_at(e0, (asg["e0"] as f64 - 2.0).abs());
            tree.record_at(e1, (asg["e1"] as f64 - 1.0).abs());
            if prev_e1.is_some_and(|p| p != asg["e1"]) {
                e0_during_e1.push(asg["e0"]);
            }
            prev_e1 = Some(asg["e1"]);
        }
        assert!(trials <= 9, "prefix is additive: {trials} trials");
        assert!(e0_during_e1.iter().all(|&c| c == 2), "e0 frozen at best while e1 explores");
        assert_eq!(tree.best_assignment()["e1"], 1);
    }

    #[test]
    fn nested_parallel_of_prefix_groups() {
        // Two super-epochs in parallel, each a prefix over 2 epochs:
        // trials = max over super-epochs of (sum of epoch choices), additive.
        let se = |n: usize| {
            UpdateNode::group(
                ExploreMode::Prefix,
                vec![
                    UpdateNode::var(format!("se{n}.e0"), 3),
                    UpdateNode::var(format!("se{n}.e1"), 3),
                ],
            )
        };
        let mut tree =
            UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, vec![se(0), se(1)]));
        let trials = drive(&mut tree, |asg, id| asg[id] as f64);
        assert!(trials <= 6, "nested additive exploration: {trials}");
    }

    #[test]
    fn single_choice_space_yields_one_trial() {
        let mut tree = UpdateTree::new(UpdateNode::var("only", 1));
        assert!(tree.advance());
        assert!(!tree.advance());
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_choices_panics() {
        let _ = AdaptiveVar::new("x", 0);
    }

    #[test]
    fn lookahead_covers_parallel_groups_fully() {
        // Parallel-only trees have no metric-dependent transitions, so the
        // whole 6-trial space is visible in one batch.
        let children: Vec<UpdateNode> =
            (0..5).map(|i| UpdateNode::var(format!("g{i}"), 6)).collect();
        let tree = UpdateTree::new(UpdateNode::group(ExploreMode::Parallel, children));
        let batch = tree.lookahead(100);
        assert_eq!(batch.len(), 6);
        for (t, picks) in batch.iter().enumerate() {
            for i in 0..5 {
                assert_eq!(picks[tree.slot(&format!("g{i}")).unwrap()], t);
            }
        }
    }

    #[test]
    fn lookahead_stops_before_prefix_freeze() {
        // Prefix: e0 explores its 4 choices first; the transition to e1
        // freezes e0 at its best, which depends on metrics the batch has
        // not recorded yet — the batch must stop at the boundary.
        let children = vec![UpdateNode::var("e0", 4), UpdateNode::var("e1", 4)];
        let tree = UpdateTree::new(UpdateNode::group(ExploreMode::Prefix, children));
        let batch = tree.lookahead(100);
        assert_eq!(batch.len(), 4, "only e0's sweep is metric-independent");
        let e1 = tree.slot("e1").unwrap();
        assert!(batch.iter().all(|picks| picks[e1] == 0));
    }

    #[test]
    fn lookahead_replay_matches_sequential_driver() {
        // Drive each tree twice — once trial-by-trial, once via lookahead
        // batches with in-order commits — and require identical trial
        // sequences and final assignments. Every lookahead pick, read
        // through `slot()`, must equal the assignment the replayed
        // `advance` yields. The trees are a fixed parallel-of-prefix
        // tree and the random trees of `random_tree`.
        let fixed = || {
            let se = |n: usize| {
                UpdateNode::group(
                    ExploreMode::Prefix,
                    vec![
                        UpdateNode::var(format!("se{n}.e0"), 3),
                        UpdateNode::var(format!("se{n}.e1"), 4),
                    ],
                )
            };
            UpdateNode::group(ExploreMode::Parallel, vec![se(0), se(1)])
        };
        let mut rng = astra_util::Rng64::new(0x100C_A4EA);
        let mut roots = vec![fixed()];
        for _ in 0..200 {
            roots.push(random_tree(&mut rng, 3, &mut 0));
        }
        let metric = |asg: &BTreeMap<String, usize>, id: &str| {
            // Arbitrary but deterministic: different optimum per variable.
            ((asg[id] * 7 + id.len() + id.bytes().map(usize::from).sum::<usize>()) % 5) as f64
        };

        for (case, root) in roots.into_iter().enumerate() {
            let mut seq = UpdateTree::new(root.clone());
            let mut seq_trace = Vec::new();
            while seq.advance() {
                let asg = seq.assignment();
                for id in asg.keys() {
                    seq.record_at(seq.slot(id).unwrap(), metric(&asg, id));
                }
                seq_trace.push(asg);
                assert!(seq_trace.len() < 10_000, "runaway exploration");
            }

            let mut bat = UpdateTree::new(root);
            let mut bat_trace = Vec::new();
            loop {
                let batch = bat.lookahead(3);
                if batch.is_empty() {
                    break;
                }
                for picks in batch {
                    assert!(bat.advance(), "lookahead bounds the batch");
                    let asg = bat.assignment();
                    assert_eq!(picks.len(), asg.len(), "case {case}: one pick per variable");
                    for (id, &choice) in &asg {
                        let slot = bat.slot(id).expect("every variable has a slot");
                        assert_eq!(picks[slot], choice, "case {case}: {id} diverged");
                        bat.record_at(slot, metric(&asg, id));
                    }
                    assert_eq!(bat.picks(), picks, "case {case}: replayed picks diverged");
                    bat_trace.push(asg);
                }
            }

            assert_eq!(seq_trace, bat_trace, "case {case}");
            assert_eq!(seq.best_assignment(), bat.best_assignment(), "case {case}");
        }
    }

    #[test]
    fn nan_metric_never_wedges_best() {
        let mut v = AdaptiveVar::new("v", 3);
        v.record(f64::NAN);
        assert!(v.iterate());
        v.record(7.0);
        // The finite sample must displace the corrupted one.
        assert_eq!(v.best(), Some((1, 7.0)));
    }

    #[test]
    fn poison_quarantines_current_choice() {
        let mut tree = UpdateTree::new(UpdateNode::var("v", 3));
        assert!(tree.advance()); // choice 0
        tree.poison_all();
        assert!(tree.advance()); // choice 1
        tree.record_at(0, 9.0);
        assert!(tree.advance()); // choice 2
        tree.record_at(0, 11.0);
        assert_eq!(tree.best_assignment()["v"], 1, "poisoned choice must lose to any finite");
    }

    /// A random tree of nested groups over uniquely named variables
    /// (leaves carry 1–3 choices).
    fn random_tree(rng: &mut astra_util::Rng64, depth: u32, next_id: &mut usize) -> UpdateNode {
        if depth == 0 || rng.gen_range_u32(0, 3) == 0 {
            *next_id += 1;
            return UpdateNode::var(format!("v{next_id}"), rng.gen_range_usize(1, 3));
        }
        let mode = match rng.gen_range_u32(0, 2) {
            0 => ExploreMode::Parallel,
            1 => ExploreMode::Exhaustive,
            _ => ExploreMode::Prefix,
        };
        // At most 2^3 leaves of at most 3 choices: an exhaustive-only tree
        // stays under 3^8 trials.
        let n = rng.gen_range_usize(1, 2);
        let children = (0..n).map(|_| random_tree(rng, depth - 1, next_id)).collect();
        UpdateNode::group(mode, children)
    }

    #[test]
    fn slots_follow_depth_first_variable_order() {
        let tree = UpdateTree::new(UpdateNode::group(
            ExploreMode::Parallel,
            vec![
                UpdateNode::group(
                    ExploreMode::Prefix,
                    vec![UpdateNode::var("b", 2), UpdateNode::var("a", 2)],
                ),
                UpdateNode::var("c", 3),
            ],
        ));
        assert_eq!((tree.slot("b"), tree.slot("a"), tree.slot("c")), (Some(0), Some(1), Some(2)));
        assert_eq!(tree.slot("missing"), None);
    }

    #[test]
    fn initialize_resets() {
        let mut v = AdaptiveVar::new("v", 3);
        v.record(5.0);
        assert!(v.iterate());
        v.record(1.0);
        v.initialize();
        assert_eq!(v.current(), 0);
        assert!(v.best().is_none());
    }
}
