//! Profile indexing (paper §4.6).
//!
//! Astra manages its exploration by *indexing profile data*: every
//! measurement is stored under a mangled key. The key's trailing part
//! identifies the measured entity (a GEMM, a fusion group, an epoch) and the
//! chosen option; *context prefixes* (allocation strategy, bucket id,
//! higher-level bindings) are prepended so that changing a higher-level
//! policy causes a *miss* and forces re-evaluation, while measurements in
//! unaffected contexts stay valid.
//!
//! The index stores full per-key [`SampleStats`] (count / mean / min /
//! variance) rather than a single scalar. Exploration decisions read only
//! the minimum.

use std::collections::HashMap;

/// A hierarchical profile key: context prefixes plus an entity/choice tail.
///
/// Keys compare *structurally* on the `(contexts, entity, choice)` triple,
/// so the mangling is injective: two distinct triples can never collide,
/// even when entity names themselves contain the `/` and `#` separators the
/// textual form uses.
///
/// # Examples
///
/// ```
/// use astra_core::ProfileKey;
///
/// let k = ProfileKey::entity("gemm:64x1024x1024", 2).in_context("alloc:1");
/// assert_eq!(k.to_string(), "alloc:1/gemm:64x1024x1024#2");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey {
    contexts: Vec<String>,
    entity: String,
    choice: usize,
}

impl ProfileKey {
    /// A context-free key for `entity` under option `choice`.
    pub fn entity(entity: impl Into<String>, choice: usize) -> Self {
        ProfileKey { contexts: Vec::new(), entity: entity.into(), choice }
    }

    /// Returns this key with `ctx` prepended (outermost context first).
    pub fn in_context(mut self, ctx: impl Into<String>) -> Self {
        self.contexts.insert(0, ctx.into());
        self
    }

    /// The entity name (without contexts or choice).
    pub fn entity_name(&self) -> &str {
        &self.entity
    }

    /// The choice index this key measures.
    pub fn choice(&self) -> usize {
        self.choice
    }

    /// The context prefixes, outermost first. With
    /// [`ProfileKey::entity_name`] and [`ProfileKey::choice`] this exposes
    /// the full structural triple, so the store can persist keys without a
    /// lossy textual mangle (entity names may contain the separators).
    pub fn contexts(&self) -> &[String] {
        &self.contexts
    }

    /// Rebuilds a key from its structural triple — the inverse of the
    /// accessors, used when loading persisted profile records.
    pub fn from_parts(contexts: Vec<String>, entity: String, choice: usize) -> Self {
        ProfileKey { contexts, entity, choice }
    }
}

impl std::fmt::Display for ProfileKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.contexts {
            write!(f, "{c}/")?;
        }
        write!(f, "{}#{}", self.entity, self.choice)
    }
}

impl std::fmt::Debug for ProfileKey {
    /// Debug-prints as the quoted mangled string — what tests and dumps key
    /// on — rather than the struct fields.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "\"{self}\"")
    }
}

/// Running statistics over every sample recorded for one key: count, mean,
/// minimum, and variance, maintained with Welford's algorithm (numerically
/// stable, O(1) per sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
}

impl SampleStats {
    fn new(value: f64) -> Self {
        SampleStats { count: 1, mean: value, m2: 0.0, min: value }
    }

    fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if value < self.min {
            self.min = value;
        }
    }

    /// Number of samples recorded (always ≥ 1 — stats exist only for
    /// measured keys).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample — the value exploration decisions use, since the
    /// noise model (autoboost, faults) only ever slows a run down.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Population variance of the samples (0 for a single sample).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }
}

/// The measurement store: key → per-key [`SampleStats`].
///
/// Lookups that feed exploration decisions ([`ProfileIndex::get`],
/// [`ProfileIndex::best_choice`]) return the per-key *minimum*:
/// measurements are repeatable under a fixed clock, and every injected
/// noise source is slow-only, so the smallest sample is the best estimate
/// of the true cost. The full stats stay available via
/// [`ProfileIndex::stats`].
///
/// The index is hashed: the driver records tens of thousands of samples
/// per `optimize()`, and an ordered map would compare string keys on every
/// one. Whatever observes an order — [`ProfileIndex::iter`] and `Debug` —
/// sorts by key on demand. Equality compares contents.
#[derive(Clone, Default, PartialEq)]
pub struct ProfileIndex {
    map: HashMap<ProfileKey, SampleStats>,
}

impl std::fmt::Debug for ProfileIndex {
    /// Prints as a struct with its entries in key order, as an ordered
    /// map would.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct InKeyOrder<'a>(&'a ProfileIndex);
        impl std::fmt::Debug for InKeyOrder<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("ProfileIndex").field("map", &InKeyOrder(self)).finish()
    }
}

impl ProfileIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a measurement for `key`.
    pub fn record(&mut self, key: &ProfileKey, value_ns: f64) {
        match self.map.get_mut(key) {
            Some(stats) => stats.push(value_ns),
            None => {
                self.map.insert(key.clone(), SampleStats::new(value_ns));
            }
        }
    }

    /// Whether `key` has been measured (a hit means no re-run needed).
    pub fn contains(&self, key: &ProfileKey) -> bool {
        self.map.contains_key(key)
    }

    /// The measurement for `key` (its minimum sample), if present.
    pub fn get(&self, key: &ProfileKey) -> Option<f64> {
        self.map.get(key).map(|s| s.min)
    }

    /// The full sample statistics for `key`, if present.
    pub fn stats(&self, key: &ProfileKey) -> Option<&SampleStats> {
        self.map.get(key)
    }

    /// The best (choice, value) among `choices` keys for an entity in a
    /// context-mangled keyspace. Returns `None` if none are measured.
    ///
    /// Ties on the metric break toward the *lowest* choice index — an
    /// explicit, stable rule rather than an accident of iteration order.
    pub fn best_choice(
        &self,
        mk_key: impl Fn(usize) -> ProfileKey,
        choices: usize,
    ) -> Option<(usize, f64)> {
        (0..choices)
            .filter_map(|c| self.get(&mk_key(c)).map(|v| (c, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Number of stored measurements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates every `(key, stats)` pair in key order. Sorts the entries
    /// on each call.
    pub fn iter(&self) -> impl Iterator<Item = (&ProfileKey, &SampleStats)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_mangling_causes_misses() {
        let mut idx = ProfileIndex::new();
        let plain = ProfileKey::entity("gemm:a", 0);
        idx.record(&plain, 100.0);
        assert!(idx.contains(&plain));
        // Same entity under a different allocation context: miss.
        let ctxed = ProfileKey::entity("gemm:a", 0).in_context("alloc:1");
        assert!(!idx.contains(&ctxed));
    }

    #[test]
    fn re_recording_keeps_minimum() {
        let mut idx = ProfileIndex::new();
        let k = ProfileKey::entity("e", 0);
        idx.record(&k, 50.0);
        idx.record(&k, 80.0);
        assert_eq!(idx.get(&k), Some(50.0));
        idx.record(&k, 20.0);
        assert_eq!(idx.get(&k), Some(20.0));
    }

    #[test]
    fn best_choice_picks_minimum() {
        let mut idx = ProfileIndex::new();
        for (c, v) in [(0, 30.0), (1, 10.0), (2, 20.0)] {
            idx.record(&ProfileKey::entity("fuse:g", c), v);
        }
        let (c, v) = idx.best_choice(|c| ProfileKey::entity("fuse:g", c), 3).unwrap();
        assert_eq!((c, v), (1, 10.0));
        // Unmeasured choices are skipped, missing entity yields None.
        assert!(idx.best_choice(|c| ProfileKey::entity("ghost", c), 3).is_none());
    }

    #[test]
    fn best_choice_ties_break_to_lowest_index() {
        let mut idx = ProfileIndex::new();
        // Exact ties across three choices, recorded out of order.
        for c in [2usize, 0, 1] {
            idx.record(&ProfileKey::entity("fuse:t", c), 42.0);
        }
        let (c, v) = idx.best_choice(|c| ProfileKey::entity("fuse:t", c), 3).unwrap();
        assert_eq!((c, v), (0, 42.0), "ties must resolve to the lowest choice index");
        // A strictly better later choice still wins.
        idx.record(&ProfileKey::entity("fuse:t", 2), 41.0);
        let (c, _) = idx.best_choice(|c| ProfileKey::entity("fuse:t", c), 3).unwrap();
        assert_eq!(c, 2);
    }

    #[test]
    fn stats_track_count_mean_min_variance() {
        let mut idx = ProfileIndex::new();
        let k = ProfileKey::entity("e", 0);
        for v in [10.0, 20.0, 30.0] {
            idx.record(&k, v);
        }
        let s = *idx.stats(&k).unwrap();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert_eq!(s.min(), 10.0);
        // Population variance of {10, 20, 30} is 200/3.
        assert!((s.variance() - 200.0 / 3.0).abs() < 1e-9);
        // Single-sample keys have zero variance.
        let k1 = ProfileKey::entity("e", 1);
        idx.record(&k1, 5.0);
        assert_eq!(idx.stats(&k1).unwrap().variance(), 0.0);
    }

    #[test]
    fn structural_keys_distinguish_slash_laden_entities() {
        // The textual mangling of these two keys is identical
        // ("a/b#0"-style collision); structural comparison must not be.
        let as_context = ProfileKey::entity("b", 0).in_context("a");
        let as_entity = ProfileKey::entity("a/b", 0);
        assert_eq!(as_context.to_string(), as_entity.to_string());
        assert_ne!(as_context, as_entity);
        let mut idx = ProfileIndex::new();
        idx.record(&as_context, 1.0);
        assert!(!idx.contains(&as_entity), "string-colliding keys must stay distinct");
    }

    #[test]
    fn display_orders_contexts_outermost_first() {
        let k = ProfileKey::entity("epoch:3", 1)
            .in_context("superepoch:0")
            .in_context("bucket:24");
        assert_eq!(k.to_string(), "bucket:24/superepoch:0/epoch:3#1");
    }

    #[test]
    fn iteration_and_debug_follow_key_order() {
        /// What the index printed as when it was an ordered map.
        mod ordered {
            #[derive(Debug)]
            pub struct ProfileIndex {
                pub map: std::collections::BTreeMap<super::ProfileKey, super::SampleStats>,
            }
        }
        let mut idx = ProfileIndex::new();
        let keys: Vec<ProfileKey> = (0..40)
            .map(|i| ProfileKey::entity(format!("e{}", (i * 17) % 40), i % 3).in_context("alloc:0"))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            idx.record(k, i as f64);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        assert!(idx.iter().map(|(k, _)| k).eq(&sorted));
        let want =
            ordered::ProfileIndex { map: idx.iter().map(|(k, s)| (k.clone(), *s)).collect() };
        assert_eq!(want.map.len(), idx.len());
        assert_eq!(format!("{idx:?}"), format!("{want:?}"));
        assert_eq!(format!("{idx:#?}"), format!("{want:#?}"));
    }

    #[test]
    fn debug_form_is_the_quoted_mangled_string() {
        let k = ProfileKey::entity("kern:8x64x64", 1).in_context("bucket:3");
        assert_eq!(format!("{k:?}"), "\"bucket:3/kern:8x64x64#1\"");
    }
}
