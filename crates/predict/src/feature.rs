//! Fixed-width hashed feature vectors.
//!
//! A [`FeatureVec`] is the bridge between candidate plans (fusion chunk
//! sizes, GEMM shapes, stream fanout, placement shares, topology) and the
//! linear model: callers push named numeric features and categorical tags,
//! and each lands in one of [`FEATURE_DIM`] buckets via FNV-1a feature
//! hashing with a hash-bit sign (the standard collision-bias trick). The
//! vector also maintains a 64-bit *fingerprint* over every raw
//! `(name, value)` pair pushed, in push order — an identity for the full
//! candidate that collisions in the bucketed view cannot erase, used by
//! the property suite to pin extraction determinism and injectivity.

/// Number of hashed value buckets in a [`FeatureVec`].
///
/// Small on purpose: the driver's candidate spaces have a few dozen
/// distinct knobs. A candidate's vector touches only a handful of the
/// buckets, and a full 256-wide pass per score or update is not free at
/// the driver's tens of thousands of updates per `optimize()`. So each
/// vector also records which buckets it touched, and the model's
/// arithmetic visits only those ([`FeatureVec::touched`]).
pub const FEATURE_DIM: usize = 256;

/// 64-bit words in a [`FeatureVec`]'s touched-bucket mask.
const MASK_WORDS: usize = FEATURE_DIM / 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A dense, fixed-width hashed feature vector with a raw-pair fingerprint
/// and a mask of the buckets its pushes touched.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVec {
    vals: [f64; FEATURE_DIM],
    /// Bit `b % 64` of word `b / 64` is set once bucket `b` was pushed to,
    /// even if its pushes cancel to zero.
    touched: [u64; MASK_WORDS],
    fingerprint: u64,
}

impl FeatureVec {
    /// An empty vector (all buckets zero, none touched).
    pub fn new() -> Self {
        FeatureVec { vals: [0.0; FEATURE_DIM], touched: [0; MASK_WORDS], fingerprint: FNV_OFFSET }
    }

    fn add(&mut self, bucket: usize, value: f64) {
        self.vals[bucket] += value;
        self.touched[bucket / 64] |= 1 << (bucket % 64);
    }

    fn fold(&mut self, name: &str, payload: u64) {
        self.fingerprint = fnv(self.fingerprint, name.as_bytes());
        self.fingerprint = fnv(self.fingerprint, &payload.to_le_bytes());
    }

    fn bucket(h: u64) -> (usize, f64) {
        let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
        ((h >> 1) as usize % FEATURE_DIM, sign)
    }

    /// Adds a numeric feature. Repeated pushes of the same name accumulate
    /// in the same bucket; callers should pre-scale unbounded magnitudes
    /// (see [`FeatureVec::push_log`]).
    pub fn push(&mut self, name: &str, value: f64) {
        let (b, sign) = Self::bucket(fnv(FNV_OFFSET, name.as_bytes()));
        self.add(b, sign * value);
        self.fold(name, value.to_bits());
    }

    /// Adds a numeric feature on a `log2(1 + v)` scale — the right shape
    /// for bytes, FLOPs, and other multi-order-of-magnitude quantities.
    pub fn push_log(&mut self, name: &str, value: f64) {
        self.push(name, (1.0 + value.max(0.0)).log2());
    }

    /// Adds a categorical feature: the `(name, id)` pair hashes to its own
    /// bucket with unit weight, so distinct ids become distinct indicator
    /// features rather than points on a numeric axis.
    pub fn tag(&mut self, name: &str, id: &str) {
        let h = fnv(fnv(FNV_OFFSET, name.as_bytes()), id.as_bytes());
        let (b, sign) = Self::bucket(h);
        self.add(b, sign);
        self.fold(name, fnv(FNV_OFFSET, id.as_bytes()));
    }

    /// Folds a `(name, id)` pair into the fingerprint *only* — no bucket is
    /// touched. Used for identity components (e.g. the full chunk map of a
    /// candidate) that must distinguish candidates without polluting the
    /// model's generalizable features.
    pub fn note(&mut self, name: &str, id: &str) {
        self.fold(name, fnv(FNV_OFFSET, id.as_bytes()));
    }

    /// The bucketed values the model consumes.
    pub fn values(&self) -> &[f64; FEATURE_DIM] {
        &self.vals
    }

    /// The touched buckets in ascending index order, with their values.
    /// Every other bucket holds `+0.0` and was never written.
    pub fn touched(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        Touched { vec: self, word: 0, bits: self.touched[0] }
    }

    /// The order-sensitive FNV-1a fingerprint over all raw pairs pushed.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Iterator behind [`FeatureVec::touched`]: the set bits of the mask, word
/// by word, lowest first.
struct Touched<'a> {
    vec: &'a FeatureVec,
    word: usize,
    bits: u64,
}

impl Iterator for Touched<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.vec.touched.get(self.word)?;
        }
        let b = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((b, self.vec.vals[b]))
    }
}

impl Default for FeatureVec {
    fn default() -> Self {
        FeatureVec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_is_deterministic() {
        let build = || {
            let mut f = FeatureVec::new();
            f.push("row_chunk", 4.0);
            f.push_log("flops", 1.0e9);
            f.tag("set", "fuse:lstm.gates");
            f.note("chunks", "{a:(2,1)}");
            f
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_inputs_have_distinct_fingerprints() {
        let mut seen = std::collections::HashSet::new();
        for rc in [1usize, 2, 4, 8] {
            for tag in ["a", "b", "c"] {
                for noted in ["x", "y"] {
                    let mut f = FeatureVec::new();
                    f.push("row_chunk", rc as f64);
                    f.tag("set", tag);
                    f.note("chunks", noted);
                    assert!(seen.insert(f.fingerprint()), "collision at {rc}/{tag}/{noted}");
                }
            }
        }
    }

    #[test]
    fn note_only_touches_the_fingerprint() {
        let mut a = FeatureVec::new();
        a.push("x", 1.0);
        let mut b = a.clone();
        b.note("identity", "whole-candidate");
        assert_eq!(a.values(), b.values());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn tags_are_indicators_not_magnitudes() {
        let mut a = FeatureVec::new();
        a.tag("lib", "CublasLike");
        let mut b = FeatureVec::new();
        b.tag("lib", "OaiWide");
        // Distinct ids must not land as different magnitudes of one axis.
        assert_ne!(a.values(), b.values());
    }
}
