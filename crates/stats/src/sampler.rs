//! Deterministic samplers for the synthetic substrates.
//!
//! Web traffic concentrates on few hostnames (Zipf), repository popularity
//! is heavy-tailed (log-normal), and the generators must be reproducible
//! bit-for-bit from a `u64` seed. All samplers take `&mut impl Rng` so a
//! single seeded [`rand::rngs::StdRng`] can drive a whole pipeline.
//!
//! A generator that draws first and decides after takes raw `u64` draws
//! and maps them here, with [`unit_f64`], [`index_below`] and
//! [`Zipf::rank`]. Each gives exactly what the vendored `rand` shim's
//! `gen::<f64>()`, `gen_range(0..n)` and [`Zipf::sample`] give for the
//! same draw (tested below), so the two styles make one stream.
//! [`unit_cut`] compares a raw draw with a probability the way its
//! `unit_f64` compares, in integers.

use rand::Rng;

/// The `f64` in `[0, 1)` that `rng.gen::<f64>()` makes of the raw draw
/// `x`: its top 53 bits, scaled by `2^-53`.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The bound a raw draw's top 53 bits fall under exactly when its
/// [`unit_f64`] is below `p`, for `p` in `[0, 1]`: `unit_f64(x) < p` iff
/// `x >> 11 < unit_cut(p)`. A generator that selects on a roll compares
/// integers, so no conversion to `f64` sits between a draw and the select
/// that decides which draw comes next.
#[inline]
pub fn unit_cut(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The index in `0..n` that `rng.gen_range(0..n)` makes of the raw draw
/// `x`: the high word of `x · n` (Lemire's multiply-shift).
#[inline]
pub fn index_below(x: u64, n: usize) -> usize {
    ((u128::from(x) * n as u128) >> 64) as usize
}

/// A Zipf distribution over ranks `1..=n` with exponent `s`, sampled via a
/// precomputed cumulative table. O(n) setup; exact (no rejection), which
/// keeps the generators fast at corpus scale.
///
/// A draw `u` ranks at the first entry of the cumulative table not below
/// it. A second table holds that rank at every multiple of
/// `2^-TABLE_BITS`, so a draw's top bits name a bucket and the ranks at
/// its two ends bound the draw's: when they agree the draw ranks there,
/// and otherwise a binary search covers only the ranks between them.
/// The bucket comes straight from the raw draw's bits, and the `f64` is
/// formed only for that search. Every rank equals a binary search over
/// the whole cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `edges[b]`: the index in `cdf` of a draw of exactly `b / 2^bits`,
    /// for `b` in `0..=2^bits`, where `bits` is [`TABLE_BITS`] outside
    /// the tests.
    edges: Vec<u32>,
    /// `53 - bits`: a draw's 53 mantissa bits shifted right by this name
    /// its bucket.
    shift: u32,
}

/// Bits of the draw that pick a bucket of [`Zipf`]'s rank table: 4,097
/// entries, 16 KiB.
const TABLE_BITS: u32 = 12;

impl Zipf {
    /// Create a Zipf sampler over `1..=n` with exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive — both are
    /// construction-time programming errors, not data errors.
    pub fn new(n: usize, s: f64) -> Self {
        Self::with_table_bits(n, s, TABLE_BITS)
    }

    /// [`Zipf::new`] with a rank table over the draw's top `bits` bits
    /// (at most [`TABLE_BITS`]); 0 makes one bucket, so every draw
    /// searches the whole cumulative table. The samples are the same for
    /// every `bits`.
    fn with_table_bits(n: usize, s: f64, bits: u32) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        assert!(bits <= TABLE_BITS, "Zipf rank table too large");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // The bucket edges ascend, so one pass over the table places them.
        let buckets = 1usize << bits;
        let mut edges = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for b in 0..=buckets {
            let u = b as f64 / buckets as f64;
            rank += cdf[rank..].partition_point(|&c| c < u);
            edges.push(rank as u32);
        }
        Zipf { cdf, edges, shift: 53 - bits }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a rank in `1..=n` (rank 1 is the most probable).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.rank(rng.next_u64())
    }

    /// The rank in `1..=n` of the raw draw `x`: the first index with
    /// `cdf[i] >= unit_f64(x)`, plus one, clamped to `n`.
    ///
    /// The bucket is the top bits of the draw's 53 mantissa bits, which
    /// is exactly `(unit_f64(x) · 2^bits)` truncated.
    #[inline]
    pub fn rank(&self, x: u64) -> usize {
        let b = ((x >> 11) >> self.shift) as usize;
        let (lo, hi) = (self.edges[b] as usize, self.edges[b + 1] as usize);
        let idx = if lo == hi {
            lo
        } else {
            let u = unit_f64(x);
            lo + self.cdf[lo..hi].partition_point(|&c| c < u)
        };
        idx.min(self.cdf.len() - 1) + 1
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.cdf.len() {
            return 0.0;
        }
        let prev = if k == 1 { 0.0 } else { self.cdf[k - 2] };
        self.cdf[k - 1] - prev
    }
}

/// Sample a standard normal via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample a log-normal with the given parameters of the underlying normal.
pub fn log_normal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Sample an exponential with the given rate.
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Pick a weighted index: returns `i` with probability `weights[i] /
/// sum(weights)`. Returns `None` for empty or all-zero weights.
pub fn weighted_index(rng: &mut impl Rng, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    let mut u: f64 = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if u < w {
            return Some(i);
        }
        u -= w;
    }
    // Floating point slack: return the last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Derive a child seed from a parent seed and a stream id (splitmix64
/// finalizer). Lets every substrate carve independent, reproducible RNG
/// streams out of one top-level seed.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng(1);
        let mut counts = vec![0usize; 101];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts.iter().skip(1).sum::<usize>() == 20_000);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(51), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = rng(2);
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut r)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "variance {v}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = rng(3);
        for _ in 0..1000 {
            assert!(log_normal(&mut r, 2.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn weighted_index_edge_cases() {
        let mut r = rng(4);
        assert_eq!(weighted_index(&mut r, &[]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 5.0, 0.0]), Some(1));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&mut r, &[1.0, 2.0, 7.0]).unwrap()] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.02, "{frac2}");
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn samplers_are_reproducible() {
        let z = Zipf::new(20, 1.1);
        let a: Vec<usize> = {
            let mut r = rng(7);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = rng(7);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    /// The rank of draw `u` by a binary search over the whole table.
    fn searched(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.n() - 1) + 1
    }

    /// A raw draw whose [`unit_f64`] is `u` (a multiple of `2^-53`), with
    /// `low`'s bottom 11 bits in the bits the mapping drops.
    fn raw(u: f64, low: u64) -> u64 {
        (((u * (1u64 << 53) as f64) as u64) << 11) | (low & 0x7ff)
    }

    /// The pool sizes the page and session generators index in the
    /// paper-scale worlds of seeds 7 and 23: organisations, platforms
    /// (987 and 1,042), excepted cities, trackers and spike hosts, then
    /// the largest platform, organisation and city.
    const POOL_SIZES: [usize; 9] = [3000, 987, 1042, 320, 40, 660, 785, 7, 4];

    #[test]
    fn one_bucket_searches_the_whole_table() {
        let (tabled, one) = (Zipf::new(300, 1.1), Zipf::with_table_bits(300, 1.1, 0));
        assert_eq!(one.edges.len(), 2);
        let (mut a, mut b) = (rng(9), rng(9));
        for _ in 0..10_000 {
            assert_eq!(tabled.sample(&mut a), one.sample(&mut b));
        }
    }

    proptest! {
        /// Every rank equals the whole-table search's, at every bucket
        /// boundary, one draw (`2^-53`) either side of it, and at random
        /// draws.
        #[test]
        fn bucketed_ranks_equal_the_whole_table_search(
            n in 1usize..5000,
            s in 0.3f64..3.0,
            bits in 0u32..13,
            seed in 0u64..1000,
        ) {
            let z = Zipf::with_table_bits(n, s, bits);
            let step = 1.0 / (1u64 << 53) as f64;
            let buckets = 1u64 << bits;
            let mut r = rng(seed);
            for b in 0..=buckets {
                let edge = b as f64 / buckets as f64;
                for u in [edge - step, edge, edge + step] {
                    if (0.0..1.0).contains(&u) {
                        let x = raw(u, r.next_u64());
                        prop_assert_eq!(unit_f64(x), u);
                        prop_assert_eq!(z.rank(x), searched(&z, u), "u = {}", u);
                    }
                }
            }
            for _ in 0..1000 {
                let x = r.next_u64();
                prop_assert_eq!(z.rank(x), searched(&z, unit_f64(x)), "x = {:#x}", x);
            }
        }

        /// A raw draw maps to what an identically seeded `StdRng` gives
        /// for it: the `f64` of `gen`, the index of `gen_range(0..n)` and,
        /// for the two Zipf tables the generators build, the whole-table
        /// rank of `gen`'s `f64`.
        #[test]
        fn raw_draws_map_like_the_rng(seed in 0u64..u64::MAX, n in 1usize..=u32::MAX as usize) {
            let (mut raw, mut rng) = (rng(seed), rng(seed));
            for n in [1, 2, n, u32::MAX as usize].into_iter().chain(POOL_SIZES) {
                for _ in 0..50 {
                    prop_assert_eq!(unit_f64(raw.next_u64()), rng.gen::<f64>());
                    prop_assert_eq!(index_below(raw.next_u64(), n), rng.gen_range(0..n), "n = {}", n);
                }
            }
            for z in [Zipf::new(3000, 1.05), Zipf::new(40, 1.2)] {
                for _ in 0..500 {
                    prop_assert_eq!(z.rank(raw.next_u64()), searched(&z, rng.gen::<f64>()));
                }
            }
        }

        /// A draw falls under a probability's cut exactly when its `f64`
        /// falls under the probability: at the draws one `2^-53` either
        /// side of the last one at or below it, and at random draws.
        #[test]
        fn unit_cuts_compare_like_the_f64(seed in 0u64..u64::MAX, p in 0.0f64..=1.0) {
            let mut r = rng(seed);
            let step = 1.0 / (1u64 << 53) as f64;
            for p in [0.0, 0.15, 0.18, 0.30, 0.45, 0.60, 0.70, 1.0, p] {
                let at = (p / step).floor() * step;
                let near = [at - step, at, at + step].into_iter().filter(|u| (0.0..1.0).contains(u));
                let draws: Vec<u64> = near.map(|u| raw(u, r.next_u64())).collect();
                for x in draws.into_iter().chain((0..200).map(|_| r.next_u64())) {
                    prop_assert_eq!(unit_f64(x) < p, x >> 11 < unit_cut(p), "x = {:#x}", x);
                }
            }
        }

        #[test]
        fn zipf_samples_in_range(n in 1usize..200, s in 0.5f64..2.5, seed in 0u64..1000) {
            let z = Zipf::new(n, s);
            let mut r = rng(seed);
            for _ in 0..20 {
                let k = z.sample(&mut r);
                prop_assert!((1..=n).contains(&k));
            }
        }

        #[test]
        fn weighted_index_in_range(
            weights in proptest::collection::vec(0.0f64..10.0, 1..20),
            seed in 0u64..1000,
        ) {
            let mut r = rng(seed);
            if let Some(i) = weighted_index(&mut r, &weights) {
                prop_assert!(i < weights.len());
                prop_assert!(weights[i] > 0.0);
            }
        }
    }
}
