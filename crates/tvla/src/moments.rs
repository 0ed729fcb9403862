//! One-pass streaming moments (Schneider–Moradi / Pébay update formulas).
//!
//! The naive TVLA implementation recomputes means and variances with two
//! passes over all traces (paper Eq. 2); this accumulator maintains the
//! first raw moment and the second-to-fourth central sums *incrementally*
//! (paper Eqs. 3–4 and their higher-order extension), so trace acquisition
//! and leakage assessment are a single streaming pass. Accumulators can be
//! merged, enabling batched or distributed acquisition.

/// Streaming accumulator for mean and 2nd–4th central moments.
///
/// ```
/// use polaris_tvla::StreamingMoments;
///
/// let mut m = StreamingMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamingMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingMoments::default()
    }

    /// Adds one sample (paper Eq. 3: `M1' = M1 + Δ/n`).
    pub fn push(&mut self, x: f64) {
        let n1 = self.n;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1 as f64;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Adds every sample of a slice.
    ///
    /// Equivalent to — and bit-for-bit identical with — pushing each sample
    /// via [`StreamingMoments::push`] in order; delegates to
    /// [`StreamingMoments::extend_batch`].
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        self.extend_batch(xs);
    }

    /// Blocked batch update: applies the exact [`StreamingMoments::push`]
    /// recurrence to every sample of `xs` in order, on register-resident
    /// accumulator state that is written back once. Because the per-sample
    /// operation sequence is identical, the result is **bit-for-bit
    /// identical** to sequential `push` (the guarantee the distributed shard
    /// fold relies on), which the golden test pins.
    ///
    /// One chain is latency-bound: every sample waits on the previous
    /// sample's division. Batch sinks that update many accumulators at once
    /// advance them in lockstep (`extend_lockstep`, crate-private) and use
    /// this form for the remainder. It stays a separate loop because the
    /// one-chain lockstep kernel measured slower: 13 vs 7.7 ns/sample on a
    /// 2-vCPU Xeon VM (100k samples).
    pub fn extend_batch(&mut self, xs: &[f64]) {
        let (mut n, mut mean, mut m2, mut m3, mut m4) =
            (self.n, self.mean, self.m2, self.m3, self.m4);
        for &x in xs {
            let n1 = n;
            n += 1;
            let nf = n as f64;
            let delta = x - mean;
            let delta_n = delta / nf;
            let delta_n2 = delta_n * delta_n;
            let term1 = delta * delta_n * n1 as f64;
            mean += delta_n;
            m4 += term1 * delta_n2 * (nf * nf - 3.0 * nf + 3.0) + 6.0 * delta_n2 * m2
                - 4.0 * delta_n * m3;
            m3 += term1 * delta_n * (nf - 2.0) - 3.0 * delta_n * m2;
            m2 += term1;
        }
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
    }

    /// Lockstep batch update of `K` independent accumulators: `accs[k]`
    /// consumes `rows[k]`, and all `K` chains advance one sample at a time
    /// together. Each chain runs exactly the [`StreamingMoments::push`]
    /// operation sequence on its own state, so every accumulator ends
    /// **bit-for-bit identical** to pushing `rows[k]` into `accs[k]` one
    /// sample at a time — whatever counts the accumulators start from.
    ///
    /// The chains share no data, so their divisions overlap instead of
    /// waiting on one another, and the compiler can pack them into SIMD
    /// registers. The count is carried as an `f64` (`n1 = nf; nf = n1 + 1`),
    /// which is exact below 2⁵³ and therefore yields the same bits as
    /// `n as f64`, while keeping every chain operation in floating point so
    /// the loop vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub(crate) fn extend_lockstep<const K: usize>(
        accs: &mut [StreamingMoments; K],
        rows: [&[f64]; K],
    ) {
        let len = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == len),
            "lockstep rows must have equal lengths"
        );
        // Re-slicing to the common length lets the compiler drop the
        // per-sample bounds checks.
        let rows: [&[f64]; K] = rows.map(|r| &r[..len]);
        let mut nf: [f64; K] = std::array::from_fn(|k| accs[k].n as f64);
        let mut mean: [f64; K] = std::array::from_fn(|k| accs[k].mean);
        let mut m2: [f64; K] = std::array::from_fn(|k| accs[k].m2);
        let mut m3: [f64; K] = std::array::from_fn(|k| accs[k].m3);
        let mut m4: [f64; K] = std::array::from_fn(|k| accs[k].m4);
        // `i` indexes all K rows at once, which no single-row iterator
        // expresses.
        #[allow(clippy::needless_range_loop)]
        for i in 0..len {
            let x: [f64; K] = std::array::from_fn(|k| rows[k][i]);
            for k in 0..K {
                let n1 = nf[k];
                let n = n1 + 1.0;
                nf[k] = n;
                let delta = x[k] - mean[k];
                let delta_n = delta / n;
                let delta_n2 = delta_n * delta_n;
                let term1 = delta * delta_n * n1;
                mean[k] += delta_n;
                m4[k] += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2[k]
                    - 4.0 * delta_n * m3[k];
                m3[k] += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2[k];
                m2[k] += term1;
            }
        }
        for (k, acc) in accs.iter_mut().enumerate() {
            acc.n += len as u64;
            acc.mean = mean[k];
            acc.m2 = m2[k];
            acc.m3 = m3[k];
            acc.m4 = m4[k];
        }
    }

    /// Merges another accumulator into this one (parallel combination).
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta3 * delta;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The raw accumulator state `(n, mean, M2, M3, M4)` — the snapshot side
    /// of the distributed shard-state format. Together with
    /// [`StreamingMoments::from_raw_parts`] this round-trips the accumulator
    /// exactly (the floats are transported bit for bit), so a restored
    /// accumulator merges and reports identically to the original.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.m3, self.m4)
    }

    /// Restores an accumulator from [`StreamingMoments::raw_parts`] state.
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, m3: f64, m4: f64) -> Self {
        StreamingMoments {
            n,
            mean,
            m2,
            m3,
            m4,
        }
    }

    /// Sample mean (first raw moment `M1`).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance `CM2 = M2 − M1²` (paper Eq. 4).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance `s²` (used by the t-test).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Third central moment `CM3`.
    pub fn central_moment3(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m3 / self.n as f64
        }
    }

    /// Fourth central moment `CM4` — needed for the variance of centered
    /// squares in second-order TVLA.
    pub fn central_moment4(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m4 / self.n as f64
        }
    }

    /// Skewness (standardized CM3).
    pub fn skewness(&self) -> f64 {
        let v = self.population_variance();
        if v <= 0.0 {
            0.0
        } else {
            self.central_moment3() / v.powf(1.5)
        }
    }

    /// Excess kurtosis (standardized CM4 − 3).
    pub fn kurtosis_excess(&self) -> f64 {
        let v = self.population_variance();
        if v <= 0.0 {
            0.0
        } else {
            self.central_moment4() / (v * v) - 3.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference two-pass implementation (paper Eq. 2 style).
    fn naive(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let cm = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        (mean, cm(2), cm(3), cm(4))
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG so this module needs no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
            })
            .collect()
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = [1,2,3,4]: mean 2.5, population variance 1.25, sample
        // variance 5/3, CM3 = 0 (symmetric), CM4 = (2·1.5⁴ + 2·0.5⁴)/4 =
        // 2.5625, excess kurtosis = 2.5625/1.25² − 3 = −1.36.
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 2.5).abs() < 1e-15);
        assert!((m.population_variance() - 1.25).abs() < 1e-15);
        assert!((m.sample_variance() - 5.0 / 3.0).abs() < 1e-15);
        assert!(m.central_moment3().abs() < 1e-15);
        assert!((m.central_moment4() - 2.5625).abs() < 1e-15);
        assert!(m.skewness().abs() < 1e-15);
        assert!((m.kurtosis_excess() - (-1.36)).abs() < 1e-12);
    }

    #[test]
    fn closed_form_skewed_vector() {
        // xs = [1,1,1,5]: mean 2, CM2 = 3, CM3 = 6, skewness = 6/3^1.5 =
        // 2/√3.
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&[1.0, 1.0, 1.0, 5.0]);
        assert!((m.mean() - 2.0).abs() < 1e-15);
        assert!((m.population_variance() - 3.0).abs() < 1e-15);
        assert!((m.central_moment3() - 6.0).abs() < 1e-12);
        assert!((m.skewness() - 2.0 / 3.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_is_degenerate() {
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&[2.0; 5]);
        assert!((m.mean() - 2.0).abs() < 1e-15);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.skewness(), 0.0);
        assert_eq!(m.kurtosis_excess(), 0.0);
    }

    #[test]
    fn single_push_incremental_mean() {
        // Pushing one value at a time keeps the running mean exact at every
        // step: after k pushes of [4,8,12,...] the mean is 2(k+1).
        let mut m = StreamingMoments::new();
        for k in 1..=10u64 {
            m.push(4.0 * k as f64);
            assert_eq!(m.count(), k);
            assert!((m.mean() - 2.0 * (k + 1) as f64).abs() < 1e-12);
        }
        // Population variance of 4·[1..10] is 16 · (100−1)/12 = 132.
        assert!((m.population_variance() - 132.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_matches_two_pass() {
        let xs = pseudo_random(5000, 42);
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&xs);
        let (mean, cm2, cm3, cm4) = naive(&xs);
        assert!((m.mean() - mean).abs() < 1e-9);
        assert!((m.population_variance() - cm2).abs() < 1e-9);
        assert!((m.central_moment3() - cm3).abs() < 1e-7);
        assert!((m.central_moment4() - cm4).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = pseudo_random(3000, 7);
        let (a, b) = xs.split_at(1234);
        let mut ma = StreamingMoments::new();
        ma.extend_from_slice(a);
        let mut mb = StreamingMoments::new();
        mb.extend_from_slice(b);
        ma.merge(&mb);

        let mut all = StreamingMoments::new();
        all.extend_from_slice(&xs);

        assert_eq!(ma.count(), all.count());
        assert!((ma.mean() - all.mean()).abs() < 1e-10);
        assert!((ma.population_variance() - all.population_variance()).abs() < 1e-9);
        assert!((ma.central_moment4() - all.central_moment4()).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = pseudo_random(100, 3);
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&xs);
        let snapshot = m;
        m.merge(&StreamingMoments::new());
        assert_eq!(m, snapshot);

        let mut empty = StreamingMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut m = StreamingMoments::new();
        for _ in 0..100 {
            m.push(3.25);
        }
        assert!((m.mean() - 3.25).abs() < 1e-12);
        assert!(m.population_variance().abs() < 1e-12);
        assert!(m.sample_variance().abs() < 1e-12);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&[1.0, 3.0]);
        assert!((m.sample_variance() - 2.0).abs() < 1e-12);
        assert!((m.population_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_counts() {
        let mut m = StreamingMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.sample_variance(), 0.0);
        m.push(5.0);
        assert_eq!(m.sample_variance(), 0.0, "single sample: s² undefined → 0");
        assert_eq!(m.mean(), 5.0);
    }

    #[test]
    fn extend_batch_is_bit_identical_to_sequential_push() {
        // Golden guarantee of the SoA hot path: the blocked update must
        // reproduce sequential push *exactly* (all five raw fields, to the
        // bit), at every split of the stream — including resuming a batch on
        // top of existing scalar state.
        let xs = pseudo_random(4096, 99);
        for split in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let mut scalar = StreamingMoments::new();
            for &x in &xs {
                scalar.push(x);
            }
            let mut blocked = StreamingMoments::new();
            for &x in &xs[..split] {
                blocked.push(x);
            }
            blocked.extend_batch(&xs[split..]);
            assert_bits_eq(&scalar, &blocked, &format!("split {split}"));
        }
    }

    fn assert_bits_eq(a: &StreamingMoments, b: &StreamingMoments, what: &str) {
        let (n_a, m1_a, m2_a, m3_a, m4_a) = a.raw_parts();
        let (n_b, m1_b, m2_b, m3_b, m4_b) = b.raw_parts();
        assert_eq!(n_a, n_b, "{what}: n");
        assert_eq!(m1_a.to_bits(), m1_b.to_bits(), "{what}: mean");
        assert_eq!(m2_a.to_bits(), m2_b.to_bits(), "{what}: M2");
        assert_eq!(m3_a.to_bits(), m3_b.to_bits(), "{what}: M3");
        assert_eq!(m4_a.to_bits(), m4_b.to_bits(), "{what}: M4");
    }

    /// `extend_lockstep` against sequential `push` on every chain: chain
    /// `k` first absorbs `k * 5` private samples (so the chains start from
    /// different counts), then one lockstep batch of `lanes` samples.
    fn check_lockstep<const K: usize>(lanes: usize) {
        let rows: Vec<Vec<f64>> = (0..K)
            .map(|k| pseudo_random(lanes, 1000 + k as u64))
            .collect();
        let mut lock = [StreamingMoments::new(); K];
        let mut reference = [StreamingMoments::new(); K];
        for k in 0..K {
            for x in pseudo_random(k * 5, 7 + k as u64) {
                lock[k].push(x);
                reference[k].push(x);
            }
            for &x in &rows[k] {
                reference[k].push(x);
            }
        }
        StreamingMoments::extend_lockstep(&mut lock, std::array::from_fn(|k| &rows[k][..]));
        for k in 0..K {
            assert_bits_eq(
                &lock[k],
                &reference[k],
                &format!("K={K} lanes={lanes} chain {k}"),
            );
        }
    }

    #[test]
    fn extend_lockstep_is_bit_identical_to_sequential_push() {
        for lanes in [0usize, 1, 63, 64, 65, 256, 512] {
            check_lockstep::<1>(lanes);
            check_lockstep::<3>(lanes);
            check_lockstep::<8>(lanes);
        }
    }

    #[test]
    fn extend_lockstep_resumes_like_one_long_batch() {
        // Two lockstep batches back to back equal one serial batch per chain.
        let xs: Vec<Vec<f64>> = (0..8).map(|k| pseudo_random(700, 50 + k)).collect();
        let mut lock = [StreamingMoments::new(); 8];
        StreamingMoments::extend_lockstep(&mut lock, std::array::from_fn(|k| &xs[k][..300]));
        StreamingMoments::extend_lockstep(&mut lock, std::array::from_fn(|k| &xs[k][300..]));
        for (k, acc) in lock.iter().enumerate() {
            let mut serial = StreamingMoments::new();
            serial.extend_batch(&xs[k]);
            assert_bits_eq(acc, &serial, &format!("chain {k}"));
        }
    }

    #[test]
    #[should_panic(expected = "lockstep rows must have equal lengths")]
    fn extend_lockstep_rejects_ragged_rows() {
        let mut accs = [StreamingMoments::new(); 2];
        StreamingMoments::extend_lockstep(&mut accs, [&[1.0, 2.0][..], &[1.0][..]]);
    }

    #[test]
    fn gaussianish_kurtosis_near_zero() {
        // Sum of 12 uniforms ≈ normal; excess kurtosis ≈ -0.1 (Irwin–Hall 12).
        let base = pseudo_random(120_000, 11);
        let xs: Vec<f64> = base.chunks(12).map(|c| c.iter().sum::<f64>()).collect();
        let mut m = StreamingMoments::new();
        m.extend_from_slice(&xs);
        assert!(
            m.kurtosis_excess().abs() < 0.2,
            "kurt {}",
            m.kurtosis_excess()
        );
        assert!(m.skewness().abs() < 0.1, "skew {}", m.skewness());
    }
}
