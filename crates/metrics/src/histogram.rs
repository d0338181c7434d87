//! Octave-window latency histogram: memory set by the span of the
//! samples, never by their count.
//!
//! [`LatencyRecorder`](crate::LatencyRecorder) keeps every sample, which is
//! exact but costs 8 bytes per query — a rate sweep pushing millions of
//! simulated queries per operating point pays O(trace) memory for numbers
//! that end up summarized to a handful of percentiles. `LatencyHistogram`
//! is the summary-mode alternative: an HDR-style log-linear histogram with
//! 64 sub-buckets per power of two, giving ≤ 1.6 % relative error on any
//! percentile. It stores counts only for the whole octaves between its
//! lowest and its highest sample: nothing until the first sample, 512
//! bytes per octave the samples span, and never more than the 3,776
//! buckets (~30 KB) that cover all of `u64`, however many samples are
//! recorded.

use std::fmt;

/// log2 of the number of linear sub-buckets per octave. 6 bits → every
/// bucket spans at most `2^-6 = 1.56 %` of its value.
const MANTISSA_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << MANTISSA_BITS;

/// A log-linear histogram of latency samples (nanoseconds) with
/// bounded-relative-error percentile queries, holding counts for the whole
/// octaves its samples span.
///
/// # Examples
///
/// ```
/// use server_metrics::LatencyHistogram;
///
/// let mut hist = LatencyHistogram::new();
/// for ms in 1u64..=100 {
///     hist.record(ms * 1_000_000);
/// }
/// assert_eq!(hist.count(), 100);
/// let p95 = hist.percentile_ns(0.95) as f64;
/// assert!((p95 / 95e6 - 1.0).abs() < 0.02, "≤ 1.6 % relative error");
/// assert_eq!(hist.max_ns(), 100_000_000);
/// ```
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Counts of buckets `lo..lo + counts.len()`: the whole octaves from
    /// the lowest sample's to the highest's, empty before the first
    /// sample. The window is a function of the min and max alone, so the
    /// derived `==` compares contents.
    counts: Box<[u64]>,
    /// First bucket `counts` holds, a multiple of `SUB_BUCKETS` (0 while
    /// empty).
    lo: usize,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// The bucket index a value lands in: values below `2^MANTISSA_BITS` map
/// to themselves; larger values share an octave split into linear
/// sub-buckets.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let exp = msb - MANTISSA_BITS;
        let mantissa = (v >> exp) & (SUB_BUCKETS as u64 - 1);
        ((exp as usize + 1) << MANTISSA_BITS) | mantissa as usize
    }
}

/// The inclusive lower bound of values mapping to `bucket`.
fn bucket_low(bucket: usize) -> u64 {
    let exp = (bucket >> MANTISSA_BITS) as u32;
    let mantissa = (bucket & (SUB_BUCKETS - 1)) as u64;
    if exp == 0 {
        mantissa
    } else {
        (SUB_BUCKETS as u64 + mantissa) << (exp - 1)
    }
}

/// The inclusive upper bound of values mapping to `bucket`.
fn bucket_high(bucket: usize) -> u64 {
    let exp = (bucket >> MANTISSA_BITS) as u32;
    if exp == 0 {
        bucket_low(bucket)
    } else {
        // Parenthesized so the top bucket's bound, u64::MAX, never
        // overflows on the way.
        bucket_low(bucket) + ((1u64 << (exp - 1)) - 1)
    }
}

/// The lowest bucket whose samples violate `sla_ns`: buckets above the
/// SLA's own bucket always do, and the SLA's own bucket does when its
/// midpoint exceeds the SLA. May be one past the top bucket (nothing
/// violates).
#[inline]
fn first_violating_bucket(sla_ns: u64) -> usize {
    let boundary = bucket_of(sla_ns);
    if bucket_low(boundary).midpoint(bucket_high(boundary)) > sla_ns {
        boundary
    } else {
        boundary + 1
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram; it allocates nothing until its first
    /// sample.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::default(),
            lo: 0,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        let bucket = bucket_of(latency_ns);
        // Below `lo` the index wraps past any length, so one bounds check
        // covers both sides of the window.
        match self.counts.get_mut(bucket.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.record_outside(bucket),
        }
        self.count += 1;
        self.sum_ns += u128::from(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// The growth path of [`record`](Self::record): a sample outside the
    /// window widens it to the sample's octave first.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, bucket: usize) {
        self.cover(bucket, bucket + 1);
        self.counts[bucket - self.lo] += 1;
    }

    /// Widens the window to the whole octaves spanning both itself and
    /// buckets `first..end`, keeping every count in place.
    fn cover(&mut self, first: usize, end: usize) {
        let mut lo = first & !(SUB_BUCKETS - 1);
        let mut hi = end.next_multiple_of(SUB_BUCKETS);
        if !self.counts.is_empty() {
            let old_hi = self.lo + self.counts.len();
            if self.lo <= lo && hi <= old_hi {
                return;
            }
            lo = lo.min(self.lo);
            hi = hi.max(old_hi);
        }
        let mut counts = vec![0; hi - lo].into_boxed_slice();
        // An empty window sits at `lo == 0`, so the offset is 0 then.
        counts[self.lo.saturating_sub(lo)..][..self.counts.len()].copy_from_slice(&self.counts);
        self.counts = counts;
        self.lo = lo;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean latency in milliseconds (0 if empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64 / 1e6
    }

    /// Exact maximum sample, nanoseconds (0 if empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Exact maximum sample in milliseconds (0 if empty).
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.max_ns() as f64 / 1e6
    }

    /// Exact minimum sample, nanoseconds (0 if empty).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The `p`-quantile latency in nanoseconds by nearest rank, accurate to
    /// the bucket width (≤ 1.6 % relative error; 0 if empty). Exact-sample
    /// extremes are substituted at the edges so `percentile_ns(1.0)` equals
    /// the true maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ns(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be within [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in (self.lo..).zip(self.counts.iter()) {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp the bucket's representative value into the observed
                // range so edge quantiles stay exact.
                let mid = bucket_low(bucket).midpoint(bucket_high(bucket));
                return mid.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// The `p`-quantile latency in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e6
    }

    /// The paper's headline metric: 95th-percentile tail latency, ms.
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(0.95)
    }

    /// Approximate number of samples exceeding `sla_ns`: buckets are
    /// counted by their midpoint, so samples within one bucket width of
    /// the threshold may be mis-attributed.
    #[must_use]
    pub fn violations(&self, sla_ns: u64) -> u64 {
        let first = first_violating_bucket(sla_ns).saturating_sub(self.lo);
        self.counts.get(first..).map_or(0, |c| c.iter().sum())
    }

    /// Whether one `latency_ns` sample counts as a violation of `sla_ns`
    /// under the bucket rule [`violations`](Self::violations) applies —
    /// so per-sample judgements summed over any partition of the samples
    /// equal `violations` of their histogram exactly.
    #[must_use]
    #[inline]
    pub fn exceeds(latency_ns: u64, sla_ns: u64) -> bool {
        bucket_of(latency_ns) >= first_violating_bucket(sla_ns)
    }

    /// Fraction of samples exceeding `sla_ns` (0 if empty), to bucket
    /// accuracy.
    #[must_use]
    pub fn violation_rate(&self, sla_ns: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.violations(sla_ns) as f64 / self.count as f64
    }

    /// Merges another histogram's samples into this one, widening the
    /// window to the union of both.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            self.cover(other.lo, other.lo + other.counts.len());
            let mine = &mut self.counts[other.lo - self.lo..];
            for (mine, theirs) in mine.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Builds the union of several histograms — how a cluster report folds
    /// its per-shard latency populations into one fleet-wide distribution.
    ///
    /// # Examples
    ///
    /// ```
    /// use server_metrics::LatencyHistogram;
    ///
    /// let a: LatencyHistogram = [1_000_000u64, 2_000_000].into_iter().collect();
    /// let b: LatencyHistogram = [3_000_000u64].into_iter().collect();
    /// let all = LatencyHistogram::merged([&a, &b]);
    /// assert_eq!(all.count(), 3);
    /// assert_eq!(all.max_ns(), 3_000_000);
    /// ```
    #[must_use]
    pub fn merged<'a, I>(parts: I) -> LatencyHistogram
    where
        I: IntoIterator<Item = &'a LatencyHistogram>,
    {
        let mut out = LatencyHistogram::new();
        for part in parts {
            out.merge(part);
        }
        out
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_ms", &self.mean_ms())
            .field("p95_ms", &self.p95_ms())
            .field("max_ms", &self.max_ms())
            .finish()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, mean {:.3} ms, p95 {:.3} ms",
            self.count(),
            self.mean_ms(),
            self.p95_ms()
        )
    }
}

impl Extend<u64> for LatencyHistogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for LatencyHistogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut hist = LatencyHistogram::new();
        hist.extend(iter);
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket count covering the full `u64` nanosecond range.
    const BUCKETS: usize = (64 - MANTISSA_BITS as usize + 1) * SUB_BUCKETS;

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every bucket's low bound maps back to the bucket, and boundaries
        // are contiguous.
        for bucket in 0..BUCKETS - 1 {
            let low = bucket_low(bucket);
            let high = bucket_high(bucket);
            assert_eq!(bucket_of(low), bucket, "low of bucket {bucket}");
            assert_eq!(bucket_of(high), bucket, "high of bucket {bucket}");
            assert!(high >= low);
            if bucket_low(bucket + 1) > 0 {
                assert_eq!(
                    bucket_low(bucket + 1),
                    high.wrapping_add(1),
                    "bucket {bucket} contiguous with successor"
                );
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.percentile_ns(0.0), 0);
        assert_eq!(h.percentile_ns(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_ns(0.95), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.violation_rate(1), 0.0);
    }

    #[test]
    fn percentiles_bound_relative_error() {
        let h: LatencyHistogram = (1..=10_000u64).map(|v| v * 997).collect();
        for p in [0.5, 0.9, 0.95, 0.99] {
            let exact = 997.0 * (p * 10_000.0f64).ceil();
            let approx = h.percentile_ns(p) as f64;
            assert!(
                (approx / exact - 1.0).abs() < 0.016,
                "p{p}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let h: LatencyHistogram = [5_000_000u64, 15_000_000].into_iter().collect();
        assert!((h.mean_ms() - 10.0).abs() < 1e-9);
        assert_eq!(h.max_ns(), 15_000_000);
        assert_eq!(h.min_ns(), 5_000_000);
        assert!((h.max_ms() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn violation_rate_tracks_threshold() {
        let h: LatencyHistogram = (1..=1000u64).map(|v| v * 1_000_000).collect();
        let rate = h.violation_rate(500_000_000);
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
        assert_eq!(h.violation_rate(u64::MAX / 2), 0.0);
    }

    #[test]
    fn exceeds_agrees_with_violations() {
        let slas = [
            0,
            1,
            31,
            63,
            64,
            65,
            100,
            1_000,
            1_500_000,
            (1 << 40) + 12_345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for sla in slas {
            let bucket = bucket_of(sla);
            let (low, high) = (bucket_low(bucket), bucket_high(bucket));
            let edges = [
                low.saturating_sub(1),
                low,
                low.midpoint(high),
                low.midpoint(high) + 1,
                high,
                high.saturating_add(1),
                sla,
                u64::MAX - 1,
                u64::MAX,
            ];
            let samples: Vec<u64> = (0..SUB_BUCKETS as u64).chain(edges).collect();
            for &v in &samples {
                let one: LatencyHistogram = [v].into_iter().collect();
                assert_eq!(
                    LatencyHistogram::exceeds(v, sla),
                    one.violations(sla) == 1,
                    "sample {v} vs sla {sla}"
                );
            }
            let all: LatencyHistogram = samples.iter().copied().collect();
            let judged = samples
                .iter()
                .filter(|&&v| LatencyHistogram::exceeds(v, sla))
                .count() as u64;
            assert_eq!(judged, all.violations(sla), "sla {sla}");
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a: LatencyHistogram = [1_000u64, 2_000].into_iter().collect();
        let b: LatencyHistogram = [3_000u64].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 3_000);
    }

    /// The window is exactly the whole octaves from the min sample's to
    /// the max sample's, and samples inside it never reallocate it.
    #[test]
    fn window_covers_exactly_the_sample_octaves() {
        fn assert_window(h: &LatencyHistogram) {
            let lo = bucket_of(h.min_ns()) / SUB_BUCKETS * SUB_BUCKETS;
            let hi = (bucket_of(h.max_ns()) / SUB_BUCKETS + 1) * SUB_BUCKETS;
            assert_eq!((h.lo, h.lo + h.counts.len()), (lo, hi), "{h:?}");
        }
        let mut h = LatencyHistogram::new();
        assert!(h.counts.is_empty(), "no allocation before the first sample");
        for v in [1_500_000u64, 1_600_000, 90_000, 7, 3 << 40, u64::MAX] {
            h.record(v);
            assert_window(&h);
        }
        let (ptr, len) = (h.counts.as_ptr(), h.counts.len());
        for v in 0..100_000u64 {
            h.record(7 + v * 7919);
        }
        assert_eq!(h.counts.as_ptr(), ptr, "no growth inside the window");
        assert_eq!(h.counts.len(), len);
        assert_window(&h);

        let one: LatencyHistogram = [1_000_000u64].into_iter().collect();
        assert_eq!(one.counts.len(), SUB_BUCKETS, "one sample, one octave");
        let all: LatencyHistogram = [0, u64::MAX].into_iter().collect();
        assert_eq!(
            all.counts.len(),
            BUCKETS,
            "never more than the dense layout"
        );
    }

    /// The dense layout the octave window replaced: one counter for every
    /// bucket of the `u64` range, summed and scanned in full. It is the
    /// independent reference the windowed histogram must agree with.
    struct Dense {
        counts: Vec<u64>,
        sum_ns: u128,
        min_ns: u64,
        max_ns: u64,
    }

    impl Dense {
        fn of(samples: &[u64]) -> Self {
            let mut d = Dense {
                counts: vec![0; BUCKETS],
                sum_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            };
            for &v in samples {
                d.counts[bucket_of(v)] += 1;
                d.sum_ns += u128::from(v);
                d.min_ns = d.min_ns.min(v);
                d.max_ns = d.max_ns.max(v);
            }
            d
        }

        fn count(&self) -> u64 {
            self.counts.iter().sum()
        }

        fn percentile_ns(&self, p: f64) -> u64 {
            let count = self.count();
            if count == 0 {
                return 0;
            }
            let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            let bucket = (0..BUCKETS)
                .find(|&b| {
                    seen += self.counts[b];
                    self.counts[b] > 0 && seen >= rank
                })
                .expect("rank within count");
            let mid = bucket_low(bucket).midpoint(bucket_high(bucket));
            mid.clamp(self.min_ns, self.max_ns)
        }

        fn violations(&self, sla_ns: u64) -> u64 {
            (0..BUCKETS)
                .filter(|&b| bucket_low(b).midpoint(bucket_high(b)) > sla_ns)
                .map(|b| self.counts[b])
                .sum()
        }
    }

    /// splitmix64: a self-contained sample stream for the sweeps.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A sample from the awkward places: 0, below 64, either side of
        /// an octave edge, near `u64::MAX`, or log-uniform anywhere.
        fn sample(&mut self) -> u64 {
            let edge = 1u64 << self.below(64);
            match self.below(6) {
                0 => 0,
                1 => self.below(SUB_BUCKETS as u64),
                2 => edge.wrapping_add(self.below(3)).wrapping_sub(1),
                3 => u64::MAX - self.below(1 << 20),
                _ => self.next() >> self.below(64),
            }
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    /// Builds a histogram from `parts`, merging them in a random tree.
    fn merge_tree(parts: &[&[u64]], mix: &mut Mix) -> LatencyHistogram {
        let mut hists: Vec<LatencyHistogram> =
            parts.iter().map(|p| p.iter().copied().collect()).collect();
        while hists.len() > 1 {
            let mut a = hists.swap_remove(mix.below(hists.len() as u64) as usize);
            let b = hists.swap_remove(mix.below(hists.len() as u64) as usize);
            if mix.below(2) == 0 {
                a.merge(&b);
                hists.push(a);
            } else {
                hists.push(LatencyHistogram::merged([&b, &a]));
            }
        }
        hists.pop().expect("at least one part")
    }

    #[test]
    fn window_agrees_with_the_dense_layout() {
        let quantiles = [
            0.0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.999_999, 1.0,
        ];
        for seed in 0..400u64 {
            let mut mix = Mix(seed);
            let n = match seed % 4 {
                0 => mix.below(4) as usize,
                1 => mix.below(64) as usize,
                _ => mix.below(2_000) as usize,
            };
            let samples: Vec<u64> = (0..n).map(|_| mix.sample()).collect();
            let dense = Dense::of(&samples);
            let h: LatencyHistogram = samples.iter().copied().collect();
            assert_eq!(h.count(), dense.count(), "seed {seed}");
            assert_eq!(h.sum_ns, dense.sum_ns, "seed {seed}");
            if n > 0 {
                assert_eq!(h.min_ns(), dense.min_ns, "seed {seed}");
                assert_eq!(h.max_ns(), dense.max_ns, "seed {seed}");
                let mean = dense.sum_ns as f64 / n as f64 / 1e6;
                assert_eq!(h.mean_ms().to_bits(), mean.to_bits(), "seed {seed}");
            }
            let random_q = (0..20).map(|_| mix.below(1_000_001) as f64 / 1e6);
            for p in quantiles.into_iter().chain(random_q) {
                assert_eq!(
                    h.percentile_ns(p),
                    dense.percentile_ns(p),
                    "seed {seed} p{p}"
                );
            }
            let near = samples
                .iter()
                .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)]);
            let slas: Vec<u64> = [0, 1, 63, 64, u64::MAX]
                .into_iter()
                .chain((0..20).map(|_| mix.sample()))
                .chain(near.take(60))
                .collect();
            for &sla in &slas {
                assert_eq!(
                    h.violations(sla),
                    dense.violations(sla),
                    "seed {seed} sla {sla}"
                );
            }

            // Equal contents compare equal, whatever built them.
            let mut shuffled = samples.clone();
            mix.shuffle(&mut shuffled);
            let reordered: LatencyHistogram = shuffled.iter().copied().collect();
            assert_eq!(reordered, h, "seed {seed}: insertion order");
            let mut cuts: Vec<usize> = (0..mix.below(6))
                .map(|_| mix.below(n as u64 + 1) as usize)
                .collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let parts: Vec<&[u64]> = cuts.windows(2).map(|w| &shuffled[w[0]..w[1]]).collect();
            assert_eq!(merge_tree(&parts, &mut mix), h, "seed {seed}: merge tree");
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be within")]
    fn out_of_range_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile_ns(-0.1);
    }

    #[test]
    fn display_is_informative() {
        let h: LatencyHistogram = [2_000_000u64].into_iter().collect();
        assert!(h.to_string().contains("1 samples"));
    }
}
