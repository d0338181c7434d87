//! Fixed-footprint latency histogram for O(1)-memory sweeps.
//!
//! [`LatencyRecorder`](crate::LatencyRecorder) keeps every sample, which is
//! exact but costs 8 bytes per query — a rate sweep pushing millions of
//! simulated queries per operating point pays O(trace) memory for numbers
//! that end up summarized to a handful of percentiles. `LatencyHistogram`
//! is the summary-mode alternative: an HDR-style log-linear histogram with
//! 64 sub-buckets per power of two, giving ≤ 1.6 % relative error on any
//! percentile while occupying a fixed ~30 KB regardless of how many
//! samples are recorded.

use std::fmt;

/// log2 of the number of linear sub-buckets per octave. 6 bits → every
/// bucket spans at most `2^-6 = 1.56 %` of its value.
const MANTISSA_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << MANTISSA_BITS;
/// Bucket count covering the full `u64` nanosecond range.
const BUCKETS: usize = (64 - MANTISSA_BITS as usize + 1) * SUB_BUCKETS;

/// A fixed-size log-linear histogram of latency samples (nanoseconds) with
/// bounded-relative-error percentile queries.
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
    counts: Vec<u64>,
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
/// midpoint exceeds the SLA. May be `BUCKETS` (nothing violates).
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
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        self.counts[bucket_of(latency_ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
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
        for (bucket, &c) in self.counts.iter().enumerate() {
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
        self.counts[first_violating_bucket(sla_ns)..].iter().sum()
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

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
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

    #[test]
    fn footprint_is_fixed() {
        let mut h = LatencyHistogram::new();
        let before = h.counts.capacity();
        for v in 0..100_000u64 {
            h.record(v * 7919);
        }
        assert_eq!(h.counts.capacity(), before, "no growth while recording");
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
