//! Seeded samplers and the order statistics every reported number goes
//! through. Nothing here touches the program under test.

/// SplitMix64: the benchmark's only randomness. Owned here (not the
/// workspace's `rand` shim) so the request streams a seed produces can
/// never change under a later PR.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is below 2^-32 for every n used here.
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One exponential inter-arrival gap of a Poisson process at `rate_hz`,
/// in seconds.
pub fn poisson_gap_s(rng: &mut Rng, rate_hz: f64) -> f64 {
    -(1.0 - rng.next_f64()).ln() / rate_hz
}

/// Samples that must lie beyond a reported percentile for it to count
/// as measured (the choosing-metrics rule).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `ok_sorted` (ascending) extended by
/// `failed` samples that rank above every success. `None` means the
/// requested rank falls on a failed sample, or there are no samples.
pub fn percentile_with_failures(ok_sorted: &[u64], failed: usize, q: f64) -> Option<u64> {
    let n = ok_sorted.len() + failed;
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    ok_sorted.get(rank - 1).copied()
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn leaves_enough_beyond(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// Median of a small set (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of a set of durations in ns, as µs (the lower of the two
/// middle values when even; 0 when empty). Sorts `times`.
pub fn median_ns_as_us(times: &mut [u64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.sort_unstable();
    times[(times.len() - 1) / 2] as f64 / 1e3
}

/// One slice of a measured window: successful latencies (ns, sorted
/// once the window has closed) plus the count of failed operations that
/// completed (or were due) in it.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub ok_ns: Vec<u64>,
    pub failed: u64,
}

/// Mean of the better half of `values` (the better `⌈n / 2⌉`): the
/// larger ones when `higher_is_better`, else the smaller ones.
///
/// Every throughput and latency number of a window is this statistic
/// over its slices. Interference from the host only ever makes a slice
/// slower, so the slow half of the slices tracks the host and the fast
/// half tracks the code; over the recorded ten-seed sets the better-half
/// mean spread a quarter less than the median of the same slices.
pub fn better_half_mean(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "better half of an empty set");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    if higher_is_better {
        v.reverse();
    }
    let half = &v[..v.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// Throughput of a window. `rps` is the better-half mean of the
/// per-slice values of the slices asked for.
#[derive(Debug, Clone)]
pub struct Throughput {
    pub rps: f64,
    /// `(max − min) / median` of per-slice throughput, every slice.
    pub slice_spread: f64,
    /// Operations of the whole window, every slice.
    pub attempted: u64,
    pub failed: u64,
}

/// Successful responses per second over the slices `of` (indices), each
/// slice `slice_s` seconds long.
pub fn throughput(slices: &[Slice], of: &[usize], slice_s: f64) -> Throughput {
    let rps: Vec<f64> = slices
        .iter()
        .map(|s| s.ok_ns.len() as f64 / slice_s)
        .collect();
    let failed: u64 = slices.iter().map(|s| s.failed).sum();
    let ok: u64 = slices.iter().map(|s| s.ok_ns.len() as u64).sum();
    let (lo, hi) = rps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    let all = median(&rps);
    let asked: Vec<f64> = of.iter().map(|&i| rps[i]).collect();
    Throughput {
        rps: better_half_mean(&asked, true),
        slice_spread: if all > 0.0 { (hi - lo) / all } else { 0.0 },
        attempted: ok + failed,
        failed,
    }
}

/// Better-half mean, over the slices `of`, of the per-slice nearest-rank
/// quantile `q`, in µs (each slice's `ok_ns` must be sorted). Errors
/// when the rank lands on a failed sample in one of those slices, or the
/// window holds too few samples to leave [`MIN_BEYOND`] beyond it.
pub fn latency_us(slices: &[Slice], of: &[usize], q: f64) -> Result<f64, String> {
    let samples: usize = slices
        .iter()
        .map(|s| s.ok_ns.len() + s.failed as usize)
        .sum();
    if !leaves_enough_beyond(samples, q) {
        return Err(format!(
            "{samples} samples leave fewer than {MIN_BEYOND} beyond the {q} quantile"
        ));
    }
    let per_slice = of
        .iter()
        .map(|&i| {
            percentile_with_failures(&slices[i].ok_ns, slices[i].failed as usize, q)
                .map(|ns| ns as f64 / 1e3)
                .ok_or_else(|| format!("slice {i}: the {q} quantile is a failed request"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(better_half_mean(&per_slice, false))
}

/// Keeps every `stride`-th offered item; when full, drops every other
/// kept item and doubles the stride. The survivors are always an exact
/// fixed-stride sample of everything offered, between `cap / 2` and
/// `cap` items once `cap / 2 × 1` items were offered — whatever volume
/// the machine reaches.
#[derive(Debug)]
pub struct StrideSampler<T> {
    items: Vec<T>,
    cap: usize,
    stride: u64,
    offered: u64,
}

impl<T> StrideSampler<T> {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2 && cap.is_multiple_of(2), "cap must be even");
        StrideSampler {
            items: Vec::with_capacity(cap),
            cap,
            stride: 1,
            offered: 0,
        }
    }

    /// Offers the next item; `make` is only called when it is kept.
    pub fn offer_with(&mut self, make: impl FnOnce() -> T) {
        if self.offered.is_multiple_of(self.stride) {
            if self.items.len() == self.cap {
                let mut i = 0;
                self.items.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            // After a halving the item may no longer be on the stride.
            if self.offered.is_multiple_of(self.stride) {
                self.items.push(make());
            }
        }
        self.offered += 1;
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samplers_are_deterministic_in_the_seed_and_differ_across_seeds() {
        let zipf = Zipf::new(4096);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let z: Vec<usize> = (0..64).map(|_| zipf.sample(&mut rng)).collect();
            let p: Vec<u64> = (0..64)
                .map(|_| poisson_gap_s(&mut rng, 500.0).to_bits())
                .collect();
            (z, p)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert_ne!(draw(7).1, draw(8).1);
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let zipf = Zipf::new(4096);
        let mut rng = Rng::new(1);
        let n = 200_000;
        let mut first = 0;
        for _ in 0..n {
            let r = zipf.sample(&mut rng);
            assert!(r < 4096);
            first += (r == 0) as usize;
        }
        // P(rank 0) = 1 / H(4096) ≈ 0.1124.
        let share = first as f64 / n as f64;
        assert!((share - 0.1124).abs() < 0.005, "rank-0 share {share}");
    }

    #[test]
    fn poisson_gaps_average_to_the_rate() {
        let mut rng = Rng::new(3);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| poisson_gap_s(&mut rng, 500.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.002).abs() < 0.000_05, "mean gap {mean}");
    }

    #[test]
    fn nearest_rank_ranks_failures_last() {
        let ok: Vec<u64> = (1..=98).collect();
        // 98 successes + 2 failures: p50 is the 50th value, p98 the
        // last success, p99 a failure.
        assert_eq!(percentile_with_failures(&ok, 2, 0.50), Some(50));
        assert_eq!(percentile_with_failures(&ok, 2, 0.98), Some(98));
        assert_eq!(percentile_with_failures(&ok, 2, 0.99), None);
        assert_eq!(percentile_with_failures(&[], 0, 0.5), None);
        assert_eq!(percentile_with_failures(&[7], 0, 0.99), Some(7));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(leaves_enough_beyond(1000, 0.99));
        assert!(!leaves_enough_beyond(999, 0.99));
        assert!(leaves_enough_beyond(20, 0.50));
        assert!(!leaves_enough_beyond(19, 0.50));
    }

    #[test]
    fn better_half_mean_takes_the_better_side() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(better_half_mean(&v, true), 4.0);
        assert_eq!(better_half_mean(&v, false), 2.0);
        assert_eq!(better_half_mean(&[1.0, 2.0, 3.0, 4.0], true), 3.5);
        assert_eq!(better_half_mean(&[7.0], false), 7.0);
    }

    #[test]
    fn window_numbers_are_the_better_half_of_the_slices() {
        // Five slices of 400 samples; one slice is stalled (10× slower,
        // a quarter of the volume) and one is a little slow.
        let mut slices: Vec<Slice> = (0..5)
            .map(|i| {
                let scale = match i {
                    3 => 10_000,
                    4 => 1_500,
                    _ => 1_000,
                };
                Slice {
                    ok_ns: (1..=400u64).map(|k| k * scale).collect(),
                    failed: 0,
                }
            })
            .collect();
        slices[3].ok_ns.truncate(100);
        slices[4].ok_ns.truncate(300);
        let all = [0, 1, 2, 3, 4];
        let t = throughput(&slices, &all, 2.0);
        assert_eq!(t.rps, 200.0);
        assert_eq!((t.attempted, t.failed), (1600, 0));
        assert!((t.slice_spread - 0.75).abs() < 1e-12);
        assert_eq!(latency_us(&slices, &all, 0.50), Ok(200.0));
        assert_eq!(latency_us(&slices, &all, 0.99), Ok(396.0));
        // Numbers come from the slices asked for; the counts from all.
        let t = throughput(&slices, &[3, 4], 2.0);
        assert_eq!((t.rps, t.attempted), (150.0, 1600));
        assert_eq!(latency_us(&slices, &[3], 0.50), Ok(500.0));
    }

    #[test]
    fn thin_windows_and_failed_percentiles_are_rejected() {
        let all = [0, 1, 2, 3, 4];
        let thin = vec![
            Slice {
                ok_ns: (1..=100).collect(),
                failed: 0
            };
            5
        ];
        assert!(latency_us(&thin, &all, 0.50).is_ok());
        assert!(latency_us(&thin, &all, 0.99).is_err());
        let failing = vec![
            Slice {
                ok_ns: (1..=300).collect(),
                failed: 10
            };
            5
        ];
        assert_eq!(throughput(&failing, &all, 1.0).failed, 50);
        let err = latency_us(&failing, &all, 0.99).unwrap_err();
        assert!(err.contains("failed request"), "{err}");
    }

    #[test]
    fn stride_sampler_keeps_a_bounded_fixed_stride_sample() {
        // Expected measured volumes: crowd_city ≈ 3 k, wire_mix ≈ 20 k,
        // cold_mine ≈ 35 k, hot_reuse ≈ 700 k requests.
        for volume in [3_000u64, 20_000, 35_000, 700_000] {
            let mut s = StrideSampler::new(2048);
            for i in 0..volume {
                s.offer_with(|| i);
            }
            let stride = s.stride;
            let n = s.len();
            assert!((500..=2048).contains(&n), "{volume} offered kept {n}");
            for (k, item) in s.into_items().into_iter().enumerate() {
                assert_eq!(item, k as u64 * stride);
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
