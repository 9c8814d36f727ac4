//! The one percentile helper every `*_p50` and `*_tail` metric goes
//! through, plus the small order statistics the benchmark needs.

/// A percentile never stands on fewer than this many samples ranked
/// beyond it; with fewer, the metric is omitted rather than guessed.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A nearest-rank percentile and the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at nearest rank `ceil(p / 100 * n)`.
    pub value: f64,
    /// Samples ranked above that one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples rank beyond it (or `samples` is empty).
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        beyond,
    })
}

/// The highest ladder percentile that a set of `n` samples supports
/// with at least [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= MIN_BEYOND)
}

/// Nearest rank, in `1..=n`, of percentile `p` among `n` samples. The
/// float product is rounded before `ceil` so that e.g. 0.95 * 100 lands
/// on rank 95, not 96.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 * 1e9).round() / 1e9).ceil().max(1.0) as usize
}

/// The median, over `chunks` consecutive slices of `samples` (taken in
/// time order, near-equal lengths), of `stat` applied to each slice;
/// slices `stat` cannot judge are skipped. A burst of host noise then
/// moves one slice's figure instead of the whole run's.
pub fn chunk_median(
    samples: &[f64],
    chunks: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per_chunk: Vec<f64> = chunk_ranges(samples.len(), chunks)
        .into_iter()
        .filter_map(|r| stat(&samples[r]))
        .collect();
    (!per_chunk.is_empty()).then(|| median(&per_chunk))
}

/// `0..n` cut into `chunks` consecutive ranges of near-equal length.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, n.max(1));
    (0..chunks)
        .map(|c| c * n / chunks..(c + 1) * n / chunks)
        .collect()
}

/// Plain median (mean of the middle pair for even counts); for the
/// run-level figures such as `setup_s` that are not latency percentiles.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn exactly_ten_beyond_is_reported() {
        // n = 20, p50 -> rank 10, 10 samples beyond: the boundary case.
        let p = percentile(&ramp(20), 50.0).expect("10 beyond is enough");
        assert_eq!((p.value, p.beyond), (10.0, 10));
        // n = 100, p90 -> rank 90, 10 beyond.
        let p = percentile(&ramp(100), 90.0).expect("10 beyond is enough");
        assert_eq!((p.value, p.beyond), (90.0, 10));
    }

    #[test]
    fn nine_beyond_is_omitted() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_is_exact_for_round_products() {
        // 0.95 * 100 must be rank 95, not 96 through float error.
        let p = percentile(&ramp(200), 95.0).unwrap();
        assert_eq!((p.value, p.beyond), (190.0, 10));
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 10));
    }

    #[test]
    fn tail_is_the_highest_supported_ladder_step() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Whatever the ladder picks, the helper accepts.
        for n in [20, 40, 57, 100, 333, 1000, 10_000] {
            let p = tail_percentile(n).unwrap();
            let got = percentile(&ramp(n), p).unwrap();
            assert!(got.beyond >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn chunk_median_is_robust_to_one_bad_slice() {
        // Five slices of 20; the third is a slow burst.
        let mut s: Vec<f64> = (0..100).map(|i| 10.0 + (i % 20) as f64).collect();
        for v in &mut s[40..60] {
            *v *= 3.0;
        }
        let p50 = |x: &[f64]| percentile(x, 50.0).map(|p| p.value);
        assert_eq!(chunk_median(&s, 5, p50), Some(19.0));
        assert_eq!(
            chunk_median(&s, 1, p50),
            percentile(&s, 50.0).map(|p| p.value)
        );
        // Slices the statistic cannot judge are skipped, not guessed.
        assert_eq!(chunk_median(&s[..30], 5, p50), None);
        assert_eq!(chunk_median(&[], 3, p50), None);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
