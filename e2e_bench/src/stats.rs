//! Order statistics, the serving rate ladder and its limit search.
//!
//! Everything here is pure so that the self-tests can drive it with
//! synthetic data.

/// A nearest-rank percentile together with the sample it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank (0 when there are no samples).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly beyond the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample such that at least `p`% of the samples are at or below it.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    if values.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).value
}

/// Nearest-rank percentile of a log2-bucketed histogram given as
/// `(exclusive upper bound, count)` pairs in ascending order: the upper
/// bound of the bucket holding the ranked sample (0 when empty).
pub fn histogram_percentile(buckets: &[(u64, u64)], p: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().clamp(1.0, total as f64) as u64;
    let mut seen = 0;
    for &(upper, count) in buckets {
        seen += count;
        if seen >= rank {
            return upper as f64;
        }
    }
    buckets.last().map_or(0.0, |b| b.0 as f64)
}

/// Samples taken over one stretch of wall time.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    pub samples: Vec<f64>,
    /// Wall time the window spans, seconds.
    pub secs: f64,
}

/// The windows taken while the host was quietest: windows in order of
/// their median, the lowest first, until they hold at least
/// `min_samples` samples (or all windows, when together they hold
/// fewer). The shared host alternates between quiet stretches and
/// stretches where load from outside the benchmark slows the same pass
/// by up to about 1.6× (see README.md). A median over every window
/// flips between those states from run to run; the quietest windows
/// repeat. A change that slows every window moves them with it, so it
/// still shows in full.
pub fn quietest(windows: &[Window], min_samples: usize) -> Vec<&Window> {
    let mut ranked: Vec<(f64, &Window)> = windows
        .iter()
        .filter(|w| !w.samples.is_empty())
        .map(|w| (median(&w.samples), w))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut held = 0;
    ranked
        .into_iter()
        .take_while(|(_, w)| {
            let more = held < min_samples;
            held += w.samples.len();
            more
        })
        .map(|(_, w)| w)
        .collect()
}

/// Every sample of the quietest windows, pooled.
pub fn quietest_samples(windows: &[Window], min_samples: usize) -> Vec<f64> {
    quietest(windows, min_samples)
        .into_iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect()
}

/// One rung of the serving ladder after it has run.
#[derive(Clone, Debug, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub qps: f64,
    /// Latency from due time of every served request, milliseconds,
    /// grouped by when the request was due.
    pub windows: Vec<Window>,
    /// Requests that were shed, failed, or whose output failed the check.
    pub missed: usize,
    /// Outstanding requests sampled at each send.
    pub backlog: Vec<usize>,
}

/// Whether the outstanding-request samples of one rung show a queue
/// that keeps growing: the second half of the rung holds on average
/// more than one full batch more than the first half, and the rung ends
/// with more than two batches outstanding.
pub fn backlog_growing(backlog: &[usize], max_batch: usize) -> bool {
    if backlog.len() < 4 {
        return false;
    }
    let mid = backlog.len() / 2;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&backlog[..mid]);
    let second = mean(&backlog[mid..]);
    let last = *backlog.last().expect("non-empty");
    second > first + max_batch as f64 && last > 2 * max_batch
}

/// Samples a latency percentile is taken over at least, so that ten
/// lie beyond a p90.
pub const LATENCY_SAMPLES: usize = 100;

/// Whether a rung meets the latency limit: nothing missed, the p90 of
/// latency from due time over its quietest windows under `limit_ms`,
/// and no growing backlog.
pub fn rung_meets(rung: &RungOutcome, limit_ms: f64, max_batch: usize) -> bool {
    let latencies = quietest_samples(&rung.windows, LATENCY_SAMPLES);
    rung.missed == 0
        && !latencies.is_empty()
        && percentile(&latencies, 90.0).value < limit_ms
        && !backlog_growing(&rung.backlog, max_batch)
}

/// The highest offered rate among the rungs that meet the limit, or 0
/// when none does.
pub fn max_qps_at_limit(rungs: &[RungOutcome], limit_ms: f64, max_batch: usize) -> f64 {
    rungs
        .iter()
        .filter(|r| rung_meets(r, limit_ms, max_batch))
        .map(|r| r.qps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_rank_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), p90);
    }

    #[test]
    fn small_samples_clamp_to_the_extremes() {
        let p = percentile(&[3.0, 1.0, 2.0], 90.0);
        assert_eq!((p.value, p.samples, p.beyond), (3.0, 3, 0));
        assert_eq!(percentile(&[7.0], 50.0).value, 7.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0).value, 1.0);
        let empty = percentile(&[], 90.0);
        assert_eq!((empty.value, empty.samples), (0.0, 0));
        // Ten samples beyond p90 need at least one hundred samples.
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&v, 90.0).beyond < 10);
    }

    #[test]
    fn histogram_percentile_picks_the_ranked_bucket() {
        let b = [(1024, 50), (2048, 40), (4096, 10)];
        assert_eq!(histogram_percentile(&b, 50.0), 1024.0);
        assert_eq!(histogram_percentile(&b, 90.0), 2048.0);
        assert_eq!(histogram_percentile(&b, 91.0), 4096.0);
        assert_eq!(histogram_percentile(&[], 90.0), 0.0);
    }

    fn window(samples: Vec<f64>) -> Window {
        Window { samples, secs: 1.0 }
    }

    #[test]
    fn quietest_windows_come_lowest_median_first() {
        let windows = vec![
            window(vec![4.0, 3.9, 4.1]),
            window(vec![6.0, 5.8, 6.2]),
            window(vec![4.3, 4.2, 4.35]),
            window(vec![]),
            window(vec![3.8, 9.0, 3.7]),
        ];
        // Windows are taken whole until they hold enough samples.
        assert_eq!(quietest(&windows, 1), vec![&windows[4]]);
        assert_eq!(quietest(&windows, 4), vec![&windows[4], &windows[0]]);
        assert_eq!(quietest(&windows, 6), vec![&windows[4], &windows[0]]);
        // Too few samples in all: every non-empty window.
        assert_eq!(quietest(&windows, 100).len(), 4);
        // Outliers inside a quiet window stay in the pool.
        assert!(quietest_samples(&windows, 1).contains(&9.0));
        // A slowdown of every window moves the pool with it.
        let slower: Vec<Window> = windows
            .iter()
            .map(|w| window(w.samples.iter().map(|s| s * 1.3).collect()))
            .collect();
        assert_eq!(
            median(&quietest_samples(&slower, 6)),
            1.3 * median(&quietest_samples(&windows, 6))
        );
        assert!(quietest_samples(&[], 6).is_empty());
    }

    fn rung(qps: f64, lat: f64, missed: usize, backlog: Vec<usize>) -> RungOutcome {
        RungOutcome {
            qps,
            windows: vec![window(vec![lat; 20])],
            missed,
            backlog,
        }
    }

    #[test]
    fn backlog_detection() {
        assert!(!backlog_growing(&[0, 1, 0, 2, 1, 0, 1, 1], 8));
        // A steady but busy queue is not growing.
        assert!(!backlog_growing(&[20; 16], 8));
        let ramp: Vec<usize> = (0..40).collect();
        assert!(backlog_growing(&ramp, 8));
        // Too few samples to judge.
        assert!(!backlog_growing(&[0, 50], 8));
    }

    #[test]
    fn limit_search_takes_the_highest_meeting_rung() {
        let ramp: Vec<usize> = (0..40).collect();
        let rungs = vec![
            rung(10.0, 20.0, 0, vec![0; 8]),
            rung(20.0, 30.0, 0, vec![1; 8]),
            rung(30.0, 90.0, 0, vec![2; 8]),
            // Over the limit.
            rung(40.0, 150.0, 0, vec![3; 8]),
            // Under the limit but shedding.
            rung(50.0, 50.0, 3, vec![3; 8]),
            // Under the limit but the queue keeps growing.
            rung(60.0, 50.0, 0, ramp),
        ];
        assert_eq!(max_qps_at_limit(&rungs, 100.0, 8), 30.0);
        assert_eq!(max_qps_at_limit(&rungs, 10.0, 8), 0.0);
        assert_eq!(max_qps_at_limit(&rungs, 200.0, 8), 40.0);
        let empty = RungOutcome {
            qps: 5.0,
            windows: vec![],
            missed: 0,
            backlog: vec![],
        };
        assert!(!rung_meets(&empty, 100.0, 8));
    }
}
