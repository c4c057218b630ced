//! Sample statistics: nearest-rank percentiles, the "at least ten
//! samples beyond" tail rule, and open-loop lateness accounting.

use std::time::{Duration, Instant};

/// Quantiles are expressed in units of 1/10 000 so ranks are computed
/// in integer arithmetic (`0.99 * 1000` must be exactly rank 990).
pub const P50: u32 = 5_000;
pub const P99: u32 = 9_900;

/// Tail candidates, lowest first: p50, p90, p99, p99.9, p99.99.
const TAIL_CANDIDATES: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (in 1/10 000) among `n` samples.
pub fn rank(q: u32, n: usize) -> usize {
    let r = (q as usize * n).div_ceil(10_000);
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample; `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The highest tail candidate with at least [`MIN_BEYOND`] samples
/// strictly above its rank, or `None` when even the median lacks them.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= rank(q, n) + MIN_BEYOND)
}

/// A timing distribution summarised the way the report prints it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(quantile, value)` of the highest supported tail percentile.
    pub tail: Option<(u32, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = supported_tail(sorted.len()).map(|q| {
        (
            q,
            nearest_rank(&sorted, q).expect("non-empty when supported"),
        )
    });
    Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, P50).unwrap_or(f64::NAN),
        tail,
    }
}

/// Median of a sample (nearest rank); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, P50).unwrap_or(f64::NAN)
}

/// Most windows [`windowed`] splits a run into.
pub const WINDOWS: usize = 10;

/// Quantile `q` of a time-ordered sample taken as the median over
/// consecutive windows of at least `min_window` samples (at most
/// [`WINDOWS`] of them), so a slow stretch of the run moves it less than
/// it moves the quantile of the whole run. NaN when empty.
pub fn windowed(samples: &[f64], q: u32, min_window: usize) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let k = (samples.len() / min_window.max(1)).clamp(1, WINDOWS);
    let size = samples.len() / k;
    let per: Vec<f64> = (0..k)
        .map(|w| {
            let end = if w + 1 == k {
                samples.len()
            } else {
                (w + 1) * size
            };
            let mut chunk = samples[w * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            nearest_rank(&chunk, q).expect("windows are non-empty")
        })
        .collect();
    median(&per)
}

/// Percentile label such as `p99` or `p99.9`.
pub fn label(q: u32) -> String {
    let whole = q / 100;
    let frac = q % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

/// One open-loop request: when it was due, when it was actually sent,
/// and when its reply arrived, all as offsets from the schedule origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// How late the generator sent the request (never negative).
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Latency as the user sees it: from the scheduled send time, so a
    /// stall also charges the requests queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// A fixed-rate send schedule starting at `origin`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub origin: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(origin: Instant, rate_per_sec: f64) -> Self {
        Schedule {
            origin,
            interval: Duration::from_secs_f64(1.0 / rate_per_sec),
        }
    }

    /// Offset of the `i`-th send from the origin.
    pub fn due(&self, i: u64) -> Duration {
        self.interval * i as u32
    }

    /// Block until the `i`-th send is due: sleep while far away, then
    /// spin the last stretch so timer slack does not show up as
    /// generator lateness.
    pub fn wait_for(&self, i: u64) -> Duration {
        let due = self.due(i);
        let target = self.origin + due;
        loop {
            let now = Instant::now();
            if now >= target {
                return due;
            }
            let left = target - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, P50), Some(500.0));
        assert_eq!(nearest_rank(&sorted, P99), Some(990.0));
        assert_eq!(nearest_rank(&sorted, 9_990), Some(999.0));
        assert_eq!(nearest_rank(&[7.0], P99), Some(7.0));
        assert_eq!(nearest_rank(&[], P50), None);
        // Rank rounds up: the p50 of 3 samples is the 2nd.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], P50), Some(2.0));
        assert_eq!(rank(P99, 101), 100);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        assert_eq!(supported_tail(1000), Some(P99));
        assert_eq!(supported_tail(999), Some(9_000));
        // 20 samples: the median has 10 beyond, p90 only 2.
        assert_eq!(supported_tail(20), Some(P50));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(10_000), Some(9_990));
        assert_eq!(supported_tail(100_000), Some(9_999));
    }

    #[test]
    fn summary_reports_tail_and_count() {
        let samples: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.tail, Some((P99, 1979.0)));
        assert_eq!(label(P99), "p99");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }

    #[test]
    fn windowed_quantile_is_the_median_over_windows() {
        // Fewer than two windows' worth: the plain quantile.
        let small: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(windowed(&small, P99, 1000), 1485.0);
        // Five windows of 1000; one has a stall that lifts its p99.
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for v in &mut samples[1000..1100] {
            *v = 1e6;
        }
        assert_eq!(windowed(&samples, P99, 1000), 989.0);
        assert_eq!(windowed(&samples, P50, 1000), 499.0);
        // At most ten windows, however small the minimum: ten windows
        // of four, one per value 0..10, whose median is the 5th.
        let steps: Vec<f64> = (0..40).map(|i| f64::from(i / 4)).collect();
        assert_eq!(windowed(&steps, P50, 1), 4.0);
        assert!(windowed(&[], P50, 1).is_nan());
    }

    #[test]
    fn open_loop_charges_stalls_to_queued_requests() {
        let d = Duration::from_millis;
        // Requests due every 1 ms; the second reply stalls until 4 ms,
        // so the third and fourth go out late.
        let timings = [
            Timing {
                due: d(0),
                sent: d(0),
                done: d(1),
            },
            Timing {
                due: d(1),
                sent: d(1),
                done: d(4),
            },
            Timing {
                due: d(2),
                sent: d(4),
                done: d(5),
            },
            Timing {
                due: d(3),
                sent: d(5),
                done: d(6),
            },
        ];
        let lateness: Vec<_> = timings.iter().map(Timing::lateness).collect();
        let latency: Vec<_> = timings.iter().map(Timing::latency).collect();
        assert_eq!(lateness, [d(0), d(0), d(2), d(2)]);
        // Timed from the due time, not from the late send: 3 ms, not 1 ms.
        assert_eq!(latency, [d(1), d(3), d(3), d(3)]);
        // A reply can never make lateness or latency negative.
        let early = Timing {
            due: d(5),
            sent: d(4),
            done: d(4),
        };
        assert_eq!(early.lateness(), d(0));
        assert_eq!(early.latency(), d(0));
    }

    #[test]
    fn schedule_spaces_sends_evenly() {
        let s = Schedule::new(Instant::now(), 1000.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(250), Duration::from_millis(250));
        let due = s.wait_for(2);
        assert!(s.origin.elapsed() >= due);
    }
}
