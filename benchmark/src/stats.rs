//! The benchmark's own statistics: percentiles with their sample support,
//! open-loop due-time scheduling, the capacity ladder's pass rule, and
//! ledgers that close with an explicit `unattributed` remainder.
//!
//! Everything here is pure (or generic over a [`Clock`]) so the unit tests
//! at the bottom pin the rules the benchmark reports by.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    // The epsilon keeps e.g. 0.999 × 10000 from rounding up past 9990.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample summarised the way the benchmark reports timings: the
/// median, and the highest percentile with at least [`MIN_BEYOND`] samples
/// beyond it, with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The highest supported percentile (`None` when even the lowest tried
    /// has fewer than [`MIN_BEYOND`] samples beyond it).
    pub pct: Option<f64>,
    pub value: f64,
    pub beyond: usize,
}

impl Tail {
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Tail {
                n,
                p50: 0.0,
                pct: None,
                value: 0.0,
                beyond: 0,
            };
        }
        let p50 = quantile_sorted(&v, 0.5);
        for pct in TAILS {
            let b = beyond(n, pct);
            if b >= MIN_BEYOND {
                return Tail {
                    n,
                    p50,
                    pct: Some(pct),
                    value: quantile_sorted(&v, pct / 100.0),
                    beyond: b,
                };
            }
        }
        Tail {
            n,
            p50,
            pct: None,
            value: v[n - 1],
            beyond: 0,
        }
    }
}

/// p99 of a sample with its support, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn p99_supported(values: &[f64]) -> Option<(f64, usize)> {
    let b = beyond(values.len(), 99.0);
    if values.is_empty() || b < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((quantile_sorted(&v, 0.99), b))
}

/// The p99 of a long sample reported robustly: the sample is cut into
/// consecutive windows of at least `min_window` samples (each window's p99
/// then has ≥ [`MIN_BEYOND`] samples beyond it when `min_window` ≥ 1000)
/// and the median of the window p99s is returned with the window count.
/// A transient stall then moves one window, not the reported value.
pub fn windowed_p99(values: &[f64], min_window: usize) -> Option<(f64, usize)> {
    let windows = (values.len() / min_window.max(1)).clamp(1, 7);
    let size = values.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| p99_supported(&values[w * size..(w + 1) * size]).map(|(v, _)| v))
        .collect::<Option<Vec<f64>>>()?;
    Some((median(&p99s), windows))
}

// ------------------------------------------------------------- scheduling

/// Time source of the open-loop scheduler; real runs use [`WallClock`],
/// tests a simulated one.
pub trait Clock {
    /// Elapsed time since the schedule's origin.
    fn now(&mut self) -> Duration;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: Duration);
}

/// One request of an open-loop schedule, all times from the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sample {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }

    /// Time the request spent in service (send to reply).
    pub fn service_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.sent))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Due times `start + (offset + k·stride)/rate` for `k = 0, 1, ...` below
/// `end`: one connection's share of a fixed-rate open-loop schedule.
pub fn due_times(
    rate: f64,
    start: Duration,
    end: Duration,
    offset: usize,
    stride: usize,
) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut k = offset;
    loop {
        let t = start + Duration::from_secs_f64(k as f64 / rate);
        if t >= end {
            return out;
        }
        out.push(t);
        k += stride;
    }
}

/// Runs one connection's schedule: waits for each due time (never for a
/// reply that is late — the next request goes out as soon as the previous
/// one is answered), calls `send`, and records the due/sent/done times.
pub fn run_schedule<C: Clock>(
    clock: &mut C,
    due: &[Duration],
    mut send: impl FnMut(usize, &mut C) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        clock.sleep_until(d);
        let sent = clock.now();
        let ok = send(i, clock);
        let done = clock.now();
        out.push(Sample {
            due: d,
            sent,
            done,
            ok,
        });
    }
    out
}

// ------------------------------------------------------------------ ladder

/// The backlog rule: a rung's backlog grows when the generator falls
/// further behind its schedule over the rung — the median lateness of the
/// last quarter of requests exceeds that of the first quarter by more than
/// half the latency limit.
pub fn backlog_grows(late_ms_in_due_order: &[f64], limit_ms: f64) -> bool {
    let n = late_ms_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&late_ms_in_due_order[..q]);
    let last = median(&late_ms_in_due_order[n - q..]);
    last - first > limit_ms / 2.0
}

/// Verdict on one ladder rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub attempted: usize,
    /// Requests that failed or were answered after the limit.
    pub misses: usize,
    /// Consecutive windows the rung was judged in, and how many passed.
    pub windows: usize,
    pub windows_passed: usize,
    pub backlog: bool,
    pub pass: bool,
}

/// Samples per judging window: a window's p99 has ≥ [`MIN_BEYOND`]
/// samples beyond it.
pub const WINDOW: usize = 1000;

/// A rung passes when its median window p99 is within the limit and its
/// backlog does not grow. The rung is cut into consecutive windows of at
/// least [`WINDOW`] requests (one window when it has fewer); a window
/// passes when at most 1 % of its requests miss the limit — its p99,
/// counting a failed request as a miss, is within the limit — and the rung
/// needs at least half its windows to pass. One transient stall then fails
/// one window, while saturation fails them all.
pub fn judge_rung(rate: f64, samples: &[Sample], limit_ms: f64) -> Rung {
    let attempted = samples.len();
    let miss = |s: &Sample| !s.ok || s.latency_ms() > limit_ms;
    let windows = (attempted / WINDOW).max(1);
    let size = attempted / windows;
    let windows_passed = (0..windows)
        .filter(|w| {
            let end = if w + 1 == windows {
                attempted
            } else {
                (w + 1) * size
            };
            let win = &samples[w * size..end];
            win.iter().filter(|s| miss(s)).count() * 100 <= win.len()
        })
        .count();
    let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
    let backlog = backlog_grows(&late, limit_ms);
    Rung {
        rate,
        attempted,
        misses: samples.iter().filter(|s| miss(s)).count(),
        windows,
        windows_passed,
        backlog,
        pass: attempted > 0 && 2 * windows_passed >= windows && !backlog,
    }
}

/// Capacity: the highest rate of the ascending ladder reached before the
/// first failing rung (`None` when the lowest rung already fails).
pub fn capacity(rungs: &[Rung]) -> Option<f64> {
    let mut best = None;
    for r in rungs {
        if !r.pass {
            break;
        }
        best = Some(r.rate);
    }
    best
}

/// A geometric ladder `lo, lo·step, ...` up to and including the first
/// rate at or above `hi`.
pub fn ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(step > 1.0 && lo > 0.0);
    let mut out = vec![lo];
    while *out.last().expect("nonempty") < hi {
        let next = out.last().expect("nonempty") * step;
        out.push((next * 100.0).round() / 100.0);
    }
    out
}

// ------------------------------------------------------------------ ledger

/// A total split into named parts plus the remainder nobody accounted for.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub name: String,
    pub total: f64,
    pub parts: Vec<(String, f64)>,
}

impl Ledger {
    pub fn new(name: &str, total: f64) -> Ledger {
        Ledger {
            name: name.to_string(),
            total,
            parts: Vec::new(),
        }
    }

    pub fn part(mut self, name: &str, value: f64) -> Ledger {
        self.parts.push((name.to_string(), value));
        self
    }

    /// `total − Σ parts` (negative when parts overlap or overcount).
    pub fn unattributed(&self) -> f64 {
        self.total - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Parts plus `unattributed` reproduce the total.
    pub fn closes(&self) -> bool {
        let sum: f64 = self.parts.iter().map(|(_, v)| v).sum::<f64>() + self.unattributed();
        (sum - self.total).abs() <= 1e-9 * self.total.abs().max(1.0)
    }

    pub fn render(&self, unit: &str) -> String {
        let mut s = format!("ledger {}: total {:.3} {unit} =", self.name, self.total);
        for (n, v) in &self.parts {
            s.push_str(&format!(" {n} {v:.3} +"));
        }
        s.push_str(&format!(" unattributed {:.3}", self.unattributed()));
        s
    }
}

/// Self time of a span: its duration minus the part of its interval that
/// its children cover (children may overlap each other; the union counts).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (s, e) = span;
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(s), b.min(e)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (e - s) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: 99th percentile has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.n, 1000);
        assert_eq!(t.pct, Some(99.0));
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.p50, 500.0);
        // 999 samples: p99 has only 9 beyond, so the rule falls to p95.
        let t = Tail::of(&v[..999]);
        assert_eq!(t.pct, Some(95.0));
        assert_eq!(t.beyond, 999 - 950);
        // 10000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.pct, Some(99.9));
        assert_eq!(t.beyond, 10);
        // Too few for any tail: reported as unsupported, with the count.
        let t = Tail::of(&[1.0, 2.0, 3.0]);
        assert_eq!((t.pct, t.n, t.beyond), (None, 3, 0));
    }

    #[test]
    fn p99_requires_ten_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(p99_supported(&v), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99_supported(&v), Some((990.0, 10)));
        assert_eq!(p99_supported(&[]), None);
    }

    #[test]
    fn windowed_p99_is_the_median_of_window_p99s() {
        // Three windows of 1000; the middle one holds a stall.
        let mut v: Vec<f64> = Vec::new();
        for w in 0..3 {
            for i in 1..=1000 {
                let x = f64::from(i);
                v.push(if w == 1 && i > 900 { 100.0 * x } else { x });
            }
        }
        assert_eq!(windowed_p99(&v, 1000), Some((990.0, 3)));
        // Too short for even one supported p99.
        assert_eq!(windowed_p99(&v[..999], 1000), None);
    }

    /// A simulated clock: sleeping jumps forward, a request takes its
    /// scripted service time.
    struct SimClock {
        t: Duration,
    }

    impl Clock for SimClock {
        fn now(&mut self) -> Duration {
            self.t
        }
        fn sleep_until(&mut self, t: Duration) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn stall_shows_in_the_requests_behind_it() {
        let due = due_times(1000.0, Duration::ZERO, Duration::from_millis(20), 0, 1);
        assert_eq!(due.len(), 20);
        let mut clock = SimClock { t: Duration::ZERO };
        let samples = run_schedule(&mut clock, &due, |i, c| {
            // 0.1 ms per request, except a 5 ms stall on request 5.
            let service = if i == 5 { 5.0 } else { 0.1 };
            c.t += Duration::from_secs_f64(service / 1e3);
            true
        });
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        assert!((lat[4] - 0.1).abs() < 1e-9);
        assert!((lat[5] - 5.0).abs() < 1e-9);
        // Request 6 was due 1 ms after request 5 but could only be sent
        // when the stall ended: 4 ms late, answered 4.1 ms after due.
        assert!((samples[6].late_ms() - 4.0).abs() < 1e-9);
        assert!((lat[6] - 4.1).abs() < 1e-9);
        assert!((lat[7] - 3.2).abs() < 1e-9);
        // Service time alone would hide the stall from every later request.
        assert!((samples[6].service_ms() - 0.1).abs() < 1e-9);
        // The schedule recovers once the backlog drains.
        assert!((lat[19] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_split_across_connections() {
        let end = Duration::from_secs(1);
        let a = due_times(100.0, Duration::ZERO, end, 0, 2);
        let b = due_times(100.0, Duration::ZERO, end, 1, 2);
        assert_eq!(a.len() + b.len(), 100);
        assert_eq!(b[0], Duration::from_millis(10));
    }

    fn samples_with_lateness(late: &[f64]) -> Vec<Sample> {
        late.iter()
            .enumerate()
            .map(|(i, &l)| {
                let due = Duration::from_millis(i as u64);
                let sent = due + Duration::from_secs_f64(l / 1e3);
                Sample {
                    due,
                    sent,
                    done: sent + Duration::from_micros(100),
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn backlog_growth_fails_a_rung() {
        // Steady: lateness jitters but does not trend.
        let steady: Vec<f64> = (0..100).map(|i| (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_grows(&steady, 2.0));
        let r = judge_rung(100.0, &samples_with_lateness(&steady), 2.0);
        assert!(r.pass && !r.backlog);
        // Overloaded: the generator falls 0.05 ms further behind per
        // request, 5 ms over the rung — the backlog grows.
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        assert!(backlog_grows(&growing, 2.0));
        let r = judge_rung(100.0, &samples_with_lateness(&growing), 50.0);
        assert!(!r.backlog, "5 ms of drift is within half a 50 ms limit");
        let r = judge_rung(100.0, &samples_with_lateness(&growing), 2.0);
        assert!(r.backlog && !r.pass);
    }

    #[test]
    fn failures_count_as_misses_and_capacity_stops_at_first_failure() {
        let mut s = samples_with_lateness(&[0.0; 200]);
        assert!(judge_rung(10.0, &s, 1.0).pass);
        s[0].ok = false;
        s[1].ok = false;
        // 2 of 200 missed: exactly 1 %, still passes.
        assert!(judge_rung(10.0, &s, 1.0).pass);
        s[2].ok = false;
        let r = judge_rung(10.0, &s, 1.0);
        assert_eq!((r.misses, r.pass), (3, false));
        let rung = |rate: f64, pass: bool| Rung {
            rate,
            attempted: 1,
            misses: 0,
            windows: 1,
            windows_passed: pass as usize,
            backlog: false,
            pass,
        };
        let rungs = [
            rung(1.0, true),
            rung(2.0, true),
            rung(3.0, false),
            rung(4.0, true),
        ];
        assert_eq!(capacity(&rungs), Some(2.0));
        assert_eq!(capacity(&[rung(1.0, false)]), None);
    }

    #[test]
    fn a_stall_in_one_window_does_not_fail_the_rung() {
        let mut s = samples_with_lateness(&[0.0; 3000]);
        // 50 failures inside the first window: that window fails.
        for x in &mut s[100..150] {
            x.ok = false;
        }
        let r = judge_rung(10.0, &s, 1.0);
        assert_eq!((r.windows, r.windows_passed, r.pass), (3, 2, true));
        // The same stall in a second window: the median window fails.
        for x in &mut s[1100..1150] {
            x.ok = false;
        }
        let r = judge_rung(10.0, &s, 1.0);
        assert_eq!((r.windows, r.windows_passed, r.pass), (3, 1, false));
        assert_eq!(r.misses, 100);
    }

    #[test]
    fn ladder_steps_are_geometric() {
        let l = ladder(100.0, 130.0, 1.05);
        assert_eq!(l.first(), Some(&100.0));
        assert!(*l.last().unwrap() >= 130.0);
        for w in l.windows(2) {
            assert!((w[1] / w[0] - 1.05).abs() < 0.001);
        }
    }

    #[test]
    fn ledger_closes_with_unattributed() {
        let l = Ledger::new("request_us", 100.0)
            .part("queue", 20.0)
            .part("score", 55.5)
            .part("reply", 4.25);
        assert!((l.unattributed() - 20.25).abs() < 1e-12);
        assert!(l.closes());
        // Overcounting parts leave a negative remainder, still closing.
        let l = Ledger::new("x", 10.0).part("a", 7.0).part("b", 5.0);
        assert_eq!(l.unattributed(), -2.0);
        assert!(l.closes());
        assert!(l.render("us").contains("unattributed -2.000"));
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        // Overlapping children count once; parts outside the span are cut.
        assert_eq!(
            self_time((0.0, 10.0), &[(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]),
            5.0
        );
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 10.0)]), 0.0);
    }
}
