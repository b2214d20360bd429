//! Metric math: percentiles from exact samples, span self time, the
//! shift ratio, and parallel efficiency.
//!
//! Everything here is pure and unit-tested; the load generator and the
//! traced replay only collect raw samples and spans and hand them over.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every workload reports as `latency_p95_us` (and
/// `net.rtt_us_p95`), in hundredths of a percent. A p99 is read off the
/// slowest 1% — 26–45 requests of a 45 s `solve_cold` run, and on
/// `session_stream` the far end of its slow re-placement ingests. There
/// the p99 spread 30–41% between runs of one code where the p95 of the
/// same runs spread 16%.
pub const TAIL_PCT: u32 = 9_500;

/// 1-based nearest rank of percentile `pct` (hundredths of a percent)
/// among `n` samples: `ceil(pct / 10_000 * n)`, at least 1.
pub fn rank(n: usize, pct: u32) -> usize {
    let r = (u128::from(pct) * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], pct: u32) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Tail percentile `pct` of `sorted`, but only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank; a tail read off
/// fewer samples is mostly one or two outliers.
pub fn tail_at(sorted: &[u64], pct: u32) -> Option<u64> {
    let n = sorted.len();
    (n > 0 && n >= rank(n, pct) + MIN_BEYOND).then(|| sorted[rank(n, pct) - 1])
}

/// Fewest samples for which [`tail_at`] reports percentile `pct`
/// (below `10_000`).
pub fn min_samples(pct: u32) -> usize {
    (1..)
        .find(|&n| n >= rank(n, pct) + MIN_BEYOND)
        .expect("some n qualifies")
}

/// Formats hundredths of a percent as `p99`, `p99.9`, `p75`.
pub fn pct_label(pct: u32) -> String {
    if pct.is_multiple_of(100) {
        format!("p{}", pct / 100)
    } else {
        format!("p{}", f64::from(pct) / 100.0)
    }
}

/// Exact samples of one quantity, sorted on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.values.iter().map(|&v| u128::from(v)).sum()
    }

    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        &self.values
    }

    /// Median (nearest rank).
    pub fn p50(&mut self) -> Option<u64> {
        percentile(self.sorted(), 5_000)
    }

    /// Tail percentile `pct` by the [`tail_at`] rule.
    pub fn tail_at(&mut self, pct: u32) -> Option<u64> {
        tail_at(self.sorted(), pct)
    }
}

/// Target length of one measurement slice.
pub const SLICE_NS: u64 = 2_000_000_000;
/// Fewest requests a slice may average, so its median is not a handful
/// of samples.
pub const SLICE_MIN_SAMPLES: usize = 200;

/// The timing metrics of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Number of equal-length slices the phase was cut into.
    pub slices: usize,
    /// Median over slices of requests completed per second.
    pub throughput: f64,
    /// Median over slices of the median round trip, ns.
    pub p50_ns: u64,
    /// The requested tail percentile over every round trip of the
    /// phase, ns.
    pub tail_ns: u64,
}

/// Cuts a measured phase of `measured_ns` into equal slices and reports
/// throughput and the median round trip as medians over slices, so a
/// burst of noise confined to a slice or two does not move them. The
/// tail is percentile `tail_pct` of every round trip of the phase
/// (exact samples, nothing dropped), so a stall in a minority of slices
/// still shows in it.
///
/// `events` are `(completion time since the phase began, round trip)`
/// in ns. The phase gets one slice per [`SLICE_NS`], but never so many
/// that a slice averages fewer than [`SLICE_MIN_SAMPLES`] requests, and
/// an odd number of them; a short or slow phase is a single slice, i.e.
/// plain exact statistics. Fails when the phase has too few samples for
/// `tail_pct` (see [`tail_at`]) rather than reporting another
/// percentile.
pub fn sliced(events: &[(u64, u64)], measured_ns: u64, tail_pct: u32) -> Result<Sliced, String> {
    let mut all: Vec<u64> = events.iter().map(|&(_, rtt)| rtt).collect();
    all.sort_unstable();
    let tail_ns = tail_at(&all, tail_pct).ok_or_else(|| {
        format!(
            "{} requests cannot support a {} (needs {}); run longer",
            all.len(),
            pct_label(tail_pct),
            min_samples(tail_pct)
        )
    })?;
    let by_time = usize::try_from(measured_ns / SLICE_NS).unwrap_or(usize::MAX);
    let slices = by_time.min(events.len() / SLICE_MIN_SAMPLES).max(1);
    // An odd count, so the median is a slice's value, not the lower of two.
    let slices = slices - (1 - slices % 2);
    let width = measured_ns.max(1).div_ceil(slices as u64);
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(at, rtt) in events {
        let i = usize::try_from(at / width)
            .unwrap_or(usize::MAX)
            .min(slices - 1);
        groups[i].push(rtt);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    let secs = width as f64 / 1e9;
    let mut throughput: Vec<f64> = groups.iter().map(|g| g.len() as f64 / secs).collect();
    throughput.sort_unstable_by(f64::total_cmp);
    // An empty slice (a stall) has the worst median: +inf.
    let mut p50: Vec<u64> = groups
        .iter()
        .map(|g| percentile(g, 5_000).unwrap_or(u64::MAX))
        .collect();
    p50.sort_unstable();
    let median = "a phase has at least one slice";
    Ok(Sliced {
        slices,
        throughput: percentile(&throughput, 5_000).expect(median),
        p50_ns: percentile(&p50, 5_000).expect(median),
        tail_ns,
    })
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// One traced interval. Times are nanoseconds since the trace epoch;
/// `parent` indexes the span list the span lives in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of `span`: its duration minus the part of its interval
/// that the union of `children` covers. Children may overlap each other
/// (parallel workers) and may stick out of the parent; only the covered
/// part of the parent's own interval is subtracted.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start;
    for (s, e) in parts {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.duration() - covered
}

/// Σ served shifts against Σ naive shifts over a set of workloads —
/// the paper's figure of merit (lower is better; 1.0 = no gain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShiftTally {
    /// Shifts under the served placements (for sessions: access plus
    /// migration shifts).
    pub served: u64,
    /// Shifts under the naive (first-appearance order) placement.
    pub naive: u64,
    /// Workloads (or session streams) counted.
    pub workloads: u64,
}

impl ShiftTally {
    /// Counts one workload.
    pub fn add(&mut self, served: u64, naive: u64) {
        self.served += served;
        self.naive += naive;
        self.workloads += 1;
    }

    /// `served / naive`; `None` when nothing was counted or the naive
    /// placement costs nothing.
    pub fn ratio(&self) -> Option<f64> {
        (self.naive > 0).then(|| self.served as f64 / self.naive as f64)
    }
}

/// Parallel efficiency of fan-outs: Σ per-task busy time over
/// Σ fan-out wall time × threads. 1.0 means every thread solved for the
/// whole fan-out; `None` when no fan-out ran.
pub fn par_efficiency(task_ns: u128, map_ns: u128, threads: usize) -> Option<f64> {
    (map_ns > 0 && threads > 0).then(|| task_ns as f64 / (map_ns as f64 * threads as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent: None,
            request_id: 0,
        }
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        // Rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_at(&thousand, 9_900), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        // Rank ceil(989.01) = 990 leaves 9: no p99, and no silent
        // fallback to another percentile either.
        assert_eq!(tail_at(&short, 9_900), None);
        assert_eq!(tail_at(&short, 9_500), Some(950));
        let tiny: Vec<u64> = (1..=100).collect();
        // p95 leaves 5; p90 (rank 90) leaves exactly 10.
        assert_eq!(tail_at(&tiny, 9_500), None);
        assert_eq!(tail_at(&tiny, 9_000), Some(90));
        assert_eq!(tail_at(&[], 9_000), None);
        assert_eq!(min_samples(9_900), 1_000);
        assert_eq!(min_samples(9_500), 200);
        assert_eq!(min_samples(9_000), 100);
    }

    #[test]
    fn percentiles_use_exact_samples_not_buckets() {
        let mut s = Samples::new();
        for v in [7, 1_000_003, 3, 5, 1_000_001] {
            s.push(v);
        }
        assert_eq!(s.p50(), Some(7));
        assert_eq!(percentile(&[42], 9_900), Some(42));
        assert_eq!(rank(10, 5_000), 5);
        assert_eq!(rank(3, 1), 1);
        assert_eq!(pct_label(9_900), "p99");
        assert_eq!(pct_label(9_990), "p99.9");
    }

    #[test]
    fn slices_take_medians_and_the_tail_pools_every_sample() {
        // 10 s at 1,000 requests/s: five 2 s slices of 2,000 requests.
        let mut events: Vec<(u64, u64)> = (0..10_000u64)
            .map(|i| (i * 1_000_000, 100 + i % 100))
            .collect();
        let s = sliced(&events, 10_000_000_000, 9_900).unwrap();
        assert_eq!(s.slices, 5);
        // 12 s would make six slices; the count stays odd.
        assert_eq!(sliced(&events, 12_000_000_000, 9_900).unwrap().slices, 5);
        assert_eq!(s.throughput, 1_000.0);
        assert_eq!(s.p50_ns, 149);
        assert_eq!(s.tail_ns, 198);
        // A stall that triples every round trip in one slice of five
        // leaves the medians over slices alone but shows in the tail,
        // which pools every sample.
        for e in events.iter_mut().take(2_000) {
            e.1 *= 3;
        }
        let stalled = sliced(&events, 10_000_000_000, 9_900).unwrap();
        assert_eq!((stalled.throughput, stalled.p50_ns), (1_000.0, 149));
        assert_eq!(stalled.tail_ns, 582);
    }

    #[test]
    fn slow_phases_get_fewer_slices_and_fail_without_their_tail() {
        // 700 requests in 10 s: three slices of 223..239 requests.
        let events: Vec<(u64, u64)> = (0..700u64).map(|i| (i * 14_000_000, i + 1)).collect();
        let s = sliced(&events, 10_000_000_000, 9_500).unwrap();
        assert_eq!(s.slices, 3);
        assert!((s.throughput - 71.4).abs() < 1e-6, "{}", s.throughput);
        // Pooled p95 of 1..=700 is rank 665.
        assert_eq!((s.p50_ns, s.tail_ns), (358, 665));
        // 700 samples cannot carry a p99: the run fails instead of
        // reporting a lower percentile under the same name.
        let err = sliced(&events, 10_000_000_000, 9_900).unwrap_err();
        assert!(err.contains("p99 (needs 1000)"), "{err}");
        // 250 requests: one slice, plain exact statistics.
        let few: Vec<(u64, u64)> = (0..250u64).map(|i| (i * 40_000_000, i + 1)).collect();
        let s = sliced(&few, 10_000_000_000, 9_500).unwrap();
        assert_eq!((s.slices, s.p50_ns, s.tail_ns), (1, 125, 238));
        assert!(sliced(&[], 1_000, 9_500).is_err());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(100, 200);
        // Overlapping children (two workers) count once: 120..170.
        let a = span(120, 160);
        let b = span(140, 170);
        // A child sticking out of the parent only covers 190..200.
        let c = span(190, 230);
        // A child entirely outside covers nothing.
        let d = span(300, 400);
        assert_eq!(self_time(&parent, &[&a, &b, &c, &d]), 100 - 50 - 10);
        assert_eq!(self_time(&parent, &[]), 100);
        assert_eq!(self_time(&parent, &[&span(0, 1_000)]), 0);
        // Nested and duplicate children are not double counted.
        assert_eq!(self_time(&parent, &[&a, &a, &span(130, 140)]), 60);
    }

    #[test]
    fn shift_ratio_weights_workloads_by_their_naive_shifts() {
        let mut t = ShiftTally::default();
        assert_eq!(t.ratio(), None);
        t.add(50, 100);
        t.add(10, 300);
        assert_eq!(t.workloads, 2);
        // (50 + 10) / (100 + 300), not the mean of 0.5 and 0.033.
        assert_eq!(t.ratio(), Some(0.15));
        let mut zero = ShiftTally::default();
        zero.add(0, 0);
        assert_eq!(zero.ratio(), None);
    }

    #[test]
    fn par_efficiency_is_busy_over_wall_times_threads() {
        // Two 40 ns solves inside a 50 ns fan-out on 2 threads: 80 / 100.
        assert_eq!(par_efficiency(80, 50, 2), Some(0.8));
        // A single solve on a 2-thread pool can use at most half of it.
        assert_eq!(par_efficiency(50, 50, 2), Some(0.5));
        assert_eq!(par_efficiency(10, 0, 2), None);
        assert_eq!(par_efficiency(10, 10, 0), None);
    }
}
