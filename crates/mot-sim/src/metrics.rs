//! Cost and load statistics, plus the aggregation side of the
//! observability layer: per-level cost ledgers, mergeable log-spaced
//! histograms, and a trace-consuming [`Recorder`].

use mot_core::{fmt_f64, LedgerKind, ObjectId, OpKind, TraceEvent, TraceSink};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Accumulated algorithm-vs-optimal communication cost.
///
/// # Example
///
/// ```
/// use mot_sim::CostStats;
///
/// let mut s = CostStats::default();
/// s.record(3.0, 2.0); // algorithm paid 3, the optimal was 2
/// s.record(2.0, 2.0);
/// assert_eq!(s.ratio(), 5.0 / 4.0); // amortized C(E)/C*(E)
/// assert_eq!(s.mean_ratio(), (1.5 + 1.0) / 2.0); // per-op mean
///
/// // merging is exact and order-independent in the totals
/// let mut t = CostStats::default();
/// t.merge(&s);
/// assert_eq!(t.ratio(), s.ratio());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostStats {
    /// Total message distance spent by the algorithm.
    pub total: f64,
    /// Total optimal cost (sum of `dist(u_i, v_i)` for maintenance; sum
    /// of `dist(querier, proxy)` for queries).
    pub optimal: f64,
    /// Sum of per-operation ratios (for operations with positive optimal
    /// cost).
    pub ratio_sum: f64,
    /// Number of operations accumulated.
    pub operations: usize,
    /// Operations whose optimal cost was zero. A per-operation ratio is
    /// undefined for these, so they are counted here and excluded from
    /// `ratio_sum` instead of being invented as ratio 1 (which would
    /// understate `mean_ratio` whenever the algorithm paid a positive
    /// cost against a zero optimal).
    pub zero_optimal_ops: usize,
}

impl CostStats {
    /// Folds one operation in.
    pub fn record(&mut self, cost: f64, optimal: f64) {
        self.total += cost;
        self.optimal += optimal;
        if optimal > 0.0 {
            self.ratio_sum += cost / optimal;
        } else {
            self.zero_optimal_ops += 1;
        }
        self.operations += 1;
    }

    /// The amortized cost ratio `C(E) / C*(E)` — the metric of the
    /// maintenance analysis (a *sequence* of operations is charged
    /// against the optimal for the whole sequence). 1.0 when no optimal
    /// cost has accrued.
    pub fn ratio(&self) -> f64 {
        if self.optimal <= 0.0 {
            1.0
        } else {
            self.total / self.optimal
        }
    }

    /// Mean of per-operation ratios over the operations that have one
    /// (positive optimal cost) — the metric of the query analysis
    /// (each query is charged against its own optimal, Theorem 4.11).
    pub fn mean_ratio(&self) -> f64 {
        let ratioed = self.operations - self.zero_optimal_ops;
        if ratioed == 0 {
            1.0
        } else {
            self.ratio_sum / ratioed as f64
        }
    }

    /// Merges another accumulator (e.g. across seeds).
    pub fn merge(&mut self, other: &CostStats) {
        self.total += other.total;
        self.optimal += other.optimal;
        self.ratio_sum += other.ratio_sum;
        self.operations += other.operations;
        self.zero_optimal_ops += other.zero_optimal_ops;
    }
}

/// Mean and (sample) standard deviation of a series of repeated
/// measurements — used when reporting across seeds.
///
/// # Example
///
/// ```
/// use mot_sim::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0]);
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.stddev, 1.0);
/// assert_eq!(s.count, 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub stddev: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl Summary {
    /// Summarizes a slice of samples.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Summary {
            mean,
            stddev: var.sqrt(),
            count: n,
        }
    }
}

/// Snapshot statistics over per-node loads (Figs. 8–11).
///
/// # Example
///
/// ```
/// use mot_sim::LoadStats;
///
/// let s = LoadStats::from_loads(&[0, 1, 1, 2]);
/// assert_eq!(s.max, 2);
/// assert_eq!(s.mean, 1.0);
/// assert_eq!(s.nodes_above_10, 0);
/// assert!(s.jain_index <= 1.0); // 1.0 = perfectly even
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LoadStats {
    /// Largest per-node load.
    pub max: usize,
    /// Mean per-node load.
    pub mean: f64,
    /// Number of nodes with load strictly greater than 10 — the
    /// threshold the paper's load figures call out.
    pub nodes_above_10: usize,
    /// Jain's fairness index in `(0, 1]`; 1 = perfectly even.
    pub jain_index: f64,
    /// Histogram over fixed bins: `[0, 1, 2, 3-5, 6-10, >10]`.
    pub histogram: [usize; 6],
}

impl LoadStats {
    /// Computes statistics from a per-node load vector.
    pub fn from_loads(loads: &[usize]) -> LoadStats {
        let n = loads.len().max(1);
        let sum: usize = loads.iter().sum();
        let sum_sq: f64 = loads.iter().map(|&l| (l * l) as f64).sum();
        let jain = if sum == 0 {
            1.0
        } else {
            (sum as f64 * sum as f64) / (n as f64 * sum_sq)
        };
        let mut histogram = [0usize; 6];
        for &l in loads {
            let bin = match l {
                0 => 0,
                1 => 1,
                2 => 2,
                3..=5 => 3,
                6..=10 => 4,
                _ => 5,
            };
            histogram[bin] += 1;
        }
        LoadStats {
            max: loads.iter().copied().max().unwrap_or(0),
            mean: sum as f64 / n as f64,
            nodes_above_10: loads.iter().filter(|&&l| l > 10).count(),
            jain_index: jain,
            histogram,
        }
    }
}

/// Number of buckets in a [`Histogram`]. Bucket 0 covers `[0, 1)`;
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i)`; the last bucket also absorbs
/// everything beyond its upper edge, so `2^30` (~1e9) is the largest
/// resolvable value — far above any message distance in the suite.
pub const HIST_BUCKETS: usize = 32;

/// A fixed log-spaced histogram of non-negative samples.
///
/// The bucket edges are powers of two and never depend on the data, so
/// histograms from different seeds (or different runs entirely) merge
/// bucket-by-bucket without rebinning.
///
/// # Example
///
/// ```
/// use mot_sim::Histogram;
///
/// let mut a = Histogram::new();
/// a.record(0.5); // bucket 0: [0, 1)
/// a.record(3.0); // bucket 2: [2, 4)
/// let mut b = Histogram::new();
/// b.record(3.5);
/// a.merge(&b); // exact: same fixed buckets, no rebinning
/// assert_eq!(a.count, 3);
/// assert_eq!(a.buckets[2], 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Sample counts per fixed power-of-two bucket.
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (for the mean; exact, unlike the buckets).
    pub sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a sample lands in (negative samples clamp to 0).
    pub fn bucket_index(x: f64) -> usize {
        if x < 1.0 {
            return 0;
        }
        // [2^(i-1), 2^i) for i >= 1; log2(x) in [i-1, i)
        let i = x.log2().floor() as usize + 1;
        i.min(HIST_BUCKETS - 1)
    }

    /// The `[lo, hi)` range of bucket `i` (the last bucket's `hi` is
    /// `f64::INFINITY`).
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        assert!(i < HIST_BUCKETS, "bucket out of range");
        let lo = if i == 0 {
            0.0
        } else {
            (1u64 << (i - 1)) as f64
        };
        let hi = if i == HIST_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (1u64 << i) as f64
        };
        (lo, hi)
    }

    /// Folds one sample in.
    pub fn record(&mut self, x: f64) {
        self.buckets[Self::bucket_index(x)] += 1;
        self.count += 1;
        self.sum += x;
    }

    /// Merges another histogram (e.g. across seeds). Exact: buckets are
    /// fixed, so merging N per-seed histograms equals one histogram fed
    /// all N sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, if any sample was recorded.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Approximate quantile at power-of-two resolution: the upper edge
    /// of the first bucket whose cumulative count reaches `q · count`
    /// (its lower edge for the unbounded last bucket). Deterministic and
    /// mergeable — the p50/p99 figures service mode reports — unlike an
    /// exact percentile it costs no sample retention.
    ///
    /// Boundary semantics: `quantile(0.0)` is the *lower* edge of the
    /// first non-empty bucket (the p0 is the smallest sample's bucket
    /// floor, not a rank-1 upper bound); `quantile(1.0)` is the bound of
    /// the last non-empty bucket, like every interior quantile whose
    /// rank falls there. An empty histogram answers 0.0 at every `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        if q == 0.0 {
            let first = self
                .buckets
                .iter()
                .position(|&c| c > 0)
                .expect("count > 0 means some bucket is non-empty");
            return Self::bucket_bounds(first).0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                return if hi.is_finite() { hi } else { lo };
            }
        }
        unreachable!("cumulative count reaches total count");
    }

    /// JSON rendering: `{"count":N,"sum":S,"buckets":[...]}` with the
    /// trailing run of empty buckets trimmed.
    pub fn to_json(&self) -> String {
        let used = self.max_bucket().map_or(0, |i| i + 1);
        let buckets: Vec<String> = self.buckets[..used].iter().map(u64::to_string).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            self.count,
            fmt_f64(self.sum),
            buckets.join(",")
        )
    }
}

/// Message distance decomposed by hierarchy level and ledger kind — the
/// aggregation behind the per-level cost-decomposition table that checks
/// the geometric decay of MOT's level-ℓ maintenance spend.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelLedger {
    /// `levels[l][k]` = distance billed at level `l` under
    /// `LedgerKind::all()[k]`. Grows on demand.
    levels: Vec<[f64; 6]>,
}

impl LevelLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn kind_index(kind: LedgerKind) -> usize {
        LedgerKind::all()
            .iter()
            .position(|&k| k == kind)
            .expect("all() covers every kind")
    }

    /// Bills `dist` at `level` under `kind`.
    pub fn add(&mut self, level: usize, kind: LedgerKind, dist: f64) {
        if level >= self.levels.len() {
            self.levels.resize(level + 1, [0.0; 6]);
        }
        self.levels[level][Self::kind_index(kind)] += dist;
    }

    /// Number of levels with any billing (the vector's length).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Distance billed at `level` under `kind` (0.0 beyond the recorded
    /// height).
    pub fn get(&self, level: usize, kind: LedgerKind) -> f64 {
        self.levels
            .get(level)
            .map_or(0.0, |row| row[Self::kind_index(kind)])
    }

    /// Total distance billed at `level` across all ledgers.
    pub fn level_total(&self, level: usize) -> f64 {
        self.levels.get(level).map_or(0.0, |row| row.iter().sum())
    }

    /// Total distance billed under `kind` across all levels.
    pub fn ledger_total(&self, kind: LedgerKind) -> f64 {
        let k = Self::kind_index(kind);
        self.levels.iter().map(|row| row[k]).sum()
    }

    /// Grand total across levels and ledgers.
    pub fn total(&self) -> f64 {
        self.levels.iter().flat_map(|row| row.iter()).sum()
    }

    /// Merges another ledger (e.g. across seeds).
    pub fn merge(&mut self, other: &LevelLedger) {
        if other.levels.len() > self.levels.len() {
            self.levels.resize(other.levels.len(), [0.0; 6]);
        }
        for (l, row) in other.levels.iter().enumerate() {
            for (k, v) in row.iter().enumerate() {
                self.levels[l][k] += v;
            }
        }
    }

    /// JSON rendering: an array of per-level objects keyed by ledger
    /// label, zero entries omitted.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, row)| {
                let fields: Vec<String> = LedgerKind::all()
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| row[*k] != 0.0)
                    .map(|(k, kind)| format!("\"{}\":{}", kind.label(), fmt_f64(row[k])))
                    .collect();
                let sep = if fields.is_empty() { "" } else { "," };
                format!("{{\"level\":{l}{sep}{}}}", fields.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// The standard trace consumer: aggregates events into a [`LevelLedger`]
/// plus hop-count and per-op cost histograms, all mergeable across
/// seeds. Implements [`TraceSink`] behind a lock (trackers emit through
/// `&self`, and a sink must be `Sync`).
#[derive(Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
}

#[derive(Default)]
struct RecorderState {
    ledger: LevelLedger,
    /// Hops (events) per completed operation.
    hops: Histogram,
    /// Billed cost per completed operation.
    op_costs: Histogram,
    /// Events seen since the last `op_complete`.
    pending_hops: u64,
    /// Number of completed operations per op kind, indexed like `ops`.
    op_counts: Vec<(OpKind, usize)>,
}

/// The aggregates extracted from a [`Recorder`] once tracing is done.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAggregates {
    /// Distance billed per (hierarchy level, cost ledger).
    pub ledger: LevelLedger,
    /// Distribution of hop distances.
    pub hops: Histogram,
    /// Distribution of completed operations' total costs.
    pub op_costs: Histogram,
    /// Completed operations per kind, in first-seen order.
    pub op_counts: Vec<(OpKind, usize)>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder, returning its aggregates.
    pub fn finish(self) -> TraceAggregates {
        let s = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        TraceAggregates {
            ledger: s.ledger,
            hops: s.hops,
            op_costs: s.op_costs,
            op_counts: s.op_counts,
        }
    }

    /// The aggregates, locked. Each event updates them whole, so a lock
    /// poisoned by a panic elsewhere still holds consistent values.
    fn held(&self) -> MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of the aggregates without consuming the recorder.
    pub fn snapshot(&self) -> TraceAggregates {
        let s = self.held();
        TraceAggregates {
            ledger: s.ledger.clone(),
            hops: s.hops.clone(),
            op_costs: s.op_costs.clone(),
            op_counts: s.op_counts.clone(),
        }
    }
}

impl TraceSink for Recorder {
    fn event(&self, ev: &TraceEvent) {
        let mut s = self.held();
        s.ledger.add(ev.level as usize, ev.ledger, ev.distance);
        s.pending_hops += 1;
    }

    fn op_complete(&self, op: OpKind, _object: ObjectId, cost: f64) {
        let mut s = self.held();
        let hops = s.pending_hops;
        s.pending_hops = 0;
        s.hops.record(hops as f64);
        s.op_costs.record(cost);
        match s.op_counts.iter_mut().find(|(k, _)| *k == op) {
            Some((_, n)) => *n += 1,
            None => s.op_counts.push((op, 1)),
        }
    }
}

impl TraceAggregates {
    /// Merges another run's aggregates (e.g. across seeds).
    pub fn merge(&mut self, other: &TraceAggregates) {
        self.ledger.merge(&other.ledger);
        self.hops.merge(&other.hops);
        self.op_costs.merge(&other.op_costs);
        for &(op, n) in &other.op_counts {
            match self.op_counts.iter_mut().find(|(k, _)| *k == op) {
                Some((_, m)) => *m += n,
                None => self.op_counts.push((op, n)),
            }
        }
    }

    /// JSON rendering bundling the ledger, both histograms, and the
    /// per-kind operation counts.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .op_counts
            .iter()
            .map(|(op, n)| format!("\"{}\":{n}", op.label()))
            .collect();
        format!(
            "{{\"ledger\":{},\"hops\":{},\"op_costs\":{},\"op_counts\":{{{}}}}}",
            self.ledger.to_json(),
            self.hops.to_json(),
            self.op_costs.to_json(),
            counts.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_accumulates() {
        let mut c = CostStats::default();
        c.record(10.0, 2.0);
        c.record(6.0, 2.0);
        assert_eq!(c.operations, 2);
        assert!((c.ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(CostStats::default().ratio(), 1.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = CostStats::default();
        a.record(4.0, 1.0);
        let mut b = CostStats::default();
        b.record(2.0, 1.0);
        a.merge(&b);
        assert_eq!(a.total, 6.0);
        assert_eq!(a.operations, 2);
        assert!((a.ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_mean_and_stddev() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.count, 8);
        assert_eq!(Summary::of(&[]).count, 0);
        assert_eq!(Summary::of(&[3.0]).stddev, 0.0);
    }

    #[test]
    fn load_stats_basic() {
        let s = LoadStats::from_loads(&[0, 1, 1, 2, 15]);
        assert_eq!(s.max, 15);
        assert_eq!(s.nodes_above_10, 1);
        assert!((s.mean - 3.8).abs() < 1e-12);
        assert_eq!(s.histogram, [1, 2, 1, 0, 0, 1]);
    }

    #[test]
    fn jain_index_detects_imbalance() {
        let even = LoadStats::from_loads(&[5, 5, 5, 5]);
        assert!((even.jain_index - 1.0).abs() < 1e-12);
        let skewed = LoadStats::from_loads(&[20, 0, 0, 0]);
        assert!((skewed.jain_index - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_index_all_zero_loads_is_one_not_nan() {
        // Regression: 0²/(n·0) used to be NaN and propagated into figure
        // tables; the degenerate all-idle network is perfectly fair.
        for loads in [vec![0usize; 2], vec![0; 64], Vec::new()] {
            let s = LoadStats::from_loads(&loads);
            assert!(!s.jain_index.is_nan(), "NaN for {loads:?}");
            assert_eq!(s.jain_index, 1.0);
        }
    }

    #[test]
    fn zero_optimal_ops_are_counted_not_invented() {
        // Regression: a positive-cost op against a zero optimal used to
        // be folded in as ratio 1.0, understating mean_ratio.
        let mut c = CostStats::default();
        c.record(10.0, 5.0); // ratio 2
        c.record(7.5, 0.0); // no defined ratio
        assert_eq!(c.operations, 2);
        assert_eq!(c.zero_optimal_ops, 1);
        assert_eq!(c.ratio_sum, 2.0);
        assert!((c.mean_ratio() - 2.0).abs() < 1e-12, "{}", c.mean_ratio());
        // totals still include the zero-optimal op's cost
        assert_eq!(c.total, 17.5);
        assert_eq!(c.optimal, 5.0);
        // all-zero-optimal accumulator falls back to 1.0, not 0/0
        let mut z = CostStats::default();
        z.record(3.0, 0.0);
        assert_eq!(z.mean_ratio(), 1.0);
        assert_eq!(z.zero_optimal_ops, 1);
    }

    #[test]
    fn zero_optimal_counter_merges() {
        let mut a = CostStats::default();
        a.record(1.0, 0.0);
        let mut b = CostStats::default();
        b.record(2.0, 0.0);
        b.record(4.0, 2.0);
        a.merge(&b);
        assert_eq!(a.zero_optimal_ops, 2);
        assert_eq!(a.operations, 3);
        assert!((a.mean_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(0.999), 0);
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(1.999), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(3.999), 2);
        assert_eq!(Histogram::bucket_index(4.0), 3);
        assert_eq!(Histogram::bucket_index(-1.0), 0, "negatives clamp");
        assert_eq!(Histogram::bucket_index(1e30), HIST_BUCKETS - 1);
        // bounds agree with the index function at every edge
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo edge of {i}");
            if hi.is_finite() {
                assert_eq!(Histogram::bucket_index(hi), i + 1, "hi edge of {i}");
            }
        }
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let samples = [0.0, 0.5, 1.0, 3.7, 16.0, 1000.0, 2.0, 2.0];
        let mut whole = Histogram::new();
        for &x in &samples {
            whole.record(x);
        }
        let (left, right) = samples.split_at(3);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in left {
            a.record(x);
        }
        for &x in right {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole, "cross-seed merge must be exact");
        assert_eq!(a.count, 8);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_land_on_bucket_edges() {
        let mut h = Histogram::new();
        for x in 1..=100 {
            h.record(x as f64);
        }
        // p50 = sample 50, bucket [32,64) → upper edge 64
        assert_eq!(h.quantile(0.5), 64.0);
        // p99 = sample 99, bucket [64,128) → upper edge 128
        assert_eq!(h.quantile(0.99), 128.0);
        // p0 is the first non-empty bucket's *lower* edge: 1.0 ∈ [1,2)
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 128.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0, "empty is zero");
        // the unbounded last bucket reports its finite lower edge
        let mut top = Histogram::new();
        top.record(f64::MAX);
        assert!(top.quantile(0.5).is_finite());
    }

    #[test]
    fn histogram_quantile_boundaries_are_pinned() {
        // Empty: every q answers 0.0, boundaries included.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), 0.0);
        assert_eq!(empty.quantile(1.0), 0.0);

        // Single bucket: p0 is its lower edge, p1 (and everything
        // between) its upper edge.
        let mut single = Histogram::new();
        for _ in 0..5 {
            single.record(10.0); // bucket [8,16)
        }
        assert_eq!(single.quantile(0.0), 8.0);
        assert_eq!(single.quantile(0.5), 16.0);
        assert_eq!(single.quantile(1.0), 16.0);

        // Zero-valued samples land in bucket [0,1): p0 = 0.0.
        let mut zeros = Histogram::new();
        zeros.record(0.0);
        zeros.record(100.0);
        assert_eq!(zeros.quantile(0.0), 0.0);
        assert_eq!(zeros.quantile(1.0), 128.0);

        // Merged histograms keep the same boundary semantics.
        let mut a = Histogram::new();
        a.record(3.0); // [2,4)
        let mut b = Histogram::new();
        b.record(40.0); // [32,64)
        a.merge(&b);
        assert_eq!(a.quantile(0.0), 2.0, "p0 from the merged minimum");
        assert_eq!(a.quantile(1.0), 64.0, "p1 from the merged maximum");
        assert_eq!(a.quantile(0.5), 4.0, "interior ranks are unchanged");
    }

    #[test]
    fn histogram_json_trims_trailing_zeros() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(5.0);
        assert_eq!(
            h.to_json(),
            "{\"count\":2,\"sum\":5.0,\"buckets\":[1,0,0,1]}"
        );
        assert_eq!(
            Histogram::new().to_json(),
            "{\"count\":0,\"sum\":0.0,\"buckets\":[]}"
        );
    }

    #[test]
    fn level_ledger_accumulates_and_merges() {
        let mut a = LevelLedger::new();
        a.add(0, LedgerKind::Maintenance, 2.0);
        a.add(2, LedgerKind::Maintenance, 4.0);
        a.add(2, LedgerKind::Query, 1.0);
        assert_eq!(a.height(), 3);
        assert_eq!(a.get(2, LedgerKind::Maintenance), 4.0);
        assert_eq!(a.level_total(2), 5.0);
        assert_eq!(a.level_total(9), 0.0);
        assert_eq!(a.ledger_total(LedgerKind::Maintenance), 6.0);
        assert_eq!(a.total(), 7.0);
        let mut b = LevelLedger::new();
        b.add(5, LedgerKind::Repair, 3.0);
        a.merge(&b);
        assert_eq!(a.height(), 6);
        assert_eq!(a.total(), 10.0);
        assert!(a.to_json().contains("\"level\":5,\"repair\":3.0"));
    }

    #[test]
    fn recorder_groups_hops_per_operation() {
        use mot_net::NodeId;
        let r = Recorder::new();
        let ev = |level: u32, dist: f64| TraceEvent {
            op: OpKind::Move,
            phase: mot_core::TracePhase::Climb,
            ledger: LedgerKind::Maintenance,
            object: ObjectId(0),
            src: NodeId(0),
            dst: NodeId(1),
            level,
            distance: dist,
        };
        r.event(&ev(0, 1.0));
        r.event(&ev(1, 2.0));
        r.op_complete(OpKind::Move, ObjectId(0), 3.0);
        r.event(&ev(0, 4.0));
        r.op_complete(OpKind::Move, ObjectId(0), 4.0);
        let agg = r.finish();
        assert_eq!(agg.ledger.total(), 7.0);
        assert_eq!(agg.ledger.level_total(1), 2.0);
        assert_eq!(agg.hops.count, 2);
        // op 1 had 2 hops (bucket 2), op 2 had 1 hop (bucket 1)
        assert_eq!(agg.hops.buckets[1], 1);
        assert_eq!(agg.hops.buckets[2], 1);
        assert_eq!(agg.op_counts, vec![(OpKind::Move, 2)]);
        assert_eq!(agg.op_costs.count, 2);
    }
}
