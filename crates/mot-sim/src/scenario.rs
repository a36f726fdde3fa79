//! Query-popularity models for the scenario suite (DESIGN.md §18).
//!
//! The paper's query batches pick objects uniformly; real deployments
//! ask overwhelmingly about a few popular objects. [`QueryModel`] makes
//! the popularity distribution pluggable: [`QueryModel::Uniform`] keeps
//! the classic batch, [`QueryModel::Zipf`] draws objects from a Zipf
//! law with skew `s` (rank-`r` object drawn proportionally to
//! `1/(r+1)^s`; `s = 0` degenerates to uniform). [`run_queries_model`]
//! is the model-aware twin of [`crate::run_queries`]: same correctness
//! and cost accounting, plus a per-object hit census whose Jain index
//! quantifies the skew actually delivered — the load-report path the
//! Zipf sanity tests gate on (`s = 0` ⇒ Jain ≈ 1).

use crate::metrics::LoadStats;
use crate::run::QueryBatchStats;
use mot_core::{CoreError, ObjectId, Result, Tracker};
use mot_net::{DistanceOracle, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How query batches pick the object they ask about.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryModel {
    /// Uniform over all published objects (the paper's batches).
    Uniform,
    /// Zipf-skewed popularity: object of rank `r` (= its id) is drawn
    /// proportionally to `1/(r+1)^s`. Skew `0` is uniform; web/query
    /// traces typically sit near `s ≈ 1`.
    Zipf {
        /// Skew exponent (`0` = uniform, larger = more concentrated).
        s: f64,
    },
}

impl QueryModel {
    /// A Zipf model with skew `s`.
    pub fn zipf(s: f64) -> Self {
        QueryModel::Zipf { s }
    }
}

/// Seedable Zipf sampler over ranks `0..n` via CDF inversion.
///
/// ```
/// use mot_sim::ZipfSampler;
/// use rand::SeedableRng;
/// let z = ZipfSampler::new(10, 1.2);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// use rand::Rng;
/// let first: Vec<usize> = (0..5).map(|_| z.sample(&mut rng)).collect();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let again: Vec<usize> = (0..5).map(|_| z.sample(&mut rng)).collect();
/// assert_eq!(first, again); // same seed ⇒ same ranks
/// assert!(first.iter().all(|&r| r < 10));
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative, normalized weights; `cdf[r]` = P(rank ≤ r).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over ranks `0..n` with skew `s` (`s = 0` ⇒ uniform).
    /// Panics on `n = 0` or a negative/non-finite skew — configuration
    /// errors, not data.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "skew must be finite and ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r as f64 + 1.0).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank (consumes exactly one `f64` from `rng`).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A model-aware query batch: the classic correctness/cost accounting
/// plus the per-object popularity census the scenario tables report.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioQueryStats {
    /// Correctness and cost-vs-optimal accounting, identical in shape
    /// to [`crate::run_queries`]'s output.
    pub batch: QueryBatchStats,
    /// Queries issued per object (index = object id).
    pub object_hits: Vec<usize>,
}

impl ScenarioQueryStats {
    /// Jain fairness of the per-object hit counts: ≈ 1 under
    /// [`QueryModel::Uniform`] (or Zipf skew 0), dropping toward
    /// `1/objects` as the skew concentrates demand on rank 0.
    pub fn popularity_jain(&self) -> f64 {
        LoadStats::from_loads(&self.object_hits).jain_index
    }
}

/// Issues `count` queries from uniform random origins for objects drawn
/// from `model`, scoring each against the optimal cost
/// `dist(requester, proxy)` exactly as [`crate::run_queries`] does.
pub fn run_queries_model(
    tracker: &dyn Tracker,
    oracle: &dyn DistanceOracle,
    object_count: usize,
    count: usize,
    seed: u64,
    model: QueryModel,
) -> Result<ScenarioQueryStats> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = oracle.node_count();
    if object_count == 0 && count > 0 {
        return Err(CoreError::UnknownObject(ObjectId(0)));
    }
    let sampler = match model {
        QueryModel::Zipf { s } if object_count > 0 => Some(ZipfSampler::new(object_count, s)),
        _ => None,
    };
    let mut out = ScenarioQueryStats {
        batch: QueryBatchStats::default(),
        object_hits: vec![0; object_count],
    };
    for _ in 0..count {
        let from = NodeId::from_index(rng.gen_range(0..n));
        let oi = match &sampler {
            None => rng.gen_range(0..object_count),
            Some(z) => z.sample(&mut rng),
        };
        let o = ObjectId(oi as u32);
        out.object_hits[oi] += 1;
        let truth = tracker.proxy_of(o).ok_or(CoreError::UnknownObject(o))?;
        let r = tracker.query(from, o)?;
        if r.proxy == truth {
            out.batch.correct += 1;
        }
        let optimal = oracle.dist(from, truth);
        if optimal <= 0.0 {
            out.batch.zero_distance += 1;
        } else {
            out.batch.cost.record(r.cost, optimal);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::WorkloadSpec;
    use crate::run::run_publish;
    use crate::testbed::{Algo, TestBed};
    use mot_baselines::DetectionRates;

    #[test]
    fn zipf_skew_zero_is_uniform() {
        let z = ZipfSampler::new(20, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut hits = vec![0usize; 20];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        let jain = LoadStats::from_loads(&hits).jain_index;
        assert!(jain > 0.99, "skew-0 Zipf must be uniform, Jain {jain}");
    }

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let z = ZipfSampler::new(20, 1.5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut hits = vec![0usize; 20];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(
            hits[0] > hits[10] && hits[0] > 20_000 / 20 * 3,
            "rank 0 got {} of 20000 draws — not skewed",
            hits[0]
        );
        let jain = LoadStats::from_loads(&hits).jain_index;
        assert!(jain < 0.8, "skew-1.5 Zipf left Jain at {jain}");
    }

    #[test]
    fn model_aware_queries_stay_correct_and_report_popularity() {
        let bed = TestBed::grid(6, 6, 3).unwrap();
        let w = WorkloadSpec::new(8, 30, 1).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();

        let uniform =
            run_queries_model(t.as_ref(), &bed.oracle, 8, 400, 5, QueryModel::Uniform).unwrap();
        assert_eq!(uniform.batch.correct, 400);
        assert_eq!(uniform.object_hits.iter().sum::<usize>(), 400);
        assert!(
            uniform.popularity_jain() > 0.9,
            "uniform popularity Jain {}",
            uniform.popularity_jain()
        );

        let skewed =
            run_queries_model(t.as_ref(), &bed.oracle, 8, 400, 5, QueryModel::zipf(1.6)).unwrap();
        assert_eq!(skewed.batch.correct, 400);
        assert!(
            skewed.popularity_jain() < uniform.popularity_jain(),
            "skewed Jain {} vs uniform {}",
            skewed.popularity_jain(),
            uniform.popularity_jain()
        );
    }

    #[test]
    fn model_aware_runner_is_deterministic() {
        let bed = TestBed::grid(5, 5, 2).unwrap();
        let w = WorkloadSpec::new(4, 20, 9).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        let a = run_queries_model(t.as_ref(), &bed.oracle, 4, 100, 3, QueryModel::zipf(1.0));
        let b = run_queries_model(t.as_ref(), &bed.oracle, 4, 100, 3, QueryModel::zipf(1.0));
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn model_aware_runner_rejects_missing_objects() {
        let bed = TestBed::grid(3, 3, 1).unwrap();
        let t = bed
            .make_tracker(Algo::Mot, &DetectionRates::uniform(&bed.graph))
            .unwrap();
        let unknown = Err(CoreError::UnknownObject(ObjectId(0)));
        for objects in [0, 1] {
            for model in [QueryModel::Uniform, QueryModel::zipf(1.0)] {
                let got = run_queries_model(t.as_ref(), &bed.oracle, objects, 5, 1, model);
                assert_eq!(got, unknown, "{objects} objects, {model:?}");
            }
        }
    }
}
