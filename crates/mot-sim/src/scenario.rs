//! Query-popularity models for the scenario suite (DESIGN.md §18).
//!
//! The paper's query batches pick objects uniformly; real deployments
//! ask overwhelmingly about a few popular objects. [`QueryModel`] makes
//! the popularity distribution pluggable: [`QueryModel::Uniform`] keeps
//! the classic batch, [`QueryModel::Zipf`] draws objects from a Zipf
//! law with skew `s` (rank-`r` object drawn proportionally to
//! `1/(r+1)^s`; `s = 0` degenerates to uniform). A batch runs it as
//! [`crate::run::Draw::Model`] through [`crate::run::query_batch`], whose
//! per-object hit census has a Jain index
//! ([`crate::run::QueryBatchStats::popularity_jain`]) that quantifies the
//! skew actually delivered — the load-report path the Zipf sanity tests
//! gate on (`s = 0` ⇒ Jain ≈ 1).

use rand::Rng;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::metrics::LoadStats;
    use crate::mobility::WorkloadSpec;
    use crate::run::{query_batch, run_publish, Draw};
    use crate::testbed::{Algo, TestBed};
    use mot_baselines::DetectionRates;
    use mot_core::{CoreError, ObjectId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

        let mut batch = |draw| query_batch(t.as_mut(), &bed.oracle, 8, 400, 5, draw, None);
        let uniform = batch(Draw::UNIFORM).unwrap();
        assert_eq!(uniform.correct, 400);
        assert_eq!(uniform.object_hits.iter().sum::<usize>(), 400);
        assert!(
            uniform.popularity_jain() > 0.9,
            "uniform popularity Jain {}",
            uniform.popularity_jain()
        );

        let skewed = batch(Draw::Model(QueryModel::zipf(1.6))).unwrap();
        assert_eq!(skewed.correct, 400);
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
        let zipf = Draw::Model(QueryModel::zipf(1.0));
        let a = query_batch(t.as_mut(), &bed.oracle, 4, 100, 3, zipf, None);
        let b = query_batch(t.as_mut(), &bed.oracle, 4, 100, 3, zipf, None);
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn model_aware_runner_rejects_missing_objects() {
        let bed = TestBed::grid(3, 3, 1).unwrap();
        let rates = DetectionRates::uniform(&bed.graph);
        let unknown = Err(SimError::Core(CoreError::UnknownObject(ObjectId(0))));
        // no objects to draw from, then one object that was never published
        for algo in [Algo::Mot, Algo::Stun] {
            for objects in [0, 1] {
                for model in [QueryModel::Uniform, QueryModel::zipf(1.0)] {
                    let mut t = bed.make_tracker(algo, &rates).unwrap();
                    let draw = Draw::Model(model);
                    let got = query_batch(t.as_mut(), &bed.oracle, objects, 5, 1, draw, None);
                    assert_eq!(got, unknown, "{algo:?}, {objects} objects, {model:?}");
                }
            }
        }
    }
}
