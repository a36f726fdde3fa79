//! Seeded fault plans and the repair checks run after them.
//!
//! A [`FaultConfig`] is a handful of rates plus an RNG seed; expanding it
//! against a topology yields a [`FaultPlan`] — a deterministic, replayable
//! schedule of message drops, duplications, delays, link failures, and
//! sensor crashes. The same config always expands to the same plan, so
//! every faulty experiment can be re-run bit-identically. A rate outside
//! `[0, 1]` is refused ([`FaultConfig::check`]).
//!
//! The plan plays two roles:
//!
//! * it implements [`mot_proto::FaultModel`], so it can drive the
//!   message-level ack/retry pipe (`LossyTransport`) directly, and
//! * handed to [`crate::run::replay`] or [`crate::run::query_batch`], it
//!   injects its crash schedule and provides the *hop-statistical* loss
//!   model used for the direct trackers ([`FaultPlan::transmission_overhead`]):
//!   an operation of cost `c` is treated as `⌈c⌉` unit transmissions,
//!   each lost with `drop_rate` and retried within the bounded budget,
//!   the wasted distance accumulating as retry overhead.
//!
//! `tests/loss_models.rs` drives one workload both ways: per unit of
//! traffic the statistical model matches the exact per-message protocol
//! (sequence numbers, `DeliveryFailed`) in `mot-proto`. The runners feed
//! it each op's *charged* cost, though, and MOT's uncharged bookkeeping
//! (SDL installs/removes, repoints) is ≈ 2.7× more traffic on top, so
//! MOT's retry overhead here is ≈ 3.7× below what the protocol pays
//! (DESIGN.md §6).
//!
//! Crashes here are "reboot with amnesia": the victim loses all its
//! directory state (and hands any proxied objects to a live neighbor)
//! but is immediately reachable again — the regime where the trackers'
//! lazy self-repair is exercised on every subsequent touch.
//!
//! With [`FaultConfig::default()`] (all rates zero, no crashes) the plan
//! never consults its RNG and every decision is "no fault": runs are
//! bit-identical to ones without the fault layer.

use crate::error::SimError;
use mot_core::{ObjectId, Tracker};
use mot_net::NodeId;
use mot_proto::FaultModel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Fault rates plus the seed they are expanded with. All rates are
/// probabilities in `[0, 1]`; the default is fault-free.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the plan's RNG streams.
    pub seed: u64,
    /// Probability each transmission attempt is lost.
    pub drop_rate: f64,
    /// Probability a successful delivery spawns a redundant duplicate.
    pub duplicate_rate: f64,
    /// Probability a delivery is deferred behind the rest of the queue.
    pub delay_rate: f64,
    /// Probability a link is dead, decided once on its first use.
    pub link_failure_rate: f64,
    /// Number of distinct sensors that crash during the replay.
    pub crashes: usize,
    /// Transmission attempts per message before delivery fails.
    pub max_attempts: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            link_failure_rate: 0.0,
            crashes: 0,
            max_attempts: 8,
        }
    }
}

impl FaultConfig {
    /// A config that only drops messages.
    pub fn dropping(drop_rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_rate,
            ..Self::default()
        }
    }

    /// Every rate must be a probability: finite and in `[0, 1]`. The
    /// delay rate must also stay below 1: a delivery deferred with
    /// certainty is deferred forever. A drop rate of 1 is legal, because
    /// exhaustion is recorded.
    pub fn check(&self) -> Result<(), String> {
        for (name, rate) in [
            ("drop rate", self.drop_rate),
            ("duplicate rate", self.duplicate_rate),
            ("delay rate", self.delay_rate),
            ("link failure rate", self.link_failure_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} {rate} is not a probability"));
            }
        }
        if self.delay_rate >= 1.0 {
            return Err(format!(
                "delay rate {} defers every delivery forever",
                self.delay_rate
            ));
        }
        Ok(())
    }

    /// Expands this config into a replayable schedule over `node_count`
    /// sensors and a workload of `steps` moves. A rate that is not a
    /// probability ([`FaultConfig::check`]) is [`SimError::Service`].
    pub fn plan(&self, node_count: usize, steps: usize) -> Result<FaultPlan, SimError> {
        self.check().map_err(SimError::Service)?;
        Ok(FaultPlan::new(self.clone(), node_count, steps))
    }
}

/// A deterministic, replayable fault schedule: the expansion of a
/// [`FaultConfig`] against one topology and workload length.
///
/// Message-level decisions (drop/duplicate/delay, made in delivery
/// order) come from one seeded stream; the crash schedule comes from an
/// independent stream, so changing a message rate never shifts *which*
/// sensors crash or *when*.
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Message-event stream, consumed in delivery order.
    rng: ChaCha8Rng,
    /// Crash events as `(move step, victim)`, sorted by step then id.
    crash_schedule: Vec<(usize, NodeId)>,
    /// Links already decided on first use; the failed subset.
    checked_links: HashSet<(NodeId, NodeId)>,
    failed_links: HashSet<(NodeId, NodeId)>,
}

impl FaultPlan {
    fn new(cfg: FaultConfig, node_count: usize, steps: usize) -> Self {
        // Independent stream for the crash schedule: message-rate changes
        // must not move crash events.
        let mut srng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let count = cfg.crashes.min(node_count);
        let mut chosen = HashSet::new();
        let mut crash_schedule = Vec::with_capacity(count);
        while crash_schedule.len() < count {
            let v = NodeId::from_index(srng.gen_range(0..node_count));
            if chosen.insert(v) {
                let step = if steps == 0 {
                    0
                } else {
                    srng.gen_range(0..steps)
                };
                crash_schedule.push((step, v));
            }
        }
        crash_schedule.sort_unstable_by_key(|&(s, v)| (s, v));
        FaultPlan {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cfg,
            crash_schedule,
            checked_links: HashSet::new(),
            failed_links: HashSet::new(),
        }
    }

    /// The crash events as `(move step, victim)`, sorted by step.
    pub fn crash_schedule(&self) -> &[(usize, NodeId)] {
        &self.crash_schedule
    }

    /// Lazily decides (once, on first use) whether the `src↔dst` link is
    /// dead. A dead link loses every transmission over it.
    fn link_failed(&mut self, src: NodeId, dst: NodeId) -> bool {
        if self.cfg.link_failure_rate <= 0.0 {
            return false;
        }
        let key = if src <= dst { (src, dst) } else { (dst, src) };
        if self.checked_links.insert(key) && self.rng.gen_bool(self.cfg.link_failure_rate) {
            self.failed_links.insert(key);
        }
        self.failed_links.contains(&key)
    }

    /// Hop-statistical fault overhead for one direct-tracker operation of
    /// cost `op_cost`: the operation is `⌈op_cost⌉` unit transmissions,
    /// each dropped with `drop_rate` and retransmitted within the
    /// `max_attempts` budget (the final attempt is taken as delivered, so
    /// the statistical model degrades cost without stalling the replay;
    /// exhaustion semantics are exercised at message level in
    /// `mot-proto`). Duplicated deliveries add one redundant arrival.
    /// Returns the wasted distance.
    pub fn transmission_overhead(&mut self, op_cost: f64) -> f64 {
        let drops = self.cfg.drop_rate > 0.0;
        let dups = self.cfg.duplicate_rate > 0.0;
        if (!drops && !dups) || op_cost <= 0.0 {
            return 0.0;
        }
        let hops = op_cost.ceil() as u64;
        let mut overhead = 0.0;
        for _ in 0..hops {
            if drops {
                let mut attempt = 1;
                while attempt < self.cfg.max_attempts && self.rng.gen_bool(self.cfg.drop_rate) {
                    overhead += 1.0;
                    attempt += 1;
                }
            }
            if dups && self.rng.gen_bool(self.cfg.duplicate_rate) {
                overhead += 1.0;
            }
        }
        overhead
    }
}

impl FaultModel for FaultPlan {
    fn drop_message(&mut self, src: NodeId, dst: NodeId) -> bool {
        if self.link_failed(src, dst) {
            return true;
        }
        self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate)
    }

    fn duplicate_message(&mut self, _src: NodeId, _dst: NodeId) -> bool {
        self.cfg.duplicate_rate > 0.0 && self.rng.gen_bool(self.cfg.duplicate_rate)
    }

    fn delay_message(&mut self, _src: NodeId, _dst: NodeId) -> bool {
        self.cfg.delay_rate > 0.0 && self.rng.gen_bool(self.cfg.delay_rate)
    }
}

/// Repairs every object's pointer path. Returns `(repaired, distance)`:
/// how many objects actually needed work and the distance it took.
pub fn repair_all(
    tracker: &mut dyn Tracker,
    object_count: usize,
) -> mot_core::Result<(usize, f64)> {
    let mut repaired = 0;
    let mut distance = 0.0;
    for oi in 0..object_count {
        let cost = tracker.repair_object(ObjectId(oi as u32))?;
        if cost > 0.0 {
            repaired += 1;
            distance += cost;
        }
    }
    Ok((repaired, distance))
}

/// Counts objects that are *not* queryable from `probe` with the correct
/// answer — after a successful repair pass this must be zero.
pub fn unrepaired_objects(tracker: &dyn Tracker, object_count: usize, probe: NodeId) -> usize {
    (0..object_count)
        .filter(|&oi| {
            let o = ObjectId(oi as u32);
            match (tracker.query(probe, o), tracker.proxy_of(o)) {
                (Ok(r), Some(truth)) => r.proxy != truth,
                _ => true,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::WorkloadSpec;
    use crate::run::{query_batch, replay, run_publish, Draw};
    use crate::scenario::QueryModel;
    use crate::testbed::{Algo, TestBed};
    use mot_baselines::DetectionRates;
    use mot_core::CoreError;

    #[test]
    fn clean_config_never_consults_rng_and_injects_nothing() {
        let mut plan = FaultConfig::default().plan(100, 500).unwrap();
        assert!(plan.crash_schedule().is_empty());
        for _ in 0..50 {
            assert!(!plan.drop_message(NodeId(1), NodeId(2)));
            assert!(!plan.duplicate_message(NodeId(1), NodeId(2)));
            assert!(!plan.delay_message(NodeId(1), NodeId(2)));
        }
        assert_eq!(plan.transmission_overhead(37.0), 0.0);
        // The RNG stream is untouched: a fresh plan from the same config
        // makes the same (first) decision once a rate is turned on.
        let noisy = FaultConfig {
            drop_rate: 0.5,
            ..FaultConfig::default()
        };
        let first = noisy
            .plan(100, 500)
            .unwrap()
            .drop_message(NodeId(1), NodeId(2));
        let mut replayed = noisy.plan(100, 500).unwrap();
        assert_eq!(first, replayed.drop_message(NodeId(1), NodeId(2)));
    }

    #[test]
    fn rates_outside_the_unit_interval_are_refused() {
        let delaying = |delay_rate| FaultConfig {
            delay_rate,
            ..FaultConfig::default()
        };
        let mut refused: Vec<(FaultConfig, &str)> = Vec::new();
        for rate in [1.5, -0.1, f64::NAN] {
            refused.push((FaultConfig::dropping(rate, 1), "probability"));
            refused.push((delaying(rate), "probability"));
        }
        refused.push((delaying(1.0), "forever"));
        for (cfg, why_expected) in refused {
            match cfg.plan(16, 10) {
                Err(SimError::Service(why)) => assert!(why.contains(why_expected), "{why}"),
                other => panic!("{cfg:?}: expected a refusal, got {:?}", other.map(|_| ())),
            }
        }
        assert!(FaultConfig::dropping(1.0, 1).check().is_ok());
    }

    #[test]
    fn crash_schedule_is_deterministic_distinct_and_rate_independent() {
        let cfg = FaultConfig {
            crashes: 8,
            seed: 11,
            ..FaultConfig::default()
        };
        let a = cfg.plan(64, 200).unwrap();
        let b = cfg.plan(64, 200).unwrap();
        assert_eq!(a.crash_schedule(), b.crash_schedule());
        assert_eq!(a.crash_schedule().len(), 8);
        let victims: HashSet<NodeId> = a.crash_schedule().iter().map(|&(_, v)| v).collect();
        assert_eq!(victims.len(), 8, "victims are distinct sensors");
        assert!(a.crash_schedule().iter().all(|&(s, _)| s < 200));
        // message rates must not move crash events (independent streams)
        let noisy = FaultConfig {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            ..cfg.clone()
        }
        .plan(64, 200)
        .unwrap();
        assert_eq!(noisy.crash_schedule(), a.crash_schedule());
        // crash count capped by the node universe
        let capped = FaultConfig {
            crashes: 1000,
            ..cfg
        }
        .plan(16, 10)
        .unwrap();
        assert_eq!(capped.crash_schedule().len(), 16);
    }

    #[test]
    fn dead_links_lose_every_transmission() {
        let cfg = FaultConfig {
            link_failure_rate: 1.0,
            seed: 3,
            ..FaultConfig::default()
        };
        let mut plan = cfg.plan(10, 0).unwrap();
        assert!(plan.drop_message(NodeId(0), NodeId(1)));
        assert!(
            plan.drop_message(NodeId(1), NodeId(0)),
            "link failure is symmetric and persistent"
        );
    }

    #[test]
    fn faulty_replay_repairs_everything_for_mot_and_stun() {
        let bed = TestBed::grid(8, 8, 5).unwrap();
        let w = WorkloadSpec::new(4, 60, 9).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let cfg = FaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            crashes: 6,
            seed: 21,
            ..FaultConfig::default()
        };
        for algo in [Algo::Mot, Algo::Stun] {
            let mut plan = cfg.plan(bed.graph.node_count(), w.moves.len()).unwrap();
            let mut t = bed.make_tracker(algo, &rates).unwrap();
            run_publish(t.as_mut(), &w).unwrap();
            let run = replay(t.as_mut(), &w, &bed.oracle, Some(&mut plan)).unwrap();
            assert_eq!(run.crashes_injected, 6, "{}", algo.label());
            assert!(run.retry_overhead > 0.0, "{}", algo.label());
            assert!(run.cost.ratio() >= 1.0, "{}", algo.label());
            let q = query_batch(
                t.as_mut(),
                &bed.oracle,
                4,
                120,
                2,
                Draw::UNIFORM,
                Some(&mut plan),
            )
            .unwrap();
            assert_eq!(q.correct, 120, "{}: wrong answers", algo.label());
            let (_, dist) = repair_all(t.as_mut(), 4).unwrap();
            assert!(dist >= 0.0);
            assert_eq!(
                unrepaired_objects(t.as_ref(), 4, bed.center()),
                0,
                "{}: unrepaired objects remain",
                algo.label()
            );
            assert!(
                t.repair_cost() > 0.0,
                "{}: crashes must cost repair work",
                algo.label()
            );
        }
    }

    #[test]
    fn faulty_queries_reject_missing_objects() {
        let bed = TestBed::grid(3, 3, 1).unwrap();
        let rates = DetectionRates::uniform(&bed.graph);
        let unknown = Err(SimError::Core(CoreError::UnknownObject(ObjectId(0))));
        let draws = [
            Draw::UNIFORM,
            Draw::Model(QueryModel::zipf(1.0)),
            Draw::Local { radius: 2.0 },
        ];
        // no objects to draw from, then one object that was never published
        for algo in [Algo::Mot, Algo::Stun] {
            for objects in [0, 1] {
                for draw in draws {
                    let mut t = bed.make_tracker(algo, &rates).unwrap();
                    let mut plan = FaultConfig::default().plan(9, 0).unwrap();
                    let faults = Some(&mut plan);
                    let got = query_batch(t.as_mut(), &bed.oracle, objects, 5, 1, draw, faults);
                    assert_eq!(got, unknown, "{algo:?}, {objects} objects, {draw:?}");
                }
            }
        }
    }

    #[test]
    fn zero_fault_replay_matches_the_reliable_path_exactly() {
        let bed = TestBed::grid(6, 6, 2).unwrap();
        let w = WorkloadSpec::new(3, 50, 4).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let cfg = FaultConfig::default();
        for algo in [Algo::Mot, Algo::Stun] {
            let mut clean = bed.make_tracker(algo, &rates).unwrap();
            run_publish(clean.as_mut(), &w).unwrap();
            let reliable = replay(clean.as_mut(), &w, &bed.oracle, None).unwrap();

            let mut plan = cfg.plan(bed.graph.node_count(), w.moves.len()).unwrap();
            let mut faulty = bed.make_tracker(algo, &rates).unwrap();
            run_publish(faulty.as_mut(), &w).unwrap();
            let run = replay(faulty.as_mut(), &w, &bed.oracle, Some(&mut plan)).unwrap();
            assert_eq!(run, reliable, "{}", algo.label());
            assert_eq!(faulty.repair_cost(), 0.0);
        }
    }
}
