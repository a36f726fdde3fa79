//! The `faults` experiment bills retries with a hop-statistical model,
//! [`mot_sim::FaultPlan::transmission_overhead`]: an operation of
//! distance `c` is `⌈c⌉` unit hops, each retried while its coin says
//! "dropped". This suite checks that model against the exact protocol it
//! stands in for: `mot-proto`'s ack/retry pipe, driven by a `FaultPlan`
//! as its `FaultModel`, running MOT message by message on the bed and
//! tracker configuration `faults` uses (16×16 grid, `MotConfig::plain()`).
//!
//! Two findings are pinned:
//! - per unit of *all* traffic the two loss models agree, at every drop
//!   rate checked;
//! - MOT's traffic is more than three times its charged cost, because
//!   SDL installs/removes and repoints ride the same lossy network. The
//!   harness feeds the model charged cost only, so its MOT `retry%` is
//!   below what the protocol pays by that factor (DESIGN §6).

use mot_core::{MotConfig, ObjectId, Tracker};
use mot_net::NodeId;
use mot_proto::message::KIND_LABELS;
use mot_proto::ProtoTracker;
use mot_sim::{FaultConfig, MoveOp, TestBed, WorkloadSpec};

const MAX_ATTEMPTS: u32 = 8;

/// Relative band within which the two overheads must agree.
const BAND: f64 = 0.15;

/// One workload's moves, billed both ways.
#[derive(Debug, Default)]
struct Bill {
    /// MOT's charged move cost.
    charged: f64,
    /// Every delivered transmission's distance, charged or not.
    traffic: f64,
    /// Wasted distance the exact protocol paid.
    protocol: f64,
    /// Wasted distance the statistical model bills for `traffic`.
    model: f64,
}

fn bill(bed: &TestBed, moves: &[MoveOp], initial: &[NodeId], drop_rate: f64) -> Bill {
    let n = bed.graph.node_count();
    let cfg = FaultConfig {
        max_attempts: MAX_ATTEMPTS,
        ..FaultConfig::dropping(drop_rate, 114)
    };
    let lossy = cfg.plan(n, moves.len()).unwrap();
    // Its own seed: a shared coin stream would correlate the two runs and
    // flatter their agreement.
    let mut model = FaultConfig { seed: 115, ..cfg }
        .plan(n, moves.len())
        .unwrap();
    let mut t = ProtoTracker::with_faults(
        &bed.overlay,
        &*bed.oracle,
        &MotConfig::plain(),
        Box::new(lossy),
        MAX_ATTEMPTS,
    );
    for (o, &proxy) in initial.iter().enumerate() {
        t.publish(ObjectId(o as u32), proxy).unwrap();
    }
    let mut b = Bill::default();
    for m in moves {
        let out = t.move_object(m.object, m.to).unwrap();
        let ledger = t.ledger();
        let all: f64 = KIND_LABELS.iter().map(|k| ledger.of_kind(k)).sum();
        let traffic = all - ledger.retries();
        b.charged += out.cost;
        b.traffic += traffic;
        b.protocol += ledger.retries();
        b.model += model.transmission_overhead(traffic);
    }
    b
}

#[test]
fn protocol_and_statistical_loss_agree_per_traffic_unit() {
    let bed = TestBed::grid(16, 16, 1).unwrap();
    let w = WorkloadSpec::new(10, 1_000, 8).generate(&bed.graph);
    // A prefix of the one workload per rate: enough drops at 1% to pin
    // the rate, and few enough messages at 20% that no retry budget is
    // exhausted (each message does so with probability 0.2^8).
    for (drop_rate, moves) in [(0.01, 10_000), (0.05, 3_000), (0.2, 500)] {
        let b = bill(&bed, &w.moves[..moves], &w.initial, drop_rate);
        let protocol = b.protocol / b.traffic;
        let model = b.model / b.traffic;
        assert!(
            (protocol / model - 1.0).abs() <= BAND,
            "d={drop_rate}: protocol {protocol:.4} vs model {model:.4} per traffic unit"
        );
        assert!(
            b.traffic / b.charged > 3.0,
            "d={drop_rate}: MOT's traffic is only {:.2}x its charged cost; DESIGN §6 \
             says the faults harness under-bills MOT's retries by more than 3x",
            b.traffic / b.charged
        );
    }
}
