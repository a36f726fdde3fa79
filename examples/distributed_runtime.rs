//! The distributed rendering of MOT: per-node state machines exchanging
//! typed messages.
//!
//! ```text
//! cargo run --release --example distributed_runtime
//! ```
//!
//! Algorithm 1 "can be immediately converted to a message-passing based
//! distributed algorithm" (paper, footnote 2) — this example runs that
//! conversion (`mot_proto::ProtoTracker`), shows the message-kind
//! breakdown of a real move, and verifies cost-exact agreement with the
//! direct implementation. Concurrent execution (§4.1.2) is
//! `mot_sim::ConcurrentEngine`'s job; see `tests/concurrent_execution.rs`.

use mot_tracking::prelude::*;
use mot_tracking::proto::message::KIND_LABELS;

fn main() {
    let bed = TestBed::grid(8, 8, 42).unwrap();
    let cfg = MotConfig::plain();
    let mut direct = MotTracker::new(&bed.overlay, &bed.oracle, cfg.clone());
    let mut proto = ProtoTracker::new(&bed.overlay, &bed.oracle, &cfg);

    // Identical operations through both renderings.
    let o = ObjectId(0);
    let pd = direct.publish(o, NodeId(0)).unwrap();
    let pp = proto.publish(o, NodeId(0)).unwrap();
    println!("publish cost: direct {pd:.1}, message-passing {pp:.1}");
    assert!((pd - pp).abs() < 1e-6);

    let mut dtotal = 0.0;
    let mut ptotal = 0.0;
    for hop in [1u32, 9, 10, 18, 26, 34, 42, 50, 58, 59] {
        dtotal += direct.move_object(o, NodeId(hop)).unwrap().cost;
        ptotal += proto.move_object(o, NodeId(hop)).unwrap().cost;
    }
    println!("10 moves:     direct {dtotal:.1}, message-passing {ptotal:.1}");
    assert!((dtotal - ptotal).abs() < 1e-6);

    let qd = direct.query(NodeId(7), o).unwrap();
    let qp = proto.query(NodeId(7), o).unwrap();
    println!(
        "query from 7: direct {:.1}, message-passing {:.1} (proxy {})\n",
        qd.cost, qp.cost, qp.proxy
    );
    assert_eq!(qd.proxy, qp.proxy);

    // One more move, broken down by message kind: charged climbs and
    // deletes, plus the uncharged SDL and repoint bookkeeping.
    let md = direct.move_object(o, NodeId(60)).unwrap();
    let mp = proto.move_object(o, NodeId(60)).unwrap();
    assert!((md.cost - mp.cost).abs() < 1e-6);
    let ledger = proto.ledger();
    println!(
        "move 59 -> 60: charged {:.1} over {} messages",
        mp.cost, ledger.messages
    );
    for kind in KIND_LABELS {
        let d = ledger.of_kind(kind);
        if d > 0.0 {
            println!("  {kind:<10} {d:6.1}");
        }
    }
    assert_eq!(ledger.charged, mp.cost);
    println!("\nmessage-passing and direct implementations agree to < 1e-6.");
}
