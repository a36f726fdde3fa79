//! The search that found the service loop's idle-span jump bug, kept as
//! a test. The jump once read its target before the coordinator
//! collected the ticks in flight; a crash collected there schedules
//! redeliveries for the next tick, and the jump passed over them, so the
//! run never quiesced. Only a sweep over fault seeds found it.
//!
//! The grid starts from that bug's configuration (`StreamSpec::new(12,
//! 460, 5)`, 6 shards, batch 50, budget 10, backoff 200–400, composed
//! faults under seed 6) and varies the fault seed, the op count, the
//! shard budget and the backoff. Every config runs with the coordinator
//! alone (0 workers) and with 2 workers: both must give the same report
//! bits, account for every op and answer every query right. One digest
//! over every config's report and tick count is pinned.

use mot_proto::Backoff;
use mot_sim::{run_service_on, FaultConfig, ServiceConfig, StreamSpec, TestBed};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn fault_seed_sweep_is_exact_and_worker_independent() {
    let bed = TestBed::grid(6, 6, 42).unwrap();
    let mut base = ServiceConfig::new(StreamSpec::new(12, 460, 5));
    base.shards = 6;
    base.batch = 50;
    base.checkpoint_every = 4;
    base.faults = FaultConfig {
        seed: 0,
        drop_rate: 0.2,
        duplicate_rate: 0.1,
        delay_rate: 0.1,
        link_failure_rate: 0.05,
        crashes: 2,
        max_attempts: 8,
    };
    let mut digest = FNV_OFFSET;
    let mut configs = 0;
    for seed in 0..40 {
        for ops in [460, 500, 510] {
            for budget in [0, 10, 12] {
                for (lo, hi) in [(1, 4), (200, 400)] {
                    let mut cfg = base.clone();
                    cfg.faults.seed = seed;
                    cfg.stream.ops = ops;
                    cfg.shard_budget = budget;
                    cfg.backoff = Backoff::new(lo, hi);
                    let name =
                        format!("seed {seed}, ops {ops}, budget {budget}, backoff {lo}-{hi}");
                    let alone =
                        run_service_on(&bed, &cfg, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
                    let two =
                        run_service_on(&bed, &cfg, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
                    let r = &alone.report;
                    assert!(r.accounted(), "{name}: sent != applied + shed + lost");
                    assert_eq!(r.queries_wrong, 0, "{name}");
                    let body = r.deterministic_json();
                    assert_eq!(body, two.report.deterministic_json(), "{name}");
                    assert_eq!(alone.final_positions, two.final_positions, "{name}");
                    let report = fnv(FNV_OFFSET, body.as_bytes());
                    digest = fnv(digest, &report.to_le_bytes());
                    digest = fnv(digest, &r.ticks.to_le_bytes());
                    configs += 1;
                }
            }
        }
    }
    assert_eq!(configs, 720);
    assert_eq!(digest, 0x25ed_7968_b354_ea1b, "sweep digest {digest:#x}");
}
