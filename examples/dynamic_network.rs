//! Dynamic networks: sensors failing and rejoining under tracking (§7).
//!
//! ```text
//! cargo run --release --example dynamic_network
//! ```
//!
//! Batteries die, nodes get replaced. A [`RepairableHierarchy`] absorbs
//! each leave/join in place — re-deciding membership only inside the
//! event's influence ball — and stays bit-identical to a hierarchy built
//! from scratch on the surviving field. This example runs a year of
//! simulated churn and reports what the repairs cost.

use mot_tracking::hierarchy::{OverlayConfig, RepairableHierarchy};
use mot_tracking::net::{generators, ChurnSchedule, ChurnSpec, NetError};

fn main() -> Result<(), NetError> {
    let g = generators::grid(16, 16)?;
    let cfg = OverlayConfig::practical();
    let mut hier = RepairableHierarchy::build(&g, &cfg, 23)?;
    println!(
        "deployment: {} sensors; hierarchy has {} levels, a full build costs {} units\n",
        g.node_count(),
        hier.height() + 1,
        hier.full_build_units()
    );

    // One event a day, at most an eighth of the field offline at once.
    let schedule = ChurnSchedule::generate(&g, &ChurnSpec::new(365, g.node_count() / 8, 99))?;
    let mut live = g.clone();
    for delta in schedule.deltas() {
        delta.apply(&mut live)?;
        hier.repair(delta)?;
    }

    let ledger = hier.ledger();
    println!(
        "events: {} ({} repaired in place, {} rebuild fallbacks)",
        ledger.events, ledger.repairs, ledger.rebuilds
    );
    println!(
        "cluster membership flips: {} ({:.2} per event; §7: O(1) per level)",
        ledger.membership_flips,
        ledger.membership_flips as f64 / ledger.events as f64
    );
    println!(
        "amortized repair cost: {:.1} units per event",
        ledger.amortized_units_per_event()
    );

    let rebuilt = RepairableHierarchy::build(&live, &cfg, 23)?;
    assert_eq!(hier.snapshot(), rebuilt.snapshot(), "repair ≡ rebuild");
    assert!(ledger.amortized_units_per_event() < hier.full_build_units() as f64 / 2.0);
    println!("repaired hierarchy is bit-identical to a fresh build on the final field");
    Ok(())
}
