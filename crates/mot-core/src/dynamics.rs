//! Duty-cycled tracking under mobility: handover counts and energy.
//!
//! The yardsticks the scenario suite compares trackers against:
//! [`min_handovers`], the fewest tracking assignments any schedule needs
//! for one trajectory (arXiv:1105.0392), and [`EnergyModel`] /
//! [`EnergyLedger`], which price wake-ups against update traffic
//! (arXiv:1108.1321). The paper's §7 topology churn lives elsewhere:
//! `mot_hierarchy::RepairableHierarchy` repairs the overlay under sensor
//! leave/join.

use mot_net::{DistanceOracle, NodeId};

/// Greedy few-handover assignment over one object trajectory
/// (arXiv:1105.0392, Eppstein/Goodrich/Löffler): partition the
/// position sequence into the fewest contiguous segments such that each
/// segment is covered by a single sensor within `radius` of every
/// position in it. The greedy sweep — keep the set of sensors that can
/// still cover the running segment, cut when it empties — is optimal
/// for a single trajectory by the classic exchange argument (any
/// assignment must cut no later than the greedy one does).
///
/// Returns the number of segments, i.e. distinct tracking assignments;
/// the handover count is `segments - 1`, against a naive duty cycle
/// that wakes a new detector on every hop (`positions.len() - 1`
/// handovers). An empty trajectory needs zero assignments.
pub fn min_handovers(trajectory: &[NodeId], oracle: &dyn DistanceOracle, radius: f64) -> usize {
    let mut segments = 0usize;
    let mut feasible: Vec<NodeId> = Vec::new();
    for &p in trajectory {
        feasible.retain(|&s| oracle.dist(s, p) <= radius);
        if feasible.is_empty() {
            // Start a new segment anchored at p: any covering sensor
            // must lie within `radius` of the segment's first position.
            feasible = oracle.ball(p, radius);
            segments += 1;
        }
    }
    segments
}

/// Energy prices of the duty-cycled tracking mode (arXiv:1108.1321,
/// Semwal et al.): a sensor pays `wake_cost` each time it is woken to
/// take over detection of an object, and `tx_cost` per unit distance of
/// update traffic. The defaults (wake 5, tx 1) reflect the paper's
/// regime where radio start-up dominates a single-hop transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Cost of waking a sensor into detection duty.
    pub wake_cost: f64,
    /// Cost per unit distance of update traffic.
    pub tx_cost: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            wake_cost: 5.0,
            tx_cost: 1.0,
        }
    }
}

/// Accumulated wake-ups and update traffic of one tracking run, priced
/// by an [`EnergyModel`]. The scenario experiments keep two ledgers per
/// workload — naive (a wake-up per hop) and few-handover (a wake-up per
/// [`min_handovers`] segment) — and report the energy saved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    /// Sensor wake-ups charged so far.
    pub wakeups: u64,
    /// Update-traffic distance charged so far.
    pub tx_distance: f64,
}

impl EnergyLedger {
    /// Charges `n` sensor wake-ups.
    pub fn record_wakeups(&mut self, n: u64) {
        self.wakeups += n;
    }

    /// Charges `d` units of update-traffic distance.
    pub fn record_tx(&mut self, d: f64) {
        self.tx_distance += d;
    }

    /// Total energy under `model`.
    pub fn energy(&self, model: &EnergyModel) -> f64 {
        self.wakeups as f64 * model.wake_cost + self.tx_distance * model.tx_cost
    }

    /// Fraction of energy this ledger saves over `baseline` (in
    /// `[0, 1]` when it is cheaper; `0` when the baseline is free).
    pub fn saving_over(&self, baseline: &EnergyLedger, model: &EnergyModel) -> f64 {
        let base = baseline.energy(model);
        if base <= 0.0 {
            0.0
        } else {
            (base - self.energy(model)) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::{generators, DenseOracle};

    #[test]
    fn min_handovers_beats_naive_and_respects_coverage() {
        let m = DenseOracle::build(&generators::grid(8, 8).unwrap()).unwrap();
        // A straight 8-hop walk along the top row of the 8×8 grid.
        let traj: Vec<NodeId> = (0..8).map(NodeId::from_index).collect();
        // Radius 2: one sensor covers a 5-node stretch of the row, so
        // the greedy needs 2 segments where naive wakes 8 detectors.
        let segs = min_handovers(&traj, &m, 2.0);
        assert!(segs >= 2, "radius 2 cannot cover the whole row");
        assert!(segs < traj.len(), "greedy must beat a wake-per-hop");
        // Radius ≥ diameter: one assignment suffices.
        assert_eq!(min_handovers(&traj, &m, 64.0), 1);
        // Radius 0: only the position itself covers it.
        assert_eq!(min_handovers(&traj, &m, 0.0), traj.len());
        assert_eq!(min_handovers(&[], &m, 2.0), 0);
    }

    #[test]
    fn energy_ledger_prices_wakeups_and_traffic() {
        let model = EnergyModel::default();
        let mut naive = EnergyLedger::default();
        naive.record_wakeups(10);
        naive.record_tx(10.0);
        let mut few = EnergyLedger::default();
        few.record_wakeups(2);
        few.record_tx(10.0);
        assert_eq!(naive.energy(&model), 60.0);
        assert_eq!(few.energy(&model), 20.0);
        let saving = few.saving_over(&naive, &model);
        assert!((saving - 40.0 / 60.0).abs() < 1e-12, "saving {saving}");
        assert_eq!(few.saving_over(&EnergyLedger::default(), &model), 0.0);
    }
}
