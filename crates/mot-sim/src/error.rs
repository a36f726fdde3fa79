//! Simulation-level errors.

use mot_core::{CoreError, ObjectId};
use mot_net::{NetError, NodeId};

/// Errors surfaced while driving a tracker through a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The tracker's proxy record no longer matches the workload trace:
    /// at `step`, the trace says `object` moves from `expected`, but the
    /// structure believed it was at `actual`. Either the workload was
    /// generated against a different initial state or the structure
    /// corrupted its records — both invalidate every cost account after
    /// this point, so replay stops here.
    TraceDiverged {
        /// Index of the offending move in `workload.moves`.
        step: usize,
        /// The object whose record diverged.
        object: ObjectId,
        /// Proxy the trace expects the object to move from.
        expected: NodeId,
        /// Proxy the structure actually recorded.
        actual: NodeId,
    },
    /// An error reported by the tracker itself.
    Core(CoreError),
    /// The network layer rejected the topology (disconnected graph,
    /// missing positions, degenerate size) while assembling a bed.
    Net(NetError),
    /// One cell of a fan-out run failed — most commonly a worker panic
    /// caught by [`crate::parallel::ParallelRunner`], surfaced with the
    /// cell's stable key instead of poisoning the pool. Other cells keep
    /// running to completion; the error reported is the failing cell
    /// that comes first in canonical (submission) order, independent of
    /// worker count and scheduling.
    Cell {
        /// Stable identity of the failed experiment cell.
        key: crate::parallel::CellKey,
        /// The panic payload or error message, as text.
        cause: String,
    },
    /// Service mode detected an operational-invariant violation: an op
    /// unaccounted for (silent loss), a shard ledger that disagrees with
    /// its tracker, or an event loop that failed to quiesce after the
    /// stream ended. Any of these means the run's zero-silent-loss
    /// guarantee does not hold, so the run is rejected rather than
    /// reported. A configuration no run can honour (zero shards, a fault
    /// rate outside `[0, 1]`, a retry backoff past any tick a `u64`
    /// counts) is refused with this error before anything runs, by
    /// `run_service` and by [`crate::FaultConfig::plan`] alike.
    Service(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TraceDiverged {
                step,
                object,
                expected,
                actual,
            } => write!(
                f,
                "replay diverged from trace at move {step}: object {object:?} \
                 expected at {expected}, structure records {actual}"
            ),
            SimError::Core(e) => write!(f, "tracker error: {e}"),
            SimError::Net(e) => write!(f, "network error: {e}"),
            SimError::Cell { key, cause } => {
                write!(f, "experiment cell {key} failed: {cause}")
            }
            SimError::Service(msg) => write!(f, "service invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Core(e) => Some(e),
            SimError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        SimError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_divergence() {
        let e = SimError::TraceDiverged {
            step: 7,
            object: ObjectId(2),
            expected: NodeId(3),
            actual: NodeId(5),
        };
        let msg = e.to_string();
        assert!(msg.contains("move 7"), "{msg}");
        assert!(msg.contains('3') && msg.contains('5'), "{msg}");
    }

    #[test]
    fn core_errors_convert() {
        let core = CoreError::UnknownObject(ObjectId(1));
        let sim: SimError = core.clone().into();
        assert_eq!(sim, SimError::Core(core));
    }
}
