//! [`TimedOracle`]: how the traced pass sees tracker → oracle calls.
//!
//! A tracker makes several oracle calls per operation, too many for a
//! span each, so the wrapper keeps two atomic counters — calls and busy
//! nanoseconds — that the harness reads before and after an op. It
//! forwards every method a backend may override, so results are
//! bit-identical to the unwrapped oracle (see the parity test), except
//! the `rows_precomputed` build hint: overlays are always built against
//! the unwrapped oracle, before it is wrapped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mot_net::{CacheLedger, DistanceOracle, NodeId};

/// Call count and busy time of one wrapped oracle. Shared, so the
/// harness can keep reading after the oracle moved into a bed.
#[derive(Debug, Default)]
pub struct OracleCounters {
    // Relaxed everywhere: both are statistics that publish no other data.
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl OracleCounters {
    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent inside the wrapped backend so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// A counting, timing pass-through around any distance backend.
pub struct TimedOracle {
    inner: Box<dyn DistanceOracle>,
    counters: Arc<OracleCounters>,
}

impl TimedOracle {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn DistanceOracle>) -> Self {
        TimedOracle {
            inner,
            counters: Arc::default(),
        }
    }

    #[inline]
    fn timed<T>(&self, f: impl FnOnce(&dyn DistanceOracle) -> T) -> T {
        let t = Instant::now();
        let out = f(&*self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        self.counters.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl DistanceOracle for TimedOracle {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.timed(|o| o.dist(u, v))
    }

    fn diameter(&self) -> f64 {
        self.timed(|o| o.diameter())
    }

    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        self.timed(|o| o.ball(u, r))
    }

    fn ball_size(&self, u: NodeId, r: f64) -> usize {
        self.timed(|o| o.ball_size(u, r))
    }

    fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        self.timed(|o| o.ball_into(u, r, out))
    }

    fn nearest_in(&self, u: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        self.timed(|o| o.nearest_in(u, candidates))
    }

    fn walk_length(&self, walk: &[NodeId]) -> f64 {
        self.timed(|o| o.walk_length(walk))
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn cache_stats(&self) -> Option<CacheLedger> {
        self.inner.cache_stats()
    }
}

/// An oracle as a rep uses it: wrapped in the traced pass, bare
/// otherwise (the counters then stay at zero).
pub struct Probe {
    /// The oracle to hand to trackers and beds.
    pub oracle: Box<dyn DistanceOracle>,
    /// Its counters.
    pub counters: Arc<OracleCounters>,
}

impl Probe {
    /// `inner`, wrapped in a [`TimedOracle`] iff `timed`.
    pub fn new(inner: Box<dyn DistanceOracle>, timed: bool) -> Self {
        if !timed {
            return Probe {
                oracle: inner,
                counters: Arc::default(),
            };
        }
        let wrapped = TimedOracle::new(inner);
        Probe {
            counters: Arc::clone(&wrapped.counters),
            oracle: Box::new(wrapped),
        }
    }

    /// The per-layer counts and gauges of this oracle's life so far, in
    /// the shape a [`crate::harness::Rep`] reports them.
    #[allow(clippy::type_complexity)]
    pub fn report(&self) -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>) {
        let busy_s = self.counters.busy_ns() as f64 * 1e-9;
        let mut counts = vec![("net.oracle_calls", self.counters.calls() as f64)];
        let mut gauges = vec![("net.oracle_busy_s", busy_s)];
        if let Some(c) = self.oracle.cache_stats() {
            counts.extend([
                ("net.oracle_hits", c.hits as f64),
                ("net.oracle_misses", c.misses as f64),
                ("net.oracle_promotions", c.promotions as f64),
                ("net.oracle_evictions", c.evictions as f64),
            ]);
            if c.misses > 0 {
                gauges.push(("net.oracle_us_per_miss", busy_s * 1e6 / c.misses as f64));
            }
        }
        let resident = self.oracle.memory_bytes() as f64 / (1024.0 * 1024.0);
        gauges.push(("net.oracle_resident_mb", resident));
        (counts, gauges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{mot_config, overlay_config};
    use mot_core::{MotTracker, ObjectId, Tracker};
    use mot_hierarchy::build_doubling;
    use mot_net::{generators, OracleKind};
    use mot_sim::WorkloadSpec;

    /// A tracker run through the wrapper must bill and answer exactly as
    /// one on the bare oracle: bit-identical costs, identical proxies.
    #[test]
    fn wrapped_and_bare_trackers_agree_bit_for_bit() {
        let g = generators::grid(16, 16).unwrap();
        let w = WorkloadSpec::new(10, 50, 3).generate(&g);
        // Past the dense limit backends differ; force the cached one the
        // grid workloads run on, and the dense one the service beds use.
        for kind in [OracleKind::Cached, OracleKind::Dense] {
            let bare = Probe::new(kind.build(&g).unwrap(), false);
            let overlay = build_doubling(&g, &*bare.oracle, &overlay_config(), 3);
            let timed = Probe::new(kind.build(&g).unwrap(), true);
            let replay = |p: &Probe| -> Vec<u64> {
                let mut t = MotTracker::new(&overlay, &*p.oracle, mot_config());
                let mut bits = Vec::new();
                for (i, &at) in w.initial.iter().enumerate() {
                    bits.push(t.publish(ObjectId(i as u32), at).unwrap().to_bits());
                }
                for m in &w.moves {
                    let out = t.move_object(m.object, m.to).unwrap();
                    bits.extend([out.cost.to_bits(), u64::from(out.from.0)]);
                }
                for (i, from) in g.nodes().enumerate() {
                    let q = t.query(from, ObjectId((i % 10) as u32)).unwrap();
                    bits.extend([q.cost.to_bits(), u64::from(q.proxy.0)]);
                }
                bits
            };
            assert_eq!(replay(&bare), replay(&timed), "{}", kind.label());
            assert_eq!(bare.counters.calls(), 0);
            assert!(timed.counters.calls() > 0);
            assert_eq!(
                bare.oracle.cache_stats(),
                timed.oracle.cache_stats(),
                "the wrapper must not change what the cache sees"
            );
        }
    }
}
