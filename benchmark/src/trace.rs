//! In-memory span recorder for the traced pass.
//!
//! The harness wraps every call it makes into a layer in a span: name,
//! start, end, the span that caused it, and the rep it belongs to. Spans
//! stay in memory until the run ends and are then written to
//! `out/trace-<workload>.json`. Time a callee spends in a lower layer the
//! harness cannot wrap call by call (tracker → oracle, observed through
//! [`crate::oracle::TimedOracle`]'s counters) is carried as `child_ns`, so
//! a span's self time is its duration minus its child spans minus
//! `child_ns`.
//!
//! A disabled tracer takes no timestamps: plain reps pay one branch per
//! span site.

use std::io::Write;
use std::time::Instant;

/// Which pass of the run protocol a rep belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Building the inputs the timed region takes as given.
    Setup,
    /// Untraced: the reps every end-to-end metric comes from.
    Plain,
    /// Each op timed, nothing wrapped: caller-visible op latencies.
    PerOp,
    /// Each op timed and the oracle wrapped: per-layer attribution.
    Traced,
    /// Isolated drives of single layers over the workload's own inputs,
    /// for what an opaque call hides.
    Drive,
}

impl Pass {
    fn label(self) -> &'static str {
        match self {
            Pass::Setup => "setup",
            Pass::Plain => "plain",
            Pass::PerOp => "per_op",
            Pass::Traced => "traced",
            Pass::Drive => "drive",
        }
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `hierarchy.build`.
    pub name: &'static str,
    /// Index into the tracer's rep table.
    pub rep: u32,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time inside this span spent in lower layers that were observed
    /// through counters instead of child spans.
    pub child_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. See the module docs.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    epoch: Instant,
    reps: Vec<Pass>,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only if `enabled` (`--trace 1`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: false,
            epoch: Instant::now(),
            reps: Vec::new(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Opens the next rep. Spans are recorded until the next call iff
    /// the tracer is enabled and the pass is not [`Pass::Plain`].
    pub fn start_rep(&mut self, pass: Pass) {
        debug_assert!(self.open.is_empty(), "a rep began inside an open span");
        self.reps.push(pass);
        self.recording = self.enabled && pass != Pass::Plain;
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.recording {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            rep: self.reps.len() as u32 - 1,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        // Timestamp last, so the recorder's own bookkeeping stays outside.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        self.end_with_child(id, 0);
    }

    /// Closes `id`, attributing `child_ns` of it to a lower layer.
    #[inline]
    pub fn end_with_child(&mut self, id: SpanId, child_ns: u64) {
        if id.0 == NONE {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = now;
        s.child_ns = child_ns;
    }

    /// Seconds of every recorded span called `name` in reps of `pass`.
    pub fn durations(&self, name: &str, pass: Pass) -> Vec<f64> {
        self.select(name, pass)
            .map(|(_, s)| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self seconds (duration − child spans − `child_ns`) of every span
    /// called `name` in reps of `pass`.
    pub fn self_durations(&self, name: &str, pass: Pass) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        self.select(name, pass)
            .map(|(i, s)| s.dur_ns().saturating_sub(covered[i] + s.child_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per rep of `pass`, the summed seconds of its spans called `name`.
    pub fn per_rep_totals(&self, name: &str, pass: Pass) -> Vec<f64> {
        let mut totals = vec![0u64; self.reps.len()];
        for (_, s) in self.select(name, pass) {
            totals[s.rep as usize] += s.dur_ns();
        }
        (0..self.reps.len())
            .filter(|&r| self.reps[r] == pass)
            .map(|r| totals[r] as f64 * 1e-9)
            .collect()
    }

    fn select<'a>(
        &'a self,
        name: &'a str,
        pass: Pass,
    ) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && self.reps[s.rep as usize] == pass)
    }

    /// Writes the trace as JSON. To keep the file small on workloads that
    /// record one span per op, only the first rep of each pass is written
    /// in full; `spans_recorded` states how many there were in memory.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> Result<(), String> {
        let mut first_of_pass: Vec<u32> = Vec::new();
        for pass in [Pass::Setup, Pass::PerOp, Pass::Traced, Pass::Drive] {
            if let Some(r) = self.reps.iter().position(|&p| p == pass) {
                first_of_pass.push(r as u32);
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !first_of_pass.contains(&s.rep) {
                continue;
            }
            let name_ix = names.iter().position(|&n| n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            if !rows.is_empty() {
                rows.push(',');
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            rows.push_str(&format!(
                "\n[{i},{name_ix},{},{parent},{},{},{}]",
                s.rep, s.start_ns, s.end_ns, s.child_ns
            ));
        }
        let quoted = |v: &[&str]| {
            v.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let passes: Vec<&str> = self.reps.iter().map(|p| p.label()).collect();
        let text = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\
             \"reps\":[{}],\"names\":[{}],\
             \"columns\":[\"id\",\"name\",\"rep\",\"parent\",\"start_ns\",\"end_ns\",\"child_ns\"],\
             \"spans\":[{rows}\n]}}\n",
            self.spans.len(),
            quoted(&passes),
            quoted(&names),
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(text.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.start_rep(Pass::Traced);
        let id = t.begin("x.y");
        t.end(id);
        assert!(t.durations("x.y", Pass::Traced).is_empty());
    }

    #[test]
    fn plain_reps_are_not_recorded_even_when_enabled() {
        let mut t = Tracer::new(true);
        t.start_rep(Pass::Plain);
        let id = t.begin("x.y");
        t.end(id);
        t.start_rep(Pass::Traced);
        let id = t.begin("x.y");
        t.end(id);
        assert!(t.durations("x.y", Pass::Plain).is_empty());
        assert_eq!(t.durations("x.y", Pass::Traced).len(), 1);
    }

    #[test]
    fn self_time_subtracts_child_spans_and_counter_time() {
        let mut t = Tracer::new(true);
        t.start_rep(Pass::Traced);
        let outer = t.begin("a.outer");
        let inner = t.begin("b.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end_with_child(outer, 0);
        let whole = t.durations("a.outer", Pass::Traced)[0];
        let own = t.self_durations("a.outer", Pass::Traced)[0];
        let child = t.durations("b.inner", Pass::Traced)[0];
        assert!(child >= 0.002);
        assert!((whole - child - own).abs() < 1e-9);

        // Counter-observed time is subtracted the same way.
        let mut t = Tracer::new(true);
        t.start_rep(Pass::Traced);
        let id = t.begin("a.op");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end_with_child(id, 400_000);
        let whole = t.durations("a.op", Pass::Traced)[0];
        let own = t.self_durations("a.op", Pass::Traced)[0];
        assert!((whole - own - 0.0004).abs() < 1e-9);
    }

    #[test]
    fn totals_are_grouped_by_rep() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.start_rep(Pass::Traced);
            for _ in 0..3 {
                let id = t.begin("a.op");
                t.end(id);
            }
        }
        assert_eq!(t.per_rep_totals("a.op", Pass::Traced).len(), 2);
        assert_eq!(t.durations("a.op", Pass::Traced).len(), 6);
    }
}
