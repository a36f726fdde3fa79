//! Plain-text / CSV / JSON rendering of experiment tables, plus the
//! machine-readable [`RunReport`] behind `experiments --metrics`.

use mot_core::{JsonWriter, MotTracker, ToJson};
use mot_hierarchy::{Overlay, OverlayBytes};
use mot_net::{CacheLedger, DistanceOracle, Graph};
use mot_sim::{ServiceReport, TraceAggregates};

/// One regenerated figure: a labelled series per algorithm over an x axis
/// (network size, usually).
#[derive(Clone, Debug)]
pub struct FigureTable {
    /// Rendered table heading (figure name and workload summary).
    pub title: String,
    /// x-axis label (e.g. "nodes").
    pub x_label: String,
    /// Series names (e.g. algorithm labels).
    pub columns: Vec<String>,
    /// Rows: x value + one y value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut widths: Vec<usize> = Vec::new();
        widths.push(
            self.rows
                .iter()
                .map(|(x, _)| x.len())
                .chain([self.x_label.len()])
                .max()
                .unwrap_or(4),
        );
        for (i, c) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, ys)| format!("{:.3}", ys[i]).len())
                .chain([c.len()])
                .max()
                .unwrap_or(6);
            widths.push(w);
        }
        out.push_str(&format!("{:>w$}", self.x_label, w = widths[0]));
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", c, w = widths[i + 1]));
        }
        out.push('\n');
        for (x, ys) in &self.rows {
            out.push_str(&format!("{:>w$}", x, w = widths[0]));
            for (i, y) in ys.iter().enumerate() {
                out.push_str(&format!("  {:>w$.3}", y, w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (x, ys) in &self.rows {
            out.push_str(x);
            for y in ys {
                out.push_str(&format!(",{y:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// The series values of a named column (testing aid).
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, ys)| ys[idx]).collect())
    }
}

/// `{"title":…,"x_label":…,"columns":[…],"rows":[{"x":…,"ys":[…]}]}`.
impl ToJson for FigureTable {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("title", &self.title)
                .field("x_label", &self.x_label)
                .field("columns", &self.columns)
                .key("rows")
                .array(|w| {
                    for (x, ys) in &self.rows {
                        w.object(|w| {
                            w.field("x", x).field("ys", ys);
                        });
                    }
                });
        });
    }
}

/// Heap bytes held by the bed of the fixed-seed instrumented run once
/// its replay finished: the distance backend's storage
/// (`DistanceOracle::memory_bytes`), the overlay's detection-path
/// table (`Overlay::memory_bytes`), and the heap ledger of every
/// long-lived structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BedMemory {
    /// Matrix, cached rows or pinned rows, whichever the backend keeps.
    pub oracle_bytes: usize,
    /// Stations, hop lengths and the per-node record index.
    pub overlay_bytes: usize,
    /// Heap bytes by structure.
    pub heap: HeapLedger,
}

/// Heap bytes of a tracking bed, by structure: what splits a process's
/// live heap (and so most of its peak RSS) into the parts that hold it.
/// Each structure counts its own buffers at capacity; the graph is
/// counted once, by `graph`, however many clones of it share its base
/// (an on-demand oracle keeps one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapLedger {
    /// The bed's graph ([`Graph::heap_bytes`]).
    pub graph: usize,
    /// What the oracle owns beyond the graph
    /// ([`DistanceOracle::heap_bytes`]).
    pub oracle: usize,
    /// The overlay's level lists and station table, by field.
    pub overlay: OverlayBytes,
    /// The MOT tracker's own state ([`MotTracker::heap_bytes`]).
    pub tracker: usize,
}

impl HeapLedger {
    /// The ledger of a bed and the tracker running on it.
    pub fn of(
        graph: &Graph,
        oracle: &dyn DistanceOracle,
        overlay: &Overlay,
        tracker: &MotTracker,
    ) -> Self {
        HeapLedger {
            graph: graph.heap_bytes(),
            oracle: oracle.heap_bytes(),
            overlay: overlay.heap_bytes(),
            tracker: tracker.heap_bytes(),
        }
    }

    /// Every structure together.
    pub fn total(&self) -> usize {
        self.graph + self.oracle + self.overlay.total() + self.tracker
    }
}

/// The machine-readable report `experiments --metrics out.json` writes:
/// every table the run produced (keyed by experiment id), per-experiment
/// wall-clock seconds, and the aggregates of the fixed-seed instrumented
/// MOT run (per-level ledgers and hop/cost histograms).
#[derive(Default)]
pub struct RunReport {
    /// Profile name the run used (`quick`/`standard`/`paper`).
    pub profile: String,
    /// Distance-backend label.
    pub oracle: String,
    /// `(experiment id, table)` in execution order.
    pub tables: Vec<(String, FigureTable)>,
    /// `(experiment id, wall-clock seconds)` in execution order.
    pub timings_secs: Vec<(String, f64)>,
    /// Aggregates of the fixed-seed instrumented run, when collected.
    pub trace: Option<TraceAggregates>,
    /// Distance-oracle counters of the instrumented run, when its
    /// backend keeps them (`cached`, whose `misses` are its solves).
    pub cache: Option<CacheLedger>,
    /// Footprint of the instrumented run's bed, when collected.
    pub memory: Option<BedMemory>,
    /// The service-mode report (counters, histograms, and the
    /// wall-clock throughput trailer), when a `service*` experiment ran.
    pub service: Option<ServiceReport>,
}

/// The whole report as one JSON object (tables keyed by experiment id,
/// timings, and the optional trace aggregates).
impl ToJson for RunReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("profile", &self.profile)
                .field("oracle", &self.oracle)
                .key("timings_secs")
                .object(|w| {
                    for (id, secs) in &self.timings_secs {
                        w.field(id, secs);
                    }
                });
            w.field("trace", &self.trace)
                .field("cache", self.cache)
                .field("memory", self.memory)
                .field("service", &self.service)
                .key("tables")
                .object(|w| {
                    for (id, table) in &self.tables {
                        w.field(id, table);
                    }
                });
        });
    }
}

impl ToJson for BedMemory {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("oracle_bytes", self.oracle_bytes)
                .field("overlay_bytes", self.overlay_bytes)
                .field("heap", self.heap);
        });
    }
}

/// `{"graph":…,"oracle":…,"overlay":{"levels":…,"index":…,…},"tracker":…,"total":…}`.
impl ToJson for HeapLedger {
    fn write_json(&self, w: &mut JsonWriter) {
        let (o, t) = (&self.overlay, &self.overlay.table);
        w.object(|w| {
            w.field("graph", self.graph)
                .field("oracle", self.oracle)
                .key("overlay")
                .object(|w| {
                    w.field("levels", o.levels)
                        .field("index", t.index)
                        .field("start", t.start)
                        .field("members", t.members)
                        .field("hops", t.hops)
                        .field("hops_back", t.hops_back)
                        .field("up", t.up)
                        .field("drop_start", t.drop_start)
                        .field("drop_len", t.drop_len)
                        .field("drop_at", t.drop_at)
                        .field("drop_far", t.drop_far)
                        .field("total", o.total());
                });
            w.field("tracker", self.tracker)
                .field("total", self.total());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        FigureTable {
            title: "t".into(),
            x_label: "nodes".into(),
            columns: vec!["MOT".into(), "STUN".into()],
            rows: vec![
                ("9".into(), vec![1.5, 4.0]),
                ("1024".into(), vec![2.25, 30.125]),
            ],
        }
    }

    #[test]
    fn render_contains_all_cells() {
        let r = sample().render();
        assert!(r.contains("MOT"));
        assert!(r.contains("STUN"));
        assert!(r.contains("1024"));
        assert!(r.contains("30.125"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "nodes,MOT,STUN");
        assert!(lines[2].starts_with("1024,"));
    }

    #[test]
    fn column_lookup() {
        let t = sample();
        assert_eq!(t.column("MOT"), Some(vec![1.5, 2.25]));
        assert_eq!(t.column("nope"), None);
    }

    #[test]
    fn json_rendering_is_complete() {
        let j = JsonWriter::render(&sample());
        assert!(j.contains("\"columns\":[\"MOT\",\"STUN\"]"), "{j}");
        assert!(j.contains("{\"x\":\"1024\",\"ys\":[2.25,30.125]}"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_strings_escape_quotes_and_backslashes() {
        let mut t = sample();
        t.title = "a\"b\\c".into();
        let j = JsonWriter::render(&t);
        assert!(j.starts_with("{\"title\":\"a\\\"b\\\\c\","), "{j}");
    }

    #[test]
    fn run_report_embeds_tables_and_null_trace() {
        let r = RunReport {
            profile: "quick".into(),
            oracle: "auto".into(),
            tables: vec![("fig4".into(), sample())],
            timings_secs: vec![("fig4".into(), 1.5)],
            trace: None,
            cache: None,
            memory: None,
            service: None,
        };
        let j = JsonWriter::render(&r);
        assert!(j.contains("\"fig4\":{\"title\""), "{j}");
        assert!(j.contains("\"trace\":null"), "{j}");
        assert!(j.contains("\"cache\":null"), "{j}");
        assert!(j.contains("\"memory\":null"), "{j}");
        assert!(j.contains("\"service\":null"), "{j}");
        assert!(j.contains("\"timings_secs\":{\"fig4\":1.5}"), "{j}");
    }

    #[test]
    fn run_report_renders_cache_counters_and_service_trailer() {
        let r = RunReport {
            profile: "quick".into(),
            oracle: "cached".into(),
            cache: Some(CacheLedger {
                hits: 10,
                misses: 3,
                evictions: 1,
                promotions: 2,
                resident_rows: 4,
                resident_bytes: 4096,
            }),
            memory: Some(BedMemory {
                oracle_bytes: 4096,
                overlay_bytes: 640,
                heap: HeapLedger {
                    graph: 100,
                    oracle: 20,
                    tracker: 3,
                    ..HeapLedger::default()
                },
            }),
            service: Some(tiny_service_report()),
            ..RunReport::default()
        };
        let j = JsonWriter::render(&r);
        assert!(
            j.contains("\"cache\":{\"hits\":10,\"misses\":3,\"evictions\":1,"),
            "{j}"
        );
        assert!(
            j.contains("\"memory\":{\"oracle_bytes\":4096,\"overlay_bytes\":640,"),
            "{j}"
        );
        assert!(
            j.contains("\"heap\":{\"graph\":100,\"oracle\":20,\"overlay\":{\"levels\":0,"),
            "{j}"
        );
        assert!(
            j.contains("\"drop_far\":0,\"total\":0},\"tracker\":3,\"total\":123}}"),
            "{j}"
        );
        assert!(j.contains("\"service\":{\"sent\":40,"), "{j}");
        assert!(j.contains(",\"wall\":{\"secs\":"), "{j}");
    }

    fn tiny_service_report() -> ServiceReport {
        let mut spec = crate::ServiceSpec::smoke();
        spec.cfg.stream.ops = 40;
        spec.cfg.stream.objects = 4;
        crate::service_run(&spec).unwrap().1
    }
}
