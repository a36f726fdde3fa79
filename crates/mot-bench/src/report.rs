//! Plain-text / CSV / JSON rendering of experiment tables, plus the
//! machine-readable [`RunReport`] behind `experiments --metrics`.

use mot_core::fmt_f64;
use mot_net::CacheLedger;
use mot_sim::TraceAggregates;

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// table titles and ids are plain ASCII, but stay correct regardless.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

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

    /// JSON rendering:
    /// `{"title":…,"x_label":…,"columns":[…],"rows":[{"x":…,"ys":[…]}]}`.
    pub fn to_json(&self) -> String {
        let columns: Vec<String> = self.columns.iter().map(|c| json_string(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(x, ys)| {
                let vals: Vec<String> = ys.iter().map(|&y| fmt_f64(y)).collect();
                format!("{{\"x\":{},\"ys\":[{}]}}", json_string(x), vals.join(","))
            })
            .collect();
        format!(
            "{{\"title\":{},\"x_label\":{},\"columns\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            json_string(&self.x_label),
            columns.join(","),
            rows.join(",")
        )
    }
}

/// Heap bytes held by the bed of the fixed-seed instrumented run once
/// its replay finished: the distance backend's storage
/// (`DistanceOracle::memory_bytes`) and the overlay's detection-path
/// table (`Overlay::memory_bytes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BedMemory {
    /// Matrix, cached rows or pinned rows, whichever the backend keeps.
    pub oracle_bytes: usize,
    /// Stations, hop lengths and the per-node record index.
    pub overlay_bytes: usize,
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
    /// Full service-mode report JSON (counters, histograms, and the
    /// wall-clock throughput trailer), when a `service*` experiment ran.
    pub service: Option<String>,
}

impl RunReport {
    /// The whole report as one JSON object (tables keyed by experiment
    /// id, timings, and the optional trace aggregates).
    pub fn to_json(&self) -> String {
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|(id, t)| format!("{}:{}", json_string(id), t.to_json()))
            .collect();
        let timings: Vec<String> = self
            .timings_secs
            .iter()
            .map(|(id, s)| format!("{}:{}", json_string(id), fmt_f64(*s)))
            .collect();
        let trace = self
            .trace
            .as_ref()
            .map_or_else(|| "null".to_string(), TraceAggregates::to_json);
        let cache = self.cache.as_ref().map_or_else(
            || "null".to_string(),
            |c| {
                format!(
                    "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"promotions\":{},\
                     \"resident_rows\":{},\"resident_bytes\":{}}}",
                    c.hits, c.misses, c.evictions, c.promotions, c.resident_rows, c.resident_bytes
                )
            },
        );
        let memory = self.memory.map_or_else(
            || "null".to_string(),
            |m| {
                format!(
                    "{{\"oracle_bytes\":{},\"overlay_bytes\":{}}}",
                    m.oracle_bytes, m.overlay_bytes
                )
            },
        );
        let service = self.service.clone().unwrap_or_else(|| "null".to_string());
        format!(
            "{{\"profile\":{},\"oracle\":{},\"timings_secs\":{{{}}},\"trace\":{},\
             \"cache\":{},\"memory\":{},\"service\":{},\"tables\":{{{}}}}}",
            json_string(&self.profile),
            json_string(&self.oracle),
            timings.join(","),
            trace,
            cache,
            memory,
            service,
            tables.join(",")
        )
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
        let j = sample().to_json();
        assert!(j.contains("\"columns\":[\"MOT\",\"STUN\"]"), "{j}");
        assert!(j.contains("{\"x\":\"1024\",\"ys\":[2.25,30.125]}"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_strings_escape_quotes_and_backslashes() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
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
        let j = r.to_json();
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
            }),
            service: Some("{\"sent\":5}".into()),
            ..RunReport::default()
        };
        let j = r.to_json();
        assert!(
            j.contains("\"cache\":{\"hits\":10,\"misses\":3,\"evictions\":1,"),
            "{j}"
        );
        assert!(
            j.contains("\"memory\":{\"oracle_bytes\":4096,\"overlay_bytes\":640}"),
            "{j}"
        );
        assert!(j.contains("\"service\":{\"sent\":5}"), "{j}");
    }
}
