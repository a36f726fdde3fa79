//! `compare A.json B.json`: does B regress against A?
//!
//! Both files are `results.json` written by a full run. For every
//! workload the digests and exact-repeat counts must be identical (a
//! performance change may not move a simulated statistic), no check may
//! have failed, and every end-to-end metric is judged against its bound:
//!
//! * `REGRESSION` — B's median is worse than A's by more than the bound
//!   and the two runs' quartile ranges do not overlap;
//! * `unresolved` — worse by more than the bound but the quartile ranges
//!   overlap, or within the bound while either run's own spread is wider
//!   than the bound: the data cannot say "unchanged";
//! * `ok` — within the bound, both spreads inside it.
//!
//! Returns `Ok(false)` (exit 1) on any regression, mismatch or failure.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Value};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::Summary;

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread lets us say so.
    Ok,
    /// The data cannot decide.
    Unresolved,
    /// Worse by more than the bound, quartile ranges apart.
    Regression,
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one metric. See the module docs for the rule.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if worsening(def, a.median, b.median) > def.bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if a.spread().max(b.spread()) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

type Runs = BTreeMap<(String, bool), Value>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
    let mut out = Runs::new();
    for r in runs {
        let name = r.get("workload").and_then(Value::as_str);
        let trace = r.get("trace").and_then(Value::as_f64);
        let (Some(name), Some(trace)) = (name, trace) else {
            return Err(format!("{}: a run lacks workload/trace", path.display()));
        };
        out.insert((name.to_string(), trace != 0.0), r.clone());
    }
    Ok(out)
}

fn metric_summary(run: &Value, name: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(name)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        q1: f("q1")?,
        median: f("value")?,
        q3: f("q3")?,
    })
}

/// Compares two result files; prints one line per finding.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = true;
    for ((workload, trace), ra) in &a {
        let Some(rb) = b.get(&(workload.clone(), *trace)) else {
            println!("{workload} trace {}: MISSING from B", u8::from(*trace));
            pass = false;
            continue;
        };
        let pass_name = if *trace { "traced" } else { "plain" };
        for key in ["digest", "counts"] {
            if ra.get(key) != rb.get(key) {
                println!(
                    "{workload} ({pass_name}): MISMATCH in {key}: a simulated statistic moved"
                );
                pass = false;
            }
        }
        for (side, r) in [("A", ra), ("B", rb)] {
            if r.get("correct") != Some(&Value::Bool(true)) {
                println!("{workload} ({pass_name}): FAILED output checks in {side}");
                pass = false;
            }
        }
        if *trace {
            continue;
        }
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (metric_summary(ra, def.name), metric_summary(rb, def.name))
            else {
                println!("{workload} {}: MISSING", def.name);
                pass = false;
                continue;
            };
            let verdict = judge(def, &sa, &sb);
            println!(
                "{workload:<20} {:<12} A {:>14.6} B {:>14.6} {:<4} worse by {:>+7.2}% (bound {:.0}%)  {}",
                def.name,
                sa.median,
                sb.median,
                def.unit,
                worsening(def, sa.median, sb.median) * 100.0,
                def.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            pass &= verdict != Verdict::Regression;
        }
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{} trace {}: only in B", key.0, u8::from(key.1));
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 8,
            q1,
            median,
            q3,
        }
    }

    /// A metric with a 10% bound, whatever the registry says today.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(&def(Better::Lower), 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(&def(Better::Higher), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(&def(Better::Higher), 100.0, 120.0) < 0.0);
    }

    #[test]
    fn a_breach_with_separated_quartiles_is_a_regression() {
        let wall = &def(Better::Lower);
        assert_eq!(
            judge(wall, &s(0.99, 1.0, 1.01), &s(1.19, 1.2, 1.21)),
            Verdict::Regression
        );
        // The same medians with overlapping quartile ranges: undecided.
        assert_eq!(
            judge(wall, &s(0.8, 1.0, 1.2), &s(1.1, 1.2, 1.3)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn within_the_bound_needs_a_tight_spread_to_count_as_unchanged() {
        let wall = &def(Better::Lower);
        assert_eq!(
            judge(wall, &s(0.99, 1.0, 1.01), &s(1.0, 1.02, 1.03)),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &s(0.9, 1.0, 1.1), &s(1.0, 1.02, 1.03)),
            Verdict::Unresolved
        );
        // An improvement is never a regression.
        assert_eq!(
            judge(wall, &s(0.99, 1.0, 1.01), &s(0.49, 0.5, 0.51)),
            Verdict::Ok
        );
    }
}
