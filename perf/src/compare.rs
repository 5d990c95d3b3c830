//! `perf compare <A.json> <B.json>`: two sets of runs (as `perf all`
//! writes them), one row per (workload, end-to-end metric) plus one for
//! the workload's failed operations, each with a verdict. A is the
//! baseline, B the candidate.

use gkap_bench::manifest::json::{self, Value};

use crate::stats;

/// How B stands against A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A (exact metrics: identical).
    Same,
    /// The spread exceeds the bound and the runs interleave: the sets
    /// cannot tell.
    Unresolved,
    /// B is worse than A by more than the bound.
    Worse,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One set's readings of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    /// One value per run (seed order).
    pub values: Vec<f64>,
    /// Smallest reading any run saw (pass minima included).
    pub min: f64,
    /// Largest reading any run saw.
    pub max: f64,
}

impl Side {
    fn median(&self) -> f64 {
        stats::median(&self.values).unwrap_or(f64::NAN)
    }
}

/// The verdict rule.
///
/// Exact metrics (pure functions of code and seed) compare bit for
/// bit, run by run. Host-time metrics compare medians against the
/// bound; when either set's own spread (max − min over its median)
/// exceeds the bound *and* the two ranges overlap, the result is
/// unresolved rather than same.
pub fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64, exact: bool) -> Verdict {
    let worse_by = |a: f64, b: f64| {
        let change = (b - a) / a.abs();
        if lower_is_better {
            change
        } else {
            -change
        }
    };
    if exact {
        let differing = a
            .values
            .iter()
            .zip(&b.values)
            .find(|(x, y)| x.to_bits() != y.to_bits());
        return match differing {
            None if a.values.len() == b.values.len() => Verdict::Same,
            None => Verdict::Unresolved,
            Some((x, y)) if worse_by(*x, *y) > 0.0 => Verdict::Worse,
            Some(_) => Verdict::Better,
        };
    }
    let (ma, mb) = (a.median(), b.median());
    let spread = ((a.max - a.min) / ma.abs()).max((b.max - b.min) / mb.abs());
    let interleave = !(b.max < a.min || a.max < b.min);
    let by = worse_by(ma, mb);
    if spread > bound && interleave && by.abs() > bound / 2.0 {
        Verdict::Unresolved
    } else if by > bound {
        Verdict::Worse
    } else if by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Metric {
    workload: String,
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
    exact: bool,
    side: Side,
}

/// Every (workload, metric) of a set, in file order. A run's
/// `failed_per_pass` is read as one more exact metric, so a candidate
/// that fails more operations than the baseline is `worse`.
fn read_set(path: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_set(text: &str) -> Result<Vec<Metric>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .as_obj()
        .and_then(|o| json::get(o, "runs"))
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array (write sets with `perf all --out`)")?;
    let mut out: Vec<Metric> = Vec::new();
    let mut add = |reading: Metric| {
        let side = &reading.side;
        match out
            .iter_mut()
            .find(|x| x.workload == reading.workload && x.name == reading.name)
        {
            Some(known) => {
                known.side.values.extend(&side.values);
                known.side.min = known.side.min.min(side.min);
                known.side.max = known.side.max.max(side.max);
            }
            None => out.push(reading),
        }
    };
    for run in runs {
        let run = run.as_obj().ok_or("a run is not an object")?;
        let workload = json::get(run, "workload")
            .and_then(Value::as_str)
            .ok_or("a run names no workload")?;
        let metrics = json::get(run, "metrics")
            .and_then(Value::as_obj)
            .ok_or("a run has no metrics")?;
        for (name, m) in metrics {
            let m = m.as_obj().ok_or("a metric is not an object")?;
            let num = |key: &str| json::get(m, key).and_then(Value::as_f64);
            let Some(value) = num("value") else {
                continue; // `null`: the host could not supply it
            };
            add(Metric {
                workload: workload.to_string(),
                name: name.clone(),
                unit: json::get(m, "unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                lower_is_better: json::get(m, "better").and_then(Value::as_str) != Some("higher"),
                bound: num("bound").unwrap_or(0.0),
                exact: json::get(m, "exact") == Some(&Value::Bool(true)),
                side: Side {
                    values: vec![value],
                    min: num("min").unwrap_or(value),
                    max: num("max").unwrap_or(value),
                },
            });
        }
        let failed = json::get(run, "failed_per_pass")
            .and_then(Value::as_f64)
            .ok_or("a run has no failed_per_pass")?;
        add(Metric {
            workload: workload.to_string(),
            name: "failed_per_pass".to_string(),
            unit: "count".to_string(),
            lower_is_better: true,
            bound: 0.0,
            exact: true,
            side: Side {
                values: vec![failed],
                min: failed,
                max: failed,
            },
        });
    }
    Ok(out)
}

/// Prints the comparison table; `Ok(true)` when nothing is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(path_a)?, read_set(path_b)?);
    println!(
        "{:<14} {:<18} {:>16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A min",
        "A max",
        "B median",
        "B min",
        "B max",
        "bound"
    );
    let mut all_ok = true;
    for a in &set_a {
        let Some(b) = set_b
            .iter()
            .find(|b| b.workload == a.workload && b.name == a.name)
        else {
            println!("{:<14} {:<18} missing from {path_b}", a.workload, a.name);
            all_ok = false;
            continue;
        };
        let v = verdict(&a.side, &b.side, a.lower_is_better, a.bound, a.exact);
        all_ok &= v != Verdict::Worse;
        println!(
            "{:<14} {:<18} {:>16} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>6}  {}",
            a.workload,
            a.name,
            a.unit,
            a.side.median(),
            a.side.min,
            a.side.max,
            b.side.median(),
            b.side.min,
            b.side.max,
            if a.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", a.bound * 100.0)
            },
            v.as_str()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (min, max) = stats::min_max(values).expect("non-empty");
        Side {
            values: values.to_vec(),
            min,
            max,
        }
    }

    #[test]
    fn host_time_verdicts() {
        let a = side(&[1.00, 1.01, 0.99]);
        assert_eq!(
            verdict(&a, &side(&[1.02, 1.03, 1.01]), true, 0.10, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &side(&[1.20, 1.21, 1.19]), true, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &side(&[0.80, 0.81, 0.79]), true, 0.10, false),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&a, &side(&[1.20, 1.21, 1.19]), false, 0.10, false),
            Verdict::Better
        );
    }

    #[test]
    fn wide_interleaving_runs_are_unresolved() {
        let a = side(&[1.00, 1.30, 0.90]);
        let b = side(&[1.15, 0.95, 1.40]);
        assert_eq!(verdict(&a, &b, true, 0.10, false), Verdict::Unresolved);
        // Wide but disjoint: every run of B is slower than every run of A.
        let b = side(&[1.60, 1.50, 1.90]);
        assert_eq!(verdict(&a, &b, true, 0.10, false), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let a = side(&[64.66, 36.585]);
        assert_eq!(verdict(&a, &a.clone(), true, 0.05, true), Verdict::Same);
        let b = side(&[64.66, 36.586]);
        assert_eq!(verdict(&a, &b, true, 0.05, true), Verdict::Worse);
        let b = side(&[64.65, 36.585]);
        assert_eq!(verdict(&a, &b, true, 0.05, true), Verdict::Better);
    }

    /// A run's failure count becomes a row of its own beside its metrics.
    #[test]
    fn a_set_carries_each_runs_failures() {
        let run = |failed: u32| {
            format!(
                r#"{{"workload": "scale_churn", "failed_per_pass": {failed}, "metrics":
                   {{"wall_s": {{"value": 1.5, "unit": "s", "min": 1.5, "max": 1.7,
                                "better": "lower", "bound": 0.25, "exact": false}}}}}}"#
            )
        };
        let set = parse_set(&format!(r#"{{"runs": [{}, {}]}}"#, run(0), run(2))).expect("a set");
        let names: Vec<&str> = set.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["wall_s", "failed_per_pass"]);
        assert_eq!(set[1].side.values, [0.0, 2.0]);
        assert!(set[1].exact && set[1].lower_is_better);
        assert!(parse_set(r#"{"runs": [{"workload": "x", "metrics": {}}]}"#).is_err());
    }

    /// `failed_per_pass` is exact and 0 in a baseline: any failure in
    /// the candidate is worse.
    #[test]
    fn a_failure_against_none_is_worse() {
        let none = side(&[0.0]);
        assert_eq!(
            verdict(&none, &none.clone(), true, 0.0, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&none, &side(&[3.0]), true, 0.0, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&side(&[3.0]), &none, true, 0.0, true),
            Verdict::Better
        );
    }
}
