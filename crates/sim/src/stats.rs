//! Statistics containers for the experiment harness: per-point summary
//! statistics and (x, y) series matching the paper's figures.

use serde::{Deserialize, Serialize};

/// Online accumulator for summary statistics (Welford's algorithm).
///
/// # Example
///
/// ```
/// use gkap_sim::stats::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] { s.add(v); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// `Default` must agree with [`Summary::new`]: a derived default would
/// set `min = max = 0.0`, so an empty accumulator built via `Default`
/// would report a bogus min/max of 0.0 once the first sample above zero
/// arrives (`0.0.min(v)` sticks at 0.0).
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (`0.0` for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One point of a figure series: x (group size), y-summary (elapsed ms).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Point {
    /// The x coordinate (group size in every figure of the paper).
    pub x: f64,
    /// Statistics of the measured quantity at this x.
    pub summary: Summary,
}

/// A named series — one curve of a paper figure (e.g. "TGDH").
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Series {
    /// Curve label.
    pub name: String,
    /// Points in ascending x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, summary: Summary) {
        self.points.push(Point { x, summary });
    }

    /// Mean y at the given x, if present.
    pub fn mean_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.summary.mean())
    }

    /// Renders the series as CSV lines `name,x,mean,stddev,min,max`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{:.4}\n",
                self.name,
                p.x,
                p.summary.mean(),
                p.summary.stddev(),
                p.summary.min(),
                p.summary.max()
            ));
        }
        out
    }
}

/// A figure: several series sharing an x axis (matches one plot of the
/// paper).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Figure {
    /// Figure title (e.g. "Join - DH 512 bits (LAN)").
    pub title: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>) -> Self {
        Figure {
            title: title.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Full CSV rendering with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,mean_ms,stddev_ms,min_ms,max_ms\n");
        for s in &self.series {
            out.push_str(&s.to_csv());
        }
        out
    }

    /// Renders an aligned ASCII table (x down the rows, one column per
    /// series) — the harness's human-readable output.
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = format!("# {}\n", self.title);
        out.push_str(&format!("{:>6}", "n"));
        for s in &self.series {
            out.push_str(&format!("{:>14}", s.name));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x:>6}"));
            for s in &self.series {
                match s.mean_at(x) {
                    Some(m) => out.push_str(&format!("{m:>14.2}")),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.13809).abs() < 1e-4);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn default_matches_new_sentinels() {
        // Regression: a derived Default (min = max = 0.0) corrupted the
        // first sample's min/max when constructed via Default.
        let mut d = Summary::default();
        d.add(5.0);
        assert_eq!(d.min(), 5.0, "min must come from the sample, not 0.0");
        assert_eq!(d.max(), 5.0);
        let mut n = Summary::new();
        n.add(5.0);
        assert_eq!(d.min(), n.min());
        assert_eq!(d.max(), n.max());
    }

    #[test]
    fn merge_matches_bulk() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut bulk = Summary::new();
        for &v in &data {
            bulk.add(v);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &v in &data[..37] {
            a.add(v);
        }
        for &v in &data[37..] {
            b.add(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), bulk.count());
        assert!((a.mean() - bulk.mean()).abs() < 1e-9);
        assert!((a.stddev() - bulk.stddev()).abs() < 1e-9);
        // Merge with empty is identity.
        let snapshot = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), snapshot);
    }

    #[test]
    fn series_lookup_and_csv() {
        let mut s = Series::new("TGDH");
        let mut sm = Summary::new();
        sm.add(10.0);
        sm.add(12.0);
        s.push(5.0, sm);
        assert_eq!(s.mean_at(5.0), Some(11.0));
        assert_eq!(s.mean_at(6.0), None);
        let csv = s.to_csv();
        assert!(csv.starts_with("TGDH,5,11.0000"));
    }

    #[test]
    fn figure_table_renders_all_series() {
        let mut fig = Figure::new("Join - test");
        for name in ["BD", "CKD"] {
            let mut s = Series::new(name);
            let mut sm = Summary::new();
            sm.add(1.0);
            s.push(2.0, sm.clone());
            if name == "BD" {
                s.push(3.0, sm);
            }
            fig.push(s);
        }
        let table = fig.to_table();
        assert!(table.contains("BD"));
        assert!(table.contains("CKD"));
        assert!(table.contains('-'), "missing point rendered as dash");
        let csv = fig.to_csv();
        assert!(csv.starts_with("series,x,"));
    }
}
