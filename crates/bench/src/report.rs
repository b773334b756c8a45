//! Experiment reporting: paper-style series printed as aligned text tables,
//! persisted as JSON under `results/` so EXPERIMENTS.md can cite exact runs.

use std::fmt::Write as _;
use std::path::Path;

/// One named data series (a curve of the reproduced figure).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values, parallel to `x`.
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series from parallel vectors.
    ///
    /// # Panics
    /// If the vectors' lengths differ.
    pub fn new(name: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "ragged series");
        Series {
            name: name.into(),
            x,
            y,
        }
    }
}

/// A reproduced table or figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// Identifier matching DESIGN.md (e.g. `fig7_scaling`).
    pub id: String,
    /// Human title (paper reference).
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// Free-form notes: parameters, observed-vs-paper commentary.
    pub notes: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl Experiment {
    /// Creates an empty experiment report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Experiment {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            notes: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Appends a series.
    pub fn push_series(&mut self, s: Series) -> &mut Self {
        self.series.push(s);
        self
    }

    /// Renders the experiment as an aligned text table (x column followed by
    /// one column per series). Series may have different x grids; rows are
    /// the union of all x values.
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.x.iter().copied())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();

        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        let width = 14usize;
        let _ = write!(out, "{:>width$}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>width$}", s.name);
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x:>width$.4}");
            for s in &self.series {
                match s.x.iter().position(|&v| v == x) {
                    Some(i) => {
                        let _ = write!(out, "{:>width$.4}", s.y[i]);
                    }
                    None => {
                        let _ = write!(out, "{:>width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_table());
    }

    /// Renders the experiment as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": {},", quote(&self.id));
        let _ = writeln!(out, "  \"title\": {},", quote(&self.title));
        let _ = writeln!(out, "  \"x_label\": {},", quote(&self.x_label));
        let _ = writeln!(out, "  \"y_label\": {},", quote(&self.y_label));
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        out.push_str("  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\n      \"name\": {},\n      \"x\": {},\n      \"y\": {}\n    }}",
                quote(&s.name),
                numbers(&s.x),
                numbers(&s.y),
            );
        }
        if !self.series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Saves the experiment as pretty JSON under `dir/<id>.json`.
    pub fn save_json(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.as_ref().join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
}

/// Escapes and quotes a string.
fn quote(s: &str) -> String {
    format!("\"{}\"", s3_obs::json::escape(s))
}

/// Renders a numeric array; non-finite values become `null`.
fn numbers(xs: &[f64]) -> String {
    let items: Vec<String> = xs
        .iter()
        .map(|&v| {
            if v.is_finite() {
                // Shortest representation that round-trips.
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Scale of an experiment run. Binaries accept `--scale quick|full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// CI-friendly sizes (minutes for the whole suite).
    #[default]
    Quick,
    /// Larger sweeps closer to the paper's ranges (tens of minutes).
    Full,
}

impl Scale {
    /// Parses process arguments: `--scale quick|full` (default quick).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "full" => Scale::Full,
                    "quick" => Scale::Quick,
                    other => panic!("unknown scale '{other}' (expected quick|full)"),
                };
            }
        }
        Scale::Quick
    }

    /// Picks between two values by scale.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Directory where experiment binaries drop their JSON results.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("S3_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_series() {
        let mut e = Experiment::new("t", "test", "x", "y");
        e.note("a note");
        e.push_series(Series::new("a", vec![1.0, 2.0], vec![10.0, 20.0]));
        e.push_series(Series::new("b", vec![2.0, 3.0], vec![5.0, 6.0]));
        let t = e.to_table();
        assert!(t.contains("a note"));
        assert!(t.contains("10.0000"));
        assert!(t.contains("6.0000"));
        // x=1 has no 'b' value: a dash.
        let row1: &str = t
            .lines()
            .find(|l| l.trim_start().starts_with("1.0000"))
            .unwrap();
        assert!(row1.trim_end().ends_with('-'), "{row1:?}");
    }

    #[test]
    fn json_roundtrip() {
        let mut e = Experiment::new("rt", "round \"trip\"", "x", "y");
        e.note("a\tnote");
        e.push_series(Series::new("s", vec![0.5, 2.0], vec![1.5, f64::NAN]));
        let dir = std::env::temp_dir().join(format!("s3bench_{}", std::process::id()));
        e.save_json(&dir).unwrap();
        let raw = std::fs::read_to_string(dir.join("rt.json")).unwrap();
        std::fs::remove_dir_all(dir).ok();

        let doc = s3_obs::JsonValue::parse(&raw).expect("saved experiment is valid JSON");
        let text = |k: &str| doc.get(k).and_then(|v| v.as_str()).map(str::to_owned);
        assert_eq!(text("id"), Some(e.id.clone()));
        assert_eq!(text("title"), Some(e.title.clone()));
        assert_eq!(text("x_label"), Some(e.x_label.clone()));
        assert_eq!(text("y_label"), Some(e.y_label.clone()));
        let notes = doc.get("notes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(notes[0].as_str(), Some("a\tnote"));
        let series = doc.get("series").and_then(|v| v.as_array()).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("name").and_then(|v| v.as_str()), Some("s"));
        let axis = |k: &str| {
            series[0]
                .get(k)
                .and_then(|v| v.as_array())
                .unwrap()
                .to_vec()
        };
        let num = s3_obs::JsonValue::Num;
        assert_eq!(axis("x"), [num(0.5), num(2.0)]);
        // Non-finite values are written as `null`.
        assert_eq!(axis("y"), [num(1.5), s3_obs::JsonValue::Null]);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    #[should_panic(expected = "ragged series")]
    fn ragged_series_rejected() {
        Series::new("bad", vec![1.0], vec![]);
    }
}
