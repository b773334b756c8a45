//! Experiment reporting: paper-style series printed as aligned text tables,
//! persisted as JSON under `results/` so EXPERIMENTS.md can cite exact runs.

use s3_obs::JsonWriter;
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

    /// Renders the experiment as indented JSON; a non-finite value is
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::indented();
        w.obj()
            .field("id", &self.id)
            .field("title", &self.title)
            .field("x_label", &self.x_label)
            .field("y_label", &self.y_label);
        w.key("notes").arr().vals(&self.notes).end();
        w.key("series").arr();
        for s in &self.series {
            w.obj().field("name", &s.name);
            w.key("x").arr().vals(&s.x).end();
            w.key("y").arr().vals(&s.y).end().end();
        }
        w.finish()
    }

    /// Saves the experiment as pretty JSON under `dir/<id>.json`.
    pub fn save_json(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.as_ref().join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
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
        let dir = crate::temp::TempDir::new("json-roundtrip");
        e.save_json(&*dir).unwrap();
        let raw = std::fs::read_to_string(dir.join("rt.json")).unwrap();

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

    fn fixture() -> Experiment {
        let mut e = Experiment::new(
            "fig7",
            "search \"time\" vs size",
            "records",
            "ms\tper query",
        );
        e.note("α = 0.8, σ = 20");
        e.note("second\nnote");
        e.push_series(Series::new(
            "S³",
            vec![1024.0, 2048.0, 0.5, 1e21],
            vec![0.125, 3.0, f64::NAN, f64::INFINITY],
        ));
        e.push_series(Series::new("scan", vec![], vec![]));
        e
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "id": "fig7",
  "title": "search \"time\" vs size",
  "x_label": "records",
  "y_label": "ms\tper query",
  "notes": ["α = 0.8, σ = 20", "second\nnote"],
  "series": [
    {
      "name": "S³",
      "x": [1024.0, 2048.0, 0.5, 1e21],
      "y": [0.125, 3.0, null, null]
    },
    {
      "name": "scan",
      "x": [],
      "y": []
    }
  ]
}"#;

    #[test]
    fn experiment_json_parses_to_the_parent_tree() {
        assert_eq!(
            s3_obs::JsonValue::parse(&fixture().to_json()),
            s3_obs::JsonValue::parse(PARENT)
        );
    }
}
