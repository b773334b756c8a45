//! The JSON exporter over a registry [`Snapshot`] (`--metrics-json`).

use crate::json::JsonWriter;
use crate::metrics::Snapshot;

impl Snapshot {
    /// Renders a JSON object with `counters`, `gauges` and `histograms`
    /// sections; each histogram includes count/sum/min/max and
    /// p50/p90/p99. A non-finite gauge is `null`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::indented();
        w.obj().key("counters").obj();
        for (id, v) in &self.counters {
            w.field(&id.render(), *v);
        }
        w.end();
        w.key("gauges").obj();
        for (id, v) in &self.gauges {
            w.field(&id.render(), *v);
        }
        w.end();
        w.key("histograms").obj();
        for (id, h) in &self.histograms {
            let seen = h.count > 0;
            w.key(&id.render())
                .obj()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", seen.then_some(h.min))
                .field("max", seen.then_some(h.max))
                .field("mean", h.mean())
                .field("p50", h.p50())
                .field("p90", h.p90())
                .field("p99", h.p99())
                .end();
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;

    fn fixture() -> crate::metrics::Snapshot {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.counter_with("io.reads", Some(("kind", "se\"q")))
            .add(u64::MAX);
        r.gauge("a.gauge").set(1.5);
        r.gauge("whole").set(3.0);
        r.gauge("huge").set(1e21);
        let h = r.histogram("a.hist");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        r.histogram("empty.hist");
        r.snapshot()
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "counters": {
    "a.count": 3,
    "io.reads{kind=\"se\"q\"}": 18446744073709551615
  },
  "gauges": {
    "a.gauge": 1.5,
    "huge": 1000000000000000000000,
    "whole": 3.0
  },
  "histograms": {
    "a.hist": {"count": 4, "sum": 1006, "min": 1, "max": 1000, "mean": 251.5, "p50": 2, "p90": 1000, "p99": 1000},
    "empty.hist": {"count": 0, "sum": 0, "min": null, "max": null, "mean": null, "p50": null, "p90": null, "p99": null}
  }
}"#;

    #[test]
    fn metrics_json_parses_to_the_parent_tree_and_non_finite_gauges_are_null() {
        use crate::JsonValue;
        assert_eq!(
            JsonValue::parse(&fixture().to_json()),
            JsonValue::parse(PARENT)
        );
        // The parent wrote the quoted strings "NaN" / "+Inf" here.
        let r = Registry::new();
        r.gauge("nan").set(f64::NAN);
        r.gauge("inf").set(f64::INFINITY);
        let doc = JsonValue::parse(&r.snapshot().to_json()).unwrap();
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("nan"), Some(&JsonValue::Null));
        assert_eq!(gauges.get("inf"), Some(&JsonValue::Null));
    }
}
