//! Property test: windowed-rate gauges spliced into a snapshot
//! (`MetricWindows::augment`) keep `Snapshot::to_prometheus` output inside
//! the Prometheus text exposition-format grammar, however hostile the
//! counter names and label values they derive from. The grammar checker
//! is `s3-obs`'s (`crates/obs/tests/prometheus_grammar.rs`).

#[path = "../../obs/tests/exposition/mod.rs"]
mod exposition;

use std::time::Duration;

use exposition::{check_exposition, Rng, LABEL_KEY_POOL, NAME_POOL, VALUE_POOL};
use s3_obs::Registry;
use s3_ops::MetricWindows;

#[test]
fn windowed_rate_gauges_keep_grammar() {
    let mut rng = Rng(0xABCD_1234);
    for round in 0..20 {
        let r = Registry::new();
        let w = MetricWindows::new(8);
        let n = 2 + rng.below(6);
        let mut counters = Vec::new();
        for i in 0..n {
            let base = NAME_POOL[rng.below(NAME_POOL.len())];
            let name: &'static str = Box::leak(format!("{base}.w{round}.{i}").into_boxed_str());
            let label = if rng.below(2) == 0 {
                None
            } else {
                Some((
                    LABEL_KEY_POOL[rng.below(LABEL_KEY_POOL.len())],
                    VALUE_POOL[rng.below(VALUE_POOL.len())],
                ))
            };
            counters.push(r.counter_with(name, label));
        }
        w.tick_at(Duration::from_secs(0), r.snapshot());
        for c in &counters {
            c.add(1 + rng.next() % 100);
        }
        w.tick_at(Duration::from_secs(5), r.snapshot());
        let mut snap = r.snapshot();
        w.augment(&mut snap, Duration::from_secs(60), "rate_1m");
        let text = snap.to_prometheus();
        // Hostile counter names produce hostile synthetic gauge names;
        // the exposition must still satisfy the grammar.
        check_exposition(&text);
        assert!(
            text.contains("_rate_1m"),
            "no windowed-rate gauges emitted:\n{text}"
        );
    }
}
