//! Property test: `Snapshot::to_prometheus` output always conforms to the
//! Prometheus text exposition-format grammar, no matter how hostile the
//! metric names and label values are.
//!
//! Checked invariants, per the exposition-format spec:
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
//! * label names match `[a-zA-Z_][a-zA-Z0-9_]*`;
//! * inside `label="..."` only `\\`, `\"`, `\n` escapes appear — never a
//!   raw `"` or newline;
//! * each metric name is preceded by exactly one `# HELP` then one
//!   `# TYPE` line, before any of its samples;
//! * every sample line parses as `name[{labels}] value`;
//! * histogram `_bucket` series are cumulative and end with `le="+Inf"`
//!   equal to `_count`.

mod exposition;

use exposition::{check_exposition, Rng, LABEL_KEY_POOL, NAME_POOL, VALUE_POOL};
use s3_obs::Registry;

#[test]
fn prometheus_output_always_matches_grammar() {
    let mut rng = Rng(0x5EED_CAFE);
    for round in 0..50 {
        let r = Registry::new();
        // Random mix of metrics with hostile names/labels. Names must be
        // 'static: the pools already are; composed names are leaked (test
        // only, bounded rounds).
        let n = 3 + rng.below(8);
        for i in 0..n {
            let base = NAME_POOL[rng.below(NAME_POOL.len())];
            let name: &'static str = Box::leak(format!("{base}.{round}.{i}").into_boxed_str());
            let label = if rng.below(2) == 0 {
                None
            } else {
                Some((
                    LABEL_KEY_POOL[rng.below(LABEL_KEY_POOL.len())],
                    VALUE_POOL[rng.below(VALUE_POOL.len())],
                ))
            };
            match rng.below(3) {
                0 => r.counter_with(name, label).add(rng.next() % 1000),
                1 => r.gauge(name).set(rng.next() as f64 / 1e12),
                _ => {
                    let h = r.histogram_with(name, label);
                    for _ in 0..rng.below(6) {
                        h.record(rng.next() % 1_000_000);
                    }
                }
            }
        }
        check_exposition(&r.snapshot().to_prometheus());
    }
}
