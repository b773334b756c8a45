//! Durable-telemetry integration tests: segment crash-safety under
//! seeded byte mangling, tsdb golden-value restart reproduction, and
//! SLO burn-rate plumbing into the health engine.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use s3_obs::{
    read_records, segment_paths, HealthEngine, ManualTime, MetricWindows, Registry, SegmentConfig,
    SegmentStore, SloEngine, SloSignal, SloSpec, TimeSource, Tsdb, TsdbConfig, Verdict,
};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "s3obs-telemetry-{name}-{}-{}",
        std::process::id(),
        name.len()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Deterministic LCG (same constants as core's chaos harness).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Property: whatever happens to a segment's tail — truncation at any
/// byte, a bit flip anywhere past the valid prefix, or appended garbage
/// — reopening (a) never panics, (b) yields exactly a prefix of the
/// records written before the crash, and (c) leaves the store able to
/// append again, with the new records surviving a clean read.
#[test]
fn segment_mangling_property() {
    let mut rng = Lcg(0xBADC0FFEE);
    for case in 0..60u64 {
        let dir = tmpdir(&format!("mangle{case}"));
        let cfg = SegmentConfig {
            segment_bytes: 4096,
            max_total_bytes: 1 << 20,
            max_age: None,
        };
        let n_records = 3 + rng.below(20) as usize;
        let mut written = Vec::new();
        {
            let mut store = SegmentStore::open(&dir, "t", cfg.clone()).unwrap();
            for i in 0..n_records {
                let len = rng.below(200) as usize;
                let payload: Vec<u8> = (0..len).map(|j| (i + j) as u8 ^ rng.next() as u8).collect();
                store.append(1 + (i % 3) as u8, &payload).unwrap();
                written.push((1 + (i % 3) as u8, payload));
            }
            store.sync().unwrap();
        }
        // Mangle the newest segment.
        let (_, path) = segment_paths(&dir, "t").unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let orig_len = bytes.len();
        match rng.below(3) {
            0 => {
                // Torn write: truncate at an arbitrary byte.
                let cut = rng.below(orig_len as u64) as usize;
                bytes.truncate(cut);
            }
            1 => {
                // Bit flip anywhere in the file.
                let at = rng.below(orig_len as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
            _ => {
                // Crash mid-append: partial garbage frame at the tail.
                let extra = 1 + rng.below(64) as usize;
                for _ in 0..extra {
                    bytes.push(rng.next() as u8);
                }
            }
        }
        fs::write(&path, &bytes).unwrap();
        // A pure reader never panics and returns a record prefix
        // (headers/CRCs past the corruption are rejected).
        let read = read_records(&dir, "t").unwrap();
        assert!(read.len() <= written.len(), "case {case}: extra records");
        for (got, want) in read.iter().zip(written.iter()) {
            assert_eq!(got, want, "case {case}: corrupted record surfaced");
        }
        // Reopening truncates the tail and appending still works.
        let mut store = SegmentStore::open(&dir, "t", cfg).unwrap();
        store.append(9, b"post-crash").unwrap();
        store.sync().unwrap();
        let after = read_records(&dir, "t").unwrap();
        let last = after.last().unwrap();
        assert_eq!(last, &(9u8, b"post-crash".to_vec()), "case {case}");
        // Everything before the new record is still a prefix of the
        // original stream.
        for (got, want) in after[..after.len() - 1].iter().zip(written.iter()) {
            assert_eq!(got, want, "case {case}: prefix broken after reopen");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Golden-value restart test: rates computed from reopened tsdb samples
/// must match the exact per-tick activity of the pre-crash process.
#[test]
fn tsdb_reproduces_pre_crash_rates() {
    let dir = tmpdir("golden");
    let reg = Registry::new();
    let t = ManualTime::new();
    let w = MetricWindows::new(32);
    let c = reg.counter("query.filter");
    let h = reg.histogram("query.latency");
    w.tick_at(t.now(), reg.snapshot());
    // Golden schedule: tick i does 7*(i+1) filter ops over 3 s with a
    // known latency distribution.
    {
        let mut db = Tsdb::open(&dir, TsdbConfig::default()).unwrap();
        for i in 0..6u64 {
            c.add(7 * (i + 1));
            for _ in 0..5 {
                h.record(1_000 * (i + 1));
            }
            t.advance(Duration::from_secs(3));
            w.tick_at(t.now(), reg.snapshot());
            db.append_latest_at(&w, t.now().as_millis() as u64).unwrap();
        }
        db.sync().unwrap();
        // Simulated kill: drop without any graceful shutdown beyond the
        // already-synced segment bytes.
    }
    // Restart: a fresh process reads history back from disk alone.
    let db = Tsdb::open(&dir, TsdbConfig::default()).unwrap();
    let recent: Vec<_> = db.recent().cloned().collect();
    assert_eq!(recent.len(), 6);
    for (i, s) in recent.iter().enumerate() {
        let i = i as u64;
        assert_eq!(s.counter_total("query.filter"), 7 * (i + 1), "tick {i}");
        assert!((s.dur_s() - 3.0).abs() < 1e-9);
        let want_rate = 7.0 * (i as f64 + 1.0) / 3.0;
        assert!((s.rate("query.filter").unwrap() - want_rate).abs() < 1e-9);
        let (_, hist) = s
            .hists
            .iter()
            .find(|(k, _)| k == "query.latency")
            .expect("latency summary stored");
        assert_eq!(hist.count, 5);
        // Log-bucketed quantiles: within the documented 12.5% error.
        let exact = 1_000 * (i + 1);
        assert!(
            (hist.p50 as f64 - exact as f64).abs() / exact as f64 <= 0.125,
            "tick {i}: p50={} exact={exact}",
            hist.p50
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// End-to-end SLO path: sustained burn transitions a health engine rule
/// and cumulative exhaustion fires exactly once.
#[test]
fn slo_burn_transitions_health_and_exhausts_once() {
    let reg = Registry::new();
    let t = ManualTime::new();
    let w = MetricWindows::new(64);
    let spec = SloSpec {
        min_count: 4,
        ..SloSpec::new(
            "availability",
            "slo-availability",
            SloSignal::CounterOverHistogram {
                bad: "query.degraded",
                total_hist: "query.latency",
            },
            0.995,
            "slo.burn.availability",
            "slo.budget.availability",
        )
    };
    let slo = SloEngine::with_registry(vec![spec], &reg);
    let health = HealthEngine::with_registry(slo.health_rules(), &reg);
    let bad = reg.counter("query.degraded");
    let lat = reg.histogram("query.latency");
    w.tick_at(t.now(), reg.snapshot());
    let mut transitioned = false;
    let mut exhaustions = 0;
    for _ in 0..6 {
        // 30% of queries degraded: burn = 0.3 / 0.005 = 60x — far past
        // the critical threshold once sustained.
        for q in 0..10 {
            lat.record(50_000);
            if q < 3 {
                bad.inc();
            }
        }
        t.advance(Duration::from_secs(5));
        w.tick_at(t.now(), reg.snapshot());
        for st in slo.evaluate(&w) {
            if st.newly_exhausted {
                exhaustions += 1;
            }
        }
        // Burn gauges land in the next frame (documented one-tick lag).
        t.advance(Duration::from_millis(50));
        w.tick_at(t.now(), reg.snapshot());
        let report = health.evaluate(&w);
        if report.verdict >= Verdict::Degraded {
            transitioned = true;
        }
    }
    assert!(transitioned, "health engine never left Healthy");
    assert_eq!(exhaustions, 1, "budget exhaustion must report exactly once");
}

/// Torn tails truncated by a reopen are visible in the metric catalog.
/// The counter is process-global and the mangling property above truncates
/// tails of its own while this runs, so this test writes under a store
/// prefix nothing else uses and reads the counter carrying that label.
#[test]
fn truncated_tail_counts_metric() {
    const STORE: &str = "tailmetric";
    let truncated_tails = || {
        s3_obs::registry()
            .snapshot()
            .counters
            .iter()
            .find(|(id, _)| id.name == "tsdb.truncated_tails" && id.label == Some(("store", STORE)))
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let dir = tmpdir(STORE);
    {
        let mut s = SegmentStore::open(&dir, STORE, SegmentConfig::default()).unwrap();
        s.append(1, b"x").unwrap();
        s.sync().unwrap();
    }
    let before = truncated_tails();
    let (_, path) = segment_paths(&dir, STORE).unwrap().pop().unwrap();
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&[1, 2, 3]).unwrap();
    drop(f);
    let _ = SegmentStore::open(&dir, STORE, SegmentConfig::default()).unwrap();
    assert_eq!(truncated_tails(), before + 1);
    let _ = fs::remove_dir_all(&dir);
}
