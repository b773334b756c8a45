//! Embedded time-series store for [`MetricWindows`] history.
//!
//! [`Tsdb`] persists each completed [`WindowFrame`] as a JSON-encoded
//! sample in a CRC-framed [`SegmentStore`] (prefix `tsdb`), so windowed
//! rates survive process crashes and restarts: a reopened store preloads
//! the most recent raw samples for warm dashboard sparklines, and the
//! `history` CLI subcommand reads everything back offline.
//!
//! Downsampling happens at write time: every raw sample also feeds two
//! aggregation tiers (1-minute and 1-hour buckets) that keep full
//! [`HistogramSnapshot`]s in memory and flush one aggregate sample per
//! bucket — preserving count/sum/min/max plus p50/p99 — when the bucket
//! boundary passes. Raw samples dominate byte volume, so retention (see
//! [`SegmentConfig`]) ages them out first while coarse tiers survive
//! much longer within the same byte budget.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::time::{Duration, SystemTime};

use s3_obs::{HistogramSnapshot, JsonValue, JsonWriter};

use crate::segment::{read_records, SegmentConfig, SegmentStore};
use crate::window::{MetricWindows, WindowFrame};

/// Record kind for raw per-tick samples.
const KIND_SAMPLE: u8 = 1;
/// Record kind for downsampled aggregate buckets.
const KIND_AGG: u8 = 2;

/// Milliseconds since the Unix epoch.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Downsampling tier of a stored sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One sample per `MetricWindows` tick.
    Raw,
    /// One-minute aggregate buckets.
    Min1,
    /// One-hour aggregate buckets.
    Hour1,
}

impl Tier {
    /// Stable string form used on disk and by the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::Min1 => "1m",
            Tier::Hour1 => "1h",
        }
    }

    /// Parses the on-disk / CLI string form.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "raw" => Some(Tier::Raw),
            "1m" => Some(Tier::Min1),
            "1h" => Some(Tier::Hour1),
            _ => None,
        }
    }

    fn width_ms(self) -> u64 {
        match self {
            Tier::Raw => 0,
            Tier::Min1 => 60_000,
            Tier::Hour1 => 3_600_000,
        }
    }
}

/// Histogram sketch preserved per sample: enough for rate/latency
/// history without storing full bucket arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Samples recorded in the interval.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistSummary {
    fn of(h: &HistogramSnapshot) -> Option<HistSummary> {
        if h.count == 0 {
            return None;
        }
        Some(HistSummary {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.quantile(0.5).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        })
    }
}

/// One stored interval: the on-disk unit of the time-series store.
///
/// Metric keys are rendered [`s3_obs::MetricId`]s (`name` or
/// `name{k="v"}`), so labelled series stay distinct on disk.
#[derive(Debug, Clone)]
pub struct TsdbSample {
    /// Downsampling tier.
    pub tier: Tier,
    /// Interval start, ms since Unix epoch.
    pub start_ms: u64,
    /// Interval end, ms since Unix epoch (`end_ms >= start_ms`).
    pub end_ms: u64,
    /// Counter increments during the interval.
    pub counters: Vec<(String, u64)>,
    /// Gauge values observed at interval end.
    pub gauges: Vec<(String, f64)>,
    /// Histogram activity during the interval.
    pub hists: Vec<(String, HistSummary)>,
    /// Counters that reset (registry restart) during the interval.
    pub resets: Vec<String>,
}

impl TsdbSample {
    /// Interval duration in seconds.
    pub fn dur_s(&self) -> f64 {
        (self.end_ms.saturating_sub(self.start_ms)) as f64 / 1000.0
    }

    /// Summed increments of counter `name` across labels (a key matches
    /// when it equals `name` or starts with `name{`).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| key_matches(k, name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-second rate of counter `name` over this interval.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let d = self.dur_s();
        if d <= 0.0 {
            return None;
        }
        Some(self.counter_total(name) as f64 / d)
    }

    /// Serialises to one JSON object (the segment payload).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::line();
        w.obj()
            .field("schema", "s3.tsdb.v1")
            .field("tier", self.tier.as_str())
            .field("t0", self.start_ms)
            .field("t1", self.end_ms);
        w.key("counters").obj().fields(&self.counters).end();
        w.key("gauges").obj().fields(&self.gauges).end();
        w.key("hists").obj();
        for (k, h) in &self.hists {
            w.key(k)
                .obj()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", h.min)
                .field("max", h.max)
                .field("p50", h.p50)
                .field("p99", h.p99)
                .end();
        }
        w.end();
        w.key("resets").arr().vals(&self.resets);
        w.finish()
    }

    /// Parses a sample back from its JSON form (`None` on any mismatch).
    pub fn from_json(v: &JsonValue) -> Option<TsdbSample> {
        if v.get("schema")?.as_str()? != "s3.tsdb.v1" {
            return None;
        }
        let tier = Tier::parse(v.get("tier")?.as_str()?)?;
        let start_ms = v.get("t0")?.as_f64()? as u64;
        let end_ms = v.get("t1")?.as_f64()? as u64;
        let mut counters = Vec::new();
        if let Some(m) = v.get("counters").and_then(|c| c.as_object()) {
            for (k, val) in m {
                counters.push((k.clone(), val.as_f64()? as u64));
            }
        }
        let mut gauges = Vec::new();
        if let Some(m) = v.get("gauges").and_then(|c| c.as_object()) {
            for (k, val) in m {
                // A non-finite gauge is written as `null`: absent on read.
                if *val != JsonValue::Null {
                    gauges.push((k.clone(), val.as_f64()?));
                }
            }
        }
        let mut hists = Vec::new();
        if let Some(m) = v.get("hists").and_then(|c| c.as_object()) {
            for (k, h) in m {
                hists.push((
                    k.clone(),
                    HistSummary {
                        count: h.get("count")?.as_f64()? as u64,
                        sum: h.get("sum")?.as_f64()? as u64,
                        min: h.get("min")?.as_f64()? as u64,
                        max: h.get("max")?.as_f64()? as u64,
                        p50: h.get("p50")?.as_f64()? as u64,
                        p99: h.get("p99")?.as_f64()? as u64,
                    },
                ));
            }
        }
        let mut resets = Vec::new();
        if let Some(a) = v.get("resets").and_then(|r| r.as_array()) {
            for r in a {
                resets.push(r.as_str()?.to_string());
            }
        }
        Some(TsdbSample {
            tier,
            start_ms,
            end_ms,
            counters,
            gauges,
            hists,
            resets,
        })
    }
}

/// True when rendered metric key `key` belongs to series `name`
/// (unlabelled exact match, or any label of the same name).
pub fn key_matches(key: &str, name: &str) -> bool {
    key == name
        || (key.len() > name.len() && key.starts_with(name) && key.as_bytes()[name.len()] == b'{')
}

/// Configuration for [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Segment rotation/retention policy.
    pub segment: SegmentConfig,
    /// Raw samples preloaded into memory on open (warm sparklines).
    pub recent: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            segment: SegmentConfig::default(),
            recent: 128,
        }
    }
}

/// In-flight aggregate bucket for one downsampling tier.
struct AggBucket {
    bucket_id: u64,
    start_ms: u64,
    end_ms: u64,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, HistogramSnapshot)>,
    resets: Vec<String>,
}

struct AggTier {
    tier: Tier,
    bucket: Option<AggBucket>,
}

impl AggTier {
    /// Folds a raw sample's source frame into the bucket; returns the
    /// finished bucket as a sample when the boundary passed.
    fn feed(&mut self, sample: &TsdbSample, frame: &WindowFrame) -> Option<TsdbSample> {
        let width = self.tier.width_ms();
        let id = sample.end_ms / width.max(1);
        let flushed = match &self.bucket {
            Some(b) if b.bucket_id != id => self.flush(),
            _ => None,
        };
        let b = self.bucket.get_or_insert_with(|| AggBucket {
            bucket_id: id,
            start_ms: sample.start_ms,
            end_ms: sample.end_ms,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            resets: Vec::new(),
        });
        b.end_ms = b.end_ms.max(sample.end_ms);
        b.start_ms = b.start_ms.min(sample.start_ms);
        for (k, v) in &sample.counters {
            match b.counters.iter_mut().find(|(e, _)| e == k) {
                Some((_, total)) => *total = total.saturating_add(*v),
                None => b.counters.push((k.clone(), *v)),
            }
        }
        for (k, v) in &sample.gauges {
            match b.gauges.iter_mut().find(|(e, _)| e == k) {
                Some((_, last)) => *last = *v,
                None => b.gauges.push((k.clone(), *v)),
            }
        }
        // Merge full histogram snapshots (not summaries) so bucket
        // quantiles stay honest across many raw intervals.
        for (hid, h) in &frame.histograms {
            let key = hid.render();
            match b.hists.iter_mut().find(|(e, _)| *e == key) {
                Some((_, merged)) => merged.merge(h),
                None => b.hists.push((key, h.clone())),
            }
        }
        for k in &sample.resets {
            if !b.resets.contains(k) {
                b.resets.push(k.clone());
            }
        }
        flushed
    }

    fn flush(&mut self) -> Option<TsdbSample> {
        let b = self.bucket.take()?;
        Some(TsdbSample {
            tier: self.tier,
            start_ms: b.start_ms,
            end_ms: b.end_ms,
            counters: b.counters,
            gauges: b.gauges,
            hists: b
                .hists
                .iter()
                .filter_map(|(k, h)| HistSummary::of(h).map(|s| (k.clone(), s)))
                .collect(),
            resets: b.resets,
        })
    }
}

/// Embedded time-series store over a [`SegmentStore`] (see module docs).
pub struct Tsdb {
    store: SegmentStore,
    recent: VecDeque<TsdbSample>,
    recent_cap: usize,
    /// Monotonic end time of the last frame appended (dedup cursor for
    /// [`Tsdb::append_latest`]).
    last_end: Option<Duration>,
    tiers: Vec<AggTier>,
}

impl std::fmt::Debug for Tsdb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tsdb")
            .field("store", &self.store)
            .field("recent", &self.recent.len())
            .finish()
    }
}

impl Tsdb {
    /// Opens (or initialises) the store under `dir`, preloading the most
    /// recent raw samples for warm sparkline history.
    pub fn open(dir: &Path, config: TsdbConfig) -> io::Result<Tsdb> {
        let store = SegmentStore::open(dir, "tsdb", config.segment.clone())?;
        let mut recent = VecDeque::new();
        for (kind, payload) in read_records(dir, "tsdb")? {
            if kind != KIND_SAMPLE {
                continue;
            }
            let Ok(text) = std::str::from_utf8(&payload) else {
                continue;
            };
            let Ok(v) = JsonValue::parse(text) else {
                continue;
            };
            if let Some(s) = TsdbSample::from_json(&v) {
                if recent.len() == config.recent.max(1) {
                    recent.pop_front();
                }
                recent.push_back(s);
            }
        }
        Ok(Tsdb {
            store,
            recent,
            recent_cap: config.recent.max(1),
            last_end: None,
            tiers: vec![
                AggTier {
                    tier: Tier::Min1,
                    bucket: None,
                },
                AggTier {
                    tier: Tier::Hour1,
                    bucket: None,
                },
            ],
        })
    }

    /// Appends one completed frame stamped with `end_unix_ms`.
    pub fn append_frame_at(&mut self, frame: &WindowFrame, end_unix_ms: u64) -> io::Result<()> {
        let dur_ms = frame
            .end
            .saturating_sub(frame.start)
            .as_millis()
            .min(u64::MAX as u128) as u64;
        let sample = TsdbSample {
            tier: Tier::Raw,
            start_ms: end_unix_ms.saturating_sub(dur_ms),
            end_ms: end_unix_ms,
            counters: frame
                .counters
                .iter()
                .map(|(id, v)| (id.render(), *v))
                .collect(),
            gauges: frame
                .gauges
                .iter()
                .map(|(id, v)| (id.render(), *v))
                .collect(),
            hists: frame
                .histograms
                .iter()
                .filter_map(|(id, h)| HistSummary::of(h).map(|s| (id.render(), s)))
                .collect(),
            resets: frame.resets.iter().map(|id| id.render()).collect(),
        };
        self.store
            .append(KIND_SAMPLE, sample.to_json().as_bytes())?;
        for tier in &mut self.tiers {
            if let Some(agg) = tier.feed(&sample, frame) {
                self.store.append(KIND_AGG, agg.to_json().as_bytes())?;
            }
        }
        if self.recent.len() == self.recent_cap {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
        self.last_end = Some(self.last_end.map_or(frame.end, |e| e.max(frame.end)));
        Ok(())
    }

    /// Appends every frame in `windows` not yet persisted, stamping the
    /// newest at "now" and earlier ones proportionally in the past.
    pub fn append_latest(&mut self, windows: &MetricWindows) -> io::Result<usize> {
        self.append_latest_at(windows, unix_ms_now())
    }

    /// [`Tsdb::append_latest`] with an explicit "now" stamp (tests and
    /// deterministic replay).
    pub fn append_latest_at(&mut self, windows: &MetricWindows, now: u64) -> io::Result<usize> {
        let frames = windows.frames_snapshot();
        let Some(newest) = frames.last().map(|f| f.end) else {
            return Ok(0);
        };
        let mut appended = 0;
        for f in &frames {
            if self.last_end.is_some_and(|e| f.end <= e) {
                continue;
            }
            let behind_ms = newest
                .saturating_sub(f.end)
                .as_millis()
                .min(u64::MAX as u128) as u64;
            self.append_frame_at(f, now.saturating_sub(behind_ms))?;
            appended += 1;
        }
        Ok(appended)
    }

    /// Flushes partially-filled aggregate buckets (called on drop; after
    /// a restart, readers merge same-tier samples by bucket start).
    pub fn flush_aggregates(&mut self) -> io::Result<()> {
        for i in 0..self.tiers.len() {
            if let Some(agg) = self.tiers[i].flush() {
                self.store.append(KIND_AGG, agg.to_json().as_bytes())?;
            }
        }
        self.store.sync()
    }

    /// In-memory raw samples, oldest first (includes preloaded
    /// pre-restart history).
    pub fn recent(&self) -> impl Iterator<Item = &TsdbSample> {
        self.recent.iter()
    }

    /// Durably flushes the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.sync()
    }

    /// Reads every stored sample (all tiers) under `dir`, oldest first.
    pub fn read(dir: &Path) -> io::Result<Vec<TsdbSample>> {
        let mut out = Vec::new();
        for (kind, payload) in read_records(dir, "tsdb")? {
            if kind != KIND_SAMPLE && kind != KIND_AGG {
                continue;
            }
            let Ok(text) = std::str::from_utf8(&payload) else {
                continue;
            };
            let Ok(v) = JsonValue::parse(text) else {
                continue;
            };
            if let Some(s) = TsdbSample::from_json(&v) {
                out.push(s);
            }
        }
        Ok(out)
    }
}

impl Drop for Tsdb {
    fn drop(&mut self) {
        let _ = self.flush_aggregates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::TempDir;
    use s3_obs::{ManualTime, Registry, TimeSource};

    #[test]
    fn sample_json_round_trip() {
        let s = TsdbSample {
            tier: Tier::Raw,
            start_ms: 1000,
            end_ms: 2500,
            counters: vec![("a".into(), 7), ("b{k=\"v\"}".into(), 3)],
            gauges: vec![("g".into(), 1.25)],
            hists: vec![(
                "h".into(),
                HistSummary {
                    count: 10,
                    sum: 1000,
                    min: 5,
                    max: 500,
                    p50: 90,
                    p99: 480,
                },
            )],
            resets: vec!["a".into()],
        };
        let v = JsonValue::parse(&s.to_json()).unwrap();
        let back = TsdbSample::from_json(&v).unwrap();
        assert_eq!(back.tier, Tier::Raw);
        assert_eq!(back.start_ms, 1000);
        assert_eq!(back.end_ms, 2500);
        assert_eq!(back.counter_total("a"), 7);
        assert_eq!(back.counter_total("b"), 3);
        assert_eq!(back.hists[0].1.p99, 480);
        assert_eq!(back.resets, vec!["a".to_string()]);
        assert!((back.rate("a").unwrap() - 7.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn windows_survive_restart() {
        let dir = TempDir::new("tsdb-restart");
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(16);
        let c = reg.counter("q");
        w.tick_at(t.now(), reg.snapshot());
        {
            let mut db = Tsdb::open(&dir, TsdbConfig::default()).unwrap();
            for i in 0..5 {
                c.add(10 * (i + 1));
                t.advance(Duration::from_secs(2));
                w.tick_at(t.now(), reg.snapshot());
                db.append_latest(&w).unwrap();
            }
            db.sync().unwrap();
        }
        // "Restart": reopen from disk only.
        let db = Tsdb::open(&dir, TsdbConfig::default()).unwrap();
        let recent: Vec<_> = db.recent().collect();
        assert_eq!(recent.len(), 5);
        // Pre-crash windowed rates reproduce exactly: tick i carried
        // 10*(i+1) increments over 2 s.
        for (i, s) in recent.iter().enumerate() {
            assert_eq!(s.counter_total("q"), 10 * (i as u64 + 1));
            assert!((s.dur_s() - 2.0).abs() < 1e-9);
            let want = 10.0 * (i as f64 + 1.0) / 2.0;
            assert!((s.rate("q").unwrap() - want).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregates_flush_on_boundary() {
        let dir = TempDir::new("tsdb-agg");
        let reg = Registry::new();
        let t = ManualTime::new();
        let w = MetricWindows::new(256);
        let c = reg.counter("q");
        let h = reg.histogram("lat");
        w.tick_at(t.now(), reg.snapshot());
        {
            let mut db = Tsdb::open(&dir, TsdbConfig::default()).unwrap();
            // 150 s of 1 Hz ticks crosses at least two 1-minute buckets
            // (unix stamps driven by the manual clock for determinism).
            for _ in 0..150 {
                c.inc();
                h.record(100);
                t.advance(Duration::from_secs(1));
                w.tick_at(t.now(), reg.snapshot());
                db.append_latest_at(&w, t.now().as_millis() as u64).unwrap();
            }
            db.flush_aggregates().unwrap();
        }
        let all = Tsdb::read(&dir).unwrap();
        let mins: Vec<_> = all.iter().filter(|s| s.tier == Tier::Min1).collect();
        assert!(mins.len() >= 2, "got {} 1m buckets", mins.len());
        let total: u64 = mins.iter().map(|s| s.counter_total("q")).sum();
        assert_eq!(total, 150);
        // Bucket histogram sketches preserve counts and quantiles.
        let hist_total: u64 = mins
            .iter()
            .flat_map(|s| s.hists.iter())
            .filter(|(k, _)| key_matches(k, "lat"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(hist_total, 150);
    }

    fn fixture() -> TsdbSample {
        TsdbSample {
            tier: Tier::Raw,
            start_ms: 1_700_000_000_000,
            end_ms: 1_700_000_002_500,
            counters: vec![("a".into(), 7), ("b{k=\"v\"}".into(), u64::MAX)],
            gauges: vec![
                ("g".into(), 1.25),
                ("whole".into(), 3.0),
                ("tiny".into(), 2.5e-9),
                ("huge".into(), 1e21),
                ("neg".into(), -0.0),
            ],
            hists: vec![(
                "h{store=\"t\"}".into(),
                HistSummary {
                    count: 10,
                    sum: 1000,
                    min: 5,
                    max: 500,
                    p50: 90,
                    p99: 480,
                },
            )],
            resets: vec!["a".into(), "line\nbreak".into()],
        }
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{"schema":"s3.tsdb.v1","tier":"raw","t0":1700000000000,"t1":1700000002500,"counters":{"a":7,"b{k=\"v\"}":18446744073709551615},"gauges":{"g":1.25,"whole":3,"tiny":0.0000000025,"huge":1000000000000000000000,"neg":0},"hists":{"h{store=\"t\"}":{"count":10,"sum":1000,"min":5,"max":500,"p50":90,"p99":480}},"resets":["a","line\nbreak"]}"#;

    #[test]
    fn sample_json_parses_to_the_parent_tree_and_null_gauges_read_as_absent() {
        let mut s = fixture();
        let doc = JsonValue::parse(&s.to_json()).unwrap();
        assert_eq!(Ok(&doc), JsonValue::parse(PARENT).as_ref());
        // An old sample (the parent's text) still loads, gauge for gauge.
        let old = TsdbSample::from_json(&JsonValue::parse(PARENT).unwrap()).unwrap();
        assert_eq!(old.gauges.len(), s.gauges.len());
        // The parent dropped a non-finite gauge's key; it is `null` now and
        // absent again once read.
        s.gauges.push(("nan".into(), f64::NAN));
        let doc = JsonValue::parse(&s.to_json()).unwrap();
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("nan")),
            Some(&JsonValue::Null)
        );
        let back = TsdbSample::from_json(&doc).unwrap();
        assert_eq!(back.gauges.len(), old.gauges.len());
        assert!(back.gauges.iter().all(|(k, _)| k != "nan"));
    }
}
