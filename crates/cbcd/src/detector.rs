//! End-to-end copy detection: extraction → statistical search → voting.
//!
//! This assembles the complete CBCD system of §III: a candidate video (or a
//! pre-extracted fingerprint stream) is fingerprinted with the same pipeline
//! as the references, every fingerprint is searched with a statistical query,
//! the results are buffered per candidate key-frame, and the voting strategy
//! decides which reference ids are copies.

use crate::registry::ReferenceDb;
use crate::spatial::{vote_spatial, SpatialCandidateVotes, SpatialDetection, SpatialVoteParams};
use crate::voting::{vote, CandidateVotes, Detection, VoteParams};
use s3_core::{
    autotune, next_query_id, parallel, system_clock, IsotropicNormal, QueryCtx, QueryResult,
    StatQueryOpts,
};
use s3_video::{extract_fingerprints, LocalFingerprint, VideoSource};
use std::time::Duration;

/// Configuration of the detector.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Distortion-model σ (the robustness/search-time compromise of §IV-C).
    pub sigma: f64,
    /// Statistical query options (α, depth, refinement, budget). A depth
    /// of 0 (the default) has [`Detector::new`] learn `p_min` from the
    /// database, σ and α; any other value is used as given.
    pub query: StatQueryOpts,
    /// Voting parameters (Tukey constant, tolerance, decision threshold).
    pub vote: VoteParams,
    /// Worker threads for the search stage.
    pub threads: usize,
    /// When the query refinement is [`s3_core::Refine::All`] (the paper's
    /// behaviour), additionally gate results at this quantile of the
    /// distortion-norm law `p_‖ΔS‖`. The paper feeds raw block contents to
    /// the voting stage and notes in its conclusion that this becomes a
    /// bottleneck on large databases; a wide distance gate (default 0.90)
    /// keeps the voting buffer proportional to the true neighbourhood
    /// without measurably affecting recall. Set to `None` for the paper's
    /// raw behaviour.
    pub distance_gate_quantile: Option<f64>,
    /// Latency budget of one search batch. When set, each batch runs under a
    /// deadline on the system clock: past the budget the remaining queries
    /// come back partial, flagged `cancelled`/`degraded`, instead of blowing
    /// the budget. `None` = unbounded (the default).
    pub deadline: Option<Duration>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            sigma: 20.0,
            // Depth 0 = learned at detector construction (the paper learns
            // p_min at the start of the retrieval stage).
            query: StatQueryOpts::new(0.8, 0),
            vote: VoteParams::default(),
            threads: 1,
            distance_gate_quantile: Some(0.90),
            deadline: None,
        }
    }
}

/// Degradation summary of one search batch: non-zero only when a deadline
/// stopped some queries before they finished. The search runs over the
/// in-memory reference index, so no query loses a section or a shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchHealth {
    /// Queries answered incompletely.
    pub degraded_queries: usize,
    /// Of those, queries stopped by a deadline or cancellation.
    pub cancelled_queries: usize,
}

impl SearchHealth {
    fn of(results: &[QueryResult]) -> SearchHealth {
        SearchHealth {
            degraded_queries: results.iter().filter(|r| r.stats.degraded).count(),
            cancelled_queries: results.iter().filter(|r| r.stats.cancelled).count(),
        }
    }
}

/// One search batch as answered ([`Detector::search`]): what each candidate
/// fingerprint retrieved, before any vote.
#[derive(Clone, Debug)]
pub struct Search {
    /// Per candidate fingerprint, in input order: the matches, the work
    /// counters, and — when EXPLAIN was asked for — the query's report.
    pub results: Vec<QueryResult>,
    /// How many of those answers may be incomplete, and why.
    pub health: SearchHealth,
}

impl Search {
    /// The voting buffer of the batch: ids and time-codes only — the
    /// voting stage never touches the descriptors (§III). `fps` are the
    /// fingerprints that were searched.
    pub fn votes(&self, fps: &[LocalFingerprint]) -> Vec<CandidateVotes> {
        fps.iter()
            .zip(&self.results)
            .map(|(f, res)| CandidateVotes {
                tc: f64::from(f.tc),
                refs: res.matches.iter().map(|m| (m.id, m.tc)).collect(),
            })
            .collect()
    }

    /// The buffer of spatio-temporal voting: like [`Search::votes`] but
    /// matches carry the interest-point positions `db` stored for them.
    pub fn spatial_votes(
        &self,
        fps: &[LocalFingerprint],
        db: &ReferenceDb,
    ) -> Vec<SpatialCandidateVotes> {
        fps.iter()
            .zip(&self.results)
            .map(|(f, res)| SpatialCandidateVotes {
                tc: f64::from(f.tc),
                x: f64::from(f.x),
                y: f64::from(f.y),
                refs: res
                    .matches
                    .iter()
                    .map(|m| {
                        let (x, y) = db.position(m.index);
                        (m.id, m.tc, x, y)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// The assembled detector.
pub struct Detector<'a> {
    db: &'a ReferenceDb,
    model: IsotropicNormal,
    config: DetectorConfig,
}

impl<'a> Detector<'a> {
    /// Creates a detector over a reference database. A query depth of 0
    /// (the default) is learned here, once, from the database itself
    /// ([`autotune::learn_depth`]): the paper's start-of-retrieval `p_min`.
    /// Depth belongs to the detector and not to the [`ReferenceDb`] because
    /// σ and α, which it depends on, are only known here.
    pub fn new(db: &'a ReferenceDb, mut config: DetectorConfig) -> Self {
        let model = IsotropicNormal::new(s3_video::FINGERPRINT_DIMS, config.sigma);
        if config.query.depth == 0 {
            config.query.depth =
                autotune::learn_depth(db.index(), &model, &config.query).best_depth;
        }
        if let (s3_core::Refine::All, Some(q)) =
            (config.query.refine, config.distance_gate_quantile)
        {
            let law =
                s3_stats::NormDistribution::new(s3_video::FINGERPRINT_DIMS as u32, config.sigma);
            config.query.refine = s3_core::Refine::Range(law.quantile(q));
        }
        Detector { db, model, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The reference database.
    pub fn db(&self) -> &ReferenceDb {
        self.db
    }

    /// Detects copies inside a candidate video.
    pub fn detect_video(&self, video: &impl VideoSource) -> Vec<Detection> {
        let fps = extract_fingerprints(video, self.db.extractor_params());
        self.detect_fingerprints(&fps)
    }

    /// Detects copies from a pre-extracted candidate fingerprint stream.
    ///
    /// Every candidate fingerprint is searched; the per-fingerprint results
    /// are buffered and voted on.
    pub fn detect_fingerprints(&self, fps: &[LocalFingerprint]) -> Vec<Detection> {
        vote(&self.query_buffer(fps), &self.config.vote)
    }

    /// Detects copies with the spatio-temporal voting extension (§VI future
    /// work): detections must be coherent in time *and* in interest-point
    /// position, which suppresses temporally-coincidental junk.
    pub fn detect_fingerprints_spatial(
        &self,
        fps: &[LocalFingerprint],
        params: &SpatialVoteParams,
    ) -> Vec<SpatialDetection> {
        vote_spatial(&self.search(fps, false).spatial_votes(fps, self.db), params)
    }

    /// Runs the search stage only, returning the voting buffer. Exposed for
    /// the monitoring loop, which buffers across window boundaries.
    pub fn query_buffer(&self, fps: &[LocalFingerprint]) -> Vec<CandidateVotes> {
        self.search(fps, false).votes(fps)
    }

    /// The search stage, as every entry point above runs it: one batch of
    /// statistical queries over the in-memory index across
    /// [`DetectorConfig::threads`], under [`DetectorConfig::deadline`] when
    /// one is set. The [`Search`] reports degradation — partial answers
    /// past a hit deadline — so callers can surface a degraded verdict
    /// instead of silently presenting partial detections as complete. With `explain`, every
    /// result also carries its EXPLAIN report; the search itself is the
    /// same.
    pub fn search(&self, fps: &[LocalFingerprint], explain: bool) -> Search {
        let _scope = s3_obs::QueryScope::enter_inherit(next_query_id());
        let mut sp = s3_obs::span!(
            "detect.search",
            "queries" => fps.len() as f64,
            "query" => s3_obs::current_query() as f64,
        );
        let queries: Vec<&[u8]> = fps.iter().map(|f| f.fingerprint.as_slice()).collect();
        // No ctx unless something asks for one: an unbounded search polls
        // nothing.
        let ctx = match (self.config.deadline, explain) {
            (Some(budget), _) => Some(QueryCtx::with_deadline(system_clock(), budget)),
            (None, true) => Some(QueryCtx::unbounded()),
            (None, false) => None,
        }
        .map(|ctx| if explain { ctx.explain() } else { ctx });
        let results = parallel::stat_query_batch(
            self.db.index(),
            &queries,
            &self.model,
            &self.config.query,
            self.config.threads,
            ctx.as_ref(),
        );
        let health = SearchHealth::of(&results);
        sp.record("degraded_queries", health.degraded_queries as f64);
        Search { results, health }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DbBuilder;
    use s3_video::{ExtractorParams, ProceduralVideo, Transform, TransformChain, TransformedVideo};

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 8;
        p
    }

    fn build_db(n_videos: usize) -> ReferenceDb {
        let mut b = DbBuilder::new(fast_params());
        for i in 0..n_videos {
            let v = ProceduralVideo::new(96, 72, 80, 1000 + i as u64);
            b.add_video(&format!("ref-{i}"), &v);
        }
        b.build()
    }

    fn config() -> DetectorConfig {
        let mut c = DetectorConfig::default();
        // Between the spurious-coherence ceiling (~12 on this content) and
        // the true-copy score (≈ every candidate fingerprint); see the
        // calibrate module for the principled choice.
        c.vote.min_votes = 16;
        c
    }

    #[test]
    fn detects_exact_copy() {
        let db = build_db(5);
        let det = Detector::new(&db, config());
        let copy = ProceduralVideo::new(96, 72, 80, 1002); // same seed as ref-2
        let detections = det.detect_video(&copy);
        assert!(!detections.is_empty(), "exact copy must be found");
        assert_eq!(detections[0].id, 2);
        assert!(detections[0].offset.abs() <= 1.0);
    }

    #[test]
    fn detects_transformed_copy() {
        let db = build_db(5);
        let det = Detector::new(&db, config());
        let original = ProceduralVideo::new(96, 72, 80, 1003);
        let chain = TransformChain::new(vec![
            Transform::Gamma { wgamma: 1.3 },
            Transform::Noise { wnoise: 5.0 },
        ]);
        let copy = TransformedVideo::new(&original, chain, 9);
        let detections = det.detect_video(&copy);
        assert!(!detections.is_empty(), "transformed copy must be found");
        assert_eq!(detections[0].id, 3);
    }

    #[test]
    fn unrelated_video_not_detected() {
        let db = build_db(5);
        let det = Detector::new(&db, config());
        let stranger = ProceduralVideo::new(96, 72, 80, 999_999);
        let detections = det.detect_video(&stranger);
        assert!(
            detections.is_empty(),
            "unrelated video must not fire: {detections:?}"
        );
    }

    #[test]
    fn empty_fingerprint_stream() {
        let db = build_db(1);
        let det = Detector::new(&db, config());
        assert!(det.detect_fingerprints(&[]).is_empty());
    }

    #[test]
    fn spatial_voting_detects_shifted_copy_with_displacement() {
        let db = build_db(4);
        let det = Detector::new(&db, config());
        // A vertically shifted copy: interest points move by exactly the
        // shift, which the spatial stage must recover as dy.
        let original = ProceduralVideo::new(96, 72, 80, 1001);
        let chain = TransformChain::new(vec![Transform::Shift { wshift: 10.0 }]);
        let copy = TransformedVideo::new(&original, chain, 3);
        let fps = s3_video::extract_fingerprints(&copy, db.extractor_params());
        let mut params = crate::spatial::SpatialVoteParams::default();
        params.temporal.min_votes = 9;
        let found = det.detect_fingerprints_spatial(&fps, &params);
        assert!(!found.is_empty(), "shifted copy must be found spatially");
        let d = &found[0];
        assert_eq!(d.id, 1);
        // 10 % of 72 rows = 7.2 → dy ≈ +7 (candidate y = reference y + shift).
        assert!((d.dy - 7.0).abs() <= 2.0, "dy {}", d.dy);
        assert!(d.dx.abs() <= 2.0, "dx {}", d.dx);
        assert!(d.nsim <= d.nsim_temporal);
    }

    #[test]
    fn spatial_voting_scores_at_most_temporal() {
        let db = build_db(3);
        let det = Detector::new(&db, config());
        let copy = ProceduralVideo::new(96, 72, 80, 1000);
        let fps = s3_video::extract_fingerprints(&copy, db.extractor_params());
        let temporal = det.detect_fingerprints(&fps);
        let mut params = crate::spatial::SpatialVoteParams::default();
        params.temporal.min_votes = det.config().vote.min_votes;
        let spatial = det.detect_fingerprints_spatial(&fps, &params);
        assert!(!temporal.is_empty() && !spatial.is_empty());
        assert_eq!(spatial[0].id, temporal[0].id);
        assert!(spatial[0].nsim <= temporal[0].nsim);
        // An exact copy is fully coherent: the spatial stage keeps ~all votes.
        assert!(spatial[0].nsim * 10 >= temporal[0].nsim * 8);
    }

    #[test]
    fn explain_rides_the_same_search() {
        // EXPLAIN is the search stage itself, asked for its reports: same
        // matches and counters on every thread count, one reconciling
        // report per fingerprint and no shard rows.
        let db = build_db(3);
        let copy = ProceduralVideo::new(96, 72, 80, 1001);
        let fps = s3_video::extract_fingerprints(&copy, db.extractor_params());
        let mut threaded = config();
        threaded.threads = 4;
        for det in [Detector::new(&db, config()), Detector::new(&db, threaded)] {
            let plain = det.search(&fps, false);
            let explained = det.search(&fps, true);
            assert_eq!(explained.health, plain.health);
            for (a, b) in plain.results.iter().zip(&explained.results) {
                assert!(a.explain.is_none());
                assert_eq!((&a.matches, &a.stats), (&b.matches, &b.stats));
                let rep = b.explain.as_ref().expect("asked for");
                assert!(rep.reconciles() && !rep.degraded(), "{}", rep.to_text());
                assert!(rep.shards.is_empty());
            }
        }
    }

    #[test]
    fn parallel_search_equals_sequential() {
        let db = build_db(3);
        let mut cfg = config();
        let copy = ProceduralVideo::new(96, 72, 80, 1001);
        cfg.threads = 1;
        let seq = Detector::new(&db, cfg.clone()).detect_video(&copy);
        cfg.threads = 4;
        let par = Detector::new(&db, cfg).detect_video(&copy);
        assert_eq!(seq, par);
    }
}
