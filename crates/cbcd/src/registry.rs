//! Reference database construction: extract fingerprints from reference
//! videos and index them with `(Id, tc)` metadata (§III, "indexing case").

use s3_core::{RecordBatch, S3Index};
use s3_hilbert::HilbertCurve;
use s3_video::{extract_fingerprints, ExtractorParams, LocalFingerprint, VideoSource};

/// Builder accumulating reference material before the (static) index build.
pub struct DbBuilder {
    params: ExtractorParams,
    batch: RecordBatch,
    names: Vec<String>,
    positions: Vec<(u16, u16)>,
}

impl DbBuilder {
    /// Creates a builder with the given extraction parameters.
    pub fn new(params: ExtractorParams) -> Self {
        DbBuilder {
            params,
            batch: RecordBatch::new(s3_video::FINGERPRINT_DIMS),
            names: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Number of videos registered so far.
    pub fn video_count(&self) -> usize {
        self.names.len()
    }

    /// Number of fingerprints accumulated so far.
    pub fn fingerprint_count(&self) -> usize {
        self.batch.len()
    }

    /// Registers a video: runs the extraction pipeline and stores its
    /// fingerprints under a fresh id. Returns the id.
    pub fn add_video(&mut self, name: &str, video: &impl VideoSource) -> u32 {
        let fps = extract_fingerprints(video, &self.params);
        self.add_fingerprints(name, &fps)
    }

    /// Registers pre-extracted fingerprints under a fresh id.
    pub fn add_fingerprints(&mut self, name: &str, fps: &[LocalFingerprint]) -> u32 {
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        for f in fps {
            self.batch.push(&f.fingerprint, id, f.tc);
            self.positions.push((f.x, f.y));
        }
        id
    }

    /// Registers raw records under a fresh id (for synthetic-scale DBs).
    pub fn add_raw(&mut self, name: &str, fingerprints: &[u8], tcs: &[u32]) -> u32 {
        let dims = self.batch.dims();
        assert_eq!(fingerprints.len(), tcs.len() * dims, "ragged raw input");
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        for (fp, &tc) in fingerprints.chunks_exact(dims).zip(tcs) {
            self.batch.push(fp, id, tc);
            self.positions.push((0, 0));
        }
        id
    }

    /// Builds the static reference database.
    pub fn build(self) -> ReferenceDb {
        let (index, perm) = S3Index::build_with_perm(HilbertCurve::paper(), self.batch);
        let positions = perm
            .iter()
            .map(|&src| self.positions[src as usize])
            .collect();
        ReferenceDb {
            index,
            names: self.names,
            params: self.params,
            positions,
        }
    }
}

/// The indexed reference database. [`ReferenceDb::save`] writes it as one
/// archive file, which [`ReferenceDb::load`] reads back.
pub struct ReferenceDb {
    index: S3Index,
    names: Vec<String>,
    params: ExtractorParams,
    /// Interest-point position of each indexed record, aligned with the
    /// index's sorted order (for the spatio-temporal voting extension).
    positions: Vec<(u16, u16)>,
}

impl ReferenceDb {
    /// Assembles a database from stored parts, checking what [`DbBuilder`]
    /// holds by construction: one position per record, and a name for
    /// every record's id.
    pub(crate) fn from_parts(
        index: S3Index,
        names: Vec<String>,
        params: ExtractorParams,
        positions: Vec<(u16, u16)>,
    ) -> Result<ReferenceDb, String> {
        if positions.len() != index.len() {
            return Err(format!(
                "{} positions for {} records",
                positions.len(),
                index.len()
            ));
        }
        if let Some(id) = index
            .records()
            .ids()
            .iter()
            .find(|&&id| id as usize >= names.len())
        {
            return Err(format!("record id {id} has no name"));
        }
        Ok(ReferenceDb {
            index,
            names,
            params,
            positions,
        })
    }

    /// Names by id.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// Interest-point positions in index order.
    pub(crate) fn positions(&self) -> &[(u16, u16)] {
        &self.positions
    }

    /// The underlying S³ index.
    pub fn index(&self) -> &S3Index {
        &self.index
    }

    /// The extraction parameters the references were fingerprinted with
    /// (candidates must use the same).
    pub fn extractor_params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Name of a registered video.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of registered videos.
    pub fn video_count(&self) -> usize {
        self.names.len()
    }

    /// Number of indexed fingerprints.
    pub fn fingerprint_count(&self) -> usize {
        self.index.len()
    }

    /// Interest-point position of indexed record `i` (matches
    /// [`s3_core::Match::index`]). `(0, 0)` for raw-registered records.
    pub fn position(&self, i: usize) -> (u16, u16) {
        self.positions[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_video::ProceduralVideo;

    fn fast_params() -> ExtractorParams {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 6;
        p
    }

    #[test]
    fn ids_are_sequential_and_named() {
        let mut b = DbBuilder::new(fast_params());
        let v0 = ProceduralVideo::new(96, 72, 40, 1);
        let v1 = ProceduralVideo::new(96, 72, 40, 2);
        let id0 = b.add_video("news-0", &v0);
        let id1 = b.add_video("sport-1", &v1);
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(b.video_count(), 2);
        assert!(b.fingerprint_count() > 0);
        let db = b.build();
        assert_eq!(db.name(0), Some("news-0"));
        assert_eq!(db.name(1), Some("sport-1"));
        assert_eq!(db.name(2), None);
        assert_eq!(db.video_count(), 2);
        assert_eq!(db.fingerprint_count(), db.index().len());
    }

    #[test]
    fn indexed_records_carry_id_and_tc() {
        let mut b = DbBuilder::new(fast_params());
        let v = ProceduralVideo::new(96, 72, 40, 3);
        let fps = extract_fingerprints(&v, &fast_params());
        b.add_fingerprints("clip", &fps);
        let db = b.build();
        // Every indexed record must match one extracted fingerprint.
        for i in 0..db.index().len() {
            let r = db.index().records().record(i);
            assert_eq!(r.id, 0);
            assert!(fps
                .iter()
                .any(|f| f.tc == r.tc && f.fingerprint == r.fingerprint));
        }
    }

    #[test]
    fn positions_follow_records_through_the_sort() {
        let mut b = DbBuilder::new(fast_params());
        let v = ProceduralVideo::new(96, 72, 40, 5);
        let fps = extract_fingerprints(&v, &fast_params());
        b.add_fingerprints("clip", &fps);
        let db = b.build();
        for i in 0..db.index().len() {
            let r = db.index().records().record(i);
            let (x, y) = db.position(i);
            // Some extracted fingerprint must match this record exactly,
            // including its position.
            assert!(
                fps.iter().any(|f| f.tc == r.tc
                    && f.fingerprint == r.fingerprint
                    && f.x == x
                    && f.y == y),
                "record {i} lost its position"
            );
        }
    }

    #[test]
    fn add_raw_validates_shape() {
        let mut b = DbBuilder::new(fast_params());
        let fp = vec![7u8; 40]; // two 20-byte fingerprints
        let id = b.add_raw("raw", &fp, &[5, 9]);
        assert_eq!(id, 0);
        assert_eq!(b.fingerprint_count(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged raw input")]
    fn add_raw_rejects_ragged() {
        let mut b = DbBuilder::new(fast_params());
        b.add_raw("bad", &[0u8; 30], &[1, 2]);
    }
}
