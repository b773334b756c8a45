//! YUV4MPEG2 (`.y4m`) video input/output.
//!
//! The paper's system ingests MPEG-1 archives; this reproduction keeps codecs
//! out of scope but reads and writes the uncompressed Y4M interchange format,
//! which every toolchain can produce (`ffmpeg -i in.mp4 out.y4m`). Only the
//! luminance plane is used — the fingerprint pipeline is grayscale (§III) —
//! and chroma is skipped on read / written as neutral grey on write.
//!
//! Supported colourspaces: `C420*` (any 4:2:0 variant), `C422`, `C444` and
//! `Cmono`. Interlacing flags are accepted but frames are treated as
//! progressive.

use crate::frame::Frame;
use crate::synth::VideoSource;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Chroma subsampling of a Y4M stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChromaMode {
    /// 4:2:0 — chroma planes are `(w/2) * (h/2)`.
    C420,
    /// 4:2:2 — chroma planes are `(w/2) * h`.
    C422,
    /// 4:4:4 — chroma planes are `w * h`.
    C444,
    /// Luma only.
    Mono,
}

impl ChromaMode {
    fn chroma_bytes(&self, w: usize, h: usize) -> usize {
        match self {
            ChromaMode::C420 => 2 * (w.div_ceil(2) * h.div_ceil(2)),
            ChromaMode::C422 => 2 * (w.div_ceil(2) * h),
            ChromaMode::C444 => 2 * (w * h),
            ChromaMode::Mono => 0,
        }
    }
}

/// An in-memory Y4M video (luminance only).
#[derive(Clone, Debug)]
pub struct Y4mVideo {
    width: usize,
    height: usize,
    /// Frame rate as a rational (num, den); (25, 1) if absent.
    pub fps: (u32, u32),
    frames: Vec<Vec<u8>>,
}

/// Errors from Y4M parsing.
#[derive(Debug)]
pub enum Y4mError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the stream.
    Parse(String),
}

impl std::fmt::Display for Y4mError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Y4mError::Io(e) => write!(f, "y4m i/o error: {e}"),
            Y4mError::Parse(m) => write!(f, "y4m parse error: {m}"),
        }
    }
}

impl std::error::Error for Y4mError {}

impl From<io::Error> for Y4mError {
    fn from(e: io::Error) -> Self {
        Y4mError::Io(e)
    }
}

fn read_line(r: &mut impl Read) -> Result<String, Y4mError> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = r.read(&mut byte)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(String::new());
            }
            return Err(Y4mError::Parse("unexpected EOF in header line".into()));
        }
        if byte[0] == b'\n' {
            break;
        }
        if buf.len() > 512 {
            return Err(Y4mError::Parse("header line too long".into()));
        }
        buf.push(byte[0]);
    }
    String::from_utf8(buf).map_err(|_| Y4mError::Parse("non-UTF8 header".into()))
}

impl Y4mVideo {
    /// Parses a Y4M stream fully into memory.
    pub fn read(r: &mut impl Read) -> Result<Y4mVideo, Y4mError> {
        let header = read_line(r)?;
        let mut parts = header.split(' ');
        if parts.next() != Some("YUV4MPEG2") {
            return Err(Y4mError::Parse("missing YUV4MPEG2 magic".into()));
        }
        let mut width = 0usize;
        let mut height = 0usize;
        let mut fps = (25u32, 1u32);
        let mut chroma = ChromaMode::C420;
        for p in parts {
            match p.chars().next() {
                Some('W') => {
                    width = p[1..]
                        .parse()
                        .map_err(|_| Y4mError::Parse(format!("bad width '{p}'")))?;
                }
                Some('H') => {
                    height = p[1..]
                        .parse()
                        .map_err(|_| Y4mError::Parse(format!("bad height '{p}'")))?;
                }
                Some('F') => {
                    let (n, d) = p[1..]
                        .split_once(':')
                        .ok_or_else(|| Y4mError::Parse(format!("bad frame rate '{p}'")))?;
                    fps = (
                        n.parse()
                            .map_err(|_| Y4mError::Parse("bad fps num".into()))?,
                        d.parse()
                            .map_err(|_| Y4mError::Parse("bad fps den".into()))?,
                    );
                }
                Some('C') => {
                    let c = &p[1..];
                    chroma = if c.starts_with("420") {
                        ChromaMode::C420
                    } else if c.starts_with("422") {
                        ChromaMode::C422
                    } else if c.starts_with("444") {
                        ChromaMode::C444
                    } else if c.starts_with("mono") {
                        ChromaMode::Mono
                    } else {
                        return Err(Y4mError::Parse(format!("unsupported colourspace C{c}")));
                    };
                }
                // Interlacing (I), aspect (A), extensions (X): accepted, ignored.
                Some('I') | Some('A') | Some('X') => {}
                _ => return Err(Y4mError::Parse(format!("unknown header token '{p}'"))),
            }
        }
        if width == 0 || height == 0 {
            return Err(Y4mError::Parse("missing W/H in header".into()));
        }

        let y_bytes = width * height;
        let c_bytes = chroma.chroma_bytes(width, height);
        let mut frames = Vec::new();
        loop {
            let line = read_line(r)?;
            if line.is_empty() {
                break; // clean EOF
            }
            if !line.starts_with("FRAME") {
                return Err(Y4mError::Parse(format!("expected FRAME, got '{line}'")));
            }
            let mut y = vec![0u8; y_bytes];
            r.read_exact(&mut y)?;
            let mut skip = vec![0u8; c_bytes];
            r.read_exact(&mut skip)?;
            frames.push(y);
        }
        Ok(Y4mVideo {
            width,
            height,
            fps,
            frames,
        })
    }

    /// Reads a `.y4m` file.
    pub fn open(path: impl AsRef<Path>) -> Result<Y4mVideo, Y4mError> {
        let mut r = BufReader::new(File::open(path)?);
        Y4mVideo::read(&mut r)
    }

    /// Builds a Y4M video from frames (quantised to bytes).
    ///
    /// # Panics
    /// If `frames` is empty or sizes are inconsistent.
    pub fn from_frames(frames: &[Frame], fps: (u32, u32)) -> Y4mVideo {
        assert!(!frames.is_empty(), "empty video");
        let (w, h) = (frames[0].width(), frames[0].height());
        let data = frames
            .iter()
            .map(|f| {
                assert_eq!((f.width(), f.height()), (w, h), "frame size mismatch");
                f.to_bytes()
            })
            .collect();
        Y4mVideo {
            width: w,
            height: h,
            fps,
            frames: data,
        }
    }

    /// Captures any [`VideoSource`] into a Y4M video.
    pub fn capture(video: &impl VideoSource, fps: (u32, u32)) -> Y4mVideo {
        let frames: Vec<Frame> = (0..video.len()).map(|t| video.frame(t)).collect();
        Y4mVideo::from_frames(&frames, fps)
    }

    /// Writes the video as 4:2:0 Y4M with neutral chroma.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(
            w,
            "YUV4MPEG2 W{} H{} F{}:{} Ip A1:1 C420jpeg",
            self.width, self.height, self.fps.0, self.fps.1
        )?;
        let c_len = ChromaMode::C420.chroma_bytes(self.width, self.height);
        let chroma = vec![128u8; c_len];
        for y in &self.frames {
            writeln!(w, "FRAME")?;
            w.write_all(y)?;
            w.write_all(&chroma)?;
        }
        Ok(())
    }

    /// Writes to a `.y4m` file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write(&mut w)?;
        w.into_inner()?.sync_all()
    }

    /// Raw luminance plane of frame `t`.
    pub fn luma(&self, t: usize) -> &[u8] {
        &self.frames[t]
    }
}

impl VideoSource for Y4mVideo {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn frame(&self, t: usize) -> Frame {
        let data = self.frames[t].iter().map(|&b| f32::from(b)).collect();
        Frame::from_data(self.width, self.height, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ProceduralVideo;

    fn roundtrip(video: &Y4mVideo) -> Y4mVideo {
        let mut buf = Vec::new();
        video.write(&mut buf).unwrap();
        Y4mVideo::read(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn write_read_roundtrip_preserves_luma() {
        let src = ProceduralVideo::new(32, 24, 5, 42);
        let y4m = Y4mVideo::capture(&src, (25, 1));
        let back = roundtrip(&y4m);
        assert_eq!(back.width(), 32);
        assert_eq!(back.height(), 24);
        assert_eq!(back.len(), 5);
        assert_eq!(back.fps, (25, 1));
        for t in 0..5 {
            assert_eq!(back.luma(t), y4m.luma(t), "frame {t}");
        }
    }

    #[test]
    fn roundtrip_quantisation_error_is_subpixel() {
        // Frame -> bytes -> Frame loses at most 0.5 graylevels.
        let src = ProceduralVideo::new(32, 24, 3, 7);
        let y4m = Y4mVideo::capture(&src, (30, 1));
        for t in 0..3 {
            let orig = src.frame(t);
            let back = y4m.frame(t);
            for (a, b) in orig.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= 0.5 + 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn odd_dimensions_chroma_rounds_up() {
        let f = Frame::from_data(3, 3, vec![10.0; 9]);
        let y4m = Y4mVideo::from_frames(&[f], (25, 1));
        let back = roundtrip(&y4m);
        assert_eq!(back.width(), 3);
        assert_eq!(back.luma(0), &[10u8; 9]);
    }

    #[test]
    fn parses_c444_and_mono() {
        // Hand-built streams.
        let mut buf = b"YUV4MPEG2 W2 H2 F30:1 C444\nFRAME\n".to_vec();
        buf.extend_from_slice(&[1, 2, 3, 4]); // Y
        buf.extend_from_slice(&[0u8; 8]); // U, V full-res
        let v = Y4mVideo::read(&mut buf.as_slice()).unwrap();
        assert_eq!(v.luma(0), &[1, 2, 3, 4]);

        let mut buf = b"YUV4MPEG2 W2 H1 Cmono\nFRAME\n".to_vec();
        buf.extend_from_slice(&[9, 8]);
        let v = Y4mVideo::read(&mut buf.as_slice()).unwrap();
        assert_eq!(v.luma(0), &[9, 8]);
        assert_eq!(v.fps, (25, 1), "default fps");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(Y4mVideo::read(&mut b"JUNK W2 H2\n".as_slice()).is_err());
        let mut buf = b"YUV4MPEG2 W4 H4 C420jpeg\nFRAME\n".to_vec();
        buf.extend_from_slice(&[0u8; 5]); // far too short
        assert!(Y4mVideo::read(&mut buf.as_slice()).is_err());
        // Missing dimensions.
        assert!(Y4mVideo::read(&mut b"YUV4MPEG2 F25:1\n".as_slice()).is_err());
        // Unsupported colourspace.
        assert!(Y4mVideo::read(&mut b"YUV4MPEG2 W2 H2 C411\n".as_slice()).is_err());
    }

    #[test]
    fn fingerprints_survive_y4m_roundtrip() {
        // The pipeline must produce (nearly) the same fingerprints from the
        // Y4M copy as from the in-memory source: quantisation to bytes is the
        // only difference.
        use crate::pipeline::{extract_fingerprints, ExtractorParams};
        let src = ProceduralVideo::new(96, 72, 40, 0xFACE);
        let y4m = Y4mVideo::capture(&src, (25, 1));
        let mut params = ExtractorParams::default();
        params.harris.max_points = 6;
        let a = extract_fingerprints(&src, &params);
        let b = extract_fingerprints(&y4m, &params);
        assert!(!a.is_empty());
        // Key-frames must agree; fingerprints within small quantisation noise.
        let matched = a
            .iter()
            .filter(|fa| {
                b.iter().any(|fb| {
                    fa.tc == fb.tc && fa.x == fb.x && fa.y == fb.y && {
                        let d: u64 = fa
                            .fingerprint
                            .iter()
                            .zip(&fb.fingerprint)
                            .map(|(&p, &q)| {
                                let d = i64::from(p) - i64::from(q);
                                (d * d) as u64
                            })
                            .sum();
                        (d as f64).sqrt() < 25.0
                    }
                })
            })
            .count();
        assert!(
            matched * 10 >= a.len() * 8,
            "only {matched}/{} fingerprints survived the y4m roundtrip",
            a.len()
        );
    }

    #[test]
    fn file_save_open_roundtrip() {
        let src = ProceduralVideo::new(24, 16, 3, 1);
        let y4m = Y4mVideo::capture(&src, (24, 1));
        let dir = s3_testkit::TempDir::new("y4m");
        let path = dir.join("roundtrip.y4m");
        y4m.save(&path).unwrap();
        let back = Y4mVideo::open(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.luma(1), y4m.luma(1));
    }
}
