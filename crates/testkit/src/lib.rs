//! `s3-testkit` — what the workspace's tests and experiments share beyond
//! the crates under test: a scratch directory no other caller shares.
//!
//! ```
//! let dir = s3_testkit::TempDir::new("doc");
//! std::fs::write(dir.join("file"), b"x").unwrap();
//! let path = dir.to_path_buf();
//! drop(dir);
//! assert!(!path.exists());
//! ```

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory under the system temp dir, unique to one caller — a
/// process-wide counter plus the pid keep concurrent tests and concurrent
/// test binaries apart — and removed with everything under it on drop,
/// whether the caller finishes or panics.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory; `name` only makes it recognisable.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("s3-{name}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_empty_and_removed_on_drop() {
        let a = TempDir::new("same");
        let b = TempDir::new("same");
        assert_ne!(&*a, &*b);
        assert_eq!(std::fs::read_dir(&a).unwrap().count(), 0);
        std::fs::write(a.join("f"), b"x").unwrap();
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.exists());
    }
}
