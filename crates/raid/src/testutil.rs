//! Test support shared by the workspace's test suites (not part of the
//! controller's API).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Directories handed out so far by this process.
static NEXT: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty directory under the system temp dir, removed with its
/// contents on drop. The name carries the process id and a process-wide
/// counter, so concurrent tests — and concurrent test binaries — never
/// share one.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp>/<tag>-<pid>-<n>`, clearing a leftover of the same
    /// name (from a crashed run with a recycled pid) first.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
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
    fn each_dir_is_fresh_unique_and_removed_on_drop() {
        let a = TempDir::new("hvraid-tempdir");
        let b = TempDir::new("hvraid-tempdir");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
