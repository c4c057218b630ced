//! A counting and timing [`Storage`] wrapper for the traced run.
//!
//! It overrides only the primitives, so the provided composites
//! (`write_atomic`, `create_exclusive`) run through it op by op, exactly
//! as they do over the real backend.

use crate::trace::Tracer;
use sommelier_fault::{StdStorage, Storage};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Primitive-op counters. Plain statistics, so `Relaxed` suffices.
#[derive(Default)]
pub struct Counts {
    pub reads: AtomicU64,
    pub bytes_read: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_written: AtomicU64,
    pub fsyncs: AtomicU64,
    pub fsync_ns: AtomicU64,
    pub renames: AtomicU64,
    pub links: AtomicU64,
    pub removes: AtomicU64,
    pub exists: AtomicU64,
    pub lists: AtomicU64,
    pub chunk_puts: AtomicU64,
    pub chunk_dups: AtomicU64,
}

/// A point-in-time copy of [`Counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountSnapshot {
    pub reads: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
    pub renames: u64,
    pub links: u64,
    pub removes: u64,
    pub exists: u64,
    pub lists: u64,
    /// Chunk files linked into place, and links that found the chunk
    /// already stored (the dedup hits).
    pub chunk_puts: u64,
    pub chunk_dups: u64,
}

impl CountSnapshot {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &CountSnapshot) -> CountSnapshot {
        CountSnapshot {
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
            renames: self.renames - earlier.renames,
            links: self.links - earlier.links,
            removes: self.removes - earlier.removes,
            exists: self.exists - earlier.exists,
            lists: self.lists - earlier.lists,
            chunk_puts: self.chunk_puts - earlier.chunk_puts,
            chunk_dups: self.chunk_dups - earlier.chunk_dups,
        }
    }
}

pub struct TracingStorage {
    inner: StdStorage,
    tracer: Arc<Tracer>,
    counts: Counts,
}

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

impl TracingStorage {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        TracingStorage {
            inner: StdStorage,
            tracer,
            counts: Counts::default(),
        }
    }

    pub fn snapshot(&self) -> CountSnapshot {
        let c = &self.counts;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CountSnapshot {
            reads: get(&c.reads),
            bytes_read: get(&c.bytes_read),
            writes: get(&c.writes),
            bytes_written: get(&c.bytes_written),
            fsyncs: get(&c.fsyncs),
            fsync_ns: get(&c.fsync_ns),
            renames: get(&c.renames),
            links: get(&c.links),
            removes: get(&c.removes),
            exists: get(&c.exists),
            lists: get(&c.lists),
            chunk_puts: get(&c.chunk_puts),
            chunk_dups: get(&c.chunk_dups),
        }
    }
}

/// Whether `path` names a file in a store's chunk directory.
fn is_chunk(path: &Path) -> bool {
    path.parent()
        .and_then(Path::file_name)
        .is_some_and(|d| d == sommelier_repo::CHUNK_DIR)
}

impl Storage for TracingStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let name = if is_chunk(path) {
            "chunks.get"
        } else {
            "storage.read"
        };
        let out = self.tracer.span(name, 0, || self.inner.read(path));
        bump(&self.counts.reads, 1);
        if let Ok(bytes) = &out {
            bump(&self.counts.bytes_read, bytes.len() as u64);
        }
        out
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        bump(&self.counts.writes, 1);
        bump(&self.counts.bytes_written, bytes.len() as u64);
        self.tracer
            .span("storage.write", 0, || self.inner.write_file(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let out = self
            .tracer
            .span("storage.fsync", 0, || self.inner.fsync(path));
        bump(&self.counts.fsyncs, 1);
        bump(&self.counts.fsync_ns, start.elapsed().as_nanos() as u64);
        out
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        bump(&self.counts.renames, 1);
        self.tracer
            .span("storage.rename", 0, || self.inner.rename(from, to))
    }

    fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
        bump(&self.counts.links, 1);
        let out = self
            .tracer
            .span("storage.link", 0, || self.inner.link(existing, new));
        if is_chunk(new) {
            bump(&self.counts.chunk_puts, 1);
            if out
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::AlreadyExists)
            {
                bump(&self.counts.chunk_dups, 1);
            }
        }
        out
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        bump(&self.counts.removes, 1);
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        bump(&self.counts.exists, 1);
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        bump(&self.counts.lists, 1);
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-storage-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn counts_exactly_the_ops_of_write_atomic() {
        let dir = scratch("atomic");
        let s = TracingStorage::new(Arc::new(Tracer::new(true)));
        let path = dir.join("f.json");
        s.write_atomic(&path, b"hello").expect("atomic write");
        let c = s.snapshot();
        assert_eq!(
            c,
            CountSnapshot {
                writes: 1,
                bytes_written: 5,
                fsyncs: 1,
                fsync_ns: c.fsync_ns,
                renames: 1,
                ..CountSnapshot::default()
            }
        );
        // An overwrite is the same three ops again.
        s.write_atomic(&path, b"hi").expect("atomic overwrite");
        let d = s.snapshot().since(&c);
        assert_eq!(
            (d.writes, d.bytes_written, d.fsyncs, d.renames),
            (1, 2, 1, 1)
        );
        assert_eq!(
            (d.links, d.removes, d.reads, d.exists, d.lists),
            (0, 0, 0, 0, 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counts_exactly_the_ops_of_create_exclusive() {
        let dir = scratch("excl");
        let tracer = Arc::new(Tracer::new(true));
        let s = TracingStorage::new(Arc::clone(&tracer));
        let path = dir.join("f.json");
        s.create_exclusive(&path, b"abc").expect("first create");
        let c = s.snapshot();
        assert_eq!(
            c,
            CountSnapshot {
                writes: 1,
                bytes_written: 3,
                fsyncs: 1,
                fsync_ns: c.fsync_ns,
                links: 1,
                removes: 1,
                ..CountSnapshot::default()
            }
        );
        // The losing create runs the same ops and fails at the link.
        let err = s
            .create_exclusive(&path, b"xyz")
            .expect_err("second create loses");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let d = s.snapshot().since(&c);
        assert_eq!(
            (d.writes, d.fsyncs, d.links, d.removes, d.renames),
            (1, 1, 1, 1, 0)
        );
        assert_eq!(s.read(&path).expect("read back"), b"abc");
        let names: Vec<_> = tracer.spans().iter().map(|sp| sp.name).collect();
        assert_eq!(names.iter().filter(|n| **n == "storage.fsync").count(), 2);
        assert_eq!(names.last(), Some(&"storage.read"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
