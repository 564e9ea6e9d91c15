//! A `DiskBackend` wrapper that forwards every call to `FileBackend` and
//! counts (and, when timed, times) what the disks are asked to do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use disk_sim::DiskError;
use raid_array::{
    DiskBackend, DiskCompletion, DiskRequest, FileBackend, JournalEntry, RebuildCheckpoint,
};

/// Shared counters; every field is a statistic, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Counters {
    requests: AtomicU64,
    submissions: AtomicU64,
    errors: AtomicU64,
    journals: AtomicU64,
    journal_entries: AtomicU64,
    busy_ns: AtomicU64,
    journal_ns: AtomicU64,
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Element requests (a batch counts each of its entries).
    pub requests: u64,
    /// Calls that carried requests (a batch is one).
    pub submissions: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Undo-journal records written.
    pub journals: u64,
    /// Pre-images in those records: one unaccounted read each.
    pub journal_entries: u64,
    /// Time inside the backend, journal included (timed backends only).
    pub busy_ns: u64,
    /// Time inside `journal_begin`/`journal_commit` (timed backends only).
    pub journal_ns: u64,
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Snapshot {
            requests: get(&self.requests),
            submissions: get(&self.submissions),
            errors: get(&self.errors),
            journals: get(&self.journals),
            journal_entries: get(&self.journal_entries),
            busy_ns: get(&self.busy_ns),
            journal_ns: get(&self.journal_ns),
        }
    }
}

impl Snapshot {
    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            requests: self.requests - earlier.requests,
            submissions: self.submissions - earlier.submissions,
            errors: self.errors - earlier.errors,
            journals: self.journals - earlier.journals,
            journal_entries: self.journal_entries - earlier.journal_entries,
            busy_ns: self.busy_ns - earlier.busy_ns,
            journal_ns: self.journal_ns - earlier.journal_ns,
        }
    }

    /// Requests the volume's ledger should have counted: the pipeline reads
    /// each write target's pre-image for the undo journal without
    /// accounting it, so those reads are taken off.
    pub fn accounted_requests(&self) -> u64 {
        self.requests - self.journal_entries
    }

    /// Checks the wrapper against the volume's `IoLedger` delta over the
    /// same interval.
    pub fn cross_check(&self, ledger_total: u64, what: &str) -> Result<(), String> {
        if self.errors != 0 {
            return Err(format!("{what}: {} backend requests failed", self.errors));
        }
        if self.accounted_requests() != ledger_total {
            return Err(format!(
                "{what}: backend served {} requests ({} journal pre-images) but the ledger counted {ledger_total}",
                self.requests, self.journal_entries
            ));
        }
        Ok(())
    }
}

pub struct TimedBackend {
    inner: FileBackend,
    counters: Arc<Counters>,
    timed: bool,
}

impl TimedBackend {
    pub fn new(inner: FileBackend, timed: bool) -> (TimedBackend, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        (
            TimedBackend {
                inner,
                counters: Arc::clone(&counters),
                timed,
            },
            counters,
        )
    }

    /// Runs `f` on the inner backend, adding its time to `busy_ns` (and to
    /// `journal_ns` when `journal`) if this backend is timed.
    fn run<R>(&mut self, journal: bool, f: impl FnOnce(&mut FileBackend) -> R) -> R {
        let start = self.timed.then(Instant::now);
        let r = f(&mut self.inner);
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            self.counters.busy_ns.fetch_add(ns, Ordering::Relaxed);
            if journal {
                self.counters.journal_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
        r
    }

    fn count(&self, requests: usize, errors: usize) {
        self.counters
            .requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        self.counters.submissions.fetch_add(1, Ordering::Relaxed);
        self.counters
            .errors
            .fetch_add(errors as u64, Ordering::Relaxed);
    }
}

impl DiskBackend for TimedBackend {
    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn element_size(&self) -> usize {
        self.inner.element_size()
    }

    fn elements_per_disk(&self) -> usize {
        self.inner.elements_per_disk()
    }

    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        let r = self.run(false, |b| b.read(disk, index, buf));
        self.count(1, usize::from(r.is_err()));
        r
    }

    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError> {
        let r = self.run(false, |b| b.write(disk, index, data));
        self.count(1, usize::from(r.is_err()));
        r
    }

    fn submit_batch(&mut self, batch: &[DiskRequest]) -> Vec<DiskCompletion> {
        let done = self.run(false, |b| b.submit_batch(batch));
        self.count(batch.len(), done.iter().filter(|c| c.is_err()).count());
        done
    }

    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        self.run(false, |b| b.fail(disk))
    }

    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        self.run(false, |b| b.replace(disk))
    }

    fn is_failed(&self, disk: usize) -> bool {
        self.inner.is_failed(disk)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn journal_begin(&mut self, entries: &[JournalEntry]) -> Result<(), DiskError> {
        self.counters.journals.fetch_add(1, Ordering::Relaxed);
        self.counters
            .journal_entries
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.run(true, |b| b.journal_begin(entries))
    }

    fn journal_commit(&mut self) -> Result<(), DiskError> {
        self.run(true, FileBackend::journal_commit)
    }

    fn save_checkpoint(&mut self, cp: Option<&RebuildCheckpoint>) -> Result<(), DiskError> {
        self.run(false, |b| b.save_checkpoint(cp))
    }

    fn load_checkpoint(&self) -> Option<RebuildCheckpoint> {
        self.inner.load_checkpoint()
    }
}
