//! The stripe-aware request scheduler: per-tenant queues drained by a
//! flat-combining dispatcher that merges co-located writes before they
//! reach the volume.
//!
//! # Architecture
//!
//! Client threads call [`ServiceHandle::read`] / [`ServiceHandle::write`]
//! / [`ServiceHandle::flush`]. Each call is **admitted** (queue-depth
//! backpressure, per-session token bucket), **enqueued** on its session's
//! FIFO, and then the calling thread either becomes the *combiner* —
//! taking the dispatch lock and draining every queue — or parks on its
//! op's completion slot while another thread combines. This
//! flat-combining shape needs no dedicated dispatcher thread, so the
//! in-process handle has zero idle cost, and it is exactly what makes
//! coalescing work: while one thread executes against the volume, the
//! other clients' ops pile up and are merged into the next batch.
//!
//! Each combining round is **deficit-round-robin** across sessions: every
//! session earns `drr_quantum` elements of credit per round and releases
//! queued ops (whole ops only) while its deficit covers their element
//! cost, so a hot writer streaming large ops cannot starve a reader — the
//! reader's small ops drain every round regardless of how deep the
//! writer's queue is.
//!
//! The collected batch executes in arrival order, except that runs of
//! *consecutive write ops* are staged element-by-element into a
//! coalescing buffer: overlapping writes collapse (last writer wins,
//! matching arrival order), adjacent writes fuse into maximal contiguous
//! runs, and the runs are submitted grouped by the partition that owns
//! their first stripe ([`raid_array::PartitionMap::owner_of`]) so each
//! partition's work arrives contiguously at the volume, whose own flush
//! path fans the dirty stripes out across partitions. A read or flush op
//! is a barrier: the stage drains before it executes, so every op
//! observes all writes admitted before it. Every run is attempted even
//! when one fails, and each coalesced op is acked `Written` only if the
//! run carrying its bytes actually succeeded — a degraded array fails
//! the affected ops with the volume error, never silently.
//!
//! Token buckets refill two ways: a fixed quantum per dispatch round
//! (deterministic pacing under load) and a wall-clock quantum per
//! [`ServiceConfig::refill_interval`], credited at admission — so a
//! throttled client that backs off is eventually admitted even while
//! the scheduler is idle and no rounds run.
//!
//! Sessions are retired with [`ServiceHandle::close`] (the socket server
//! closes them when a connection ends): the slot is recycled for the
//! next session and its counters fold into a per-`(tenant, class)`
//! aggregate, so stats stay monotonic and one tenant never emits
//! duplicate metric series no matter how many connections carried it.
//!
//! Latency is recorded per op from enqueue to completion into a
//! per-tenant [`Histogram`] ([`raid_core::stats`]), the same percentile
//! definitions the fleet harness reports.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use raid_array::{CacheConfig, HealthState, RaidVolume, VolumeError};
use raid_core::io::IoLedger;
use raid_core::stats::Histogram;

/// How a session's traffic is classified in latency reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Mostly reads.
    Reader,
    /// Mostly writes.
    Writer,
    /// Mixed traffic.
    Mixed,
}

impl TenantClass {
    /// Stable lower-case name (protocol + metrics label).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TenantClass::Reader => "reader",
            TenantClass::Writer => "writer",
            TenantClass::Mixed => "mixed",
        }
    }

    /// Parses the name produced by [`TenantClass::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<TenantClass> {
        match s {
            "reader" => Some(TenantClass::Reader),
            "writer" => Some(TenantClass::Writer),
            "mixed" => Some(TenantClass::Mixed),
            _ => None,
        }
    }
}

impl fmt::Display for TenantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for the service front-end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Merge adjacent/overlapping writes per batch and route them through
    /// the write-back stripe cache (`false` = pass-through dispatch: every
    /// op hits the volume individually, cache off — the A/B baseline).
    pub coalesce: bool,
    /// Stripe cache geometry when coalescing (`None` = volume default).
    pub cache: Option<CacheConfig>,
    /// Global cap on queued ops; admission beyond it returns
    /// [`ServiceError::Busy`].
    pub queue_depth: usize,
    /// Deficit-round-robin credit per session per dispatch round, in
    /// data elements.
    pub drr_quantum: u64,
    /// Token-bucket capacity per session, in data elements. An op costing
    /// more than the capacity is never admissible.
    pub bucket_capacity: u64,
    /// Tokens refilled per session per dispatch round *and* per elapsed
    /// [`ServiceConfig::refill_interval`] of wall-clock time.
    pub bucket_refill: u64,
    /// Wall-clock token refill period. Buckets also earn
    /// [`ServiceConfig::bucket_refill`] tokens per elapsed interval,
    /// credited at admission — so a throttled client that backs off and
    /// retries is eventually admitted even while the scheduler is idle
    /// and no dispatch rounds run.
    pub refill_interval: Duration,
    /// Pin the volume's partition count (`None` = auto).
    pub partitions: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            coalesce: true,
            cache: None,
            queue_depth: 256,
            drr_quantum: 64,
            bucket_capacity: 65_536,
            bucket_refill: 16_384,
            refill_interval: Duration::from_millis(1),
            partitions: None,
        }
    }
}

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The global queue is full — back off and retry.
    Busy {
        /// Ops queued when the request was rejected.
        queued: usize,
    },
    /// The session's token bucket cannot cover the op right now.
    Throttled {
        /// Element cost of the rejected op.
        wanted: u64,
        /// Tokens the session currently holds.
        available: u64,
    },
    /// The volume rejected or failed the op.
    Volume(VolumeError),
    /// Malformed request (bad range, bad buffer length, unknown verb).
    BadRequest(String),
    /// The service has shut down.
    Closed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queued } => write!(f, "busy: {queued} ops queued"),
            ServiceError::Throttled { wanted, available } => {
                write!(f, "throttled: op costs {wanted} elements, bucket holds {available}")
            }
            ServiceError::Volume(e) => write!(f, "volume: {e}"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Closed => f.write_str("service closed"),
        }
    }
}

impl From<VolumeError> for ServiceError {
    fn from(e: VolumeError) -> Self {
        ServiceError::Volume(e)
    }
}

/// What a completed op hands back to the waiting client.
#[derive(Debug, Clone)]
enum OpOutput {
    Read(Vec<u8>),
    Written { elements: usize },
    Flushed,
}

enum OpKind {
    Read { addr: usize, len: usize },
    Write { addr: usize, data: Vec<u8> },
    Flush,
}

/// One op's completion rendezvous between submitter and combiner.
struct OpSlot {
    result: Mutex<Option<Result<OpOutput, ServiceError>>>,
    cv: Condvar,
}

impl OpSlot {
    fn new() -> Arc<OpSlot> {
        Arc::new(OpSlot { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn set(&self, res: Result<OpOutput, ServiceError>) {
        let mut g = self.result.lock().expect("op slot poisoned");
        *g = Some(res);
        self.cv.notify_all();
    }

    fn take(&self) -> Option<Result<OpOutput, ServiceError>> {
        self.result.lock().expect("op slot poisoned").take()
    }

    /// Sleeps until the slot is set (the combiner notifies on
    /// completion) or `timeout` elapses — the caller re-checks either
    /// way, so the timeout is a fallback bound, not a poll interval.
    fn wait_for(&self, timeout: Duration) {
        let g = self.result.lock().expect("op slot poisoned");
        if g.is_none() {
            let _ = self.cv.wait_timeout(g, timeout).expect("op slot poisoned");
        }
    }
}

/// Fallback wait while a combiner is known active: it will complete our
/// op and notify the slot, so this bound only matters if the combiner
/// dies mid-drain.
const COMBINER_FALLBACK: Duration = Duration::from_millis(50);

/// Retry pause for the narrow window where the combiner lock is held
/// but the combining flag is not (yet) observable — lock acquisition or
/// release in flight.
const HANDOFF_RETRY: Duration = Duration::from_micros(200);

struct PendingOp {
    session: usize,
    kind: OpKind,
    cost: u64,
    enqueued: Instant,
    slot: Arc<OpSlot>,
}

struct SessionState {
    tenant: String,
    class: TenantClass,
    /// False once the session is retired; the slot is then recycled by
    /// the next [`Service::session`] call.
    open: bool,
    /// Distinguishes the current occupant of a recycled slot from stale
    /// handles onto a previous one.
    epoch: u64,
    queue: VecDeque<PendingOp>,
    deficit: u64,
    tokens: u64,
    last_refill: Instant,
    hist: Histogram,
    ops: u64,
    busy_rejections: u64,
    read_elements: u64,
    write_elements: u64,
}

impl SessionState {
    fn has_activity(&self) -> bool {
        self.ops > 0
            || self.busy_rejections > 0
            || self.read_elements > 0
            || self.write_elements > 0
            || self.hist.count() > 0
    }
}

/// Counters folded per `(tenant, class)` — retired sessions accumulate
/// here so closing a connection never resets a Prometheus counter, and
/// [`Service::stats`] reports one entry per tenant label set no matter
/// how many sessions carried it.
#[derive(Clone)]
struct TenantAccum {
    tenant: String,
    class: TenantClass,
    ops: u64,
    busy_rejections: u64,
    read_elements: u64,
    write_elements: u64,
    hist: Histogram,
}

/// Folds `s`'s counters into the accumulator matching its
/// `(tenant, class)` label pair, creating one if absent.
fn fold_tenant(accums: &mut Vec<TenantAccum>, s: &SessionState) {
    let acc = match accums.iter_mut().find(|a| a.tenant == s.tenant && a.class == s.class) {
        Some(a) => a,
        None => {
            accums.push(TenantAccum {
                tenant: s.tenant.clone(),
                class: s.class,
                ops: 0,
                busy_rejections: 0,
                read_elements: 0,
                write_elements: 0,
                hist: Histogram::new(),
            });
            accums.last_mut().expect("just pushed")
        }
    };
    acc.ops += s.ops;
    acc.busy_rejections += s.busy_rejections;
    acc.read_elements += s.read_elements;
    acc.write_elements += s.write_elements;
    acc.hist.merge(&s.hist);
}

struct Shared {
    sessions: Vec<SessionState>,
    /// Retired slots available for reuse by the next `session()`.
    free: Vec<usize>,
    /// Per-`(tenant, class)` counters of retired sessions.
    retired: Vec<TenantAccum>,
    queued: usize,
    rr: usize,
    rounds: u64,
    merged_writes: u64,
    write_runs: u64,
    /// True while a combiner holds the dispatch lock *and* has not yet
    /// observed an empty queue under this mutex — while set, every
    /// already-enqueued op is guaranteed to be completed by that
    /// combiner, so its submitter may sleep instead of polling.
    combining: bool,
    next_epoch: u64,
    closed: bool,
}

/// Per-tenant latency/throughput counters, as last snapshotted.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant label given at session registration.
    pub tenant: String,
    /// Declared traffic class.
    pub class: TenantClass,
    /// Ops completed.
    pub ops: u64,
    /// Admission rejections (busy + throttled).
    pub busy_rejections: u64,
    /// Data elements read.
    pub read_elements: u64,
    /// Data elements written.
    pub write_elements: u64,
    /// Median enqueue→completion latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile enqueue→completion latency, microseconds.
    pub p99_us: f64,
    /// Mean enqueue→completion latency, microseconds.
    pub mean_us: f64,
}

/// A point-in-time view of the whole service, used by the `stats` verb,
/// the Prometheus renderer, and the benches.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Cumulative volume ledger (backend element I/O, cache counters).
    pub ledger: IoLedger,
    /// Array health.
    pub health: HealthState,
    /// Disks currently failed.
    pub failed_disks: Vec<usize>,
    /// Whether the write-back cache is attached.
    pub cache_enabled: bool,
    /// Stripes resident in the cache.
    pub cache_resident: usize,
    /// Dirty stripes in the cache.
    pub cache_dirty: usize,
    /// Whether the scheduler merges writes.
    pub coalesce: bool,
    /// Ops queued right now.
    pub queued: usize,
    /// Dispatch rounds run.
    pub rounds: u64,
    /// Write ops absorbed into a merged run (ops in minus runs out).
    pub merged_writes: u64,
    /// Contiguous write runs submitted to the volume.
    pub write_runs: u64,
    /// Per-tenant latency and throughput, aggregated per
    /// `(tenant, class)` across all sessions ever opened under that
    /// label pair (closed sessions keep counting; sessions that never
    /// recorded an op are omitted).
    pub tenants: Vec<TenantStats>,
    /// Disks in the array.
    pub disks: usize,
    /// Volume capacity in data elements.
    pub data_elements: usize,
    /// Bytes per element.
    pub element_size: usize,
}

impl ServiceStats {
    /// Total ops completed across tenants.
    #[must_use]
    pub fn ops_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.ops).sum()
    }

    /// Ledger-measured backend element I/Os per completed op
    /// (reads + writes; 0 when no ops completed).
    #[must_use]
    pub fn io_per_op(&self) -> f64 {
        let ops = self.ops_total();
        if ops == 0 {
            return 0.0;
        }
        self.ledger.total() as f64 / ops as f64
    }
}

/// The concurrent front-end over one [`RaidVolume`].
///
/// Shared by [`Arc`]; per-client [`ServiceHandle`]s are minted with
/// [`Service::session`]. All client ops funnel through the stripe-aware
/// scheduler described in the module docs.
pub struct Service {
    cfg: ServiceConfig,
    volume: Mutex<RaidVolume>,
    shared: Mutex<Shared>,
    /// The flat-combining dispatch lock: whoever holds it drains queues.
    combiner: Mutex<()>,
    data_elements: usize,
    element_size: usize,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("data_elements", &self.data_elements)
            .field("element_size", &self.element_size)
            .field("coalesce", &self.cfg.coalesce)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Wraps `volume` in a service with the given scheduler config.
    ///
    /// Coalescing mode attaches the write-back stripe cache (volume
    /// default geometry unless [`ServiceConfig::cache`] overrides it);
    /// pass-through mode detaches it so every op dispatches individually
    /// — the measured A/B baseline.
    ///
    /// # Panics
    ///
    /// Panics if pass-through mode cannot flush an already-attached cache
    /// (only possible on a faulty backend mid-failure).
    #[must_use]
    pub fn new(mut volume: RaidVolume, cfg: ServiceConfig) -> Arc<Service> {
        let mut cfg = cfg;
        cfg.queue_depth = cfg.queue_depth.max(1);
        cfg.drr_quantum = cfg.drr_quantum.max(1);
        cfg.bucket_refill = cfg.bucket_refill.max(1);
        cfg.bucket_capacity = cfg.bucket_capacity.max(cfg.bucket_refill);
        cfg.refill_interval = cfg.refill_interval.max(Duration::from_micros(1));
        if let Some(p) = cfg.partitions {
            volume.set_partitions(Some(p));
        }
        if cfg.coalesce {
            if !volume.cache_enabled() {
                volume.enable_cache(cfg.cache.unwrap_or_default());
            }
        } else if volume.cache_enabled() {
            volume.disable_cache().expect("flushing cache for pass-through mode");
        }
        let data_elements = volume.data_elements();
        let element_size = volume.element_size();
        Arc::new(Service {
            cfg,
            volume: Mutex::new(volume),
            shared: Mutex::new(Shared {
                sessions: Vec::new(),
                free: Vec::new(),
                retired: Vec::new(),
                queued: 0,
                rr: 0,
                rounds: 0,
                merged_writes: 0,
                write_runs: 0,
                combining: false,
                next_epoch: 0,
                closed: false,
            }),
            combiner: Mutex::new(()),
            data_elements,
            element_size,
        })
    }

    /// Opens a session for `tenant` with a full token bucket, reusing a
    /// retired session's slot when one is free (so churning
    /// connections — e.g. repeated stats scrapes — don't grow the
    /// scheduler state or the DRR rotation).
    #[must_use]
    pub fn session(self: &Arc<Self>, tenant: &str, class: TenantClass) -> ServiceHandle {
        let mut sh = self.lock_shared();
        sh.next_epoch += 1;
        let epoch = sh.next_epoch;
        let state = SessionState {
            tenant: tenant.to_string(),
            class,
            open: true,
            epoch,
            queue: VecDeque::new(),
            deficit: 0,
            tokens: self.cfg.bucket_capacity,
            last_refill: Instant::now(),
            hist: Histogram::new(),
            ops: 0,
            busy_rejections: 0,
            read_elements: 0,
            write_elements: 0,
        };
        let session = match sh.free.pop() {
            Some(idx) => {
                sh.sessions[idx] = state;
                idx
            }
            None => {
                sh.sessions.push(state);
                sh.sessions.len() - 1
            }
        };
        ServiceHandle { svc: Arc::clone(self), session, epoch }
    }

    /// Retires a session: folds its counters into the per-tenant
    /// aggregate (stats keep counting monotonically) and recycles its
    /// slot. Idempotent; stale epochs and sessions with queued ops are
    /// ignored.
    fn retire(&self, session: usize, epoch: u64) {
        let mut sh = self.lock_shared();
        let Shared { sessions, free, retired, .. } = &mut *sh;
        let Some(state) = sessions.get_mut(session) else { return };
        if !state.open || state.epoch != epoch || !state.queue.is_empty() {
            return;
        }
        state.open = false;
        if state.has_activity() {
            fold_tenant(retired, state);
        }
        free.push(session);
    }

    /// Volume capacity in data elements.
    #[must_use]
    pub fn data_elements(&self) -> usize {
        self.data_elements
    }

    /// Bytes per data element.
    #[must_use]
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// The largest op admission can ever accept, in data elements: a
    /// full token bucket, and never more than the volume holds.
    #[must_use]
    pub fn max_op_elements(&self) -> usize {
        usize::try_from(self.cfg.bucket_capacity).unwrap_or(usize::MAX).min(self.data_elements)
    }

    fn lock_shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("scheduler state poisoned")
    }

    /// Snapshots service-wide and per-tenant counters.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock was poisoned by a previous panic.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        // Lock order: volume before shared, same as the dispatch path.
        let vol = self.volume.lock().expect("volume poisoned");
        let sh = self.lock_shared();
        // One entry per (tenant, class) label pair: retired sessions'
        // folded counters first (stable first-seen order), then every
        // live session merged in — so two connections HELLOing the same
        // tenant, or a close/reopen cycle, still yield a single
        // monotonic series per label set.
        let mut accums = sh.retired.clone();
        for s in sh.sessions.iter().filter(|s| s.open && s.has_activity()) {
            fold_tenant(&mut accums, s);
        }
        let tenants = accums
            .into_iter()
            .map(|a| TenantStats {
                tenant: a.tenant,
                class: a.class,
                ops: a.ops,
                busy_rejections: a.busy_rejections,
                read_elements: a.read_elements,
                write_elements: a.write_elements,
                p50_us: a.hist.percentile(0.50) / 1_000.0,
                p99_us: a.hist.percentile(0.99) / 1_000.0,
                mean_us: a.hist.mean() / 1_000.0,
            })
            .collect();
        ServiceStats {
            ledger: vol.ledger().clone(),
            health: vol.health_state(),
            failed_disks: vol.failed_disks(),
            cache_enabled: vol.cache_enabled(),
            cache_resident: vol.cache_resident_stripes(),
            cache_dirty: vol.cache_dirty_stripes(),
            coalesce: self.cfg.coalesce,
            queued: sh.queued,
            rounds: sh.rounds,
            merged_writes: sh.merged_writes,
            write_runs: sh.write_runs,
            tenants,
            disks: vol.disks(),
            data_elements: self.data_elements,
            element_size: self.element_size,
        }
    }

    /// Stops admitting ops, drains everything queued, and flushes the
    /// volume (the clean-shutdown contract: a file-backed volume is
    /// byte-complete on disk afterwards).
    ///
    /// # Errors
    ///
    /// Returns the volume error if the final flush fails.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock was poisoned by a previous panic.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        self.lock_shared().closed = true;
        let _combine = self.combiner.lock().expect("combiner poisoned");
        self.drain();
        let mut vol = self.volume.lock().expect("volume poisoned");
        vol.flush()?;
        Ok(())
    }

    /// Runs maintenance on the underlying volume (rebuild budget ticks,
    /// scrubs) without going through the scheduler. Test/CLI plumbing.
    ///
    /// # Panics
    ///
    /// Panics if the volume lock was poisoned.
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut RaidVolume) -> R) -> R {
        let _combine = self.combiner.lock().expect("combiner poisoned");
        self.drain();
        f(&mut self.volume.lock().expect("volume poisoned"))
    }

    // ---- submission -------------------------------------------------

    fn validate(&self, kind: &OpKind) -> Result<u64, ServiceError> {
        let (addr, len) = match kind {
            OpKind::Read { addr, len } => (*addr, *len),
            OpKind::Write { addr, data } => {
                if data.is_empty() || data.len() % self.element_size != 0 {
                    return Err(ServiceError::BadRequest(format!(
                        "write payload must be a positive multiple of the {}-byte element size, got {} bytes",
                        self.element_size,
                        data.len()
                    )));
                }
                (*addr, data.len() / self.element_size)
            }
            OpKind::Flush => return Ok(1),
        };
        if len == 0 {
            return Err(ServiceError::BadRequest("zero-length op".to_string()));
        }
        if addr.checked_add(len).is_none_or(|end| end > self.data_elements) {
            return Err(ServiceError::BadRequest(format!(
                "range [{addr}, {addr}+{len}) exceeds {} data elements",
                self.data_elements
            )));
        }
        Ok(len as u64)
    }

    fn submit(&self, session: usize, epoch: u64, kind: OpKind) -> Result<OpOutput, ServiceError> {
        let cost = self.validate(&kind)?;
        let slot = {
            let mut sh = self.lock_shared();
            if sh.closed {
                return Err(ServiceError::Closed);
            }
            if !sh.sessions[session].open || sh.sessions[session].epoch != epoch {
                return Err(ServiceError::Closed);
            }
            if sh.queued >= self.cfg.queue_depth {
                let queued = sh.queued;
                sh.sessions[session].busy_rejections += 1;
                return Err(ServiceError::Busy { queued });
            }
            let state = &mut sh.sessions[session];
            // Wall-clock refill before the token check: a throttled
            // client's retry must be able to succeed even if no
            // dispatch round ran in between (rounds only run while ops
            // are queued, and a rejection queues nothing).
            let periods = u64::try_from(
                state.last_refill.elapsed().as_nanos() / self.cfg.refill_interval.as_nanos(),
            )
            .unwrap_or(u64::MAX);
            if periods > 0 {
                state.tokens = state
                    .tokens
                    .saturating_add(periods.saturating_mul(self.cfg.bucket_refill))
                    .min(self.cfg.bucket_capacity);
                state.last_refill = Instant::now();
            }
            if state.tokens < cost {
                state.busy_rejections += 1;
                return Err(ServiceError::Throttled { wanted: cost, available: state.tokens });
            }
            state.tokens -= cost;
            let slot = OpSlot::new();
            state.queue.push_back(PendingOp {
                session,
                kind,
                cost,
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
            });
            sh.queued += 1;
            slot
        };
        // Give peer submitters a chance to enqueue before we fight for
        // the combiner: on few-core hosts the submitting thread would
        // otherwise re-take the combiner immediately and drain singleton
        // batches, defeating write coalescing.
        thread::yield_now();
        loop {
            if let Some(res) = slot.take() {
                return res;
            }
            if self.lock_shared().combining {
                // An active combiner is guaranteed to complete our op
                // (it clears the flag only after observing zero queued
                // ops under the shared lock, which cannot happen while
                // ours is queued) and notifies the slot when it does —
                // sleep until then instead of polling.
                slot.wait_for(COMBINER_FALLBACK);
                continue;
            }
            if let Ok(_combine) = self.combiner.try_lock() {
                self.drain();
                // Our op was queued before we took the lock, so the
                // drain above necessarily completed it.
            } else {
                // Combiner lock held but flag not yet visible (taken or
                // released this instant) — brief pause, then re-check.
                slot.wait_for(HANDOFF_RETRY);
            }
        }
    }

    // ---- dispatch (combiner-only) -----------------------------------

    /// Drains every session queue to empty. Caller holds `combiner`.
    fn drain(&self) {
        loop {
            let (batch, remaining) = self.collect_round();
            if batch.is_empty() {
                if remaining == 0 {
                    return;
                }
                // All front ops out-credit their deficits; another round
                // accrues more quantum.
                continue;
            }
            self.execute(batch);
        }
    }

    /// One deficit-round-robin pass over the sessions: refill token
    /// buckets, accrue quantum, release whole ops while credit lasts.
    ///
    /// Also maintains `Shared::combining`: the flag is raised while this
    /// combiner still sees queued work and cleared under the same lock
    /// acquisition that observes an empty queue — so a submitter that
    /// reads `combining == true` after enqueueing knows *this* combiner
    /// will drain its op.
    fn collect_round(&self) -> (Vec<PendingOp>, usize) {
        let mut sh = self.lock_shared();
        if sh.queued == 0 {
            sh.combining = false;
            return (Vec::new(), 0);
        }
        sh.combining = true;
        sh.rounds += 1;
        let n = sh.sessions.len();
        let start = sh.rr;
        let mut batch = Vec::new();
        for i in 0..n {
            let state = &mut sh.sessions[(start + i) % n];
            if state.queue.is_empty() {
                state.deficit = 0;
                continue;
            }
            // Per-round refill for sessions in the rotation; idle
            // sessions catch up wall-clock-wise at their next submit.
            state.tokens = (state.tokens + self.cfg.bucket_refill).min(self.cfg.bucket_capacity);
            state.deficit += self.cfg.drr_quantum;
            let mut released = 0usize;
            while let Some(front) = state.queue.front() {
                if front.cost > state.deficit {
                    break;
                }
                state.deficit -= front.cost;
                let op = state.queue.pop_front().expect("front exists");
                released += 1;
                batch.push(op);
            }
            if state.queue.is_empty() {
                state.deficit = 0;
            }
            sh.queued -= released;
        }
        sh.rr = if n == 0 { 0 } else { (start + 1) % n };
        (batch, sh.queued)
    }

    /// Executes one collected batch against the volume, coalescing
    /// consecutive writes when configured.
    fn execute(&self, batch: Vec<PendingOp>) {
        let mut vol = self.volume.lock().expect("volume poisoned");
        let mut stage: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let mut staged_ops: Vec<PendingOp> = Vec::new();
        for op in batch {
            match &op.kind {
                OpKind::Write { addr, data } if self.cfg.coalesce => {
                    let es = self.element_size;
                    for (i, chunk) in data.chunks_exact(es).enumerate() {
                        stage.insert(addr + i, chunk.to_vec());
                    }
                    staged_ops.push(op);
                }
                _ => {
                    self.flush_stage(&mut vol, &mut stage, &mut staged_ops);
                    let result = match op.kind {
                        OpKind::Read { addr, len } => {
                            vol.read(addr, len).map(|(bytes, _)| OpOutput::Read(bytes))
                        }
                        OpKind::Write { addr, ref data } => vol
                            .write(addr, data)
                            .map(|_| OpOutput::Written { elements: data.len() / self.element_size }),
                        OpKind::Flush => vol.flush().map(|_| OpOutput::Flushed),
                    };
                    self.complete(&op, result.map_err(ServiceError::from));
                }
            }
        }
        self.flush_stage(&mut vol, &mut stage, &mut staged_ops);
    }

    /// Submits the staged writes as maximal contiguous runs, grouped by
    /// owning partition, then completes every staged op.
    ///
    /// Every run is attempted even after one fails — runs are
    /// independent writes, and an op may only be acked `Written` if the
    /// bytes it staged actually reached the volume. A staged op's range
    /// is contiguous, so it lies entirely within one maximal run: the op
    /// fails exactly when the run carrying it failed.
    fn flush_stage(
        &self,
        vol: &mut RaidVolume,
        stage: &mut BTreeMap<usize, Vec<u8>>,
        staged_ops: &mut Vec<PendingOp>,
    ) {
        if stage.is_empty() {
            debug_assert!(staged_ops.is_empty());
            return;
        }
        // Extract maximal contiguous [start, start+n) runs; BTreeMap
        // iteration is address order.
        let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
        for (addr, bytes) in std::mem::take(stage) {
            match runs.last_mut() {
                Some((start, buf)) if *start + buf.len() / self.element_size == addr => {
                    buf.extend_from_slice(&bytes);
                }
                _ => runs.push((addr, bytes)),
            }
        }
        // Dispatch each run to the partition owning its first stripe:
        // sorting by owner keeps one partition's stripes contiguous in
        // submission order, and the volume's flush path then executes
        // the dirty stripes of different partitions in parallel.
        let pmap = vol.partition_map();
        let addressing = vol.addressing();
        runs.sort_by_key(|(start, _)| (pmap.owner_of(addressing.stripe_of(*start)), *start));

        let mut failed: Vec<(usize, usize, ServiceError)> = Vec::new();
        for (start, buf) in &runs {
            if let Err(e) = vol.write(*start, buf) {
                let len = buf.len() / self.element_size;
                failed.push((*start, *start + len, ServiceError::from(e)));
            }
        }
        {
            let mut sh = self.lock_shared();
            sh.write_runs += runs.len() as u64;
            sh.merged_writes += (staged_ops.len().saturating_sub(runs.len())) as u64;
        }
        for op in staged_ops.drain(..) {
            let (addr, elements) = match &op.kind {
                OpKind::Write { addr, data } => (*addr, data.len() / self.element_size),
                _ => unreachable!("only writes are staged"),
            };
            let result = match failed.iter().find(|(lo, hi, _)| addr < *hi && addr + elements > *lo)
            {
                Some((_, _, e)) => Err(e.clone()),
                None => Ok(OpOutput::Written { elements }),
            };
            self.complete(&op, result);
        }
    }

    /// Records latency/throughput for `op` and wakes its submitter.
    fn complete(&self, op: &PendingOp, result: Result<OpOutput, ServiceError>) {
        let ns = u64::try_from(op.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        {
            let mut sh = self.lock_shared();
            let state = &mut sh.sessions[op.session];
            state.hist.record(ns);
            state.ops += 1;
            match &op.kind {
                OpKind::Read { len, .. } => state.read_elements += *len as u64,
                OpKind::Write { data, .. } => {
                    state.write_elements += (data.len() / self.element_size) as u64;
                }
                OpKind::Flush => {}
            }
        }
        op.slot.set(result);
    }
}

/// A per-client (per-session) handle onto a shared [`Service`].
///
/// Cheap to clone-by-`session`; each handle owns one admission bucket and
/// one FIFO in the scheduler. Call [`ServiceHandle::close`] when the
/// client is done so the session's scheduler slot is recycled.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    svc: Arc<Service>,
    session: usize,
    epoch: u64,
}

impl ServiceHandle {
    /// Reads `len` data elements starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] / [`ServiceError::Throttled`] on admission
    /// rejection (retry later), [`ServiceError::Volume`] if the volume
    /// fails the op.
    pub fn read(&self, addr: usize, len: usize) -> Result<Vec<u8>, ServiceError> {
        match self.svc.submit(self.session, self.epoch, OpKind::Read { addr, len })? {
            OpOutput::Read(bytes) => Ok(bytes),
            _ => unreachable!("read op returns read output"),
        }
    }

    /// Writes `data` (a multiple of the element size) at element `addr`,
    /// returning the element count written.
    ///
    /// # Errors
    ///
    /// Same admission/volume errors as [`ServiceHandle::read`].
    pub fn write(&self, addr: usize, data: &[u8]) -> Result<usize, ServiceError> {
        match self.svc.submit(self.session, self.epoch, OpKind::Write { addr, data: data.to_vec() })?
        {
            OpOutput::Written { elements } => Ok(elements),
            _ => unreachable!("write op returns write output"),
        }
    }

    /// Flushes all dirty cached stripes to the backend.
    ///
    /// # Errors
    ///
    /// Same admission/volume errors as [`ServiceHandle::read`].
    pub fn flush(&self) -> Result<(), ServiceError> {
        match self.svc.submit(self.session, self.epoch, OpKind::Flush)? {
            OpOutput::Flushed => Ok(()),
            _ => unreachable!("flush op returns flush output"),
        }
    }

    /// Closes the session: its counters fold into the per-tenant
    /// aggregate ([`Service::stats`] keeps reporting them) and its
    /// scheduler slot is recycled for the next [`Service::session`].
    ///
    /// Idempotent. Further ops through this handle (or a clone) fail
    /// with [`ServiceError::Closed`]; don't close while another clone
    /// has an op in flight.
    pub fn close(&self) {
        self.svc.retire(self.session, self.epoch);
    }

    /// Snapshots service-wide stats.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.svc.stats()
    }

    /// The shared service this handle feeds.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use hv_code::HvCode;
    use raid_core::ArrayCode;

    use super::*;

    fn service(cfg: ServiceConfig) -> Arc<Service> {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        Service::new(RaidVolume::in_memory(code, 6, 8), cfg)
    }

    /// Regression for acking unwritten data: when staged runs fail at
    /// the volume, *every* op whose run failed must get the error —
    /// including ops in runs after the first failure.
    #[test]
    fn coalesced_batch_failure_fails_every_staged_op() {
        let svc = service(ServiceConfig::default());
        for i in 0..3 {
            let _ = svc.session(&format!("t{i}"), TenantClass::Writer);
        }
        // Park the volume at the correction limit with the fence armed:
        // every run's write now fails with SpareExhausted.
        svc.with_volume(|v| {
            v.set_auto_heal(false);
            v.fail_disk(0).unwrap();
            v.fail_disk(1).unwrap();
            v.set_write_fence(true);
            assert!(v.write_fenced());
        });
        // Three disjoint (non-adjacent) writes staged into one batch —
        // three maximal runs — executed directly, no combiner timing.
        let es = svc.element_size();
        let mut batch = Vec::new();
        let mut slots = Vec::new();
        for (i, addr) in [0usize, 4, 8].into_iter().enumerate() {
            let slot = OpSlot::new();
            slots.push(Arc::clone(&slot));
            batch.push(PendingOp {
                session: i,
                kind: OpKind::Write { addr, data: vec![0xA5; 2 * es] },
                cost: 2,
                enqueued: Instant::now(),
                slot,
            });
        }
        svc.execute(batch);
        for (i, slot) in slots.iter().enumerate() {
            let res = slot.take().expect("op completed");
            assert!(
                matches!(res, Err(ServiceError::Volume(_))),
                "op {i} was never written but got {res:?}"
            );
        }
    }

    /// Regression for permanent throttling: with no ops queued no
    /// dispatch round runs, so a rejected op must still see the bucket
    /// refill (wall-clock, at admission) for its retry to succeed.
    #[test]
    fn throttled_session_recovers_without_dispatch_rounds() {
        let svc = service(ServiceConfig {
            coalesce: false,
            bucket_capacity: 8,
            bucket_refill: 1,
            refill_interval: Duration::from_millis(5),
            ..ServiceConfig::default()
        });
        let h = svc.session("t", TenantClass::Writer);
        let es = svc.element_size();
        h.write(0, &vec![1u8; 8 * es]).expect("first op drains the full bucket");
        let start = Instant::now();
        loop {
            match h.write(0, &vec![2u8; 8 * es]) {
                Ok(_) => break,
                Err(ServiceError::Throttled { .. }) => {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "throttled retry was never admitted: bucket never refills while idle"
                    );
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }

    #[test]
    fn sessions_recycle_and_tenant_stats_aggregate() {
        let svc = service(ServiceConfig::default());
        let es = svc.element_size();

        let h1 = svc.session("t", TenantClass::Writer);
        h1.write(0, &vec![1u8; es]).unwrap();
        h1.close();
        h1.close(); // idempotent
        assert!(
            matches!(h1.write(0, &vec![1u8; es]), Err(ServiceError::Closed)),
            "closed handle must not submit"
        );
        let st = svc.stats();
        assert_eq!(st.tenants.len(), 1);
        assert_eq!(st.tenants[0].ops, 1, "counters survive the close");

        // Reopen the same tenant: the retired slot is recycled and the
        // series stays one monotonic entry.
        let h2 = svc.session("t", TenantClass::Writer);
        h2.write(0, &vec![2u8; es]).unwrap();
        let st = svc.stats();
        assert_eq!(st.tenants.len(), 1);
        assert_eq!(st.tenants[0].ops, 2);

        // Two live sessions under one label pair merge into one entry.
        let ha = svc.session("dup", TenantClass::Mixed);
        let hb = svc.session("dup", TenantClass::Mixed);
        ha.write(0, &vec![3u8; es]).unwrap();
        hb.write(0, &vec![4u8; es]).unwrap();
        let dup: Vec<_> = svc.stats().tenants.into_iter().filter(|t| t.tenant == "dup").collect();
        assert_eq!(dup.len(), 1, "same tenant+class must not duplicate series");
        assert_eq!(dup[0].ops, 2);

        // A churn of zero-op scrape sessions leaves no series behind and
        // does not grow the scheduler state.
        for _ in 0..32 {
            let m = svc.session("metrics", TenantClass::Reader);
            let _ = m.stats();
            m.close();
        }
        let st = svc.stats();
        assert!(
            st.tenants.iter().all(|t| t.tenant != "metrics"),
            "zero-op sessions must not emit series"
        );
        let slots = svc.lock_shared().sessions.len();
        assert!(slots <= 4, "retired slots must be reused, got {slots} session slots");
    }
}
