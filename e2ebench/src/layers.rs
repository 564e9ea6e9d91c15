//! The traced run: the same op streams replayed at each layer boundary.
//!
//! Five closed-loop arms run one after another on the same volume
//! directory, each reopening it and writing as its own epoch:
//!
//! 1. socket, untraced (the end-to-end path, for reference);
//! 2. socket, traced (the backend wrapper also times every call);
//! 3. in-process `ServiceHandle`s, same two threads (scheduler + cache);
//! 4. the cached `RaidVolume` on one thread, streams interleaved;
//! 5. the uncached `RaidVolume` the same way.
//!
//! Then the protocol codec, the XOR plans and the partitioned rebuild are
//! timed on their own, and the volume is verified.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raid_array::{CacheConfig, RaidVolume};
use raid_core::io::IoLedger;
use raid_core::{decoder, Cell, Stripe, XorPlan};
use raid_service::{proto, Service, ServiceConfig, ServiceStats, TenantClass};

use crate::arms::{run_direct, run_threads, Arm, ServicePort, SocketPort};
use crate::backend::Snapshot;
use crate::report::{self, metric, sampled};
use crate::setup::{self, Conn, Served, Server, WorkDir};
use crate::workload::{Kind, Op, Workload, CLIENTS, ELEMENT, FAILED_DISKS};
use crate::{content, final_check, timed_rebuild, Outcome};

/// Closed-loop arms sharing `--seconds`.
const ARMS: u32 = 5;
/// Time given to each stand-alone microbenchmark (codec, encode, decode).
const MICRO: Duration = Duration::from_millis(300);

/// Ledger counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct LedgerSnap {
    total: u64,
    hits: u64,
    misses: u64,
    flushes: u64,
    evictions: u64,
}

impl LedgerSnap {
    fn of(l: &IoLedger) -> LedgerSnap {
        LedgerSnap {
            total: l.total(),
            hits: l.cache_hits(),
            misses: l.cache_misses(),
            flushes: l.cache_flushes(),
            evictions: l.cache_evictions(),
        }
    }

    fn since(&self, e: &LedgerSnap) -> LedgerSnap {
        LedgerSnap {
            total: self.total - e.total,
            hits: self.hits - e.hits,
            misses: self.misses - e.misses,
            flushes: self.flushes - e.flushes,
            evictions: self.evictions - e.evictions,
        }
    }
}

/// Scheduler counters at one instant: rounds, merged writes, write runs,
/// busy rejections.
fn sched(s: &ServiceStats) -> [u64; 4] {
    [
        s.rounds,
        s.merged_writes,
        s.write_runs,
        s.tenants.iter().map(|t| t.busy_rejections).sum(),
    ]
}

/// One arm's figures over its measured window.
struct Figures {
    completed: u64,
    attempted: u64,
    failed: u64,
    ops_per_s: f64,
    /// Wall time per completed op (window ÷ ops): by Little's law the mean
    /// latency divided by the clients in flight, so one-thread and
    /// two-client arms compare in the same unit.
    op_us: f64,
    cpu_us_per_op: f64,
    mean_us: f64,
    all_ns: Vec<u64>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    ledger: LedgerSnap,
    backend: Snapshot,
    sched: [u64; 4],
}

impl Figures {
    fn new<T>(
        arm: &Arm<T>,
        ledger: LedgerSnap,
        backend: Snapshot,
        sched: [u64; 4],
        what: &str,
    ) -> Result<Figures, String> {
        backend.cross_check(ledger.total, what)?;
        let (all_ns, read_ns, write_ns) = (arm.all_ns(), arm.read_ns(), arm.write_ns());
        if all_ns.is_empty() {
            return Err(format!("{what}: no op completed"));
        }
        Ok(Figures {
            completed: arm.completed(),
            attempted: arm.attempted(),
            failed: arm.failed(),
            ops_per_s: arm.ops_per_s(),
            op_us: arm.window_s * 1e6 / arm.completed() as f64,
            cpu_us_per_op: crate::cpu_us_per_op(arm),
            mean_us: report::mean_us(&all_ns),
            all_ns,
            read_ns,
            write_ns,
            ledger,
            backend,
            sched,
        })
    }

    fn per_op(&self, count: u64) -> f64 {
        report::ratio(count as f64, self.completed as f64)
    }
}

pub fn run(
    w: Workload,
    work: &WorkDir,
    streams: &[Vec<Op>],
    data_elements: usize,
    seconds: f64,
) -> Result<Outcome, String> {
    let slice = Duration::from_secs_f64(seconds / f64::from(ARMS));
    let warm = slice / 4;
    let dir = work.volume();
    drop(setup::create(&dir, w)?);
    let arm = |epoch| ArmSpec {
        dir: &dir,
        socket: work.socket(),
        streams,
        data_elements,
        epoch,
        warm,
        slice,
    };

    let untraced = arm(1).socket(false)?;
    let traced = arm(2).socket(true)?;
    let service = arm(3).service()?;
    let cached = arm(4).direct(true)?;
    let uncached = arm(5).direct(false)?;
    let codec_us = codec_us_per_op(streams);
    let (encode_mib_s, decode_mib_s, decode_reads) = xplan()?;
    let (t1, t2, rebuild_busy) = partition(&dir, w)?;
    final_check(&dir, None, 5)?;

    let busy_us = |f: &Figures| f.per_op(f.backend.busy_ns) / 1_000.0;
    let mut sched_all = service.all_ns.clone();
    let [rounds, merged, runs, rejected] = service.sched;
    let metrics = vec![
        metric("proto.codec_us_per_op", codec_us, "us"),
        metric(
            "server.self_us_per_op",
            untraced.op_us - service.op_us,
            "us",
        ),
        metric("socket.ops_per_s", untraced.ops_per_s, "1/s"),
        sampled(
            "socket.mean_us",
            untraced.mean_us,
            "us",
            untraced.all_ns.len(),
        ),
        metric("socket.cpu_us_per_op", untraced.cpu_us_per_op, "us"),
        metric("scheduler.ops_per_s", service.ops_per_s, "1/s"),
        sampled(
            "scheduler.p50_us",
            report::percentile_us(&mut sched_all, 0.50),
            "us",
            sched_all.len(),
        ),
        sampled(
            "scheduler.p99_us",
            report::percentile_us(&mut sched_all, 0.99),
            "us",
            sched_all.len(),
        ),
        metric(
            "scheduler.self_us_per_op",
            service.op_us - cached.op_us,
            "us",
        ),
        metric(
            "scheduler.rounds_per_op",
            service.per_op(rounds),
            "rounds/op",
        ),
        metric(
            "scheduler.merged_write_frac",
            report::ratio(merged as f64, (merged + runs) as f64),
            "fraction",
        ),
        metric("scheduler.rejected_ops", rejected as f64, "count"),
        metric(
            "scheduler.io_per_op",
            service.per_op(service.ledger.total),
            "io/op",
        ),
        metric("volume.ops_per_s", cached.ops_per_s, "1/s"),
        sampled("volume.mean_us", cached.mean_us, "us", cached.all_ns.len()),
        metric(
            "volume.self_us_per_op",
            cached.op_us - busy_us(&cached),
            "us",
        ),
        metric(
            "volume.io_per_op",
            cached.per_op(cached.ledger.total),
            "io/op",
        ),
        metric(
            "cache.hit_rate",
            report::ratio(
                cached.ledger.hits as f64,
                (cached.ledger.hits + cached.ledger.misses) as f64,
            ),
            "fraction",
        ),
        metric(
            "cache.evictions_per_op",
            cached.per_op(cached.ledger.evictions),
            "1/op",
        ),
        metric(
            "cache.stripe_flushes_per_op",
            cached.per_op(cached.ledger.flushes),
            "1/op",
        ),
        metric("volume_uncached.ops_per_s", uncached.ops_per_s, "1/s"),
        metric(
            "volume_uncached.io_per_op",
            uncached.per_op(uncached.ledger.total),
            "io/op",
        ),
        metric(
            "backend.requests_per_op",
            cached.per_op(cached.backend.requests),
            "1/op",
        ),
        metric("backend.busy_us_per_op", busy_us(&cached), "us"),
        metric(
            "backend.batch_size_mean",
            report::ratio(
                cached.backend.requests as f64,
                cached.backend.submissions as f64,
            ),
            "requests",
        ),
        metric(
            "backend.journal_us_per_op",
            cached.per_op(cached.backend.journal_ns) / 1_000.0,
            "us",
        ),
        metric(
            "backend.journals_per_op",
            cached.per_op(cached.backend.journals),
            "1/op",
        ),
        metric("backend.rebuild_busy_s", rebuild_busy, "s"),
        metric("xplan.encode_mib_per_s", encode_mib_s, "MiB/s"),
        metric("xplan.decode_mib_per_s", decode_mib_s, "MiB/s"),
        metric("xplan.decode_reads", decode_reads as f64, "count"),
        metric("partition.rebuild_s_t1", t1, "s"),
        metric("partition.rebuild_speedup_t2", t1 / t2, "x"),
        metric(
            "trace.overhead_pct",
            (traced.mean_us / untraced.mean_us - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.unattributed_us_per_op",
            traced.mean_us - codec_us - busy_us(&traced),
            "us",
        ),
    ];

    let mut notes = vec![metric("partition.rebuild_s_t2", t2, "s")];
    for (layer, f) in [
        ("scheduler", &service),
        ("volume", &cached),
        ("volume_uncached", &uncached),
    ] {
        for (class, ns) in [("read", &f.read_ns), ("write", &f.write_ns)] {
            if !ns.is_empty() {
                notes.push(sampled(
                    format!("{layer}.{class}_mean_us"),
                    report::mean_us(ns),
                    "us",
                    ns.len(),
                ));
            }
        }
    }
    for (class, ns) in [("read", &service.read_ns), ("write", &service.write_ns)] {
        if !ns.is_empty() {
            let mut ns = ns.clone();
            notes.push(sampled(
                format!("scheduler.{class}_p50_us"),
                report::percentile_us(&mut ns, 0.5),
                "us",
                ns.len(),
            ));
        }
    }
    let arms = [&untraced, &traced, &service, &cached, &uncached];
    Ok(Outcome {
        metrics,
        notes,
        attempted: arms.iter().map(|f| f.attempted).sum(),
        failed: arms.iter().map(|f| f.failed).sum(),
    })
}

/// Where and how one closed-loop arm runs.
struct ArmSpec<'a> {
    dir: &'a Path,
    socket: std::path::PathBuf,
    streams: &'a [Vec<Op>],
    data_elements: usize,
    epoch: u64,
    warm: Duration,
    slice: Duration,
}

impl ArmSpec<'_> {
    /// Clients over the unix socket; `timed` also times every backend call.
    fn socket(&self, timed: bool) -> Result<Figures, String> {
        let (v, counters) = setup::reopen(self.dir, timed)?;
        let server = Server::start(v, &self.socket);
        let conns = (0..CLIENTS)
            .map(|c| Conn::open(&self.socket, &format!("c{c}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut served = Served {
            server,
            conns,
            counters,
        };
        let svc = Arc::clone(&served.server.svc);
        let counters = Arc::clone(&served.counters);
        let snap = || {
            let s = svc.stats();
            (LedgerSnap::of(&s.ledger), counters.snapshot(), sched(&s))
        };
        let ports = served.conns.iter_mut().map(SocketPort).collect();
        let arm = run_threads(
            ports,
            self.streams,
            self.data_elements,
            self.epoch,
            self.warm,
            self.slice,
            snap,
        )?;
        let end = snap();
        drop(served.shutdown()?);
        let what = if timed {
            "traced socket arm"
        } else {
            "socket arm"
        };
        Figures::new(
            &arm,
            end.0.since(&arm.start.0),
            end.1.since(&arm.start.1),
            sub4(end.2, arm.start.2),
            what,
        )
    }

    /// In-process sessions on the scheduler, same two threads.
    fn service(&self) -> Result<Figures, String> {
        let (v, counters) = setup::reopen(self.dir, false)?;
        let svc = Service::new(v, ServiceConfig::default());
        let snap = || {
            let s = svc.stats();
            (LedgerSnap::of(&s.ledger), counters.snapshot(), sched(&s))
        };
        let ports = (0..CLIENTS)
            .map(|c| ServicePort(svc.session(&format!("c{c}"), TenantClass::Mixed)))
            .collect();
        let arm = run_threads(
            ports,
            self.streams,
            self.data_elements,
            self.epoch,
            self.warm,
            self.slice,
            snap,
        )?;
        let end = snap();
        svc.shutdown()
            .map_err(|e| format!("service shutdown: {e}"))?;
        Figures::new(
            &arm,
            end.0.since(&arm.start.0),
            end.1.since(&arm.start.1),
            sub4(end.2, arm.start.2),
            "service arm",
        )
    }

    /// The volume on this thread, with the default stripe cache or none.
    fn direct(&self, cache: bool) -> Result<Figures, String> {
        let (mut v, counters) = setup::reopen(self.dir, cache)?;
        if cache {
            v.enable_cache(CacheConfig::default());
        }
        let snap = |v: &RaidVolume| (LedgerSnap::of(v.ledger()), counters.snapshot());
        let arm = run_direct(
            &mut v,
            self.streams,
            self.data_elements,
            self.epoch,
            self.warm,
            self.slice,
            snap,
        )?;
        let end = snap(&v);
        let what = if cache {
            "cached volume arm"
        } else {
            "uncached volume arm"
        };
        Figures::new(
            &arm,
            end.0.since(&arm.start.0),
            end.1.since(&arm.start.1),
            [0; 4],
            what,
        )
    }
}

fn sub4(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]]
}

/// Mean time per op of the protocol codec on the lines the run's op
/// streams produce: for a READ the server's `parse` and `to_hex` of the
/// data plus the client's `from_hex`; for a WRITE the client's `to_hex`
/// plus the server's `parse` (which decodes the payload).
fn codec_us_per_op(streams: &[Vec<Op>]) -> f64 {
    let mut payload = Vec::new();
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    let deadline = Instant::now() + MICRO;
    for (i, op) in streams
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.iter().map(move |op| (c, op)))
        .cycle()
    {
        if Instant::now() >= deadline && ops > 0 {
            break;
        }
        payload.resize(op.len * ELEMENT, 0);
        for (k, el) in payload.chunks_exact_mut(ELEMENT).enumerate() {
            content::fill(el, op.addr + k, content::writer_id(1, i), 1);
        }
        let (request, reply_hex) = match op.kind {
            Kind::Read => (
                format!("READ {} {}", op.addr, op.len),
                proto::to_hex(&payload),
            ),
            Kind::Write => (
                format!("WRITE {} {}", op.addr, proto::to_hex(&payload)),
                String::new(),
            ),
        };
        let start = Instant::now();
        black_box(proto::parse(black_box(&request)).is_ok());
        black_box(proto::to_hex(black_box(&payload)));
        if op.kind == Kind::Read {
            black_box(proto::from_hex(black_box(&reply_hex)).is_ok());
        }
        busy += start.elapsed();
        ops += 1;
    }
    busy.as_secs_f64() * 1e6 / ops as f64
}

/// `XorPlan::execute` throughput of the cached encode plan (data bytes
/// encoded per second) and of the optimized decode plan for the
/// disks-{0,6} loss (bytes recovered per second), plus that plan's source
/// reads. The decode is checked against the encoded stripe first.
fn xplan() -> Result<(f64, f64, usize), String> {
    let code = setup::code();
    let layout = code.layout();
    let mut stripe = Stripe::for_layout(layout, ELEMENT);
    for (k, &cell) in layout.data_cells().iter().enumerate() {
        content::fill(stripe.element_mut(cell), k, content::PREFILL, 0);
    }
    let encode = layout.encode_plan();
    encode.execute(&mut stripe);
    let lost: Vec<Cell> = FAILED_DISKS
        .iter()
        .flat_map(|&c| layout.cells_in_col(c))
        .collect();
    let plan = decoder::plan_decode(layout, &lost).map_err(|e| format!("decode plan: {e:?}"))?;
    let decode = XorPlan::compile_decode(layout, &plan).optimized();
    let whole = stripe.clone();
    for &cell in &lost {
        stripe.element_mut(cell).fill(0);
    }
    decode.execute(&mut stripe);
    if lost
        .iter()
        .any(|&cell| stripe.element(cell) != whole.element(cell))
    {
        return Err("decode plan for disks {0,6} did not restore the stripe".to_string());
    }
    let mib_per_s = |plan: &XorPlan, bytes: usize, stripe: &mut Stripe| {
        let (start, mut runs) = (Instant::now(), 0u64);
        while start.elapsed() < MICRO {
            plan.execute(black_box(&mut *stripe));
            runs += 1;
        }
        (runs * bytes as u64) as f64 / start.elapsed().as_secs_f64() / (1 << 20) as f64
    };
    let enc = mib_per_s(encode, layout.num_data_cells() * ELEMENT, &mut stripe);
    let dec = mib_per_s(&decode, lost.len() * ELEMENT, &mut stripe);
    Ok((enc, dec, decode.num_source_reads()))
}

/// `rebuild_all(1)` and `rebuild_all(2)` of the disks-{0,6} loss on the
/// volume, and the backend's busy time during the second.
fn partition(dir: &Path, w: Workload) -> Result<(f64, f64, f64), String> {
    let (mut v, counters) = setup::reopen(dir, true)?;
    let (t1, _) = timed_rebuild(&mut v, &counters, !w.degraded(), 1)?;
    let (t2, b) = timed_rebuild(&mut v, &counters, true, 2)?;
    Ok((t1, t2, b.busy_ns as f64 / 1e9))
}
