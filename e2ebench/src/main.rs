//! End-to-end benchmark of the HV Code block service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <hot_mixed|uniform_write|degraded_read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives a file-backed HV p=13 volume through
//! `raid_service::serve` over its unix socket with two closed-loop
//! clients and reports the end-to-end figures; `--trace 1` replays the
//! same op streams at each layer boundary and reports the per-layer
//! figures. Every read is checked, the volume is verified after the run,
//! and any mismatch exits non-zero without a result. The last line of
//! standard output is the JSON result; METRICS.md describes each figure.

mod arms;
mod backend;
mod content;
mod layers;
mod report;
mod setup;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raid_array::RaidVolume;

use crate::arms::{run_threads, Arm, Slice, SocketPort, UNKNOWN};
use crate::backend::{Counters, Snapshot};
use crate::report::{json_object, json_string, metric, sampled, Metric};
use crate::setup::WorkDir;
use crate::workload::{stream_hash, Op, Workload, CLIENTS, ELEMENT, FAILED_DISKS, P, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed double-failure rebuilds per run (at least [`MIN_REPEATS`], more
/// while the rebuilds so far took under this); `rebuild_s` is their
/// median.
const REBUILD_BUDGET: Duration = Duration::from_secs(3);
const MIN_REPEATS: usize = 5;
const MAX_REPEATS: usize = 50;
/// Unrecorded warm-up before the measured window.
const WARM: Duration = Duration::from_secs(2);
/// Ops per slice of the measured window; ops/s, p50 and p99 are medians
/// over the slices (a p99 over 1000 ops has 10 beyond it).
const SLICE_OPS: usize = 1000;
const MAX_SLICES: usize = 30;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <hot_mixed|uniform_write|degraded_read> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(if s > 0.0 && s <= 120.0 {
                    s
                } else {
                    return Err(bad());
                });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run measured, ready to print.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed only: figures that are not in the result line.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn run(a: &Args) -> Result<String, String> {
    let work = WorkDir::new(a.workload.name())?;
    let data_elements = a.workload.stripes() * setup::code().layout().num_data_cells();
    let streams = a.workload.streams(a.seed, data_elements);
    let hash = stream_hash(&streams);
    if hash != stream_hash(&a.workload.streams(a.seed, data_elements)) {
        return Err("the op streams are not a function of the seed".to_string());
    }
    let outcome = if a.trace {
        layers::run(a.workload, &work, &streams, data_elements, a.seconds)?
    } else {
        end_to_end(a.workload, &work, &streams, data_elements, a.seconds)?
    };
    drop(work);

    let samples: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .chain(&outcome.notes)
        .filter_map(|m| m.samples.map(|n| (m.name.as_str(), n.to_string())))
        .collect();
    let record = json_object(&[
        ("workload", json_string(a.workload.name())),
        ("seed", a.seed.to_string()),
        ("stream_hash", json_string(&format!("{hash:016x}"))),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        (
            "xor_backend",
            json_string(raid_math::xor::active_backend().name()),
        ),
        ("code", json_string(&format!("hv p={P}"))),
        ("element_size", ELEMENT.to_string()),
        ("stripes", a.workload.stripes().to_string()),
        ("clients", CLIENTS.to_string()),
        ("workers", WORKERS.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", u8::from(a.trace).to_string()),
        ("samples", json_object(&samples)),
    ]);
    println!("record {record}");
    report::print_lines("metric", &outcome.metrics);
    report::print_lines("note", &outcome.notes);
    report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
}

/// The end-to-end run: set up several times, drive the last set-up over
/// the socket, time several double-failure rebuilds inside the service,
/// shut down, and verify the reopened volume.
fn end_to_end(
    w: Workload,
    work: &WorkDir,
    streams: &[Vec<Op>],
    data_elements: usize,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut served = None;
    while setup_s.len() < SETUPS {
        if let Some(prev) = served.take() {
            drop(setup::Served::shutdown(prev)?);
        }
        let (s, t) = setup::bring_up(&work.volume(), &work.socket(), w, CLIENTS)?;
        setup_s.push(t);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let svc = Arc::clone(&served.server.svc);
    let counters = Arc::clone(&served.counters);

    let ports = served.conns.iter_mut().map(SocketPort).collect();
    let arm = run_threads(
        ports,
        streams,
        data_elements,
        1,
        WARM,
        Duration::from_secs_f64(seconds),
        || (svc.stats().ledger.total(), counters.snapshot()),
    )?;
    let ledger = svc.stats().ledger.total() - arm.start.0;
    counters
        .snapshot()
        .since(&arm.start.1)
        .cross_check(ledger, "socket window")?;

    let mut rebuild_s: Vec<f64> = Vec::new();
    while repeat_again(&rebuild_s, REBUILD_BUDGET) {
        let fail = !rebuild_s.is_empty() || !w.degraded();
        let (secs, _) = svc.with_volume(|v| timed_rebuild(v, &counters, fail, 2))?;
        rebuild_s.push(secs);
    }
    drop(svc);
    drop(served.shutdown()?);
    let mine: Vec<Vec<u64>> = arm.clients.iter().map(|c| c.mine.clone()).collect();
    final_check(&work.volume(), Some(&mine), 1)?;

    let rebuilds = rebuild_s.len();
    let completed = arm.completed();
    if (completed as usize) < SLICE_OPS {
        return Err(format!(
            "{completed} ops completed in the measured window, fewer than {SLICE_OPS}"
        ));
    }
    let mut slices = arm.slices(SLICE_OPS, MAX_SLICES);
    let mut of_slices = |f: &dyn Fn(&mut Slice) -> f64| {
        report::median(&mut slices.iter_mut().map(f).collect::<Vec<_>>())
    };
    let n = completed as usize;
    let metrics = vec![
        sampled("setup_s", report::median(&mut setup_s), "s", SETUPS),
        sampled("cpu_us_per_op", cpu_us_per_op(&arm), "us", n),
        sampled(
            "backend_io_per_op",
            report::ratio(ledger as f64, completed as f64),
            "io/op",
            n,
        ),
        sampled("rebuild_s", report::median(&mut rebuild_s), "s", rebuilds),
        metric("peak_rss_mib", report::peak_rss_mib()?, "MiB"),
    ];
    let mut notes = vec![
        metric("ops_per_s", of_slices(&|s| s.ops_per_s), "1/s"),
        sampled(
            "p50_us",
            of_slices(&|s| report::percentile_us(&mut s.ns, 0.50)),
            "us",
            n,
        ),
        sampled(
            "p99_us",
            of_slices(&|s| report::percentile_us(&mut s.ns, 0.99)),
            "us",
            n,
        ),
        metric("slices", slices.len() as f64, "count"),
    ];
    notes.append(&mut report::latency(
        ["read_p50_us", "read_p99_us"],
        &mut arm.read_ns(),
    )?);
    notes.append(&mut report::latency(
        ["write_p50_us", "write_p99_us"],
        &mut arm.write_ns(),
    )?);
    notes.push(sampled(
        "failed_op_frac",
        report::ratio(arm.failed() as f64, arm.attempted() as f64),
        "fraction",
        arm.attempted() as usize,
    ));
    Ok(Outcome {
        metrics,
        notes,
        attempted: arm.attempted(),
        failed: arm.failed(),
    })
}

/// The median of the arm's per-interval service CPU per op, or the whole
/// window's figure when the window holds fewer than three intervals.
fn cpu_us_per_op<T>(arm: &Arm<T>) -> f64 {
    if arm.cpu_us_per_op.len() >= 3 {
        report::median(&mut arm.cpu_us_per_op.clone())
    } else {
        arm.cpu_s * 1e6 / arm.completed() as f64
    }
}

/// Whether to time another repetition after `done` (seconds each).
fn repeat_again(done: &[f64], budget: Duration) -> bool {
    done.len() < MIN_REPEATS
        || (done.len() < MAX_REPEATS && done.iter().sum::<f64>() < budget.as_secs_f64())
}

/// Fails [`FAILED_DISKS`] (unless `fail` is false: they already are),
/// times `rebuild_all(threads)`, cross-checks the wrapper against the
/// ledger over the rebuild and verifies every stripe's parity.
pub fn timed_rebuild(
    v: &mut RaidVolume,
    counters: &Counters,
    fail: bool,
    threads: usize,
) -> Result<(f64, Snapshot), String> {
    if fail {
        for d in FAILED_DISKS {
            v.fail_disk(d).map_err(|e| format!("fail disk {d}: {e}"))?;
        }
    }
    let (l0, b0) = (v.ledger().total(), counters.snapshot());
    let start = Instant::now();
    v.rebuild_all(threads)
        .map_err(|e| format!("rebuild_all({threads}): {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let b = counters.snapshot().since(&b0);
    b.cross_check(v.ledger().total() - l0, "rebuild")?;
    if !v.failed_disks().is_empty() || !v.verify_all() {
        return Err(format!("volume not whole after rebuild_all({threads})"));
    }
    Ok((secs, b))
}

/// Reopens the volume after shutdown, verifies every stripe's parity, and
/// checks every data element. With `expect` (each client's last
/// acknowledged write per element in arm `epoch`) an element must hold
/// exactly one of those writes, or the prefill if no client wrote it;
/// without, it must hold the prefill or a write of an arm up to `epoch`.
pub fn final_check(dir: &Path, expect: Option<&[Vec<u64>]>, epoch: u64) -> Result<(), String> {
    let (mut v, _) = setup::reopen(dir, false)?;
    if !v.failed_disks().is_empty() {
        return Err(format!(
            "disks {:?} still failed after reopen",
            v.failed_disks()
        ));
    }
    if !v.verify_all() {
        return Err("parity inconsistent after reopen".to_string());
    }
    let per = v.addressing().data_per_stripe();
    for s in 0..v.stripes() {
        let (bytes, _) = v
            .read(s * per, per)
            .map_err(|e| format!("read stripe {s}: {e}"))?;
        for (i, el) in bytes.chunks_exact(ELEMENT).enumerate() {
            let e = s * per + i;
            let h = content::check(el, e)?;
            let ok = match (expect, content::split_writer(h.writer)) {
                (Some(mine), _) if mine.iter().any(|m| m[e] == UNKNOWN) => true,
                (Some(mine), None) => {
                    h.writer == content::PREFILL && h.seq == 0 && mine.iter().all(|m| m[e] == 0)
                }
                (Some(mine), Some((ep, c))) => ep == epoch && c < mine.len() && mine[c][e] == h.seq,
                (None, None) => h.writer == content::PREFILL && h.seq == 0,
                (None, Some((ep, c))) => ep <= epoch && c < CLIENTS && h.seq > 0,
            };
            if !ok {
                return Err(format!(
                    "element {e} ended as {h:?}, which no acknowledged write explains"
                ));
            }
        }
    }
    Ok(())
}
