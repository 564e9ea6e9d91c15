//! Closed-loop clients and the ports they drive: the unix socket, an
//! in-process `ServiceHandle`, or the `RaidVolume` directly.
//!
//! Each client replays its seeded op stream at queue depth 1 and checks
//! every read against what it knows was written (see [`Client::admit`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use raid_array::RaidVolume;
use raid_service::{proto, ServiceHandle};

use crate::content::{self, Header};
use crate::report;
use crate::setup::Conn;
use crate::workload::{Kind, Op, CLIENTS, ELEMENT};

/// `Ok(Err(msg))` is an op the system refused or failed (counted, the run
/// goes on); `Err(msg)` is a broken transport (the run fails).
pub type Reply<T> = Result<Result<T, String>, String>;

pub trait Port {
    fn read(&mut self, addr: usize, len: usize) -> Reply<Vec<u8>>;
    fn write(&mut self, addr: usize, data: &[u8]) -> Reply<()>;
    fn flush(&mut self) -> Result<(), String>;
}

/// The line protocol over a unix socket, hex payloads and all.
pub struct SocketPort<'a>(pub &'a mut Conn);

impl Port for SocketPort<'_> {
    fn read(&mut self, addr: usize, len: usize) -> Reply<Vec<u8>> {
        let reply = self.0.call(&format!("READ {addr} {len}\n"))?;
        match reply.strip_prefix("OK data ") {
            Some(hex) => proto::from_hex(hex)
                .map(Ok)
                .map_err(|e| format!("READ reply: {e}")),
            None => refused(reply),
        }
    }

    fn write(&mut self, addr: usize, data: &[u8]) -> Reply<()> {
        let hex = proto::to_hex(data);
        let mut line = String::with_capacity(hex.len() + 32);
        line.push_str(&format!("WRITE {addr} "));
        line.push_str(&hex);
        line.push('\n');
        let reply = self.0.call(&line)?;
        match reply.strip_prefix("OK wrote ") {
            Some(n) if n == (data.len() / ELEMENT).to_string() => Ok(Ok(())),
            _ => refused(reply),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.expect("FLUSH\n", "OK flushed")
    }
}

fn refused<T>(reply: &str) -> Reply<T> {
    if reply.starts_with("ERR ") {
        Ok(Err(reply.to_string()))
    } else {
        Err(format!("unexpected reply {reply:?}"))
    }
}

/// The in-process scheduler, skipping the socket and the protocol.
pub struct ServicePort(pub ServiceHandle);

impl Port for ServicePort {
    fn read(&mut self, addr: usize, len: usize) -> Reply<Vec<u8>> {
        Ok(self.0.read(addr, len).map_err(|e| e.to_string()))
    }

    fn write(&mut self, addr: usize, data: &[u8]) -> Reply<()> {
        Ok(self
            .0
            .write(addr, data)
            .map(drop)
            .map_err(|e| e.to_string()))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.flush().map_err(|e| format!("FLUSH: {e}"))
    }
}

/// The volume itself, cached or not, on the calling thread.
pub struct VolumePort<'a>(pub &'a mut RaidVolume);

impl Port for VolumePort<'_> {
    fn read(&mut self, addr: usize, len: usize) -> Reply<Vec<u8>> {
        Ok(self
            .0
            .read(addr, len)
            .map(|(bytes, _)| bytes)
            .map_err(|e| e.to_string()))
    }

    fn write(&mut self, addr: usize, data: &[u8]) -> Reply<()> {
        Ok(self
            .0
            .write(addr, data)
            .map(drop)
            .map_err(|e| e.to_string()))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.flush().map(drop).map_err(|e| format!("flush: {e}"))
    }
}

/// Length of the intervals `cpu_us_per_op` is sampled over.
pub const CPU_INTERVAL: Duration = Duration::from_secs(1);

/// Samples added to a client's buffer at a time.
const SAMPLE_STEP: usize = 16 * 1024;

/// `mine[e]` after a failed write: the element may hold either value.
pub const UNKNOWN: u64 = u64::MAX;

/// One completed op of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, in microseconds since the arm's base instant.
    pub done_us: u32,
    /// Latency in nanoseconds (saturating at about 4.3 s).
    pub ns: u32,
    pub kind: Kind,
}

/// What one client measured and wrote.
#[derive(Debug, Default)]
pub struct ClientStats {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Per data element: the sequence number of this client's last
    /// acknowledged write in this arm (0 = none).
    pub mine: Vec<u64>,
}

/// One closed-loop client replaying `ops` as writer `(epoch, id)`.
pub struct Client<'a> {
    id: usize,
    epoch: u64,
    writer: u64,
    ops: &'a [Op],
    next: usize,
    seq: u64,
    payload: Vec<u8>,
    recording: bool,
    base: Instant,
    /// Completed recorded ops of every client of the arm.
    completed: &'a AtomicU64,
    stats: ClientStats,
}

impl<'a> Client<'a> {
    pub fn new(
        id: usize,
        epoch: u64,
        ops: &'a [Op],
        data_elements: usize,
        base: Instant,
        completed: &'a AtomicU64,
    ) -> Client<'a> {
        Client {
            id,
            epoch,
            writer: content::writer_id(epoch, id),
            ops,
            next: 0,
            seq: 0,
            payload: Vec::new(),
            recording: false,
            base,
            completed,
            stats: ClientStats {
                mine: vec![0; data_elements],
                ..ClientStats::default()
            },
        }
    }

    /// Issues the next op of the stream and waits for its reply.
    fn step(&mut self, port: &mut impl Port, progress: &[AtomicU64]) -> Result<(), String> {
        let op = self.ops[self.next % self.ops.len()];
        self.next += 1;
        let (ok, ns) = match op.kind {
            Kind::Read => {
                let start = Instant::now();
                let reply = port.read(op.addr, op.len)?;
                let ns = start.elapsed().as_nanos() as u64;
                match reply {
                    Ok(bytes) => {
                        self.check_read(op, &bytes, progress)?;
                        (Ok(()), ns)
                    }
                    Err(e) => (Err(e), ns),
                }
            }
            Kind::Write => {
                self.seq += 1;
                progress[self.id].store(self.seq, Ordering::SeqCst);
                self.payload.resize(op.len * ELEMENT, 0);
                for (i, el) in self.payload.chunks_exact_mut(ELEMENT).enumerate() {
                    content::fill(el, op.addr + i, self.writer, self.seq);
                }
                let start = Instant::now();
                let reply = port.write(op.addr, &self.payload)?;
                let ns = start.elapsed().as_nanos() as u64;
                let stamp = if reply.is_ok() { self.seq } else { UNKNOWN };
                self.stats.mine[op.addr..op.addr + op.len].fill(stamp);
                (reply, ns)
            }
        };
        if !self.recording {
            return Ok(());
        }
        self.stats.attempted += 1;
        match ok {
            Ok(()) => {
                // Grow by a fixed step, not by doubling, so the memory the
                // samples take (part of peak RSS) tracks the op count.
                if self.stats.samples.len() == self.stats.samples.capacity() {
                    self.stats.samples.reserve_exact(SAMPLE_STEP);
                }
                self.completed.fetch_add(1, Ordering::Relaxed);
                let done_us = micros(self.base.elapsed());
                let ns = u32::try_from(ns).unwrap_or(u32::MAX);
                self.stats.samples.push(Sample {
                    done_us,
                    ns,
                    kind: op.kind,
                });
            }
            Err(e) => {
                if self.stats.failed == 0 {
                    eprintln!("client {}: first failed op {op:?}: {e}", self.id);
                }
                self.stats.failed += 1;
            }
        }
        Ok(())
    }

    fn check_read(&self, op: Op, bytes: &[u8], progress: &[AtomicU64]) -> Result<(), String> {
        if bytes.len() != op.len * ELEMENT {
            return Err(format!(
                "READ {} {} returned {} bytes",
                op.addr,
                op.len,
                bytes.len()
            ));
        }
        for (i, el) in bytes.chunks_exact(ELEMENT).enumerate() {
            let e = op.addr + i;
            let h = content::check(el, e)?;
            self.admit(e, h, progress)
                .map_err(|why| format!("client {} read element {e} as {h:?}: {why}", self.id))?;
        }
        Ok(())
    }

    /// Whether a read of element `e` may return `h`: this client's own
    /// last acknowledged write to `e` exactly; another client's write of
    /// this arm it has already issued; or — only if this client has not
    /// written `e` in this arm — the prefill or a write of an earlier arm.
    fn admit(&self, e: usize, h: Header, progress: &[AtomicU64]) -> Result<(), &'static str> {
        let mine = self.stats.mine[e];
        if mine == UNKNOWN {
            return Ok(());
        }
        match content::split_writer(h.writer) {
            None if h.writer == content::PREFILL && h.seq == 0 => {
                if mine == 0 {
                    Ok(())
                } else {
                    Err("prefill after this client's write")
                }
            }
            Some((epoch, c)) if epoch == self.epoch && c == self.id => {
                if h.seq == mine {
                    Ok(())
                } else {
                    Err("not this client's last write")
                }
            }
            Some((epoch, c)) if epoch == self.epoch && c < CLIENTS => {
                let issued = progress[c].load(Ordering::SeqCst);
                if (1..=issued).contains(&h.seq) {
                    Ok(())
                } else {
                    Err("a write not yet issued")
                }
            }
            Some((epoch, c)) if epoch < self.epoch && c < CLIENTS => {
                if mine == 0 {
                    Ok(())
                } else {
                    Err("older data after this client's write")
                }
            }
            _ => Err("unknown writer"),
        }
    }

    fn run_for(
        &mut self,
        port: &mut impl Port,
        d: Duration,
        progress: &[AtomicU64],
    ) -> Result<(), String> {
        let deadline = Instant::now() + d;
        while Instant::now() < deadline {
            self.step(port, progress)?;
        }
        Ok(())
    }
}

/// A consecutive run of completed ops within a measured window.
pub struct Slice {
    pub ops_per_s: f64,
    /// Latencies in nanoseconds.
    pub ns: Vec<u64>,
}

/// A finished closed-loop arm.
#[derive(Debug)]
pub struct Arm<T> {
    pub clients: Vec<ClientStats>,
    /// From the start of the measured window to the last client's final
    /// `FLUSH` returning.
    pub window_s: f64,
    /// What `at_start` returned at the start of the measured window.
    pub start: T,
    /// When the measured window started, in microseconds since the
    /// instant sample completion times count from.
    pub t0_us: u32,
    /// Service CPU time per completed op, in microseconds, over each full
    /// [`CPU_INTERVAL`] of the window: the process's CPU minus the client
    /// threads' and the sampling main thread's. Empty for [`run_direct`].
    pub cpu_us_per_op: Vec<f64>,
    /// The same over the whole window, in seconds.
    pub cpu_s: f64,
}

impl<T> Arm<T> {
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted - c.failed).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.window_s
    }

    /// Latencies of completed ops, reads and writes together.
    pub fn all_ns(&self) -> Vec<u64> {
        self.ns_where(|_| true)
    }

    pub fn read_ns(&self) -> Vec<u64> {
        self.ns_where(|s| s.kind == Kind::Read)
    }

    pub fn write_ns(&self) -> Vec<u64> {
        self.ns_where(|s| s.kind == Kind::Write)
    }

    fn ns_where(&self, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
        self.clients
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| keep(s))
            .map(|s| u64::from(s.ns))
            .collect()
    }

    /// The measured window cut, in completion order, into consecutive
    /// slices of `per_slice` ops (at most `max_slices`, at least one; the
    /// last slice takes the remainder): each slice's rate in ops per
    /// second and its latencies.
    pub fn slices(&self, per_slice: usize, max_slices: usize) -> Vec<Slice> {
        let mut done: Vec<&Sample> = self.clients.iter().flat_map(|c| &c.samples).collect();
        done.sort_by_key(|s| s.done_us);
        let k = (done.len() / per_slice).clamp(1, max_slices);
        let per = done.len() / k;
        let mut from = self.t0_us;
        (0..k)
            .map(|i| {
                let chunk = if i + 1 == k {
                    &done[i * per..]
                } else {
                    &done[i * per..(i + 1) * per]
                };
                let until = chunk.last().map_or(from, |s| s.done_us);
                let secs = (f64::from(until.saturating_sub(from)) / 1e6).max(f64::MIN_POSITIVE);
                from = until;
                Slice {
                    ops_per_s: chunk.len() as f64 / secs,
                    ns: chunk.iter().map(|s| u64::from(s.ns)).collect(),
                }
            })
            .collect()
    }
}

/// Runs one client thread per port: a warm-up of `warm` ending in a
/// `FLUSH`, then `at_start` on the calling thread while every client
/// waits, then the measured window of `measure`, each client ending it
/// with a `FLUSH`.
pub fn run_threads<P: Port + Send, T>(
    ports: Vec<P>,
    streams: &[Vec<Op>],
    data_elements: usize,
    epoch: u64,
    warm: Duration,
    measure: Duration,
    at_start: impl FnOnce() -> T,
) -> Result<Arm<T>, String> {
    let n = ports.len();
    let progress: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(n + 1);
    let (completed, finished) = (AtomicU64::new(0), AtomicUsize::new(0));
    let client_cpu: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let base = Instant::now();
    thread::scope(|s| {
        let handles: Vec<_> = ports
            .into_iter()
            .enumerate()
            .map(|(id, mut port)| {
                let (progress, barrier, completed) = (&progress, &barrier, &completed);
                let (finished, client_cpu) = (&finished, &client_cpu);
                s.spawn(move || -> Result<(ClientStats, Instant), String> {
                    let mut client =
                        Client::new(id, epoch, &streams[id], data_elements, base, completed);
                    let schedstat = report::thread_schedstat();
                    if let Ok(path) = &schedstat {
                        client_cpu
                            .lock()
                            .expect("client list poisoned")
                            .push(path.clone());
                    }
                    barrier.wait();
                    let warmed = schedstat.and_then(|_| {
                        client.run_for(&mut port, warm, progress)?;
                        port.flush()
                    });
                    barrier.wait();
                    barrier.wait();
                    let measured = warmed.and_then(|()| {
                        client.recording = true;
                        client.run_for(&mut port, measure, progress)?;
                        port.flush()
                    });
                    let done = Instant::now();
                    // Stay alive (and idle) until the last CPU sample: an
                    // exited thread's CPU can no longer be told apart.
                    finished.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    measured.map(|()| (client.stats, done))
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let start = at_start();
        barrier.wait();
        let t0 = Instant::now();
        let paths = client_cpu.lock().expect("client list poisoned").clone();
        let service_cpu = || -> Result<(f64, u64), String> {
            let mut others = report::thread_cpu_s()?;
            for p in &paths {
                others += report::schedstat_s(p)?;
            }
            Ok((
                report::process_cpu_s()? - others,
                completed.load(Ordering::Relaxed),
            ))
        };
        let sampled = (|| -> Result<_, String> {
            let first = service_cpu()?;
            let (mut last, mut at) = (first, Instant::now());
            let mut per_op = Vec::new();
            while finished.load(Ordering::SeqCst) < n {
                thread::sleep(Duration::from_millis(20));
                if at.elapsed() >= CPU_INTERVAL {
                    let now = service_cpu()?;
                    if now.1 > last.1 {
                        per_op.push((now.0 - last.0) * 1e6 / (now.1 - last.1) as f64);
                    }
                    (last, at) = (now, Instant::now());
                }
            }
            Ok((per_op, service_cpu()?.0 - first.0))
        })();
        barrier.wait();
        let mut clients = Vec::new();
        let mut end = t0;
        for h in handles {
            let (stats, done) = h
                .join()
                .map_err(|_| "client thread panicked".to_string())??;
            clients.push(stats);
            end = end.max(done);
        }
        let (cpu_us_per_op, cpu_s) = sampled?;
        Ok(Arm {
            clients,
            window_s: (end - t0).as_secs_f64(),
            start,
            t0_us: micros(t0 - base),
            cpu_us_per_op,
            cpu_s,
        })
    })
}

/// The same clients on the calling thread against the volume itself,
/// their ops interleaved one by one.
pub fn run_direct<T>(
    volume: &mut RaidVolume,
    streams: &[Vec<Op>],
    data_elements: usize,
    epoch: u64,
    warm: Duration,
    measure: Duration,
    at_start: impl FnOnce(&RaidVolume) -> T,
) -> Result<Arm<T>, String> {
    let progress: Vec<AtomicU64> = streams.iter().map(|_| AtomicU64::new(0)).collect();
    let cpu0 = report::thread_cpu_s()?;
    let (base, completed) = (Instant::now(), AtomicU64::new(0));
    let mut clients: Vec<Client> = (0..streams.len())
        .map(|id| Client::new(id, epoch, &streams[id], data_elements, base, &completed))
        .collect();
    interleave(&mut clients, volume, warm, &progress)?;
    let start = at_start(volume);
    let t0 = Instant::now();
    for c in &mut clients {
        c.recording = true;
    }
    interleave(&mut clients, volume, measure, &progress)?;
    let window_s = t0.elapsed().as_secs_f64();
    let cpu_s = report::thread_cpu_s()? - cpu0;
    let t0_us = micros(t0 - base);
    let cpu_us_per_op = Vec::new();
    Ok(Arm {
        clients: clients.into_iter().map(|c| c.stats).collect(),
        window_s,
        start,
        t0_us,
        cpu_us_per_op,
        cpu_s,
    })
}

/// Round-robins single ops across `clients` for `d`, then flushes.
fn interleave(
    clients: &mut [Client],
    volume: &mut RaidVolume,
    d: Duration,
    progress: &[AtomicU64],
) -> Result<(), String> {
    let mut port = VolumePort(volume);
    let deadline = Instant::now() + d;
    let mut i = 0;
    while Instant::now() < deadline {
        clients[i % clients.len()].step(&mut port, progress)?;
        i += 1;
    }
    port.flush()
}

fn micros(d: Duration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}
