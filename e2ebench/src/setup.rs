//! Building the file-backed volume (as `hvraid serve --dir` does),
//! reopening it, and bringing the unix-socket server up.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hv_code::HvCode;
use raid_array::{DiskBackend, FileBackend, RaidVolume, VolumeMeta};
use raid_core::{ArrayCode, Cell, Stripe};
use raid_service::{serve, ServerConfig, Service, ServiceConfig};

use crate::backend::{Counters, TimedBackend};
use crate::content;
use crate::workload::{Workload, ELEMENT, FAILED_DISKS, P, WORKERS};

pub fn code() -> Arc<dyn ArrayCode> {
    Arc::new(HvCode::new(P).expect("HV Code is defined for p = 13"))
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn volume(&self) -> PathBuf {
        self.0.join("volume")
    }

    pub fn socket(&self) -> PathBuf {
        self.0.join("hv.sock")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Creates the volume the way `hvraid serve --dir` does, prefills every
/// stripe with self-describing prefill elements and consistent parity,
/// and fails [`FAILED_DISKS`] for a degraded workload.
pub fn create(dir: &Path, w: Workload) -> Result<(RaidVolume, Arc<Counters>), String> {
    let code = code();
    let layout = code.layout();
    let stripes = w.stripes();
    let err = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut backend =
        FileBackend::create(dir, layout.cols(), stripes * layout.rows(), ELEMENT).map_err(err)?;
    VolumeMeta {
        code: "hv".to_string(),
        p: P,
        stripes,
        element_size: ELEMENT,
        rotate: false,
        rebuild_checkpoint: None,
    }
    .save(dir)
    .map_err(err)?;

    let per = layout.num_data_cells();
    let mut stripe = Stripe::for_layout(layout, ELEMENT);
    for s in 0..stripes {
        for (k, &cell) in layout.data_cells().iter().enumerate() {
            content::fill(stripe.element_mut(cell), s * per + k, content::PREFILL, 0);
        }
        layout.encode_plan().execute(&mut stripe);
        for row in 0..layout.rows() {
            for col in 0..layout.cols() {
                let cell = Cell::new(row, col);
                backend
                    .write(col, s * layout.rows() + row, stripe.element(cell))
                    .map_err(|e| format!("prefill stripe {s}: {e}"))?;
            }
        }
    }

    sync_dir(dir)?;
    let (backend, counters) = TimedBackend::new(backend, false);
    let mut volume = RaidVolume::new(Arc::clone(&code), stripes, ELEMENT, Box::new(backend))
        .map_err(|e| format!("volume: {e}"))?;
    if w.degraded() {
        for d in FAILED_DISKS {
            volume
                .fail_disk(d)
                .map_err(|e| format!("fail disk {d}: {e}"))?;
        }
    }
    Ok((volume, counters))
}

/// Makes every file in `dir` durable, so the prefill is on disk before the
/// volume serves and no write-back of it overlaps the measured window.
fn sync_dir(dir: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("sync {}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        if path.is_file() {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(err)?;
        }
    }
    std::fs::File::open(dir)
        .and_then(|f| f.sync_all())
        .map_err(err)
}

/// Reopens the volume in `dir` over a wrapper that times its calls when
/// `timed`.
pub fn reopen(dir: &Path, timed: bool) -> Result<(RaidVolume, Arc<Counters>), String> {
    let meta = VolumeMeta::load(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let inner = FileBackend::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (backend, counters) = TimedBackend::new(inner, timed);
    let volume = RaidVolume::open(code(), Box::new(backend), meta.rotate)
        .map_err(|e| format!("reopen: {e}"))?;
    Ok((volume, counters))
}

/// A running `raid_service::serve` with its default scheduler config.
pub struct Server {
    pub svc: Arc<Service>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    pub fn start(volume: RaidVolume, socket: &Path) -> Server {
        let svc = Service::new(volume, ServiceConfig::default());
        let cfg = ServerConfig {
            socket: socket.to_path_buf(),
            workers: WORKERS,
        };
        let thread = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || serve(&svc, &cfg))
        };
        Server { svc, thread }
    }

    /// Waits for `serve` to return after a client sent `SHUTDOWN`.
    pub fn join(self) -> Result<Arc<Service>, String> {
        match self.thread.join() {
            Ok(Ok(())) => Ok(self.svc),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("serve panicked".to_string()),
        }
    }
}

/// How long a client polls for a reply before blocking.
const SPIN: Duration = Duration::from_micros(300);

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Conn {
    /// Connects (retrying while the server binds) and opens a session.
    pub fn open(socket: &Path, tenant: &str) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("connect {}: {e}", socket.display()))
                }
                Err(_) => thread::sleep(Duration::from_micros(200)),
            }
        };
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        let mut conn = Conn {
            reader,
            writer: stream,
            reply: String::new(),
        };
        let hello = conn.call(&format!("HELLO {tenant} mixed\n"))?;
        if !hello.starts_with("OK session") {
            return Err(format!("HELLO -> {hello}"));
        }
        Ok(conn)
    }

    /// Sends one request line (newline included) and returns the reply
    /// line without its newline. The client polls for the reply for up to
    /// [`SPIN`] before it blocks: a vCPU that goes idle between a request
    /// and its reply makes every wake-up pay the hypervisor's latency.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        let mode = |s: &UnixStream, nonblocking: bool| {
            s.set_nonblocking(nonblocking)
                .map_err(|e| format!("socket mode: {e}"))
        };
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        mode(&self.writer, true)?;
        let spin_until = Instant::now() + SPIN;
        let got = loop {
            match self.reader.read_line(&mut self.reply) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && Instant::now() < spin_until =>
                {
                    thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    mode(&self.writer, false)?;
                    break self.reader.read_line(&mut self.reply);
                }
                other => break other,
            }
        };
        mode(&self.writer, false)?;
        match got {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends a request whose only acceptable reply is `expect`.
    pub fn expect(&mut self, line: &str, expect: &str) -> Result<(), String> {
        let reply = self.call(line)?;
        if reply != expect {
            return Err(format!("{} -> {reply}", line.trim_end()));
        }
        Ok(())
    }
}

/// A served volume ready for load: the server and one open session per
/// client.
pub struct Served {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub counters: Arc<Counters>,
}

impl Served {
    /// Closes every session, shuts the server down through the first one
    /// and waits for `serve` to return.
    pub fn shutdown(mut self) -> Result<Arc<Service>, String> {
        let mut conns = self.conns.drain(..);
        let first = conns.next().expect("at least one client");
        for mut c in conns {
            c.expect("QUIT\n", "OK bye")?;
        }
        let mut first = first;
        first.expect("SHUTDOWN\n", "OK shutdown")?;
        self.server.join()
    }
}

/// Volume create + prefill + disk failures + server up, until the first
/// `HELLO` is answered; returns the served volume and that set-up time.
pub fn bring_up(
    dir: &Path,
    socket: &Path,
    w: Workload,
    clients: usize,
) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let (volume, counters) = create(dir, w)?;
    let server = Server::start(volume, socket);
    let first = Conn::open(socket, "c0")?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut conns = vec![first];
    for c in 1..clients {
        conns.push(Conn::open(socket, &format!("c{c}"))?);
    }
    Ok((
        Served {
            server,
            conns,
            counters,
        },
        setup_s,
    ))
}
