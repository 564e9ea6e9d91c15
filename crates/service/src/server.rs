//! The unix-socket front door: one acceptor thread plus a fixed worker
//! pool, all feeding the in-process [`Service`] scheduler.
//!
//! The repo is offline (no tokio); concurrency is plain threads in the
//! shape the rest of the workspace uses. The acceptor pushes accepted
//! streams onto an [`mpsc`] channel; each worker serves one connection at
//! a time to completion (line in, line out — see [`crate::proto`]).
//! `SHUTDOWN` from any client flags the server, force-closes every other
//! live connection (workers blocked reading an idle client observe EOF
//! instead of pinning the server open), wakes the acceptor with a
//! self-connection, drains the scheduler, flushes the volume, and joins
//! every thread before [`serve`] returns — the clean-shutdown contract
//! the serve-smoke gate asserts with a post-mortem `fsck`. Each
//! connection's scheduler session is closed when the connection ends, so
//! churning clients (stats scrapes included) don't accrete scheduler
//! state.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use crate::metrics::prometheus_text;
use crate::proto::{self, Request};
use crate::scheduler::{Service, ServiceHandle};
use std::io;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the unix socket to bind (an existing file is replaced).
    pub socket: PathBuf,
    /// Connection-serving worker threads.
    pub workers: usize,
}

impl ServerConfig {
    /// A server on `socket` with 4 workers.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig { socket: socket.into(), workers: 4 }
    }
}

/// Binds the socket and serves clients until one sends `SHUTDOWN`.
///
/// Blocks the calling thread. On return the scheduler is drained, the
/// volume flushed, all threads joined, and the socket file removed.
///
/// # Errors
///
/// Propagates socket bind/IO errors; per-connection errors only end that
/// connection.
pub fn serve(svc: &Arc<Service>, cfg: &ServerConfig) -> io::Result<()> {
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ConnRegistry::new());
    let (tx, rx) = mpsc::channel::<UnixStream>();
    let rx = Arc::new(Mutex::new(rx));

    thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let svc = Arc::clone(svc);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let socket = cfg.socket.clone();
            scope.spawn(move || loop {
                let next = rx.lock().expect("worker channel poisoned").recv();
                match next {
                    Ok(stream) => {
                        // Once stopping, backlogged connections are
                        // dropped unserved instead of blocking a worker.
                        let Some(id) = registry.register(&stream) else { continue };
                        let outcome = serve_connection(&svc, stream);
                        registry.deregister(id);
                        if outcome == Outcome::Shutdown {
                            registry.stop_all();
                            request_stop(&stop, &socket);
                        }
                    }
                    Err(_) => return, // acceptor gone, queue drained
                }
            });
        }
        // Acceptor: runs on the calling thread.
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(s) => {
                    if tx.send(s).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        drop(tx); // workers drain the backlog, then exit
    });

    let _ = std::fs::remove_file(&cfg.socket);
    svc.shutdown().map_err(|e| io::Error::other(e.to_string()))
}

/// Flags the acceptor and wakes it with a throwaway connection.
fn request_stop(stop: &AtomicBool, socket: &Path) {
    if !stop.swap(true, Ordering::SeqCst) {
        let _ = UnixStream::connect(socket);
    }
}

/// Live client connections, force-closable on shutdown: a worker blocked
/// reading an idle client observes EOF instead of keeping
/// [`serve`]'s thread scope from joining.
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    stopping: bool,
    next_id: u64,
    conns: Vec<(u64, UnixStream)>,
}

impl ConnRegistry {
    fn new() -> ConnRegistry {
        ConnRegistry {
            inner: Mutex::new(RegistryInner { stopping: false, next_id: 0, conns: Vec::new() }),
        }
    }

    /// Tracks `stream` and returns its registry id, or `None` once the
    /// server is stopping (or the stream can't be cloned) — the caller
    /// drops the connection unserved.
    fn register(&self, stream: &UnixStream) -> Option<u64> {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        if g.stopping {
            return None;
        }
        let clone = stream.try_clone().ok()?;
        g.next_id += 1;
        let id = g.next_id;
        g.conns.push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        g.conns.retain(|(i, _)| *i != id);
    }

    /// Marks the server stopping and shuts down every live connection
    /// so blocked readers return promptly.
    fn stop_all(&self) {
        let mut g = self.inner.lock().expect("conn registry poisoned");
        g.stopping = true;
        for (_, s) in g.conns.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Closed,
    Shutdown,
}

/// Serves one client connection to completion, closing its scheduler
/// session when the connection ends.
fn serve_connection(svc: &Arc<Service>, stream: UnixStream) -> Outcome {
    let mut session: Option<ServiceHandle> = None;
    let outcome = connection_loop(svc, stream, &mut session);
    if let Some(h) = session {
        h.close();
    }
    outcome
}

/// Room a request line needs beyond its hex payload: the verb, the
/// address and the line ending.
const LINE_HEADER_BYTES: usize = 64;

/// The longest request line the server reads: a `WRITE` of the largest
/// op admission can ever accept (hex doubles its bytes) plus its header.
/// Anything longer could never be served, so it is refused before it is
/// buffered.
fn max_line_bytes(svc: &Service) -> usize {
    svc.max_op_elements()
        .saturating_mul(svc.element_size())
        .saturating_mul(2)
        .saturating_add(LINE_HEADER_BYTES)
}

/// The line-in/line-out loop of one connection. Requests are read as
/// bytes up to [`max_line_bytes`]; an oversize line is answered with
/// `ERR bad-request` and the connection closed. Each reply is rendered
/// into one reused buffer and sent with a single `write_all`.
fn connection_loop(
    svc: &Arc<Service>,
    stream: UnixStream,
    session: &mut Option<ServiceHandle>,
) -> Outcome {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return Outcome::Closed,
    };
    let mut writer = stream;
    let cap = max_line_bytes(svc);
    let mut line = Vec::new();
    let mut out = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(cap as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return Outcome::Closed,
            Ok(_) => {}
        }
        if line.len() > cap && line.last() != Some(&b'\n') {
            let reply = format!("ERR bad-request: request line exceeds {cap} bytes\n");
            let _ = writer.write_all(reply.as_bytes());
            return Outcome::Closed;
        }
        if line.trim_ascii().is_empty() {
            continue;
        }
        out.clear();
        let end = match proto::parse_bytes(&line) {
            Err(msg) => {
                let _ = writeln!(out, "ERR bad-request: {msg}");
                None
            }
            Ok(Request::Quit) => {
                out.extend_from_slice(b"OK bye\n");
                Some(Outcome::Closed)
            }
            Ok(Request::Shutdown) => {
                out.extend_from_slice(b"OK shutdown\n");
                Some(Outcome::Shutdown)
            }
            Ok(Request::Hello { tenant, class }) => {
                // Re-HELLO replaces the session; retire the old one.
                if let Some(old) = session.take() {
                    old.close();
                }
                *session = Some(svc.session(&tenant, class));
                let _ = writeln!(
                    out,
                    "OK session {tenant} elements {} element_size {}",
                    svc.data_elements(),
                    svc.element_size()
                );
                None
            }
            Ok(req) => {
                match session.as_ref() {
                    None => out.extend_from_slice(b"ERR bad-request: HELLO first\n"),
                    Some(h) => respond(h, &req, &mut out),
                }
                None
            }
        };
        if writer.write_all(&out).is_err() {
            return Outcome::Closed;
        }
        if let Some(outcome) = end {
            return outcome;
        }
    }
}

/// Executes a post-HELLO request and appends its response line(s) to
/// `out`.
fn respond(h: &ServiceHandle, req: &Request, out: &mut Vec<u8>) {
    let result = match req {
        Request::Read { addr, len } => h.read(*addr, *len).map(|bytes| {
            out.extend_from_slice(b"OK data ");
            proto::push_hex(out, &bytes);
        }),
        Request::Write { addr, data } => {
            h.write(*addr, data).map(|elements| {
                let _ = write!(out, "OK wrote {elements}");
            })
        }
        Request::Flush => h.flush().map(|()| out.extend_from_slice(b"OK flushed")),
        Request::Stats => {
            let text = prometheus_text(&h.stats());
            let _ = write!(out, "OK stats {}", text.lines().count());
            for l in text.lines() {
                out.push(b'\n');
                out.extend_from_slice(l.as_bytes());
            }
            Ok(())
        }
        Request::Hello { .. } | Request::Quit | Request::Shutdown => {
            unreachable!("handled by the connection loop")
        }
    };
    if let Err(e) = result {
        out.extend_from_slice(proto::err_line(&e).as_bytes());
    }
    out.push(b'\n');
}

/// A scripted client for `hvraid connect` and the smoke gate: sends each
/// non-comment line of `script`, collects responses, and applies two
/// client-side directives —
///
/// * `EXPECT <hex>` asserts the previous `READ` returned exactly those
///   bytes;
/// * `# …` lines are comments.
///
/// Returns the full transcript (`> request` / `< response` interleaved).
///
/// # Errors
///
/// IO errors talking to the socket, protocol `ERR` responses, and
/// `EXPECT` mismatches all abort the script with a message.
pub fn run_script(socket: &Path, script: &str) -> Result<String, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    let mut transcript = String::new();
    let mut last_data: Option<String> = None;

    let read_line = |reader: &mut BufReader<UnixStream>| -> Result<String, String> {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(line.trim_end().to_string())
    };

    for raw in script.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(expected) = line.strip_prefix("EXPECT ") {
            let got = last_data.as_deref().unwrap_or("");
            if got != expected.trim() {
                return Err(format!("EXPECT mismatch: wanted {expected}, got {got}"));
            }
            transcript.push_str("# EXPECT ok\n");
            continue;
        }
        writeln!(writer, "{line}").map_err(|e| format!("send {line:?}: {e}"))?;
        transcript.push_str("> ");
        transcript.push_str(line);
        transcript.push('\n');
        let reply = read_line(&mut reader)?;
        transcript.push_str("< ");
        transcript.push_str(&reply);
        transcript.push('\n');
        if let Some(rest) = reply.strip_prefix("OK stats ") {
            let n: usize =
                rest.parse().map_err(|_| format!("bad stats line count {rest:?}"))?;
            for _ in 0..n {
                let metric = read_line(&mut reader)?;
                transcript.push_str(&metric);
                transcript.push('\n');
            }
        } else if let Some(hex) = reply.strip_prefix("OK data ") {
            last_data = Some(hex.to_string());
        } else if reply.starts_with("ERR") {
            return Err(format!("{line} -> {reply}"));
        }
    }
    Ok(transcript)
}

/// Connects, opens a throwaway `metrics` session, and returns the
/// Prometheus text snapshot — the transport behind `hvraid stats`.
///
/// # Errors
///
/// IO errors and protocol `ERR` responses are returned as messages.
pub fn fetch_stats(socket: &Path) -> Result<String, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    let mut exchange = |cmd: &str| -> Result<String, String> {
        writeln!(writer, "{cmd}").map_err(|e| format!("send {cmd}: {e}"))?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("read response: {e}"))?;
        let line = line.trim_end().to_string();
        if line.starts_with("ERR") || line.is_empty() {
            return Err(format!("{cmd} -> {line}"));
        }
        Ok(line)
    };
    exchange("HELLO metrics reader")?;
    let head = exchange("STATS")?;
    let n: usize = head
        .strip_prefix("OK stats ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unexpected stats header {head:?}"))?;
    let mut out = String::new();
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("read metrics: {e}"))?;
        out.push_str(&line);
    }
    let _ = writeln!(writer, "QUIT");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hv_code::HvCode;
    use raid_array::RaidVolume;
    use raid_core::ArrayCode;

    use crate::scheduler::{Service, ServiceConfig};

    use super::*;

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hvraid-test-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn socket_session_roundtrip_and_shutdown() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let volume = RaidVolume::in_memory(code, 4, 8);
        let svc = Service::new(volume, ServiceConfig::default());
        let socket = temp_socket("roundtrip");
        let cfg = ServerConfig { socket: socket.clone(), workers: 2 };

        let server = {
            let svc = Arc::clone(&svc);
            let cfg = cfg.clone();
            thread::spawn(move || serve(&svc, &cfg))
        };
        // Wait for the bind.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }

        let payload = proto::to_hex(&[0xab; 16]); // two 8-byte elements
        let script = format!(
            "HELLO smoke writer\nWRITE 2 {payload}\nREAD 2 2\nEXPECT {payload}\nFLUSH\nSTATS\nSHUTDOWN\n"
        );
        let transcript = run_script(&socket, &script).expect("script runs clean");
        assert!(transcript.contains("OK wrote 2"));
        assert!(transcript.contains("# EXPECT ok"));
        assert!(transcript.contains("hvraid_service_ops_total{tenant=\"smoke\",class=\"writer\"}"));
        server.join().unwrap().expect("clean shutdown");
        assert!(!socket.exists(), "socket file removed on shutdown");
    }

    /// SHUTDOWN must not wait on other still-connected clients: workers
    /// blocked reading an idle connection are unblocked by force-closing
    /// it, so `serve` returns promptly.
    #[test]
    fn shutdown_returns_despite_idle_connected_client() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let volume = RaidVolume::in_memory(code, 4, 8);
        let svc = Service::new(volume, ServiceConfig::default());
        let socket = temp_socket("idle-client");
        let cfg = ServerConfig { socket: socket.clone(), workers: 2 };

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let server = {
            let svc = Arc::clone(&svc);
            let cfg = cfg.clone();
            thread::spawn(move || {
                let r = serve(&svc, &cfg);
                let _ = done_tx.send(());
                r
            })
        };
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }

        // An idle client that HELLOs (so a worker is parked in its read
        // loop) and then goes silent.
        let mut idle = UnixStream::connect(&socket).expect("idle client connects");
        writeln!(idle, "HELLO idler reader").unwrap();
        let mut first = String::new();
        BufReader::new(idle.try_clone().unwrap()).read_line(&mut first).unwrap();
        assert!(first.starts_with("OK session"), "got {first:?}");

        run_script(&socket, "HELLO closer writer\nSHUTDOWN\n").expect("shutdown script");
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve() hung on the idle client after SHUTDOWN");
        server.join().unwrap().expect("clean shutdown");
        drop(idle);
    }

    /// A request line longer than any admissible op is refused with
    /// `ERR` and its connection closed, without disturbing other clients.
    #[test]
    fn oversize_line_is_refused_while_others_are_served() {
        let code: Arc<dyn ArrayCode> = Arc::new(HvCode::new(5).unwrap());
        let volume = RaidVolume::in_memory(code, 4, 8);
        let cfg = ServiceConfig { bucket_capacity: 8, bucket_refill: 8, ..ServiceConfig::default() };
        let svc = Service::new(volume, cfg);
        let cap = max_line_bytes(&svc);
        assert_eq!(cap, 8 * 8 * 2 + LINE_HEADER_BYTES);
        let socket = temp_socket("oversize");
        let server = {
            let svc = Arc::clone(&svc);
            let cfg = ServerConfig { socket: socket.clone(), workers: 2 };
            thread::spawn(move || serve(&svc, &cfg))
        };
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }

        let exchange = |conn: &mut UnixStream, reader: &mut BufReader<UnixStream>, req: &str| {
            writeln!(conn, "{req}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        let mut good = UnixStream::connect(&socket).unwrap();
        let mut good_reader = BufReader::new(good.try_clone().unwrap());
        assert!(exchange(&mut good, &mut good_reader, "HELLO ok writer").starts_with("OK session"));

        // The largest admissible WRITE still fits under the cap ...
        let fits = format!("WRITE 0 {}", proto::to_hex(&[0x5a; 64]));
        assert!(fits.len() < cap);
        assert_eq!(exchange(&mut good, &mut good_reader, &fits), "OK wrote 8\n");

        // ... a longer line is refused and its connection closed.
        let mut bad = UnixStream::connect(&socket).unwrap();
        let mut bad_reader = BufReader::new(bad.try_clone().unwrap());
        assert!(exchange(&mut bad, &mut bad_reader, "HELLO big writer").starts_with("OK session"));
        let huge = format!("WRITE 0 {}", "ab".repeat(4 * cap));
        let reply = exchange(&mut bad, &mut bad_reader, &huge);
        assert!(reply.starts_with("ERR bad-request"), "got {reply:?}");
        let mut rest = String::new();
        assert_eq!(bad_reader.read_line(&mut rest).unwrap(), 0, "connection closed");

        // The other client is still served.
        assert_eq!(exchange(&mut good, &mut good_reader, "READ 0 1"), "OK data 5a5a5a5a5a5a5a5a\n");
        assert_eq!(exchange(&mut good, &mut good_reader, "SHUTDOWN"), "OK shutdown\n");
        server.join().unwrap().expect("clean shutdown");
    }
}
