//! The `certchain serve` daemon as a child process, and the minimal
//! HTTP/1.1 client the serve workloads load it with.
//!
//! The daemon binds port 0 and reports its address through
//! `--listen-addr-file`. A [`Daemon`] is killed and reaped when it is
//! dropped, so every exit path — errors and panics included — stops it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to start answering `/healthz`.
const START_DEADLINE: Duration = Duration::from_secs(60);

/// Per-request socket timeout of the load clients.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// The open-loop GET mix, cycled in this order.
pub const GET_MIX: [&str; 6] = [
    "/status",
    "/report",
    "/report.json",
    "/metrics?format=prometheus",
    "/healthz",
    "/trace.json",
];

/// A running `certchain serve --listen 127.0.0.1:0` child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

/// Where a daemon reads from and how often it scans.
pub struct DaemonSpec<'a> {
    pub certchain: &'a Path,
    pub dataset: &'a Path,
    pub spool: &'a Path,
    pub checkpoint: &'a Path,
    pub interval_ms: u64,
    pub watchdog_cycles: u64,
    /// Directory for the address file and the daemon's stderr log.
    pub scratch: &'a Path,
}

impl Daemon {
    /// Spawn the daemon and wait for its first `200` on `/healthz`
    /// (trust/CT load, checkpoint resume and first publish all happen
    /// before that). Returns the daemon and the seconds from spawn to
    /// that first `200`.
    pub fn start(spec: &DaemonSpec<'_>, tag: &str) -> Result<(Daemon, f64), String> {
        let addr_file: PathBuf = spec.scratch.join(format!("addr-{tag}"));
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(spec.scratch.join(format!("daemon-{tag}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(spec.certchain)
            .arg("serve")
            .arg("--dir")
            .arg(spec.dataset)
            .arg("--spool")
            .arg(spec.spool)
            .arg("--checkpoint")
            .arg(spec.checkpoint)
            .args(["--listen", "127.0.0.1:0", "--listen-addr-file"])
            .arg(&addr_file)
            .args(["--interval-ms", &spec.interval_ms.to_string()])
            .args(["--watchdog-cycles", &spec.watchdog_cycles.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.certchain.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if start.elapsed() > START_DEADLINE {
                return Err("the daemon did not start listening".into());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                daemon.addr = addr;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            if start.elapsed() > START_DEADLINE {
                return Err("the daemon never answered /healthz with 200".into());
            }
            if let Ok(resp) = get(daemon.addr, "/healthz") {
                if resp.status == 200 {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the daemon's /proc status".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// `GET path` over a fresh connection (the daemon answers with
/// `Connection: close`).
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())?;
    read_response(stream)
}

fn read_response(mut stream: TcpStream) -> std::io::Result<Response> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(bad)?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(bad)?;
    Ok(Response { status, body })
}

/// `GET /healthz`, its request bytes sent one at a time spread evenly
/// over `over`: the slow client that holds the daemon's single acceptor.
pub fn dribble(addr: SocketAddr, over: Duration) -> std::io::Result<Response> {
    let request = b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n";
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let start = Instant::now();
    let gaps = (request.len() - 1) as f64;
    for (i, b) in request.iter().enumerate() {
        let due = over.mul_f64(i as f64 / gaps);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        stream.write_all(&[*b])?;
    }
    read_response(stream)
}
