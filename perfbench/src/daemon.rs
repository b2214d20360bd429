//! Building, spawning, probing and draining the real `dwmplace serve`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dwm_serve::ClientConn;

/// Daemon worker threads (`--workers`).
pub const WORKERS: usize = 2;
/// Solver pool threads inside the daemon (`DWM_THREADS`).
pub const THREADS: usize = 2;

/// How long a drained daemon may take to exit.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Builds the release `dwmplace` binary from the repository sources
/// (a no-op when up to date) and returns its path, as Cargo reports it.
pub fn build() -> Result<PathBuf, String> {
    let manifest = repo_root().join("Cargo.toml");
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--quiet", "-p", "dwm-cli"])
        .args(["--message-format", "json", "--manifest-path"])
        .arg(&manifest)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building dwm-cli failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        let Ok(dwm_foundation::json::Value::Obj(msg)) = dwm_foundation::json::parse(line) else {
            continue;
        };
        let is_cli = msg
            .get("target")
            .and_then(|t| t.as_object())
            .and_then(|t| t.get("name"))
            .and_then(|n| n.as_str())
            == Some("dwmplace");
        if let (true, Some(exe)) = (is_cli, msg.get("executable").and_then(|e| e.as_str())) {
            return Ok(PathBuf::from(exe));
        }
    }
    Err("cargo reported no dwmplace executable".into())
}

/// The daemon's command-line flags, as printed beside the metrics.
pub fn flags() -> Vec<String> {
    let workers = WORKERS.to_string();
    ["serve", "--addr", "127.0.0.1:0", "--workers", &workers]
        .map(str::to_owned)
        .to_vec()
}

/// A running daemon. Dropping it kills and reaps the process, so an
/// early return never leaves one behind.
pub struct Daemon {
    child: Child,
    /// Kept open until the process exits: the daemon prints a shutdown
    /// line, and a closed pipe would turn that into a failure.
    stdout: BufReader<ChildStdout>,
    /// The ephemeral address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `exe serve` on an ephemeral port and returns once
    /// `/health` answers 200.
    pub fn spawn(exe: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(flags())
            .env("DWM_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("dwm-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut daemon = Daemon {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("valid placeholder address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => daemon.addr = addr,
            _ => return Err(format!("daemon did not announce its address: {line:?}")),
        }
        let mut conn =
            ClientConn::connect(daemon.addr).map_err(|e| format!("cannot connect: {e}"))?;
        let health = conn
            .get("/health")
            .map_err(|e| format!("health probe failed: {e}"))?;
        if health.status != 200 {
            return Err(format!("health probe answered {}", health.status));
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fails if the daemon has already exited.
    pub fn ensure_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("daemon exited early ({status})")),
            Err(e) => Err(format!("cannot poll the daemon: {e}")),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".into())
    }

    /// Asks the daemon to drain (`POST /admin/drain`) and waits for a
    /// clean exit. Any other outcome is an error.
    pub fn drain(mut self) -> Result<(), String> {
        self.ensure_alive()?;
        let mut conn = ClientConn::connect(self.addr).map_err(|e| format!("drain connect: {e}"))?;
        let resp = conn
            .post_json("/admin/drain", "{}")
            .map_err(|e| format!("drain request failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("drain answered {}", resp.status));
        }
        drop(conn);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let mut rest = String::new();
                    // The shutdown line; the pipe is at EOF now.
                    let _ = self.stdout.read_to_string(&mut rest);
                    return Ok(());
                }
                Ok(Some(status)) => return Err(format!("daemon exited with {status} on drain")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after drain".into()),
                Err(e) => return Err(format!("cannot poll the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `git rev-parse HEAD` of the repository, or `unknown` outside git.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the daemon's sources (every file under `crates/`
/// plus the root manifest and lock file, in path order) — identifies
/// the measured code in checkouts that are not git repositories.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}
