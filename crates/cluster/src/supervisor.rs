//! Spawning and monitoring backend `policy_server` processes.
//!
//! A [`Supervisor`] launches `policy_backend` child processes (the
//! crate's binary: a stock sharded `PolicyServer` behind a tiny CLI),
//! learns each one's ephemeral listen address from its
//! `LISTENING <addr>` stdout line, and monitors liveness. Children
//! hold a stdin pipe to the supervisor and exit on EOF, so even a
//! supervisor that dies without running destructors does not leak
//! backend processes.
//!
//! The supervisor is deliberately mechanism, not policy: it can
//! spawn, observe ([`Supervisor::is_alive`]), kill, and
//! [`respawn`](Supervisor::respawn) — the *decision* to replace a
//! backend belongs to whoever watches the router's health state
//! (tests, the `policy_cluster` example, an operator).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Options applied to every spawned backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// `--shards` per backend process.
    pub backend_shards: usize,
    /// `--workers` per backend shard service (`None` = backend
    /// default).
    pub workers: Option<usize>,
    /// Extra flags appended to every backend's command line (applied
    /// to respawns too) — how the fault-injection tests spawn
    /// deliberately crash-looping backends (`--crash-after-ms`).
    pub extra_args: Vec<String>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            backend_shards: 2,
            workers: None,
            extra_args: Vec::new(),
        }
    }
}

/// How long a freshly spawned backend may take to print its readiness
/// line before the spawn is declared failed and the child killed — a
/// wedged replacement must not hang the supervisor (and whoever drives
/// `respawn`) forever.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(10);

/// One supervised backend process.
#[derive(Debug)]
struct Backend {
    child: Child,
    addr: SocketAddr,
}

/// Owns a fleet of backend processes; kills them on drop.
#[derive(Debug)]
pub struct Supervisor {
    binary: PathBuf,
    cfg: SupervisorConfig,
    backends: Vec<Backend>,
}

impl Supervisor {
    /// Spawns `count` backend processes from `binary` (the
    /// `policy_backend` executable) and waits for each to report its
    /// listen address.
    pub fn spawn(binary: &Path, count: usize, cfg: SupervisorConfig) -> std::io::Result<Self> {
        let mut sup = Supervisor {
            binary: binary.to_path_buf(),
            cfg,
            backends: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let backend = sup.spawn_one()?;
            sup.backends.push(backend);
        }
        Ok(sup)
    }

    fn spawn_one(&self) -> std::io::Result<Backend> {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--shards")
            .arg(self.cfg.backend_shards.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(workers) = self.cfg.workers {
            cmd.arg("--workers").arg(workers.to_string());
        }
        cmd.args(&self.cfg.extra_args);
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");

        // Await the readiness line on a helper thread so a backend
        // that binds-then-wedges (or a wrong binary that prints
        // nothing) surfaces as a timed-out spawn error instead of
        // blocking the supervisor forever. The thread exits after its
        // one send — on timeout, killing the child closes the pipe
        // and unblocks it.
        let (tx, rx) = std::sync::mpsc::channel::<Result<SocketAddr, String>>();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let line = match line {
                    Ok(line) => line,
                    Err(e) => {
                        let _ = tx.send(Err(format!("reading backend stdout: {e}")));
                        return;
                    }
                };
                if let Some(rest) = line.strip_prefix("LISTENING ") {
                    let _ = tx.send(
                        rest.trim()
                            .parse::<SocketAddr>()
                            .map_err(|_| format!("unparsable backend address `{rest}`")),
                    );
                    return;
                }
            }
            let _ = tx.send(Err("backend exited before reporting its address".into()));
        });

        let outcome = match rx.recv_timeout(STARTUP_TIMEOUT) {
            Ok(Ok(addr)) => return Ok(Backend { child, addr }),
            Ok(Err(msg)) => msg,
            Err(_) => format!("backend did not report readiness within {STARTUP_TIMEOUT:?}"),
        };
        let _ = child.kill();
        let _ = child.wait();
        Err(std::io::Error::other(outcome))
    }

    /// Number of supervised backends (alive or not).
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the supervisor manages no backends.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Backend `i`'s listen address.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.backends[i].addr
    }

    /// Every backend's listen address, in spawn order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(|b| b.addr).collect()
    }

    /// Whether backend `i`'s process is still running.
    pub fn is_alive(&mut self, i: usize) -> bool {
        matches!(self.backends[i].child.try_wait(), Ok(None))
    }

    /// Backends currently running.
    pub fn alive_count(&mut self) -> usize {
        (0..self.backends.len())
            .filter(|&i| self.is_alive(i))
            .count()
    }

    /// Kills backend `i` and reaps it. Idempotent.
    pub fn kill(&mut self, i: usize) -> std::io::Result<()> {
        let backend = &mut self.backends[i];
        match backend.child.kill() {
            Ok(()) => {
                backend.child.wait()?;
                Ok(())
            }
            // Already exited: reap and move on.
            Err(_) => {
                let _ = backend.child.try_wait();
                Ok(())
            }
        }
    }

    /// Replaces backend `i` with a freshly spawned process (new
    /// ephemeral port), killing the old one if needed. Returns the
    /// replacement's address — feed it to
    /// `ClusterRouter::retarget_slot` to bring the slot back remote.
    pub fn respawn(&mut self, i: usize) -> std::io::Result<SocketAddr> {
        self.kill(i)?;
        let backend = self.spawn_one()?;
        let addr = backend.addr;
        self.backends[i] = backend;
        Ok(addr)
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for backend in &mut self.backends {
            let _ = backend.child.kill();
            let _ = backend.child.wait();
        }
    }
}

/// Locates the `policy_backend` executable for contexts without
/// Cargo's `CARGO_BIN_EXE_*` injection (examples, ad-hoc runs):
/// honors `ECONCAST_BACKEND_BIN`, then probes next to the current
/// executable and one directory up (`target/<profile>/examples/foo`
/// and `target/<profile>/deps/foo` both sit one level below the
/// binaries).
pub fn default_backend_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("ECONCAST_BACKEND_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("policy_backend{}", std::env::consts::EXE_SUFFIX);
    let dir = exe.parent()?;
    [dir.join(&name), dir.parent()?.join(&name)]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn spawn_fails_cleanly_when_backend_never_reports() {
        // A binary that exits without printing LISTENING must surface
        // as a prompt spawn error (the readiness reader hits EOF), not
        // a hang — the same channel path the startup timeout rides.
        let err = Supervisor::spawn(Path::new("/bin/true"), 1, SupervisorConfig::default())
            .expect_err("no readiness line");
        assert!(
            err.to_string().contains("before reporting"),
            "unexpected error: {err}"
        );
    }
}
