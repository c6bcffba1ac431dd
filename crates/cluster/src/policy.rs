//! The supervisor policy loop: detection, decision, and repair with
//! no operator in the loop.
//!
//! PR 5 deliberately split mechanism from policy: the [`Supervisor`]
//! can spawn/kill/respawn, the router can retarget — but *somebody*
//! had to watch the health state and drive the repair. This module is
//! that somebody.
//!
//! ## The healer
//!
//! A [`ClusterHealer`] runs a sweep thread that, every
//! [`HealerConfig::sweep_interval`]:
//!
//! 1. **probes** every remote slot through the wire `Ping`/`Pong`
//!    health machine (`ClusterRouter::ping_all`) — re-adopting
//!    recovered backends and marking wedged ones down;
//! 2. **reaps** dead backend processes (`Supervisor::try_wait` via
//!    [`Supervisor::is_alive`]) and **respawns** them, with
//!    per-backend crash-loop damping: respawn attempts back off
//!    exponentially, and more than
//!    [`HealerConfig::max_respawns_per_window`] respawns inside
//!    [`HealerConfig::respawn_window`] **quarantines** the slot onto a
//!    fresh in-process local solver
//!    ([`ClusterRouter::quarantine_slot`]) — a crash-looping binary
//!    must not be restarted forever;
//! 3. **retargets** the ring slot at the replacement only after an
//!    out-of-lock readiness probe answers a `Ping`, counting the
//!    repair in [`ClusterStats::auto_respawns`](crate::ClusterStats).
//!
//! Requests never wait for any of this: a down slot's sub-batches are
//! served by the router's local fallback (bit-identical bits) the
//! whole time.

use crate::router::ClusterRouter;
use crate::supervisor::Supervisor;
use econcast_service::PolicyClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps a respawned backend's fresh address to the address the ring
/// slot should be retargeted at. The identity map is right for
/// direct-dial deployments; a fault-injection harness retargets its
/// proxy's upstream here and keeps the router dialing the proxy.
pub type RetargetFn = dyn Fn(usize, SocketAddr) -> SocketAddr + Send;

/// Tuning knobs for the policy loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealerConfig {
    /// Period of the sweep thread.
    pub sweep_interval: Duration,
    /// Backoff before re-attempting a respawn after a failed one;
    /// doubles per consecutive failure (crash-loop damping).
    pub respawn_backoff: Duration,
    /// Respawns tolerated inside [`respawn_window`](Self::respawn_window)
    /// before the slot is quarantined onto a local solver.
    pub max_respawns_per_window: u32,
    /// Sliding window over which respawns are counted.
    pub respawn_window: Duration,
    /// Readiness-probe attempts against a freshly respawned backend
    /// before the attempt is declared failed.
    pub probe_retries: u32,
    /// Pause between readiness-probe attempts.
    pub probe_backoff: Duration,
    /// Dial/I-O timeout of each readiness probe.
    pub probe_timeout: Duration,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            sweep_interval: Duration::from_millis(100),
            respawn_backoff: Duration::from_millis(250),
            max_respawns_per_window: 3,
            respawn_window: Duration::from_secs(30),
            probe_retries: 5,
            probe_backoff: Duration::from_millis(50),
            probe_timeout: Duration::from_secs(1),
        }
    }
}

/// Per-managed-backend crash-loop bookkeeping.
struct Managed {
    /// Router slot this backend serves.
    slot: usize,
    /// Supervisor index of the process.
    backend: usize,
    /// Respawn timestamps inside the sliding window.
    respawns: Vec<Instant>,
    /// Consecutive failed respawn attempts (drives the backoff).
    consecutive_failures: u32,
    /// Earliest next respawn attempt (damping).
    not_before: Option<Instant>,
    /// Quarantined: the healer has given up on this backend.
    quarantined: bool,
}

/// The running policy loop; stops on [`shutdown`](Self::shutdown) or
/// drop.
pub struct ClusterHealer {
    stop: Arc<AtomicBool>,
    sweeper: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ClusterHealer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHealer")
            .field("stopped", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

impl ClusterHealer {
    /// Spawns a sweep-only healer: periodic `Ping` probes keep the
    /// health machines fresh (down detection, recovery re-adoption),
    /// but nobody respawns processes — for deployments whose backends
    /// are managed elsewhere (e.g. the benchmark's in-process
    /// servers).
    pub fn spawn(router: Arc<Mutex<ClusterRouter>>, cfg: HealerConfig) -> Self {
        Self::spawn_inner(router, None, Vec::new(), None, cfg)
    }

    /// Spawns the full policy loop over supervised backend processes.
    /// `slot_of_backend[i]` is the router slot that supervisor
    /// backend `i` serves; `retarget` (when given) maps a respawned
    /// backend's address to the address the slot is retargeted at.
    pub fn spawn_supervised(
        router: Arc<Mutex<ClusterRouter>>,
        supervisor: Arc<Mutex<Supervisor>>,
        slot_of_backend: Vec<usize>,
        retarget: Option<Box<RetargetFn>>,
        cfg: HealerConfig,
    ) -> Self {
        Self::spawn_inner(router, Some(supervisor), slot_of_backend, retarget, cfg)
    }

    fn spawn_inner(
        router: Arc<Mutex<ClusterRouter>>,
        supervisor: Option<Arc<Mutex<Supervisor>>>,
        slot_of_backend: Vec<usize>,
        retarget: Option<Box<RetargetFn>>,
        cfg: HealerConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let stop = Arc::clone(&stop);
            let mut managed: Vec<Managed> = slot_of_backend
                .iter()
                .enumerate()
                .map(|(backend, &slot)| Managed {
                    slot,
                    backend,
                    respawns: Vec::new(),
                    consecutive_failures: 0,
                    not_before: None,
                    quarantined: false,
                })
                .collect();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    {
                        // Sweeps are X events (the sweep thread outlives
                        // any one drain), sized by the probe + repair
                        // work, excluding the idle sleep.
                        let t0 = econcast_trace::armed_now();
                        // Health sweep: the probe dials are cheap on the
                        // deployments this loop serves (localhost refusals
                        // fail in microseconds), and holding the lock keeps
                        // the health machine's state transitions atomic
                        // with respect to batch routing.
                        lock(&router).ping_all();
                        if let Some(sup) = &supervisor {
                            for m in managed.iter_mut().filter(|m| !m.quarantined) {
                                heal_backend(&router, sup, &retarget, &cfg, m);
                            }
                        }
                        econcast_trace::complete_from("cluster", "healer_sweep", t0, &[]);
                    }
                    sleep_ticks(cfg.sweep_interval, &stop);
                }
            })
        };
        ClusterHealer {
            stop,
            sweeper: Some(sweeper),
        }
    }

    /// Stops the sweep thread and joins it.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClusterHealer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// One backend's detect→decide→repair step.
fn heal_backend(
    router: &Arc<Mutex<ClusterRouter>>,
    sup: &Arc<Mutex<Supervisor>>,
    retarget: &Option<Box<RetargetFn>>,
    cfg: &HealerConfig,
    m: &mut Managed,
) {
    if lock(sup).is_alive(m.backend) {
        return;
    }
    let now = Instant::now();
    m.respawns
        .retain(|t| now.duration_since(*t) < cfg.respawn_window);
    // Quarantine decision comes *before* another respawn: a backend
    // that already burned its window crash-looping gets pinned onto a
    // local solver instead of restarted forever.
    if m.respawns.len() as u32 >= cfg.max_respawns_per_window {
        lock(router).quarantine_slot(m.slot);
        m.quarantined = true;
        return;
    }
    if m.not_before.is_some_and(|t| now < t) {
        return; // damped: too soon since the last attempt
    }
    m.respawns.push(now);
    let backoff = cfg
        .respawn_backoff
        .saturating_mul(2u32.saturating_pow(m.consecutive_failures.min(16)));
    m.not_before = Some(now + backoff);
    let t0 = econcast_trace::armed_now();
    let spawned = lock(sup).respawn(m.backend);
    match spawned {
        Ok(addr) if probe_ready(addr, cfg) => {
            let target = retarget.as_ref().map_or(addr, |f| f(m.backend, addr));
            let mut r = lock(router);
            r.retarget_slot(m.slot, target);
            r.note_auto_respawn();
            m.consecutive_failures = 0;
            econcast_trace::complete_from(
                "cluster",
                "respawn",
                t0,
                &[("slot", m.slot as u64), ("ok", 1)],
            );
        }
        // Spawn failed or the replacement never answered: the slot
        // stays down (fallback keeps serving), the attempt counts
        // toward the window, and the next try backs off further.
        _ => {
            m.consecutive_failures += 1;
            econcast_trace::complete_from(
                "cluster",
                "respawn",
                t0,
                &[("slot", m.slot as u64), ("ok", 0)],
            );
        }
    }
}

/// Out-of-lock readiness probe: the replacement must answer a wire
/// `Ping` before any slot is pointed at it.
fn probe_ready(addr: SocketAddr, cfg: &HealerConfig) -> bool {
    for attempt in 0..cfg.probe_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(cfg.probe_backoff);
        }
        if let Ok(mut client) = PolicyClient::connect_with_timeout(addr, 1, cfg.probe_timeout) {
            if client.ping().is_ok() {
                return true;
            }
        }
    }
    false
}

/// Sleeps `total` in short ticks so a shutdown is prompt.
fn sleep_ticks(total: Duration, stop: &AtomicBool) {
    let tick = Duration::from_millis(20);
    let mut remaining = total;
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let step = remaining.min(tick);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
