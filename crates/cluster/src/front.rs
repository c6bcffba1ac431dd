//! The cluster's TCP front-end: one address, many backend processes.
//!
//! [`ClusterFront`] is protocol-compatible with
//! `econcast_service::PolicyServer` — `PolicyClient` connects to it
//! unchanged and cannot tell a cluster from a single process. It
//! speaks the same length-prefixed `ServiceCodec` family:
//!
//! * `Hello` → `Welcome` (the advertised shard count is the cluster's
//!   **slot** count);
//! * pipelined `Request`s are served as routed batches through the
//!   [`ClusterRouter`] (remote fan-out, local failover). A backend's
//!   answer comes back as its `Response` frame, verified on arrival
//!   and kept as bytes; the connection loop forwards it with `corr`
//!   and `id` rewritten and a fresh CRC, so the front never decodes a
//!   served policy;
//! * `MetricsRequest(shard = i)` answers with slot `i`'s scrape (a
//!   remote slot is asked over the wire, via a fresh short-timeout
//!   dial made with no lock held — the control plane never blocks the
//!   data plane); `shard = 0xFFFF` answers with the cluster-wide
//!   fan-in — backend scrapes + local slots + the router's own
//!   counters and fallback solver (counters and latency histograms) +
//!   the front's admission counters;
//! * `Ping` → `Pong` (liveness, untouched by routing);
//! * decode errors drop the connection without a reply, exactly like
//!   the single-process server.
//!
//! Protocol compatibility is by construction, not by convention: both
//! front-ends are the *same* [`Acceptor`] over the same router type —
//! one accept gate, one draining shutdown, one admitted connection
//! loop — differing only in the router's slots: local shards there,
//! remote or mixed slots here. Connections are handled
//! thread-per-connection behind the bounded accept gate, each handler
//! parked in `poll(2)` on its non-blocking socket and the acceptor's
//! stop descriptor. The router is shared, not locked: each slot has
//! its own lock, so front clients whose batches home on different
//! backends are served in parallel, and a wedged backend holds up only
//! the batches with keys on it. After each batch the connection loop
//! publishes the router's backend-saturation hint into the front's
//! admission controller. A shutdown drains: the stop descriptor wakes
//! every handler at once, idle ones close, and one holding part of a
//! frame serves it before closing, so a planned drain is never a
//! client-visible stream error.

use crate::ClusterRouter;
use econcast_service::{Acceptor, AdmissionController};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

/// Tuning knobs for a [`ClusterFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontConfig {
    /// Maximum concurrently served connections (the accept pool
    /// bound); further clients wait in the listen backlog until a
    /// slot frees.
    pub max_connections: usize,
    /// Largest request batch served as one routed unit; longer
    /// pipelines are split. Advertised in the `Welcome` handshake.
    pub max_batch: usize,
    /// Admission-queue bound shared across every front connection
    /// (the front's own shed ladder, in front of the router). Same
    /// semantics as `ServiceConfig::queue_capacity` on a single
    /// server.
    pub queue_capacity: usize,
    /// Floor on the front's `retry_after_us` hints; same semantics as
    /// `ServiceConfig::max_queue_delay`. Backend saturation hints can
    /// raise the advertised backoff past this, never below.
    pub max_queue_delay: std::time::Duration,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            max_connections: 64,
            max_batch: 1024,
            queue_capacity: 256,
            max_queue_delay: std::time::Duration::from_millis(50),
        }
    }
}

/// A bound, not-yet-serving cluster front-end.
#[derive(Debug)]
pub struct ClusterFront {
    listener: TcpListener,
    router: Arc<ClusterRouter>,
    cfg: FrontConfig,
}

impl ClusterFront {
    /// Binds the listener in front of a router. Use port 0 for an
    /// ephemeral port.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: ClusterRouter,
        cfg: FrontConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(ClusterFront {
            listener,
            router: Arc::new(router),
            cfg,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The shared router (cluster stats, re-targeting).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// Starts the [`Acceptor`] and returns a handle that stops it on
    /// [`FrontHandle::shutdown`] or drop, draining live connections.
    /// One admission controller and one router serve every
    /// connection, so all of them share the bounded queue, exactly as
    /// on a single-process server.
    pub fn spawn(self) -> FrontHandle {
        let admission = Arc::new(AdmissionController::new(
            self.cfg.queue_capacity,
            self.cfg.max_queue_delay,
        ));
        FrontHandle {
            acceptor: Acceptor::spawn(
                self.listener,
                Arc::clone(&self.router),
                self.cfg.max_connections,
                self.cfg.max_batch,
                admission,
            ),
            router: self.router,
        }
    }
}

/// Running front-end handle; shuts the acceptor down when dropped.
#[derive(Debug)]
pub struct FrontHandle {
    router: Arc<ClusterRouter>,
    acceptor: Acceptor,
}

impl FrontHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The shared router (cluster stats, re-targeting).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// The front's shared admission controller (queue depth, overload
    /// counters) — one per front, shared by every connection.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        self.acceptor.admission()
    }

    /// Stops accepting and drains live connections; see
    /// [`Acceptor::shutdown`].
    pub fn shutdown(self) {
        self.acceptor.shutdown();
    }
}
