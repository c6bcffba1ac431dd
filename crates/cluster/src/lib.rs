//! # econcast-cluster — multi-process deployment of the policy service
//!
//! `econcast-service` holds the one router, `ClusterRouter`: a
//! consistent-hash ring of slots, each an in-process `PolicyService`
//! shard or a remote backend, each behind its own lock. A
//! `PolicyServer` runs it over local shards; this crate runs it over
//! **backend processes** — the layer the wire handshake was designed
//! for — and supervises them.
//!
//! ```text
//!                        ┌──────────────────────────────────┐
//!   PolicyClient ──TCP──▶│ ClusterFront (Acceptor)          │
//!                        │  └─ Arc<ClusterRouter>           │
//!                        │      ├─ [slot lock] RemoteShard ─┼─TCP─▶ policy_backend (proc 1)
//!                        │      ├─ [slot lock] RemoteShard ─┼─TCP─▶ policy_backend (proc 2)
//!                        │      ├─ [slot lock] Local slot   │          ▲
//!                        │      └─ [own lock]  fallback     │          │ spawn/kill/respawn
//!                        └──────────────────────────────────┘      Supervisor
//! ```
//!
//! * [`RemoteShard`] (re-exported) — a pooled, reconnecting dialer
//!   over `PolicyClient` with bounded retry/backoff and a per-backend
//!   health machine (down after `unhealthy_after` consecutive
//!   failures, reprobed after `reprobe_after`).
//! * [`ClusterRouter`] (re-exported) — routes raw requests by their
//!   order-independent `route_hash_of` (the hash every backend's
//!   `InstanceKey` carries), fans batches out to backends
//!   concurrently, reassembles responses in request order, and
//!   re-serves any failed backend's sub-batch on a **local fallback
//!   solver** — recorded in [`ClusterStats`], never surfaced as a
//!   caller error, and bit-identical to what the backend would have
//!   answered (every solve is deterministic and the fallback runs the
//!   backends' config). Every method takes `&self`: the front, the
//!   healer and operators share one `Arc<ClusterRouter>`, and clients
//!   whose batches home on different backends are served in parallel.
//! * [`ClusterFront`] — a `PolicyServer`-compatible TCP front-end (the
//!   same acceptor over the router's slots): clients connect to one
//!   address and the cluster is transparent. A metrics scrape of the
//!   aggregate fans in cluster-wide: backend scrapes, local slots, and
//!   the router's and front's own counters, each counted once by the
//!   component it happened in.
//! * [`Supervisor`] — spawns and monitors `policy_backend` child
//!   processes (readiness via their `LISTENING <addr>` line, liveness
//!   via `try_wait`, replacement via [`Supervisor::respawn`] +
//!   [`ClusterRouter::retarget_slot`]).
//! * [`ClusterHealer`] — the supervisor *policy* loop: a sweep thread
//!   that probes backend health, respawns dead processes with
//!   crash-loop damping (exponential backoff, quarantine onto a local
//!   solver after too many respawns per window), and retargets ring
//!   slots after a readiness probe — no operator in the loop. The
//!   ring also rebalances live ([`ClusterRouter::add_backend`],
//!   [`ClusterRouter::remove_backend`]); inherited keys solve cold on
//!   their new owner, bit-identical to the old owner's answers.
//! * [`FaultProxy`] / [`FaultPlan`] — a deterministic fault-injection
//!   harness (connect refusals, frame corruption, stalls, partial
//!   writes, scripted process kills) that drives the chaos acceptance
//!   test in `tests/chaos.rs`, counting every fired fault in
//!   [`ClusterStats::injected_faults`].
//!
//! The load-bearing guarantee is unchanged from every prior layer: a
//! batch served through a cluster returns **bit-identical policies,
//! throughputs, and certificates** to the single-process path — only
//! tier labels may shift to `Exact` across batching boundaries —
//! including while backends are being killed mid-run (pinned by
//! `tests/cluster.rs` over supervisor-spawned processes on real TCP).

pub mod fault;
pub mod front;
pub mod policy;
pub mod supervisor;
pub mod topology;

pub use econcast_service::{
    ClusterConfig, ClusterRouter, ClusterStats, RemoteConfig, RemoteShard, RemoteTicket, SlotSpec,
};
pub use fault::{Fault, FaultEvent, FaultPlan, FaultProxy};
pub use front::{ClusterFront, FrontConfig, FrontHandle};
pub use policy::{ClusterHealer, HealerConfig, RetargetFn};
pub use supervisor::{default_backend_binary, Supervisor, SupervisorConfig};
pub use topology::{Resolved, Source, Topology, TopologyError};
