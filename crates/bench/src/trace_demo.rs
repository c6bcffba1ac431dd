//! `repro --trace-demo`: record a Perfetto-loadable trace of a small
//! cluster under load.
//!
//! The demo arms the process-wide tracer, then drives a 2-backend
//! in-process cluster through the full request lifecycle — client
//! dial, frame decode, canonicalize/route, tier probes, kernel
//! solves, frame encode — kills one backend mid-run so the router's
//! failover re-serve and dial retries leave spans, and lets the
//! healer record a few sweeps over the now-degraded ring. Everything
//! the tracer saw is written as Chrome JSON Trace Format, loadable
//! at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Shared by the `repro --trace-demo` CLI path and the CI trace-smoke
//! test, so what CI asserts on is exactly what a user gets.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterHealer, ClusterRouter, FrontConfig, HealerConfig, SlotSpec,
};
use econcast_service::{PolicyClient, PolicyServer, RouterConfig, ServerConfig, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// What a demo run produced — enough for the CLI to narrate and the
/// smoke test to assert on without re-reading the file.
pub struct TraceDemoReport {
    /// Where the trace was written.
    pub path: PathBuf,
    /// The Chrome-format JSON, exactly as written to `path`.
    pub json: String,
    /// Span/instant/counter events in the snapshot.
    pub events: usize,
    /// Events lost to ring overflow (0 unless the demo outgrows the
    /// per-thread rings).
    pub dropped: u64,
    /// Mean wall time of one warm batch-256 round trip on the plain
    /// socket path, µs.
    pub socket_batch_us: f64,
    /// Where that wall time goes: per-span medians for the socket-path
    /// lifecycle, from the span events of the phase before the cluster
    /// phase.
    pub socket_profile: Vec<SocketSpan>,
}

/// One socket-path lifecycle span's share of a round trip.
pub struct SocketSpan {
    /// Span name (`frame_encode`, `frame_decode`, `route`,
    /// `serve_batch`).
    pub name: &'static str,
    /// Samples recorded during the profile phase.
    pub count: u64,
    /// Median span duration, µs (its histogram bucket's upper edge).
    pub p50_us: f64,
}

/// Runs the demo cluster under full tracing and writes
/// `econcast_demo.trace.json` into `out_dir`.
///
/// Arms and disarms the process-wide tracer, so don't run this
/// concurrently with anything whose timing matters.
pub fn run(out_dir: &Path) -> std::io::Result<TraceDemoReport> {
    econcast_trace::reset();
    econcast_trace::set_spans(true);
    // Phase 1 — plain socket path, profiled: where does a warm
    // batch-256 round trip spend its time once the solver is out of
    // the picture? The profile reads only events stamped before the
    // cluster phase, so its spans can't muddy the answer (the socket
    // server is shut down by then, so no span straddles the boundary).
    let socket = drive_socket();
    let boundary_ns = econcast_trace::now_ns();
    // Phase 2 — the cluster fault lifecycle.
    let driven = drive();
    econcast_trace::set_spans(false);
    // Drain even on error so a failed run doesn't leak its events
    // into the next tracer user in this process.
    let snap = econcast_trace::drain();
    let socket_batch_us = socket?;
    driven?;
    let socket_phase = econcast_trace::TraceSnapshot {
        events: snap
            .events
            .iter()
            .take_while(|e| e.ts_ns < boundary_ns)
            .cloned()
            .collect(),
        ..Default::default()
    };
    let mut socket_profile = Vec::new();
    for name in ["frame_encode", "frame_decode", "route", "serve_batch"] {
        let cat = if name.starts_with("frame") {
            "proto"
        } else {
            "service"
        };
        let (count, tail) =
            crate::perf::bucketed_us(econcast_trace::span_durations(&socket_phase, cat, name));
        if let Some((p50_us, _, _)) = tail {
            socket_profile.push(SocketSpan {
                name,
                count,
                p50_us,
            });
        }
    }
    let json = econcast_trace::to_chrome_json(&snap);
    let path = out_dir.join("econcast_demo.trace.json");
    std::fs::write(&path, &json)?;
    Ok(TraceDemoReport {
        path,
        json,
        events: snap.events.len(),
        dropped: snap.dropped,
        socket_batch_us,
        socket_profile,
    })
}

/// The socket-path profile workload: one warm-up plus a few timed
/// warm batch-256 round trips against a 2-shard TCP server, returning
/// the mean round-trip wall time in µs. Runs with the tracer armed so
/// the lifecycle spans land in the trace and the profile.
fn drive_socket() -> std::io::Result<f64> {
    let srv = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 2,
                service: ServiceConfig {
                    lru_capacity: 4096,
                    ..ServiceConfig::default()
                },
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )?
    .spawn();
    let batch = crate::perf::service_batch(256);
    let mut client = PolicyClient::connect(srv.addr(), 256)?;
    client.serve_batch(&batch)?; // warm the LRUs
    const ITERS: u32 = 3;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        client.serve_batch(&batch)?;
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS);
    drop(client);
    srv.shutdown();
    Ok(us)
}

/// The traced workload: healthy batch, backend kill, failover batch,
/// healer sweeps. Same in-process topology as the benchmark's cluster
/// entries, but handles are kept so the teardown is deliberate.
fn drive() -> std::io::Result<()> {
    let mut backends = Vec::new();
    let mut slots = Vec::new();
    for _ in 0..2 {
        let srv = PolicyServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                router: RouterConfig {
                    shards: 1,
                    service: ServiceConfig {
                        lru_capacity: 4096,
                        ..ServiceConfig::default()
                    },
                    ..RouterConfig::default()
                },
                ..ServerConfig::default()
            },
        )?;
        let handle = srv.spawn();
        slots.push(SlotSpec::Remote(handle.addr()));
        backends.push(handle);
    }
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(
            &slots,
            ClusterConfig {
                service: ServiceConfig {
                    lru_capacity: 4096,
                    ..ServiceConfig::default()
                },
                ..ClusterConfig::default()
            },
        ),
        FrontConfig::default(),
    )?
    .spawn();
    let batch = crate::perf::service_batch(256);
    let mut client = PolicyClient::connect(front.addr(), 256)?;
    client.serve_batch(&batch)?;

    // Kill one backend and re-serve before any supervisor can notice:
    // the router's live stream to the dead slot fails mid-batch, so
    // the failover re-serve and the dialer's retry loop against the
    // dead address both run for real.
    backends.remove(0).shutdown();
    client.serve_batch(&batch)?;

    // Only now start the healer — fast sweeps so a ~100 ms window
    // still records several `healer_sweep` spans over the degraded
    // ring; sweep-only mode (nobody respawns these in-process
    // backends).
    let healer = ClusterHealer::spawn(
        Arc::clone(front.router()),
        HealerConfig {
            sweep_interval: Duration::from_millis(10),
            probe_retries: 1,
            probe_backoff: Duration::from_millis(5),
            probe_timeout: Duration::from_millis(200),
            ..HealerConfig::default()
        },
    );
    std::thread::sleep(Duration::from_millis(100));

    healer.shutdown();
    front.shutdown();
    for backend in backends {
        backend.shutdown();
    }
    Ok(())
}
