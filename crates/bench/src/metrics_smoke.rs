//! The CI `metrics-smoke` job's driver: scrape a live 2-backend
//! cluster front over v7, assert the fan-in equals the sum of what
//! each layer reports, force a failover, and dump the front's flight
//! recorder as a Perfetto-compatible artifact.
//!
//! The backends are *child processes* ([`Supervisor`]-spawned), not
//! in-process servers: the mid-run kill is then a real process death
//! that the front only sees through its sockets, and the
//! process-global flight recorder the smoke dumps holds the front's
//! ops events alone.

use econcast_cluster::{
    default_backend_binary, ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, FrontHandle,
    RemoteConfig, SlotSpec, Supervisor, SupervisorConfig,
};
use econcast_metrics::{MetricsSnapshot, OpsKind, CTR_FAILOVER_RESERVES, GAUGE_LIVE_BACKENDS};
use econcast_service::workload::mixed_batch;
use econcast_service::PolicyClient;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What the smoke run found: one (label, pass) row per promise, plus
/// the flight-recorder artifact it wrote.
#[derive(Debug)]
pub struct SmokeOutcome {
    /// The smoke criteria, printed by `repro --metrics-smoke` so a red
    /// CI log names the broken promise.
    pub checks: Vec<(&'static str, bool)>,
    /// The Perfetto-compatible flight-recorder dump.
    pub artifact: PathBuf,
}

impl SmokeOutcome {
    /// Whether every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Ground truth for the fan-in: Σ direct backend scrapes plus the
/// front's own share — the router's counters and its fallback
/// solver's counters and latency histograms, and the front's
/// admission counters. Valid only while the front is quiescent —
/// metrics scrapes don't bump serve counters, so back-to-back scrapes
/// see the same local state.
fn expected_sum(front: &FrontHandle, addrs: &[SocketAddr]) -> io::Result<MetricsSnapshot> {
    let mut sum = front.router().metrics();
    sum.merge(&front.admission().metrics());
    for &addr in addrs {
        let direct = PolicyClient::connect(addr, 1)?.metrics()?;
        sum.merge(&direct);
    }
    Ok(sum)
}

/// Runs the smoke against a freshly spawned 2-backend cluster and
/// writes `econcast_flight.json` into `out_dir`.
pub fn run(out_dir: &Path) -> io::Result<SmokeOutcome> {
    let backend = default_backend_binary().ok_or_else(|| {
        io::Error::other(
            "policy_backend binary not found — build it first \
             (cargo build --release -p econcast-cluster --bin policy_backend)",
        )
    })?;
    let mut sup = Supervisor::spawn(&backend, 2, SupervisorConfig::default())?;
    let slots: Vec<SlotSpec> = sup.addrs().into_iter().map(SlotSpec::Remote).collect();
    let cfg = ClusterConfig {
        remote: RemoteConfig {
            dial_retries: 2,
            // One failure marks a backend down, and it stays down — no
            // reprobe racing the post-kill assertions.
            unhealthy_after: 1,
            reprobe_after: Duration::from_secs(3600),
            ..RemoteConfig::default()
        },
        ..ClusterConfig::default()
    };
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cfg),
        FrontConfig::default(),
    )?
    .spawn();

    let mut checks = Vec::new();
    let run_result = (|| -> io::Result<()> {
        let batch = mixed_batch(64);
        let mut client = PolicyClient::connect(front.addr(), 64)?;
        let out = client.serve_batch(&batch)?;
        checks.push(("all requests served", out.iter().all(Result::is_ok)));

        // Fan-in: scrape the aggregate first, then ground truth — the
        // quiescent front's own counters hold still in between.
        let aggregate = client.metrics()?;
        let expected = expected_sum(&front, &sup.addrs())?;
        checks.push((
            "counter fan-in = sum of backends + front-local",
            aggregate.counters == expected.counters,
        ));
        checks.push((
            "histogram fan-in = merge of backends + front-local",
            aggregate.hists == expected.hists,
        ));
        checks.push((
            "live-backends gauge sees both",
            aggregate.gauge(GAUGE_LIVE_BACKENDS) == 2,
        ));

        // Kill one backend mid-run; the next chunk fails over at the
        // front, and the fan-in must still balance against what the
        // cluster can currently see.
        sup.kill(0)?;
        let out = client.serve_batch(&batch[..32])?;
        checks.push(("failover serves the batch", out.iter().all(Result::is_ok)));
        let after = client.metrics()?;
        let expected = expected_sum(&front, &sup.addrs()[1..])?;
        checks.push((
            "fan-in rebalances after the kill",
            after.counters == expected.counters && after.hists == expected.hists,
        ));
        checks.push((
            "live-backends gauge drops to the survivor",
            after.gauge(GAUGE_LIVE_BACKENDS) == 1,
        ));
        checks.push((
            "failover re-serves counted",
            after.counter(CTR_FAILOVER_RESERVES) > 0,
        ));
        checks.push((
            "flight recorder holds the failover",
            econcast_metrics::recorder_events()
                .iter()
                .any(|e| e.kind == OpsKind::FailoverReserve),
        ));
        Ok(())
    })();

    front.shutdown();
    run_result?;

    // The artifact: whatever the front's recorder saw, as Perfetto
    // JSON — and it must actually *be* JSON, validated with the same
    // parser the bench gate trusts.
    std::fs::create_dir_all(out_dir)?;
    let artifact = out_dir.join("econcast_flight.json");
    let dump = econcast_metrics::recorder_dump_json();
    checks.push((
        "flight-recorder dump parses as JSON",
        crate::gate::parse_json(&dump)
            .ok()
            .and_then(|j| {
                j.get("traceEvents")
                    .and_then(|t| t.as_arr().map(<[_]>::len))
            })
            .is_some_and(|n| n > 0),
    ));
    std::fs::write(&artifact, dump)?;

    Ok(SmokeOutcome { checks, artifact })
}
