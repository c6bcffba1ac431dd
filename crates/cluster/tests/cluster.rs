//! Cluster acceptance tests: supervisor-spawned backend *processes*
//! on real TCP, pinned bit-for-bit against the single-process
//! `ShardRouter` path — including while a backend is killed mid-run —
//! plus the scrape fan-in and supervisor monitoring.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, RemoteConfig, SlotSpec, Supervisor,
    SupervisorConfig,
};
use econcast_metrics::{
    MetricsSnapshot, COUNTER_NAMES, CTR_AUTO_RESPAWNS, CTR_BATCHES, CTR_BATCH_DEDUP_HITS,
    CTR_BYTE_EVICTIONS, CTR_CLOSED_FORM_HITS, CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES,
    CTR_ERRORS, CTR_EXACT_HITS, CTR_EXACT_HITS_CLOSED_FORM, CTR_EXACT_HITS_FACTORIZED,
    CTR_INJECTED_FAULTS, CTR_LRU_EVICTIONS, CTR_LRU_INSERTS, CTR_QUARANTINES, CTR_REQUESTS,
    CTR_SHED_REJECTS, CTR_SOLVER_SOLVES, GAUGE_LRU_ENTRIES, GAUGE_QUEUE_DEPTH_PEAK,
    HIST_REQUEST_NS,
};
use econcast_proto::service::{WirePong, WireWelcome};
use econcast_proto::{ServiceCodec, ServiceMessage};
use econcast_service::workload::mixed_batch;
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, PolicyService, RouterConfig, ServerConfig,
    ServerHandle, ServiceConfig, ServiceErrorCode, ServiceStats, ShardRouter,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::Duration;

/// The backend executable Cargo built for this crate's tests.
fn backend_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_policy_backend"))
}

/// Per-shard service config shared by backends (their default), the
/// cluster fallback, and the single-process reference — the
/// bit-identical guarantee requires all three to match.
fn service_cfg() -> ServiceConfig {
    ServiceConfig::default()
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        service: service_cfg(),
        remote: RemoteConfig {
            dial_retries: 2,
            // Keep failover snappy in tests: one failure marks the
            // backend down, and it stays down (no reprobe racing the
            // assertions).
            unhealthy_after: 1,
            reprobe_after: Duration::from_secs(3600),
            ..RemoteConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Asserts two responses carry identical payload bits (tier labels
/// may shift to `Exact`, the PR 3 socket-test convention).
fn assert_payload_identical(
    i: usize,
    wire: &econcast_service::WireResult,
    exp: &Result<econcast_service::PolicyResponse, econcast_service::ServiceError>,
) {
    let wire = wire
        .as_ref()
        .unwrap_or_else(|e| panic!("request {i}: caller-visible error {e:?}"));
    let exp = exp.as_ref().expect("reference served");
    assert_eq!(wire.policies.len(), exp.policies.len(), "request {i}");
    for (wp, np) in wire.policies.iter().zip(&exp.policies) {
        assert_eq!(wp.listen.to_bits(), np.listen.to_bits(), "request {i}");
        assert_eq!(wp.transmit.to_bits(), np.transmit.to_bits(), "request {i}");
    }
    assert_eq!(
        wire.throughput.to_bits(),
        exp.throughput.to_bits(),
        "request {i}"
    );
    assert_eq!(
        wire.cert_t_sigma.to_bits(),
        exp.certificate.t_sigma.to_bits(),
        "request {i}"
    );
    assert_eq!(
        wire.cert_oracle.to_bits(),
        exp.certificate.oracle.to_bits(),
        "request {i}"
    );
    assert_eq!(
        wire.cert_dual_upper.to_bits(),
        exp.certificate.dual_upper.to_bits(),
        "request {i}"
    );
    assert_eq!(wire.converged, exp.converged, "request {i}");
    // Tier labels may differ only where the exact tier is involved:
    // batching boundaries turn fresh serves into `Exact` replays
    // (the PR 3 socket convention), and failover re-serves turn
    // `Exact` replays back into fresh serves on the fallback's cold
    // caches (`Grid`/`ClosedForm`/`Solver`). Either way the LRU entry
    // *is* the producing tier's policy, so the payload asserts above
    // already pinned the bits.
    assert!(
        wire.tier == exp.tier
            || wire.tier == econcast_service::ServedTier::Exact
            || exp.tier == econcast_service::ServedTier::Exact,
        "request {i}: tier {:?} vs expected {:?}",
        wire.tier,
        exp.tier
    );
}

#[test]
fn two_backend_cluster_is_bit_identical_and_survives_a_kill() {
    // The acceptance batch: the canonical 256-request mix.
    let batch = mixed_batch(256);

    // Single-process reference: a ShardRouter over the same per-shard
    // config, serving the whole batch in one call.
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    // The cluster: two supervisor-spawned backend processes behind a
    // front-end.
    let mut sup =
        Supervisor::spawn(backend_bin(), 2, SupervisorConfig::default()).expect("spawn backends");
    let slots: Vec<SlotSpec> = sup.addrs().into_iter().map(SlotSpec::Remote).collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();

    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    assert_eq!(client.shards(), 2, "welcome advertises the slot count");

    // Serve in four 64-request chunks; kill backend 0 after the first
    // chunk — mid-run — and keep going. Every response must stay
    // bit-identical and error-free throughout.
    for (c, chunk) in batch.chunks(64).enumerate() {
        let got = client.serve_batch(chunk).expect("front round trip");
        assert_eq!(got.len(), chunk.len());
        for (k, wire) in got.iter().enumerate() {
            let i = c * 64 + k;
            assert_payload_identical(i, wire, &expected[i]);
        }
        if c == 0 {
            sup.kill(0).expect("kill backend 0");
            assert!(!sup.is_alive(0));
        }
    }

    // The failover really happened and was absorbed: requests landed
    // on the dead slot, were re-served locally, and none errored.
    let stats = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats()
    };
    assert!(
        stats.local_fallbacks > 0,
        "the kill must have forced local re-serves: {stats:?}"
    );
    assert!(
        stats.backend_failures >= 1,
        "the dead backend failed a sub-batch"
    );
    assert_eq!(stats.healthy, vec![false, true], "slot 0 marked down");
    assert!(stats.remote_served > 0, "the live backend kept serving");
    assert_eq!(
        stats.routed.iter().sum::<u64>(),
        batch.len() as u64,
        "every valid request routed exactly once"
    );

    // Replace the dead backend (fresh process, fresh port), re-target
    // the slot, and verify traffic goes remote again — the full
    // operator loop: observe → respawn → retarget.
    let fresh_addr = sup.respawn(0).expect("respawn backend 0");
    {
        let router = front.router();
        let guard = router;
        assert!(guard.retarget_slot(0, fresh_addr));
    }
    let before = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats().remote_served
    };
    let replay = client
        .serve_batch(&batch[..64])
        .expect("post-respawn batch");
    for (i, wire) in replay.iter().enumerate() {
        assert_payload_identical(i, wire, &expected[i]);
    }
    let stats = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats()
    };
    assert!(
        stats.remote_served > before,
        "re-targeted slot serves remotely again: {stats:?}"
    );
    assert_eq!(stats.healthy, vec![true, true]);

    drop(client);
    front.shutdown();
}

#[test]
fn stats_fan_in_equals_the_sum_of_backend_stats() {
    let sup =
        Supervisor::spawn(backend_bin(), 2, SupervisorConfig::default()).expect("spawn backends");
    let slots: Vec<SlotSpec> = sup.addrs().into_iter().map(SlotSpec::Remote).collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();

    let batch = mixed_batch(64);
    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    let out = client.serve_batch(&batch).expect("serve");
    assert!(out.iter().all(Result::is_ok));

    // Cluster-wide fan-in over the wire (the front's aggregate)…
    let aggregate = client.stats(None).expect("aggregate stats");

    // …must equal the sum of what each backend reports when asked
    // directly, plus the (here idle) fallback solver.
    let mut summed = ServiceStats::default();
    for i in 0..sup.len() {
        let mut direct = PolicyClient::connect(sup.addr(i), 1).expect("connect backend");
        summed.merge(&direct.stats(None).expect("backend stats"));
    }
    // The front's admission counters ride the aggregate: closed-loop
    // traffic well under the queue bound sheds and degrades nothing,
    // but the front's queue peak (the whole pipelined batch) joins
    // the backends' peaks via max.
    assert_eq!(aggregate.shed_rejects, summed.shed_rejects);
    assert_eq!(aggregate.degraded_serves, summed.degraded_serves);
    assert_eq!(aggregate.deadline_expired, summed.deadline_expired);
    assert!(
        aggregate.queue_depth_peak >= summed.queue_depth_peak
            && aggregate.queue_depth_peak <= batch.len() as u64,
        "front peak {} vs backend peak {}",
        aggregate.queue_depth_peak,
        summed.queue_depth_peak
    );
    let mut tiers_only = aggregate;
    tiers_only.queue_depth_peak = summed.queue_depth_peak;
    assert_eq!(tiers_only, summed, "fan-in must equal the backend sum");
    assert_eq!(aggregate.requests, batch.len() as u64);

    // Per-slot stats ride the same path: shard i = backend i.
    let mut per_slot = ServiceStats::default();
    for s in 0..client.shards() {
        per_slot.merge(&client.stats(Some(s)).expect("slot stats"));
    }
    assert_eq!(per_slot, summed);

    // A ping through the front is answered and stat-free.
    client.ping().expect("front pong");
    assert_eq!(
        client.stats(None).expect("stats").requests,
        batch.len() as u64
    );

    // The robustness counters are distribution-layer facts: backends
    // report them as zero (so the sum equality above holds), and the
    // front adds the router's counts to the wire aggregate.
    assert_eq!(aggregate.auto_respawns, 0);
    assert_eq!(aggregate.quarantines, 0);
    assert_eq!(aggregate.injected_faults, 0);
    {
        let router = front.router();
        let guard = router;
        guard.note_auto_respawn();
        guard
            .injected_fault_counter()
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
    }
    let overlaid = client.stats(None).expect("overlaid aggregate");
    assert_eq!(overlaid.auto_respawns, 1);
    assert_eq!(overlaid.quarantines, 0);
    assert_eq!(overlaid.injected_faults, 3);
    // …while a backend asked directly still knows nothing of them.
    let direct = PolicyClient::connect(sup.addr(0), 1)
        .expect("connect backend")
        .stats(None)
        .expect("backend stats");
    assert_eq!(direct.auto_respawns, 0);
    assert_eq!(direct.injected_faults, 0);

    drop(client);
    front.shutdown();
    drop(sup);
}

/// Asserts that a scrape and a serving-counter view agree on every
/// counter and gauge they share, field by registry slot.
fn assert_planes_agree(m: &MetricsSnapshot, s: &ServiceStats) {
    let shared = [
        (CTR_REQUESTS, s.requests),
        (CTR_BATCHES, s.batches),
        (CTR_EXACT_HITS, s.exact_hits),
        (CTR_CLOSED_FORM_HITS, s.closed_form_hits),
        (CTR_SOLVER_SOLVES, s.solver_solves),
        (CTR_BATCH_DEDUP_HITS, s.batch_dedup_hits),
        (CTR_ERRORS, s.errors),
        (CTR_LRU_INSERTS, s.lru_inserts),
        (CTR_LRU_EVICTIONS, s.lru_evictions),
        (CTR_EXACT_HITS_CLOSED_FORM, s.exact_hits_closed_form),
        (CTR_EXACT_HITS_FACTORIZED, s.exact_hits_factorized),
        (CTR_BYTE_EVICTIONS, s.byte_evictions),
        (CTR_AUTO_RESPAWNS, s.auto_respawns),
        (CTR_QUARANTINES, s.quarantines),
        (CTR_INJECTED_FAULTS, s.injected_faults),
        (CTR_SHED_REJECTS, s.shed_rejects),
        (CTR_DEGRADED_SERVES, s.degraded_serves),
        (CTR_DEADLINE_EXPIRED, s.deadline_expired),
    ];
    for (idx, v) in shared {
        assert_eq!(m.counter(idx), v, "{}", COUNTER_NAMES[idx]);
    }
    assert_eq!(m.gauge(GAUGE_LRU_ENTRIES), s.lru_len);
    assert_eq!(m.gauge(GAUGE_QUEUE_DEPTH_PEAK), s.queue_depth_peak);
}

/// A single-shard `PolicyServer` in this process.
fn in_process_backend() -> ServerHandle {
    PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 1,
                service: service_cfg(),
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

#[test]
fn front_counts_each_shed_and_expiry_once() {
    // Two in-process backends behind a front with a 2-slot queue and
    // 1µs deadlines: every request is answered `Overloaded` by the
    // front, some shed at its admission and some routed, served by a
    // backend and then past their deadline. Counters are per
    // component, so in-process backends keep their own counts, and
    // each answer counts exactly once in the fan-in.
    let backend = in_process_backend;
    let backends = [backend(), backend()];
    let slots: Vec<SlotSpec> = backends
        .iter()
        .map(|b| SlotSpec::Remote(b.addr()))
        .collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig {
            queue_capacity: 2,
            max_queue_delay: Duration::from_millis(5),
            ..FrontConfig::default()
        },
    )
    .expect("bind front")
    .spawn();
    let batch = mixed_batch(16);
    let mut client = PolicyClient::connect(front.addr(), batch.len() as u16).expect("connect");
    let mut overloaded = 0u64;
    let mut pipeline = |client: &mut PolicyClient| {
        let ticket = client
            .submit_batch_deadline(&batch, Some(Duration::from_micros(1)))
            .expect("submit");
        for r in client.collect(ticket).expect("collect") {
            let e = r.expect_err("every request is rejected");
            assert_eq!(e.code, ServiceErrorCode::Overloaded);
            overloaded += 1;
        }
    };
    let adm = front.admission();
    let _ = (adm.admit(), adm.admit());
    pipeline(&mut client);
    adm.release(2, Duration::from_millis(1));
    pipeline(&mut client);

    let m = client.metrics().expect("scrape");
    let s = client.stats(None).expect("stats");
    assert_planes_agree(&m, &s);
    assert_eq!(overloaded, 2 * batch.len() as u64);
    assert_eq!(s.shed_rejects, overloaded, "one count per Overloaded");
    assert!(s.deadline_expired >= 1, "{s:?}");
    assert!(s.shed_rejects - s.deadline_expired >= batch.len() as u64);
    // The backends served exactly the requests that later expired,
    // and report them as their own.
    let mut served = 0;
    for b in &backends {
        let direct = PolicyClient::connect(b.addr(), 1)
            .expect("connect backend")
            .stats(None)
            .expect("backend stats");
        assert_eq!(direct.shed_rejects, 0, "backends shed nothing");
        served += direct.requests;
    }
    assert_eq!(s.requests, served);
    assert_eq!(s.requests, s.deadline_expired, "{s:?}");

    drop(client);
    front.shutdown();
}

#[test]
fn front_counts_each_request_latency_once() {
    // Latency histograms belong to the service that served, like
    // counters: a front over two backends in its own process reads
    // each served request once, not once per server in the process.
    let backends = [in_process_backend(), in_process_backend()];
    let slots: Vec<SlotSpec> = backends
        .iter()
        .map(|b| SlotSpec::Remote(b.addr()))
        .collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();
    let mut client = PolicyClient::connect(front.addr(), 2).expect("connect");
    let out = client.serve_batch(&mixed_batch(2)).expect("serve");
    assert!(out.iter().all(Result::is_ok));
    let m = client.metrics().expect("scrape");
    assert_eq!(m.hist(HIST_REQUEST_NS).total(), 2);
    assert_eq!(m.counter(CTR_REQUESTS), 2);
}

/// How a scripted backend spoils one reply in the middle of its
/// sub-batch.
#[derive(Debug, Clone, Copy)]
enum Spoil {
    /// Flip one bit deep inside the policy body, leaving the CRC as
    /// it was.
    FlipPolicyBit,
    /// Answer with one policy fewer than the request has nodes, in a
    /// well-formed frame with a valid CRC.
    DropOnePolicy,
}

/// A backend speaking v7 by hand on a raw listener: it serves every
/// request of its one connection correctly with its own
/// `PolicyService`, except the middle reply, which it spoils.
fn scripted_backend(spoil: Spoil) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted backend");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut svc = PolicyService::new(service_cfg());
        let mut codec = ServiceCodec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut requests = Vec::new();
        loop {
            // Once a request arrived, a quiet 100 ms ends the batch.
            let quiet = (!requests.is_empty()).then_some(Duration::from_millis(100));
            stream.set_read_timeout(quiet).unwrap();
            let n = match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => n,
                Err(_) if quiet.is_some() => 0,
                Err(_) => return,
            };
            codec.feed(&buf[..n]);
            let mut out = bytes::BytesMut::new();
            for msg in codec.drain().expect("router frames decode") {
                let reply = match msg {
                    ServiceMessage::Hello(h) => ServiceMessage::Welcome(WireWelcome {
                        id: h.id,
                        shards: 1,
                        max_batch: 1024,
                    }),
                    ServiceMessage::Ping(p) => ServiceMessage::Pong(WirePong { id: p.id }),
                    ServiceMessage::Request(r) => {
                        requests.push(r);
                        continue;
                    }
                    _ => continue,
                };
                ServiceCodec::encode(&reply, &mut out);
            }
            if n == 0 {
                let native: Vec<PolicyRequest> = requests
                    .iter()
                    .cloned()
                    .map(PolicyRequest::from_wire)
                    .collect();
                let mid = requests.len() / 2;
                for (k, (r, result)) in requests.iter().zip(svc.serve_batch(&native)).enumerate() {
                    let mut resp = result.expect("scripted backend serves").to_wire(r.id);
                    resp.corr = r.corr;
                    if k == mid {
                        if let Spoil::DropOnePolicy = spoil {
                            resp.policies.pop();
                        }
                    }
                    let at = out.len();
                    ServiceCodec::encode(&ServiceMessage::Response(resp), &mut out);
                    if k == mid {
                        if let Spoil::FlipPolicyBit = spoil {
                            // Prefix, then the 47-byte fixed part, then
                            // halfway into the policies.
                            let body = out.len() - at - 2 - 47 - 2;
                            out[at + 2 + 47 + body / 2] ^= 0x10;
                        }
                    }
                }
                requests.clear();
            }
            if !out.is_empty() && stream.write_all(&out).is_err() {
                return;
            }
        }
    });
    (addr, handle)
}

/// A spoiled reply in the middle of a backend's sub-batch voids that
/// whole sub-batch: the caller still gets the reference bits, every
/// request of the sub-batch is re-served by the fallback, and the
/// spoiled frame is never forwarded.
fn spoiled_reply_voids_the_sub_batch(spoil: Spoil) {
    let good = in_process_backend();
    let (scripted, script) = scripted_backend(spoil);
    let slots = [SlotSpec::Remote(good.addr()), SlotSpec::Remote(scripted)];
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();
    let batch = mixed_batch(22);
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    let mut client = PolicyClient::connect(front.addr(), batch.len() as u16).expect("connect");
    let got = client.serve_batch(&batch).expect("front round trip");
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_payload_identical(i, g, e);
    }
    let cs = front.router().cluster_stats();
    assert!(cs.routed[1] >= 3, "the scripted slot has a middle: {cs:?}");
    assert_eq!(cs.backend_failures, 1, "{spoil:?}");
    assert_eq!(cs.local_fallbacks, cs.routed[1], "{spoil:?}");
    assert_eq!(cs.remote_served, cs.routed[0], "{spoil:?}");
    drop(front);
    script.join().expect("scripted backend");
}

#[test]
fn corrupt_policy_bit_mid_sub_batch_falls_back_bit_identically() {
    spoiled_reply_voids_the_sub_batch(Spoil::FlipPolicyBit);
}

#[test]
fn wrong_node_count_reply_is_never_forwarded() {
    spoiled_reply_voids_the_sub_batch(Spoil::DropOnePolicy);
}

#[test]
fn supervisor_monitors_and_replaces_children() {
    let mut sup = Supervisor::spawn(
        backend_bin(),
        2,
        SupervisorConfig {
            backend_shards: 1,
            workers: Some(1),
            ..SupervisorConfig::default()
        },
    )
    .expect("spawn backends");
    assert_eq!(sup.len(), 2);
    assert_eq!(sup.alive_count(), 2);
    let old_addr = sup.addr(0);

    sup.kill(0).expect("kill");
    assert!(!sup.is_alive(0));
    assert_eq!(sup.alive_count(), 1);
    sup.kill(0).expect("idempotent kill");

    // The survivor still serves (straight to the backend, no front).
    let mut direct = PolicyClient::connect(sup.addr(1), 1).expect("connect survivor");
    direct.ping().expect("survivor pong");
    let out = direct
        .serve_batch(&mixed_batch(1))
        .expect("survivor serves");
    assert!(out[0].is_ok());

    // Respawn gives a fresh, live process (ephemeral port ⇒ the
    // address may differ; the important part is that it answers).
    let fresh = sup.respawn(0).expect("respawn");
    assert!(sup.is_alive(0));
    assert_eq!(sup.alive_count(), 2);
    assert_eq!(sup.addr(0), fresh);
    let mut revived = PolicyClient::connect(fresh, 1).expect("connect respawned");
    revived.ping().expect("respawned pong");
    let _ = old_addr; // the old address is dead; nothing to assert on it
}

/// A mixed local + remote topology serves the same bits as all-local.
#[test]
fn mixed_local_remote_topology_is_bit_identical() {
    let sup =
        Supervisor::spawn(backend_bin(), 1, SupervisorConfig::default()).expect("spawn backend");
    let slots = [SlotSpec::Remote(sup.addr(0)), SlotSpec::Local];
    let cluster = ClusterRouter::new(&slots, cluster_cfg());

    let batch: Vec<PolicyRequest> = mixed_batch(48);
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    let got = cluster.serve_batch(&batch);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        let (g, e) = (g.as_ref().unwrap(), e.as_ref().unwrap());
        assert_eq!(
            g.throughput.to_bits(),
            e.throughput.to_bits(),
            "request {i}"
        );
        for (gp, ep) in g.policies.iter().zip(&e.policies) {
            assert_eq!(gp.listen.to_bits(), ep.listen.to_bits(), "request {i}");
            assert_eq!(gp.transmit.to_bits(), ep.transmit.to_bits(), "request {i}");
        }
    }
    let stats = cluster.cluster_stats();
    assert!(stats.remote_served > 0, "remote slot took traffic");
    assert!(stats.local_served > 0, "local slot took traffic");
    assert_eq!(stats.local_fallbacks, 0);
}

/// Topology discovery feeds a real front: addresses from the layered
/// config (CLI beating env) dial supervisor-spawned backends, the
/// discovered `FrontConfig` carries the overload knobs, and the served
/// bits match the single-process reference.
#[test]
fn discovered_topology_serves_through_a_real_front() {
    use econcast_cluster::{Source, Topology};

    let sup =
        Supervisor::spawn(backend_bin(), 2, SupervisorConfig::default()).expect("spawn backends");
    let addrs = sup.addrs();
    let cli = vec![
        "--backends".to_string(),
        format!("{},{}", addrs[0], addrs[1]),
        "--queue-capacity".to_string(),
        "64".to_string(),
    ];
    // The env layer offers a bogus backend list; the CLI layer must
    // win, and provenance must say so.
    let env = |var: &str| (var == "ECONCAST_CLUSTER_BACKENDS").then(|| "127.0.0.1:1".to_string());
    let topo = Topology::discover(None, env, &cli).expect("discover");
    assert_eq!(topo.backends.source, Source::Cli("--backends".into()));
    assert_eq!(topo.queue_capacity.value, 64);

    let slots = topo.slot_specs().expect("resolve backends");
    assert_eq!(slots.len(), 2);
    let front = ClusterFront::bind(
        topo.listen.value.as_str(),
        ClusterRouter::new(&slots, cluster_cfg()),
        topo.front_config(),
    )
    .expect("bind front")
    .spawn();

    let batch = mixed_batch(48);
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    let got = client.serve_batch(&batch).expect("serve");
    for (i, wire) in got.iter().enumerate() {
        assert_payload_identical(i, wire, &expected[i]);
    }

    // The discovered backends really served it — no silent fallback.
    let stats = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats()
    };
    assert_eq!(stats.local_fallbacks, 0, "{stats:?}");
    assert!(stats.remote_served >= batch.len() as u64, "{stats:?}");

    drop(client);
    front.shutdown();
}

/// A two-local-slot front with a one-connection accept pool.
fn one_slot_front() -> econcast_cluster::FrontHandle {
    ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&[SlotSpec::Local, SlotSpec::Local], cluster_cfg()),
        FrontConfig {
            max_connections: 1,
            ..FrontConfig::default()
        },
    )
    .expect("bind front")
    .spawn()
}

/// An over-cap client waits in the listen backlog instead of being
/// refused: its handshake completes once the held slot frees, and it
/// is then served the reference bits.
#[test]
fn over_cap_front_client_is_served_once_the_slot_frees() {
    use std::sync::mpsc::{channel, RecvTimeoutError};

    let front = one_slot_front();
    let batch = mixed_batch(48);
    let expected = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    })
    .serve_batch(&batch);

    // A served call proves the first connection's handler owns the
    // one slot.
    let mut first = PolicyClient::connect(front.addr(), 64).expect("connect first");
    assert!(first.serve_batch(&batch[..1]).expect("first serves")[0].is_ok());

    let addr = front.addr();
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(PolicyClient::connect(addr, 64));
    });
    // While the slot is held the second handshake neither completes
    // nor fails: the client sits in the backlog.
    assert!(
        matches!(
            rx.recv_timeout(Duration::from_millis(500)),
            Err(RecvTimeoutError::Timeout)
        ),
        "over-cap client was answered (or refused) while the slot was held"
    );

    drop(first);
    let mut second = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("handshake completes once the slot frees")
        .expect("over-cap client connects");
    let got = second.serve_batch(&batch).expect("serve");
    assert_eq!(got.len(), batch.len());
    for (i, wire) in got.iter().enumerate() {
        assert_payload_identical(i, wire, &expected[i]);
    }
    drop(second);
    front.shutdown();
}

/// Shutdown is not wedged behind a saturated front accept pool, and
/// the held connection is drained to a clean close.
#[test]
fn front_shutdown_does_not_hang_when_the_accept_pool_is_saturated() {
    let front = one_slot_front();
    let mut client = PolicyClient::connect(front.addr(), 1).expect("connect");
    assert!(client.serve_batch(&mixed_batch(1)).expect("serve")[0].is_ok());

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        front.shutdown();
        done_tx.send(()).expect("report shutdown");
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("front shutdown wedged behind the saturated accept pool");

    let err = client
        .serve_batch(&mixed_batch(1))
        .expect_err("drained connection is closed after shutdown");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
        ),
        "expected a clean close, got {err:?}"
    );
}
