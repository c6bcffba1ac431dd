//! Self-healing acceptance tests: a deterministic fault plan fired
//! against a live cluster (process kills, frame corruption, stalls,
//! partial writes) while the supervisor policy loop heals — every
//! response bit-identical to the single-process path and zero
//! caller-visible errors throughout. Plus: live ring rebalancing,
//! crash-loop quarantine, and the graceful drain of a mid-frame
//! request.

use bytes::BytesMut;
use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterHealer, ClusterRouter, Fault, FaultEvent, FaultPlan,
    FaultProxy, FrontConfig, HealerConfig, RemoteConfig, SlotSpec, Supervisor, SupervisorConfig,
};
use econcast_core::{NodeParams, ThroughputMode};
use econcast_proto::service::{ServiceCodec, ServiceMessage, WireHello};
use econcast_service::workload::mixed_batch;
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, RouterConfig, ServerConfig, ServerHandle,
    ServiceConfig, ShardRouter,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[path = "../../service/tests/common/contract.rs"]
mod contract;
use contract::assert_same;

/// The backend executable Cargo built for this crate's tests.
fn backend_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_policy_backend"))
}

/// Shared per-shard service config: backends, fallback, and reference
/// must match for the bit-identical guarantee.
fn service_cfg() -> ServiceConfig {
    ServiceConfig::default()
}

/// Dialer config for fault runs: tight timeouts so stalls surface as
/// failures well inside a round, and no spontaneous reprobe — the
/// healer's ping sweep is the only re-adoption path, which is exactly
/// what the tests exercise.
fn chaos_cfg() -> ClusterConfig {
    ClusterConfig {
        service: service_cfg(),
        remote: RemoteConfig {
            dial_retries: 2,
            backoff: Duration::from_millis(10),
            io_timeout: Some(Duration::from_millis(800)),
            unhealthy_after: 1,
            reprobe_after: Duration::from_secs(3600),
        },
    }
}

/// The chaos acceptance test: a seeded fault plan covering every
/// fault class fires across sustained mixed batches; the policy loop
/// heals (respawn + readiness probe + retarget) with no operator
/// call; every response stays bit-identical to the single-process
/// path and no caller ever sees an error.
#[test]
fn chaos_plan_is_absorbed_bit_identically_while_the_policy_loop_heals() {
    const ROUNDS: usize = 12;
    const STALL: Duration = Duration::from_millis(1500);
    let plan = FaultPlan::seeded(0x00EC_0CA5, ROUNDS, 2, STALL);
    // The plan guarantees class coverage by construction; pin it so a
    // generator regression cannot silently weaken this test.
    assert!(plan.contains(|e| matches!(e, FaultEvent::Kill { .. })));
    assert!(plan.contains(|e| matches!(
        e,
        FaultEvent::Proxy {
            fault: Fault::CorruptFrame,
            ..
        }
    )));
    assert!(plan.contains(|e| matches!(
        e,
        FaultEvent::Proxy {
            fault: Fault::Stall(_),
            ..
        }
    )));
    assert!(plan.contains(|e| matches!(
        e,
        FaultEvent::Proxy {
            fault: Fault::PartialWrite,
            ..
        }
    )));

    let batch = mixed_batch(256);
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    // Two supervised backend processes, each behind a fault proxy; the
    // router dials the proxies, so every byte of backend traffic
    // passes the injection point.
    let sup = Arc::new(Mutex::new(
        Supervisor::spawn(backend_bin(), 2, SupervisorConfig::default()).expect("spawn backends"),
    ));
    let addrs = sup.lock().unwrap().addrs();
    let router = ClusterRouter::new(
        &[SlotSpec::Remote(addrs[0]), SlotSpec::Remote(addrs[1])],
        chaos_cfg(),
    );
    let fired = router.injected_fault_counter();
    let proxies: Arc<Vec<FaultProxy>> = Arc::new(
        addrs
            .iter()
            .map(|&a| FaultProxy::spawn(a, Arc::clone(&fired)).expect("spawn proxy"))
            .collect(),
    );
    for (slot, proxy) in proxies.iter().enumerate() {
        assert!(router.retarget_slot(slot, proxy.addr()));
    }
    let front = ClusterFront::bind("127.0.0.1:0", router, FrontConfig::default())
        .expect("bind front")
        .spawn();

    // The policy loop: respawn dead backends, and keep the router
    // dialing the proxy by retargeting the proxy's *upstream* at the
    // replacement instead of the ring slot.
    let healer = ClusterHealer::spawn_supervised(
        Arc::clone(front.router()),
        Arc::clone(&sup),
        vec![0, 1],
        Some(Box::new({
            let proxies = Arc::clone(&proxies);
            move |backend, fresh| {
                proxies[backend].set_upstream(fresh);
                proxies[backend].addr()
            }
        })),
        HealerConfig {
            sweep_interval: Duration::from_millis(50),
            respawn_backoff: Duration::from_millis(100),
            max_respawns_per_window: 10, // kills here are scripted, not crash loops
            ..HealerConfig::default()
        },
    );

    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    let mut kills = 0u64;
    for (round, event) in plan.events.iter().enumerate() {
        match event {
            None => {}
            Some(FaultEvent::Proxy { backend, fault }) => proxies[*backend].arm(*fault),
            Some(FaultEvent::Kill { backend }) => {
                sup.lock().unwrap().kill(*backend).expect("scripted kill");
                // Proxies count their own firings; scripted kills are
                // the harness's to count.
                fired.fetch_add(1, Ordering::Relaxed);
                kills += 1;
            }
        }
        for (c, chunk) in batch.chunks(64).enumerate() {
            let got = client.serve_batch(chunk).expect("front round trip");
            assert_eq!(got.len(), chunk.len());
            for (k, wire) in got.iter().enumerate() {
                let i = c * 64 + k;
                assert_same("chaos plan", i, wire, &expected[i]);
            }
        }
        // Quiet gap between rounds: healing (sweep, respawn, probe,
        // retarget) happens concurrently with serving, and the even
        // plan rounds are quiet by construction to let it land.
        std::thread::sleep(Duration::from_millis(200));
        let _ = round;
    }

    // Convergence: the policy loop must bring the whole cluster back
    // with no operator call — both processes alive, both slots
    // healthy.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let healthy = {
            let router = front.router();
            let guard = router;
            guard.cluster_stats().healthy
        };
        if healthy.iter().all(|&h| h) && sup.lock().unwrap().alive_count() == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never converged back to healthy: {healthy:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let stats = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats()
    };
    assert!(kills >= 1, "the plan must script at least one kill");
    assert!(
        stats.auto_respawns >= kills,
        "every scripted kill must be healed by the policy loop: {stats:?}"
    );
    assert_eq!(stats.quarantines, 0, "scripted kills are not crash loops");
    assert!(
        stats.injected_faults >= kills + 3,
        "kill + corruption + stall + partial write must all have fired: {stats:?}"
    );
    assert!(
        stats.backend_failures >= 1 && stats.local_fallbacks >= 1,
        "faults must have been absorbed by failover, not invisible: {stats:?}"
    );
    assert!(stats.remote_served > 0, "healthy rounds served remotely");

    // The robustness counters ride the ordinary scrape: the wire
    // aggregate carries the router's counts. (The fan-in's own dials
    // pass through the proxies and may consume a still-armed fault,
    // so bracket the fault counter instead of pinning it.)
    let aggregate = client.stats(None).expect("aggregate stats");
    let after = {
        let router = front.router();
        let guard = router;
        guard.cluster_stats()
    };
    assert_eq!(aggregate.auto_respawns, stats.auto_respawns);
    assert!(
        aggregate.injected_faults >= stats.injected_faults
            && aggregate.injected_faults <= after.injected_faults,
        "scraped {} outside [{}, {}]",
        aggregate.injected_faults,
        stats.injected_faults,
        after.injected_faults
    );

    // The flight recorder survived the turbulence: the forced
    // failovers and the policy loop's respawns are in the ring, the
    // ring is globally ordered (monotone sequence numbers and
    // timestamps), and the black-box dump is structurally sound
    // Perfetto JSON naming the events.
    let events = econcast_metrics::recorder_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == econcast_metrics::OpsKind::FailoverReserve),
        "failover re-serves must be on the record"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == econcast_metrics::OpsKind::Respawn),
        "policy-loop respawns must be on the record"
    );
    assert!(
        events
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].ts_ns <= w[1].ts_ns),
        "recorder events must be in order"
    );
    let dump = econcast_metrics::recorder_dump_json();
    assert!(dump.starts_with("{\"traceEvents\":["));
    assert!(dump.trim_end().ends_with("]}"));
    assert_eq!(
        dump.matches('{').count(),
        dump.matches('}').count(),
        "dump braces must balance"
    );
    assert!(dump.contains("\"name\":\"failover_reserve\""));
    assert!(dump.contains("\"name\":\"respawn\""));

    drop(client);
    healer.shutdown();
    front.shutdown();
}

/// One in-process backend server for rebalance tests (in-process so
/// the test controls its config).
fn bind_backend() -> (ServerHandle, SocketAddr) {
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 2,
                service: service_cfg(),
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind backend");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

/// Regression: a refused dial is a failed dial. The proxy drops the
/// first connection right after accepting it; the dial must surface as
/// `Err` rather than settle on a reduced protocol through a second
/// dial, and the next dial is a full-protocol link — its batch is
/// bit-identical to the in-process reference and the metrics scrape
/// works on it.
#[test]
fn refused_dial_fails_and_the_next_dial_speaks_the_full_protocol() {
    let (handle, addr) = bind_backend();
    let proxy = FaultProxy::spawn(addr, Arc::new(AtomicU64::new(0))).expect("spawn proxy");
    let timeout = Duration::from_secs(5);
    let batch = mixed_batch(32);

    proxy.arm(Fault::RefuseConnect);
    let refused = PolicyClient::connect_with_timeout(proxy.addr(), batch.len() as u16, timeout);
    assert!(refused.is_err(), "a refused dial must not yield a link");
    assert_eq!(proxy.fired(), 1);

    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);
    let mut client = PolicyClient::connect_with_timeout(proxy.addr(), batch.len() as u16, timeout)
        .expect("clean dial after the refusal");
    let got = client.serve_batch(&batch).expect("serve");
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_same("refused dial", i, g, e);
    }
    let snap = client.metrics().expect("metrics scrape on the new link");
    assert!(!snap.counters.is_empty());
    assert_eq!(proxy.fired(), 1, "the fault fired once");

    drop(client);
    proxy.shutdown();
    handle.shutdown();
}

/// A homogeneous request in one fixed family, varying only the
/// budget.
fn family_req(rho_uw: f64) -> PolicyRequest {
    PolicyRequest {
        tolerance: 1e-1,
        ..PolicyRequest::homogeneous(
            6,
            NodeParams::from_microwatts(rho_uw, 500.0, 450.0),
            0.5,
            ThroughputMode::Groupput,
            1e-2,
        )
    }
}

/// Live ring rebalancing under a mixed heterogeneous and homogeneous
/// load: a backend added mid-run takes its vnodes at once, and a
/// retired one's key ranges fall to its ring successors. Inherited
/// keys solve cold on their new owner, so every answer through both
/// moves matches the in-process reference bit for bit, with zero
/// errors and no failover.
#[test]
fn live_reshard_keeps_answers_bit_identical() {
    let (handle_a, addr_a) = bind_backend();
    let (handle_b, addr_b) = bind_backend();
    let router = Arc::new(ClusterRouter::new(
        &[SlotSpec::Remote(addr_a), SlotSpec::Remote(addr_b)],
        chaos_cfg(),
    ));
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    // The acceptance mix plus fresh budgets in one homogeneous family,
    // offset per phase so each phase brings keys no slot has seen.
    let phase = |offset: f64| -> Vec<PolicyRequest> {
        let mut batch = mixed_batch(48);
        batch.extend((0..16).map(|i| family_req(offset + 0.6 * f64::from(i))));
        batch
    };
    let serve_checked = |batch: &[PolicyRequest]| {
        let expected = reference.serve_batch(batch);
        let got = router.serve_batch(batch);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_same("live reshard", i, g, e);
        }
    };
    serve_checked(&phase(5.0));

    // Grow the ring under load: the new backend takes its vnodes and
    // serves its share of the next batch from a cold cache.
    let (handle_c, addr_c) = bind_backend();
    let slot = router.add_backend(addr_c);
    assert_eq!(slot, 2);
    serve_checked(&phase(20.0));
    let inheritor = PolicyClient::connect(addr_c, 1)
        .expect("connect new backend")
        .stats(None)
        .expect("new backend stats");
    assert!(
        inheritor.requests > 0,
        "the new slot must have inherited keys"
    );

    // Shrink the ring under load: retire slot 0; its vnodes vanish
    // and serving continues bit-identically.
    let routed_0_before = router.cluster_stats().routed[0];
    assert!(router.remove_backend(0));
    serve_checked(&phase(35.0));
    let stats = router.cluster_stats();
    assert_eq!(stats.healthy, vec![false, true, true], "slot 0 retired");
    assert_eq!(
        stats.routed[0], routed_0_before,
        "a retired slot owns no vnodes and takes no new keys"
    );
    assert_eq!(stats.backend_failures, 0, "{stats:?}");
    assert_eq!(stats.local_fallbacks, 0, "{stats:?}");

    handle_a.shutdown();
    handle_b.shutdown();
    handle_c.shutdown();
}

/// Crash-loop damping: a backend that keeps dying right after
/// readiness burns its respawn window and gets quarantined onto a
/// local in-process slot — serving continues bit-identically the
/// whole time and the healer stops restarting it.
#[test]
fn crash_looping_backend_is_quarantined_onto_a_local_slot() {
    let sup = Arc::new(Mutex::new(
        Supervisor::spawn(
            backend_bin(),
            1,
            SupervisorConfig {
                extra_args: vec!["--crash-after-ms".into(), "400".into()],
                ..SupervisorConfig::default()
            },
        )
        .expect("spawn crash-looping backend"),
    ));
    let addr = sup.lock().unwrap().addr(0);
    let router = Arc::new(ClusterRouter::new(&[SlotSpec::Remote(addr)], chaos_cfg()));
    let _healer = ClusterHealer::spawn_supervised(
        Arc::clone(&router),
        Arc::clone(&sup),
        vec![0],
        None,
        HealerConfig {
            sweep_interval: Duration::from_millis(50),
            respawn_backoff: Duration::from_millis(50),
            max_respawns_per_window: 2,
            probe_retries: 3,
            ..HealerConfig::default()
        },
    );

    let batch = mixed_batch(24);
    let reference = ShardRouter::new(RouterConfig {
        shards: 1,
        service: service_cfg(),
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    // Keep serving through the crash loop until the healer gives up
    // on the backend; every response must stay clean throughout.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = router.serve_batch(&batch);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_same("crash loop", i, g, e);
        }
        if router.cluster_stats().quarantines >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "healer never quarantined the crash loop"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let stats = router.cluster_stats();
    assert_eq!(stats.quarantines, 1);
    assert!(
        stats.auto_respawns <= 2,
        "damping must bound the respawn churn: {stats:?}"
    );
    assert_eq!(
        stats.healthy,
        vec![true],
        "a quarantined slot is a healthy local slot"
    );

    // The quarantined slot serves in-process from here on.
    let served_before = stats.local_served;
    let got = router.serve_batch(&batch);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_same("crash loop", i, g, e);
    }
    assert!(router.cluster_stats().local_served > served_before);
}

/// Reads the next complete protocol message off a raw stream.
fn read_msg(stream: &mut TcpStream, codec: &mut ServiceCodec) -> ServiceMessage {
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(msg) = codec.next_message().expect("clean stream") {
            return msg;
        }
        assert!(Instant::now() < deadline, "timed out awaiting a reply");
        match stream.read(&mut buf) {
            Ok(0) => panic!("peer closed before replying"),
            Ok(n) => codec.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("client-visible stream error: {e}"),
        }
    }
}

/// Graceful-drain regression: a front shutdown issued while a client
/// is mid-frame must wait for the frame's tail, serve the request,
/// write the reply, and only then close — never a client-visible
/// stream error.
#[test]
fn front_shutdown_drains_a_mid_frame_request_without_stream_errors() {
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&[SlotSpec::Local], chaos_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();
    let addr = front.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut codec = ServiceCodec::new();

    // Handshake by hand — the test owns the framing.
    let mut out = BytesMut::new();
    ServiceCodec::encode(
        &ServiceMessage::Hello(WireHello {
            id: 1,
            max_batch: 1,
        }),
        &mut out,
    );
    stream.write_all(&out).expect("send hello");
    assert!(matches!(
        read_msg(&mut stream, &mut codec),
        ServiceMessage::Welcome(_)
    ));

    // Send only the first half of a request frame, then shut the
    // front down while the frame is dangling.
    let req = mixed_batch(1).pop().expect("one request");
    let mut frame = BytesMut::new();
    ServiceCodec::encode(&ServiceMessage::Request(req.to_wire(42)), &mut frame);
    let split = frame.len() / 2;
    stream.write_all(&frame[..split]).expect("send frame head");
    std::thread::sleep(Duration::from_millis(250)); // handler buffers the head
    let shutdown = std::thread::spawn(move || front.shutdown());
    std::thread::sleep(Duration::from_millis(500)); // stop flag observed; drain grace running

    // The tail arrives inside the grace window: the request must be
    // served and answered before the connection closes.
    stream.write_all(&frame[split..]).expect("send frame tail");
    match read_msg(&mut stream, &mut codec) {
        ServiceMessage::Response(r) => assert_eq!(r.id, 42),
        other => panic!("expected the drained response, got {other:?}"),
    }

    // And then a clean EOF — not an error, not a reset.
    let mut tail = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match stream.read(&mut tail) {
            Ok(0) => break,
            Ok(_) => panic!("unexpected bytes after the drained response"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(Instant::now() < deadline, "no EOF after drain");
            }
            Err(e) => panic!("client-visible stream error on drain: {e}"),
        }
    }
    shutdown.join().expect("shutdown thread");
}
