//! The one router under every shape it serves in: local shards in
//! process, a `PolicyServer` over TCP, and a cluster front over
//! backends — all answering a seeded random workload bit for bit like
//! a single `PolicyService` — plus the isolation its per-slot locks
//! buy: a wedged backend stalls only the keys it owns, and a health
//! probe of it stalls none.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterHealer, ClusterRouter, FrontConfig, HealerConfig,
    RemoteConfig, SlotSpec,
};
use econcast_core::{NodeParams, ThroughputMode};
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyResponse, PolicyServer, PolicyService, RouterConfig,
    ServerConfig, ServerHandle, ServiceConfig, ServiceError, ServiceErrorCode, ShardRouter,
    WireResult,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../service/tests/common/gen.rs"]
mod gen;
use gen::{random_request, Gen};

/// One configuration for every slot, backend, fallback and the
/// reference: bit-identity needs them equal.
fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    }
}

fn backend(shards: usize) -> ServerHandle {
    PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards,
                service: service_cfg(),
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

/// Whether the reference answers a request without a long dual
/// descent: closed-form (homogeneous), refused (over the node
/// ceiling), or small enough that the exact solver is quick.
fn cheap(req: &PolicyRequest) -> bool {
    let homogeneous = req.budgets_w.iter().all(|&b| b == req.budgets_w[0]);
    homogeneous || req.budgets_w.len() > 256 || req.budgets_w.len() <= 4
}

/// The seeded workload: random requests (cheap ones), plus exact
/// duplicates, node-order permutations and invalid requests of every
/// validation kind, cut into batches.
fn workload(seed: u64, batches: usize, batch: usize) -> Vec<Vec<PolicyRequest>> {
    let mut g = Gen(seed);
    let mut reqs: Vec<PolicyRequest> = Vec::new();
    while reqs.len() < batches * batch {
        let req = match g.below(8) {
            0 if !reqs.is_empty() => reqs[g.below(reqs.len())].clone(),
            1 if !reqs.is_empty() => {
                let mut req = reqs[g.below(reqs.len())].clone();
                for i in (1..req.budgets_w.len()).rev() {
                    req.budgets_w.swap(i, g.below(i + 1));
                }
                req
            }
            2 => {
                let mut req = random_request(&mut g);
                match g.below(4) {
                    0 => req.budgets_w.clear(),
                    1 => req.budgets_w[0] = -1e-6,
                    2 => req.sigma = f64::NAN,
                    _ => req.tolerance = 0.0,
                }
                req
            }
            _ => {
                let req = random_request(&mut g);
                if !cheap(&req) {
                    continue;
                }
                req
            }
        };
        reqs.push(req);
    }
    reqs.chunks(batch).map(<[PolicyRequest]>::to_vec).collect()
}

/// Asserts one answer carries the reference's bits: policies,
/// throughput, certificate and convergence — or its error code. Tier
/// labels may differ (a batching boundary turns a fresh serve into an
/// `Exact` replay of the same bits).
fn assert_same(
    what: &str,
    i: usize,
    got: Result<&PolicyResponse, ServiceErrorCode>,
    want: &Result<PolicyResponse, ServiceError>,
) {
    let (got, want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(got), Err(want)) => {
            assert_eq!(got, want.wire_code(), "{what}: request {i}");
            return;
        }
        (got, want) => panic!("{what}: request {i}: got {got:?}, want {want:?}"),
    };
    let bits = |r: &PolicyResponse| {
        let c = &r.certificate;
        let policies: Vec<_> = r
            .policies
            .iter()
            .map(|p| (p.listen.to_bits(), p.transmit.to_bits()))
            .collect();
        let cert = [c.t_sigma, c.oracle, c.dual_upper].map(f64::to_bits);
        (policies, r.throughput.to_bits(), cert, r.converged)
    };
    assert_eq!(bits(got), bits(want), "{what}: request {i}");
}

fn assert_native(
    what: &str,
    got: &[Result<PolicyResponse, ServiceError>],
    want: &[Result<PolicyResponse, ServiceError>],
) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_same(what, i, g.as_ref().map_err(ServiceError::wire_code), w);
    }
}

fn assert_wire(
    what: &str,
    reqs: &[PolicyRequest],
    got: &[WireResult],
    want: &[Result<PolicyResponse, ServiceError>],
) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let g = g
            .as_ref()
            .map(|r| PolicyResponse::from_wire(r, reqs[i].sigma))
            .map_err(|e| e.code);
        assert_same(what, i, g.as_ref().map_err(|&c| c), w);
    }
}

#[test]
fn every_router_shape_answers_like_a_single_service() {
    let batches = workload(0x0ee_2026, 6, 24);
    let mut reference = PolicyService::new(service_cfg());
    let want: Vec<_> = batches.iter().map(|b| reference.serve_batch(b)).collect();
    assert!(
        want.iter().flatten().any(Result::is_err) && want.iter().flatten().any(Result::is_ok),
        "the workload mixes answers and refusals"
    );

    // In process: the router over 1, 2, 3 and 5 local shards.
    for shards in [1usize, 2, 3, 5] {
        let router = ShardRouter::new(RouterConfig {
            shards,
            service: service_cfg(),
            ..RouterConfig::default()
        });
        for (b, reqs) in batches.iter().enumerate() {
            let what = format!("{shards} shards, batch {b}");
            assert_native(&what, &router.serve_batch(reqs), &want[b]);
        }
    }

    // Over TCP: a three-shard PolicyServer.
    let server = backend(3);
    let mut client = PolicyClient::connect(server.addr(), 64).expect("connect server");
    for (b, reqs) in batches.iter().enumerate() {
        let got = client.serve_batch(reqs).expect("server round trip");
        assert_wire(&format!("server, batch {b}"), reqs, &got, &want[b]);
    }
    drop(client);
    server.shutdown();

    // A front over two backends, four clients at once, each walking
    // the batches from a different start so they contend on slots.
    let backends = [backend(1), backend(1)];
    let slots = backends.each_ref().map(|b| SlotSpec::Remote(b.addr()));
    let router = ClusterRouter::new(
        &slots,
        ClusterConfig {
            service: service_cfg(),
            ..ClusterConfig::default()
        },
    );
    let front = ClusterFront::bind("127.0.0.1:0", router, FrontConfig::default())
        .expect("bind front")
        .spawn();
    std::thread::scope(|scope| {
        for k in 0..4 {
            let (batches, want, addr) = (&batches, &want, front.addr());
            scope.spawn(move || {
                let mut client = PolicyClient::connect(addr, 64).expect("connect front");
                for step in 0..batches.len() {
                    let b = (k + step) % batches.len();
                    let got = client.serve_batch(&batches[b]).expect("front round trip");
                    let what = format!("front client {k}, batch {b}");
                    assert_wire(&what, &batches[b], &got, &want[b]);
                }
            });
        }
    });
    let stats = front.router().cluster_stats();
    assert_eq!(stats.backend_failures, 0, "{stats:?}");
    assert!(stats.remote_served > 0, "{stats:?}");
    front.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A backend that accepts connections and never answers: every dial
/// completes, every handshake stalls until the dialer's I/O timeout.
/// Counts the connections it accepted.
struct Wedged {
    listener_addr: std::net::SocketAddr,
    accepted: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Wedged {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind wedged backend");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let listener_addr = listener.local_addr().expect("addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (accepted, stop) = (Arc::clone(&accepted), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut held = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            held.push(stream);
                            accepted.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };
        Wedged {
            listener_addr,
            accepted,
            stop,
            thread: Some(thread),
        }
    }

    /// Waits until at least `n` connections were accepted.
    fn await_accepted(&self, n: usize) {
        wait_for("a dial to the wedged backend", || {
            self.accepted.load(Ordering::SeqCst) >= n
        });
    }
}

/// Polls `cond` until it holds (panics after 30 s).
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl Drop for Wedged {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn homogeneous(n: usize) -> PolicyRequest {
    PolicyRequest::homogeneous(
        n,
        NodeParams::from_microwatts(10.0, 500.0, 450.0),
        0.5,
        ThroughputMode::Groupput,
        1e-2,
    )
}

#[test]
fn a_wedged_slot_blocks_only_its_own_keys() {
    // The dialer's I/O timeout is how long a batch (or a probe) stays
    // stuck on the wedged backend. Everything the healthy client does
    // must finish well inside it.
    const STUCK: Duration = Duration::from_secs(4);
    let healthy = backend(1);
    let wedged = Wedged::spawn();
    let router = ClusterRouter::new(
        &[
            SlotSpec::Remote(healthy.addr()),
            SlotSpec::Remote(wedged.listener_addr),
        ],
        ClusterConfig {
            service: service_cfg(),
            remote: RemoteConfig {
                dial_retries: 1,
                io_timeout: Some(STUCK),
                unhealthy_after: 1,
                reprobe_after: Duration::from_secs(3600),
                ..RemoteConfig::default()
            },
        },
    );
    // Split a family of instances by home slot.
    let (mut on_healthy, mut on_wedged) = (Vec::new(), Vec::new());
    for n in 2..200 {
        let req = homogeneous(n);
        let canon = econcast_statespace::CanonicalInstance::new(
            &req.budgets_w,
            req.listen_w,
            req.transmit_w,
            req.sigma,
            req.objective,
            req.tolerance,
        );
        match router.slot_of_key(&canon.key) {
            0 => on_healthy.push(req),
            _ => on_wedged.push(req),
        }
    }
    on_healthy.truncate(8);
    on_wedged.truncate(8);
    assert!(on_healthy.len() == 8 && on_wedged.len() == 8);
    let front = ClusterFront::bind("127.0.0.1:0", router, FrontConfig::default())
        .expect("bind front")
        .spawn();
    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect front");
    client.serve_batch(&on_healthy).expect("warm-up");
    // The healthy client's work while the wedged slot is held: a run
    // of round trips, each answered.
    let healthy_rounds = |client: &mut PolicyClient| {
        for _ in 0..10 {
            let got = client.serve_batch(&on_healthy).expect("healthy round trip");
            assert!(got.iter().all(Result::is_ok));
        }
    };

    // 1. Another client's batch is stuck on the wedged slot: its dial
    //    completed, its handshake waits out the I/O timeout. A third
    //    client's batch has keys on both slots and queues behind it for
    //    the wedged one, after its healthy keys were served.
    let mixed: Vec<PolicyRequest> = on_healthy[..4]
        .iter()
        .chain(&on_wedged[..4])
        .cloned()
        .collect();
    let (stuck_done, mixed_done) = (AtomicBool::new(false), AtomicBool::new(false));
    let client_batch = |batch: &[PolicyRequest], done: &AtomicBool| {
        let mut other = PolicyClient::connect(front.addr(), 64).expect("connect front");
        let got = other.serve_batch(batch).expect("stuck batch answered");
        // Failed over to the fallback, never a caller error.
        assert!(got.iter().all(Result::is_ok));
        done.store(true, Ordering::SeqCst);
    };
    std::thread::scope(|scope| {
        scope.spawn(|| client_batch(&on_wedged, &stuck_done));
        wedged.await_accepted(1);
        let backend_served = || healthy.router().cluster_stats().local_served;
        let before = backend_served();
        scope.spawn(|| client_batch(&mixed, &mixed_done));
        wait_for("the mixed batch's healthy keys", || {
            backend_served() >= before + 4
        });
        healthy_rounds(&mut client);
        assert!(
            !stuck_done.load(Ordering::SeqCst) && !mixed_done.load(Ordering::SeqCst),
            "the healthy client waited for the wedged batches"
        );
    });

    // 2. A healer sweep is pinging the wedged backend: the probe's dial
    //    completed, its handshake waits out the I/O timeout.
    let healer = ClusterHealer::spawn(
        Arc::clone(front.router()),
        HealerConfig {
            sweep_interval: Duration::from_millis(10),
            ..HealerConfig::default()
        },
    );
    wedged.await_accepted(2);
    let probing_since = Instant::now();
    healthy_rounds(&mut client);
    assert!(
        probing_since.elapsed() < STUCK,
        "the healthy client waited for the health probe"
    );

    // 3. The wedged slot is down, so its own keys go straight to the
    //    fallback: the probe holds no slot lock while it waits on the
    //    backend, and a batch of those keys comes back well inside the
    //    I/O timeout.
    let fallback_since = Instant::now();
    let got = client.serve_batch(&on_wedged).expect("fallback round trip");
    assert!(got.iter().all(Result::is_ok));
    assert!(
        fallback_since.elapsed() < STUCK / 4,
        "the down slot's batch waited {:?} for the health probe",
        fallback_since.elapsed()
    );
    healer.shutdown();
    drop(client);
    front.shutdown();
    healthy.shutdown();
}
