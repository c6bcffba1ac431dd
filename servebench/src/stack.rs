//! The served stack under test: two single-shard backend
//! `PolicyServer`s behind a `ClusterFront`, all on loopback inside
//! this process.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, FrontHandle, SlotSpec,
};
use econcast_service::{
    PolicyServer, PolicyService, RouterConfig, ServerConfig, ServerHandle, ServiceConfig,
    ShardRouter,
};
use std::net::SocketAddr;

/// Exact-tier entries per backend. The cold universe is sized against
/// it; the hot pool fits in it.
pub const LRU_CAPACITY: usize = 64;

/// Admission-queue bound on the front and on each backend. Large
/// enough that one batch-256 call never climbs the degrade rung on its
/// own (the ladder degrades past half the capacity), so every answer
/// stays comparable bit for bit with the reference.
const QUEUE_CAPACITY: usize = 1024;

/// Per-shard configuration shared by the backends, the front's
/// fallback solver and every in-process replica. One solve worker per
/// shard: the two backends are the stack's parallelism, and a serial
/// solve phase keeps the layer ledger additive.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        lru_capacity: LRU_CAPACITY,
        workers: Some(1),
        queue_capacity: QUEUE_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// The configuration of one backend's shard router.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        shards: 1,
        service: service_config(),
        ..RouterConfig::default()
    }
}

/// The in-process answer reference: the same configuration with an
/// exact tier large enough never to evict, so every request is solved
/// once and replayed bit for bit afterwards.
pub fn reference_service() -> PolicyService {
    PolicyService::new(ServiceConfig {
        lru_capacity: 1 << 20,
        ..service_config()
    })
}

/// In-process replica of one backend's shard router.
pub fn shard_replica() -> ShardRouter {
    ShardRouter::new(router_config())
}

/// In-process replica of one backend's policy service.
pub fn service_replica() -> PolicyService {
    PolicyService::new(service_config())
}

/// Scheduling niceness of every thread the served stack runs on. The
/// load generator shares the host's CPUs with the stack; running the
/// stack one notch below it (as a generator on its own machine would
/// be) keeps the generator on schedule, and the stack still gets every
/// cycle the mostly idle generator does not use.
const STACK_NICE: i32 = 5;

/// Runs `f` on a fresh thread lowered to [`STACK_NICE`]: on Linux
/// niceness is per thread and inherited by the threads it spawns, so
/// every acceptor and connection handler the stack starts runs at it.
fn at_stack_priority<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                #[cfg(target_os = "linux")]
                {
                    extern "C" {
                        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
                    }
                    const PRIO_PROCESS: i32 = 0;
                    // SAFETY: setpriority reads only its three integer
                    // arguments; `who = 0` names the calling thread.
                    // Best effort: on failure the default priority stays.
                    unsafe {
                        setpriority(PRIO_PROCESS, 0, STACK_NICE);
                    }
                }
                f()
            })
            .join()
            .expect("stack start-up panicked")
    })
}

/// Two backend servers, started.
pub fn backends() -> std::io::Result<Vec<ServerHandle>> {
    at_stack_priority(spawn_backends)
}

fn spawn_backends() -> std::io::Result<Vec<ServerHandle>> {
    (0..2)
        .map(|_| {
            PolicyServer::bind(
                "127.0.0.1:0",
                ServerConfig {
                    router: router_config(),
                    // Lazy grid builds stay on; a background prewarmer
                    // would race the measured phases.
                    background_prewarm: false,
                    ..ServerConfig::default()
                },
            )
            .map(PolicyServer::spawn)
        })
        .collect()
}

/// A cluster router over running backends, as the front builds it.
pub fn cluster_router(backends: &[ServerHandle]) -> ClusterRouter {
    let slots: Vec<SlotSpec> = backends
        .iter()
        .map(|b| SlotSpec::Remote(b.addr()))
        .collect();
    ClusterRouter::new(
        &slots,
        ClusterConfig {
            service: service_config(),
            ..ClusterConfig::default()
        },
    )
}

/// The full stack: front plus its two backends.
pub struct Stack {
    pub front: FrontHandle,
    pub backends: Vec<ServerHandle>,
}

impl Stack {
    pub fn start() -> std::io::Result<Self> {
        at_stack_priority(|| {
            let backends = spawn_backends()?;
            let front = ClusterFront::bind(
                "127.0.0.1:0",
                cluster_router(&backends),
                FrontConfig {
                    queue_capacity: QUEUE_CAPACITY,
                    ..FrontConfig::default()
                },
            )?
            .spawn();
            Ok(Stack { front, backends })
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops the front, then the backends, waiting for each to drain.
    pub fn shutdown(self) {
        self.front.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}
