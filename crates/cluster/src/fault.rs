//! Deterministic fault injection for the cluster's data plane.
//!
//! A [`FaultProxy`] is a transparent TCP interposer between the
//! cluster router and one backend: the router dials the proxy, the
//! proxy forwards bytes both ways untouched — until a fault is armed.
//! Each armed fault fires **exactly once**, at a well-defined point
//! (connection acceptance for [`Fault::RefuseConnect`], the next
//! backend→router chunk for the stream faults), and bumps the shared
//! injected-fault counter
//! ([`ClusterRouter::injected_fault_counter`](crate::ClusterRouter::injected_fault_counter)),
//! so a chaos run is auditable through the ordinary metrics scrape.
//!
//! Which faults fire when is scripted by a [`FaultPlan`]: a per-round
//! schedule that is **deterministic in its seed** — the same seed
//! always produces the same kills, corruptions, and stalls at the
//! same request-batch indices, which is what makes a chaos test a
//! regression test instead of a dice roll. The plan is generated with
//! the vendored `rand` shim (xoshiro256++), never from wall-clock
//! entropy.
//!
//! The faults map one-to-one onto the failure classes the serving
//! stack claims to absorb:
//!
//! | fault | what the dialer sees | healing path |
//! |-------|----------------------|--------------|
//! | [`Fault::RefuseConnect`] | dial succeeds, stream dies instantly | retry/backoff, then local fallback |
//! | [`Fault::CorruptFrame`] | CRC/decode failure mid-stream | sub-batch voided, local fallback |
//! | [`Fault::Stall`] | read deadline expires | sub-batch voided, local fallback |
//! | [`Fault::PartialWrite`] | truncated frame + EOF | sub-batch voided, local fallback |
//! | [`FaultEvent::Kill`] | process death (scripted by the test via `Supervisor::kill`) | policy loop respawns + retargets |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One injectable stream- or connection-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Accept the router's connection and drop it immediately —
    /// indistinguishable from a backend refusing connections.
    RefuseConnect,
    /// Flip one byte inside the next backend→router chunk: the frame
    /// CRC (or length) check fails and the dialer must treat the
    /// stream as poisoned.
    CorruptFrame,
    /// Hold the next backend→router chunk past the dialer's I/O
    /// deadline — a wedged-but-alive backend.
    Stall(Duration),
    /// Forward only half of the next backend→router chunk, then close
    /// both directions — a backend dying mid-response.
    PartialWrite,
}

/// One scheduled fault in a [`FaultPlan`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Arm `fault` on backend `backend`'s proxy before the round's
    /// batch.
    Proxy {
        /// Index of the targeted backend.
        backend: usize,
        /// The fault to arm.
        fault: Fault,
    },
    /// Kill backend `backend`'s process before the round's batch (the
    /// test scripts this through `Supervisor::kill`; the policy loop
    /// is what brings it back).
    Kill {
        /// Index of the targeted backend.
        backend: usize,
    },
}

/// A deterministic per-round fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// `events[r]` fires before round `r`'s batch (`None` = quiet
    /// round).
    pub events: Vec<Option<FaultEvent>>,
}

impl FaultPlan {
    /// Builds a seeded plan over `rounds` request batches against
    /// `backends` backends. By construction (given enough rounds) the
    /// plan covers every fault class at least once — one kill, one
    /// corruption, one stall, one partial write, one connect refusal
    /// — on odd rounds, leaving the even rounds for the policy loop
    /// to heal (round 0 is always quiet so caches warm faultlessly).
    /// Remaining odd rounds draw random extra stream faults. Same
    /// seed, same arguments ⇒ the identical plan, every run.
    pub fn seeded(seed: u64, rounds: usize, backends: usize, stall: Duration) -> FaultPlan {
        assert!(backends >= 1, "need a backend to fault");
        let mut rng = StdRng::seed_from_u64(seed);
        let pick_backend = move |rng: &mut StdRng| {
            (rng.gen_range(0.0, backends as f64) as usize).min(backends - 1)
        };
        let mandatory = [
            None, // placeholder: Kill carries no Fault payload
            Some(Fault::CorruptFrame),
            Some(Fault::Stall(stall)),
            Some(Fault::PartialWrite),
            Some(Fault::RefuseConnect),
        ];
        let mut events = vec![None; rounds];
        let mut slots = (1..rounds).step_by(2);
        for kind in mandatory {
            let Some(round) = slots.next() else { break };
            let backend = pick_backend(&mut rng);
            events[round] = Some(match kind {
                None => FaultEvent::Kill { backend },
                Some(fault) => FaultEvent::Proxy { backend, fault },
            });
        }
        for round in slots {
            if rng.gen_range(0.0, 1.0) < 0.5 {
                let fault = match rng.gen_range(0.0, 3.0) as u32 {
                    0 => Fault::CorruptFrame,
                    1 => Fault::Stall(stall),
                    _ => Fault::PartialWrite,
                };
                let backend = pick_backend(&mut rng);
                events[round] = Some(FaultEvent::Proxy { backend, fault });
            }
        }
        FaultPlan { events }
    }

    /// Whether the plan contains at least one event matching `pred`.
    pub fn contains(&self, pred: impl Fn(&FaultEvent) -> bool) -> bool {
        self.events.iter().flatten().any(pred)
    }
}

/// Shared per-proxy injector state.
#[derive(Debug)]
struct Injector {
    /// The armed fault, consumed by the first matching firing point.
    armed: Mutex<Option<Fault>>,
    /// Incremented once per fault that actually fires.
    fired: AtomicU64,
    /// Cluster-wide injected-fault counter (the router's).
    cluster_fired: Arc<AtomicU64>,
}

impl Injector {
    /// Takes the armed fault if it fires at the accept point.
    fn take_connect_fault(&self) -> bool {
        let mut armed = self
            .armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if matches!(*armed, Some(Fault::RefuseConnect)) {
            *armed = None;
            self.note_fired();
            true
        } else {
            false
        }
    }

    /// Takes the armed fault if it fires on a backend→router chunk.
    fn take_stream_fault(&self) -> Option<Fault> {
        let mut armed = self
            .armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match *armed {
            Some(Fault::RefuseConnect) | None => None,
            Some(fault) => {
                *armed = None;
                self.note_fired();
                Some(fault)
            }
        }
    }

    fn note_fired(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
        self.cluster_fired.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fault-injecting TCP interposer in front of one backend.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    injector: Arc<Injector>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds a proxy on an ephemeral port forwarding to `upstream`.
    /// `cluster_fired` is the router's shared injected-fault counter
    /// ([`ClusterRouter::injected_fault_counter`](crate::ClusterRouter::injected_fault_counter)).
    pub fn spawn(upstream: SocketAddr, cluster_fired: Arc<AtomicU64>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = Arc::new(Mutex::new(upstream));
        let injector = Arc::new(Injector {
            armed: Mutex::new(None),
            fired: AtomicU64::new(0),
            cluster_fired,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (upstream, injector, stop) = (
                Arc::clone(&upstream),
                Arc::clone(&injector),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || loop {
                let client = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => continue,
                };
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if injector.take_connect_fault() {
                    // Drop the stream on the floor: the dialer's
                    // connect "succeeds" and instantly dies.
                    continue;
                }
                let target = *lock(&upstream);
                let backend = match TcpStream::connect(target) {
                    Ok(stream) => stream,
                    // Upstream gone (e.g. just killed): behave like a
                    // refused connection, but scripted kills are
                    // counted by the test, not the proxy.
                    Err(_) => continue,
                };
                let client2 = client.try_clone().expect("clone client stream");
                let backend2 = backend.try_clone().expect("clone backend stream");
                // router→backend: always clean (faults model backend
                // misbehaviour, and corrupting requests would reach
                // the backend's decoder, not the dialer's).
                std::thread::spawn(move || pump_clean(client, backend));
                let injector = Arc::clone(&injector);
                std::thread::spawn(move || pump_faulty(backend2, client2, &injector));
            })
        };
        Ok(FaultProxy {
            addr,
            upstream,
            injector,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — what the cluster router dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Points the proxy at a replacement backend (the policy loop's
    /// retarget hook after a respawn: the router keeps dialing the
    /// proxy, the proxy follows the fresh backend port).
    pub fn set_upstream(&self, addr: SocketAddr) {
        *lock(&self.upstream) = addr;
    }

    /// Arms `fault` to fire exactly once at its next firing point.
    /// Re-arming before the previous fault fired replaces it.
    pub fn arm(&self, fault: Fault) {
        *lock(&self.injector.armed) = Some(fault);
    }

    /// Faults this proxy has actually fired.
    pub fn fired(&self) -> u64 {
        self.injector.fired.load(Ordering::Relaxed)
    }

    /// Stops accepting new connections. Live pumps die with their
    /// streams.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Forwards bytes until either side closes, then closes both.
fn pump_clean(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Forwards backend→router bytes, applying at most one armed fault.
fn pump_faulty(mut from: TcpStream, mut to: TcpStream, injector: &Injector) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        match injector.take_stream_fault() {
            Some(Fault::CorruptFrame) => {
                // Flip a bit early in the chunk: chunks start on a
                // frame boundary here, so the flip lands in the
                // CRC-protected head of a frame and the decoder must
                // reject the stream.
                buf[4.min(n - 1)] ^= 0x40;
            }
            Some(Fault::Stall(d)) => {
                // Outlive the dialer's read deadline before
                // forwarding; the write below then fails against the
                // abandoned socket, which is fine.
                std::thread::sleep(d);
            }
            Some(Fault::PartialWrite) => {
                let _ = to.write_all(&buf[..n / 2]);
                break;
            }
            Some(Fault::RefuseConnect) | None => {}
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALL: Duration = Duration::from_millis(600);

    #[test]
    fn seeded_plans_are_reproducible_and_cover_every_fault_class() {
        let plan = FaultPlan::seeded(7, 12, 2, STALL);
        assert_eq!(
            plan,
            FaultPlan::seeded(7, 12, 2, STALL),
            "same seed, same plan"
        );
        assert_ne!(
            plan,
            FaultPlan::seeded(8, 12, 2, STALL),
            "different seed, different plan"
        );
        assert_eq!(plan.events.len(), 12);
        assert!(plan.events[0].is_none(), "round 0 is always quiet");
        for (r, e) in plan.events.iter().enumerate() {
            if r % 2 == 0 {
                assert!(e.is_none(), "even rounds are healing rounds");
            }
            if let Some(FaultEvent::Proxy { backend, .. } | FaultEvent::Kill { backend }) = e {
                assert!(*backend < 2);
            }
        }
        assert!(plan.contains(|e| matches!(e, FaultEvent::Kill { .. })));
        for fault in [
            Fault::CorruptFrame,
            Fault::Stall(STALL),
            Fault::PartialWrite,
            Fault::RefuseConnect,
        ] {
            assert!(
                plan.contains(|e| matches!(e, FaultEvent::Proxy { fault: f, .. } if *f == fault)),
                "plan never fires {fault:?}"
            );
        }
    }

    #[test]
    fn proxy_forwards_transparently_and_refuse_connect_fires_once() {
        // A trivial upstream echo server.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        std::thread::spawn(move || {
            for stream in upstream.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut buf = [0u8; 256];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });

        let counter = Arc::new(AtomicU64::new(0));
        let proxy = FaultProxy::spawn(upstream_addr, Arc::clone(&counter)).expect("spawn proxy");

        // Clean pass-through.
        let mut conn = TcpStream::connect(proxy.addr()).expect("dial proxy");
        conn.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).expect("echoed through proxy");
        assert_eq!(&buf, b"ping");
        assert_eq!(proxy.fired(), 0);

        // Armed refusal fires exactly once, then the next connection
        // is clean again.
        proxy.arm(Fault::RefuseConnect);
        let mut refused = TcpStream::connect(proxy.addr()).expect("tcp accept still happens");
        let mut scratch = [0u8; 1];
        assert_eq!(
            refused.read(&mut scratch).unwrap_or(0),
            0,
            "refused connection yields EOF"
        );
        assert_eq!(proxy.fired(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 1, "shared counter tracks");

        let mut again = TcpStream::connect(proxy.addr()).expect("dial proxy");
        again.write_all(b"pong").expect("write");
        again
            .read_exact(&mut buf)
            .expect("clean again after firing");
        assert_eq!(&buf, b"pong");
        assert_eq!(proxy.fired(), 1, "fault fired exactly once");
        proxy.shutdown();
    }

    #[test]
    fn corrupt_frame_flips_exactly_one_byte_of_the_response_path() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        std::thread::spawn(move || {
            for stream in upstream.incoming().flatten() {
                let mut stream = stream;
                let _ = stream.write_all(&[0u8; 16]);
            }
        });
        let counter = Arc::new(AtomicU64::new(0));
        let proxy = FaultProxy::spawn(upstream_addr, Arc::clone(&counter)).expect("spawn proxy");
        proxy.arm(Fault::CorruptFrame);
        let mut conn = TcpStream::connect(proxy.addr()).expect("dial proxy");
        let mut buf = [0u8; 16];
        conn.read_exact(&mut buf).expect("forwarded chunk");
        let flipped: Vec<usize> = (0..16).filter(|&i| buf[i] != 0).collect();
        assert_eq!(flipped, vec![4], "exactly byte 4 flipped");
        assert_eq!(buf[4], 0x40);
        assert_eq!(proxy.fired(), 1);
        proxy.shutdown();
    }
}
