//! The load generator's connection: one TCP stream to the front, a
//! sending side on the caller's thread and a reader thread. The reader
//! stamps each call's completion the moment its last reply frame
//! decodes, then checks the answers against the reference itself, so
//! the sender only ever wakes to send and checking never lands inside
//! a measured latency.

use crate::check::{Expected, Tally};
use crate::workload::Plan;
use econcast_proto::service::{WireHello, WIRE_VERSION};
use econcast_proto::{ScatterEncoder, ServiceCodec, ServiceMessage};
use econcast_service::WireResult;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which plan call a request batch is.
#[derive(Debug, Clone, Copy)]
pub enum CallRef {
    Warm(usize),
    Measured(usize),
}

/// What completed calls measured since the last [`Conn::take`].
#[derive(Debug, Default)]
pub struct Completed {
    pub tally: Tally,
    pub calls: usize,
    /// Per-call latency, µs: completion minus the time the call was due.
    pub latency_us: Vec<f64>,
    /// The latest completion.
    pub last: Option<Instant>,
}

/// Replies still owed to one submitted call.
struct Pending {
    call: CallRef,
    due: Instant,
    base: u32,
    out: Vec<Option<WireResult>>,
    left: usize,
}

#[derive(Default)]
struct State {
    pending: HashMap<u32, Pending>,
    completed: Completed,
    /// Set when the reader stopped: the stream closed or broke.
    failed: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    changed: Condvar,
    plan: Arc<Plan>,
    exp: Arc<Expected>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("load generator thread panicked")
    }
}

pub struct Conn {
    stream: TcpStream,
    enc: ScatterEncoder,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
    next_corr: u32,
    next_id: u32,
}

impl Conn {
    /// Connects and completes the `Hello`/`Welcome` handshake before
    /// the reader thread starts.
    pub fn connect(addr: SocketAddr, plan: Arc<Plan>, exp: Arc<Expected>) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut enc = ScatterEncoder::new();
        enc.push(
            &ServiceMessage::Hello(WireHello {
                id: 0,
                max_batch: 256,
            }),
            WIRE_VERSION,
        );
        stream.write_all(enc.pending())?;
        enc.clear();
        let mut codec = ServiceCodec::new();
        let mut buf = vec![0u8; 4096];
        loop {
            match codec.next_message().map_err(invalid)? {
                Some(ServiceMessage::Welcome(_)) => break,
                Some(_) => {}
                None => {
                    let n = stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no welcome"));
                    }
                    codec.feed(&buf[..n]);
                }
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            changed: Condvar::new(),
            plan,
            exp,
        });
        let reader = {
            let stream = stream.try_clone()?;
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let why = match read_loop(stream, codec, &shared) {
                    Ok(()) => "connection closed".to_string(),
                    Err(e) => e.to_string(),
                };
                shared.lock().failed = Some(why);
                shared.changed.notify_all();
            })
        };
        Ok(Conn {
            stream,
            enc,
            shared,
            reader: Some(reader),
            next_corr: 1,
            next_id: 1,
        })
    }

    /// Sends one plan call, timed from `due`.
    pub fn submit(&mut self, call: CallRef, due: Instant) -> io::Result<()> {
        let plan = &self.shared.plan;
        let reqs = match call {
            CallRef::Warm(k) => &plan.warm[k],
            CallRef::Measured(k) => &plan.calls[k],
        };
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1).max(1);
        let base = self.next_id;
        self.next_id = self.next_id.wrapping_add(reqs.len() as u32);
        let msgs: Vec<ServiceMessage> = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let mut w = r.to_wire(base.wrapping_add(k as u32));
                w.corr = corr;
                ServiceMessage::Request(w)
            })
            .collect();
        self.shared.lock().pending.insert(
            corr,
            Pending {
                call,
                due,
                base,
                out: vec![None; reqs.len()],
                left: reqs.len(),
            },
        );
        self.enc.push_all(&msgs, WIRE_VERSION);
        let sent = self.stream.write_all(self.enc.pending());
        self.enc.clear();
        sent
    }

    /// Blocks until fewer than `n` calls are in flight.
    pub fn wait_below(&self, n: usize) -> io::Result<()> {
        let mut st = self.shared.lock();
        while st.pending.len() >= n {
            if let Some(why) = &st.failed {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, why.clone()));
            }
            st = self
                .shared
                .changed
                .wait(st)
                .expect("load generator thread panicked");
        }
        Ok(())
    }

    /// Takes what completed since the last call.
    pub fn take(&self) -> Completed {
        std::mem::take(&mut self.shared.lock().completed)
    }

    /// Closes the stream and joins the reader.
    pub fn close(mut self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Both).ok();
        match self.reader.take().map(JoinHandle::join) {
            Some(Err(_)) => Err(io::Error::other("reader thread panicked")),
            _ => Ok(()),
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.stream.shutdown(Shutdown::Both).ok();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn read_loop(mut stream: TcpStream, mut codec: ServiceCodec, shared: &Shared) -> io::Result<()> {
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        codec.feed(&buf[..n]);
        while let Some(msg) = codec.next_message().map_err(invalid)? {
            let (corr, id, result) = match msg {
                ServiceMessage::Response(r) => (r.corr, r.id, Ok(r)),
                ServiceMessage::Error(e) => (e.corr, e.id, Err(e)),
                _ => continue,
            };
            let mut st = shared.lock();
            let Some(p) = st.pending.get_mut(&corr) else {
                continue;
            };
            let k = id.wrapping_sub(p.base) as usize;
            if k < p.out.len() && p.out[k].replace(result).is_none() {
                p.left -= 1;
            }
            if p.left > 0 {
                continue;
            }
            let at = Instant::now();
            let p = st.pending.remove(&corr).expect("present");
            drop(st);
            // Check outside the lock: the sender never waits on it.
            let results: Vec<WireResult> = p.out.into_iter().map(|r| r.expect("filled")).collect();
            let (reqs, want) = match p.call {
                CallRef::Warm(k) => (&shared.plan.warm[k], &shared.exp.warm[k]),
                CallRef::Measured(k) => (&shared.plan.calls[k], &shared.exp.calls[k]),
            };
            let mut tally = Tally::default();
            tally.call(reqs, &results, want);
            let mut st = shared.lock();
            let c = &mut st.completed;
            c.tally.merge(&tally);
            c.calls += 1;
            c.latency_us
                .push(at.saturating_duration_since(p.due).as_secs_f64() * 1e6);
            c.last = Some(c.last.map_or(at, |l| l.max(at)));
            drop(st);
            shared.changed.notify_all();
        }
    }
}

fn invalid(e: econcast_proto::DecodeError) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("undecodable reply: {e:?}"),
    )
}
