//! `repro --top` — a polling terminal ops view against a live policy
//! service or cluster front.
//!
//! One v7 metrics scrape per frame feeds a [`SnapshotRing`], so every
//! counter renders as a *windowed rate* (over the last K frames, not
//! since process start) and the request-latency histogram renders as
//! windowed percentiles (this frame's buckets minus the previous
//! frame's). Gauges are instantaneous by construction and print as-is.
//!
//! The view is read-only and allocation-light on the server side: a
//! scrape is one `MetricsRequest` frame answered from relaxed-atomic
//! loads — pointing `--top` at a production front costs the front one
//! snapshot per interval, nothing more.

use econcast_metrics::{
    HistSnapshot, MetricsSnapshot, SnapshotRing, CTR_AUTO_RESPAWNS, CTR_BATCHES,
    CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES, CTR_ERRORS, CTR_FAILOVER_RESERVES,
    CTR_OVERLOADED_RECEIVED, CTR_QUARANTINES, CTR_REQUESTS, CTR_SATURATION_OPENS, CTR_SHED_REJECTS,
    GAUGE_LIVE_BACKENDS, GAUGE_LRU_BYTES, GAUGE_LRU_ENTRIES, GAUGE_QUEUE_DEPTH,
    GAUGE_QUEUE_DEPTH_PEAK, GAUGE_SATURATION_OPEN, HIST_REQUEST_NS,
};
use econcast_service::PolicyClient;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Frames the rate window spans: rates average over the last
/// `WINDOW_FRAMES - 1` intervals, so a burst decays from the display
/// in a few frames instead of being amortized over the whole session.
const WINDOW_FRAMES: usize = 8;

/// Parameters of one `--top` session.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// The service or cluster front to scrape.
    pub addr: SocketAddr,
    /// Delay between frames.
    pub interval: Duration,
    /// Frames to render before returning; `0` polls until the
    /// connection drops.
    pub frames: usize,
    /// Clear the screen between frames (ANSI) — on when stdout is a
    /// terminal, off when piped so logs stay appendable.
    pub clear: bool,
}

/// Bucket-wise `cur - prev`, clamped at zero: the histogram activity
/// within one frame window. Counter-monotone inputs (the same process
/// scraped twice) never clamp; a backend restart between frames does,
/// which renders as an empty window rather than garbage.
fn hist_delta(cur: &HistSnapshot, prev: &HistSnapshot) -> HistSnapshot {
    let mut out = HistSnapshot::default();
    for &(bucket, count) in &cur.buckets {
        let before = prev
            .buckets
            .iter()
            .find(|(b, _)| *b == bucket)
            .map_or(0, |&(_, c)| c);
        let d = count.saturating_sub(before);
        if d > 0 {
            out.buckets.push((bucket, d));
        }
    }
    out
}

/// Ladder occupancy over the ring's window: `(served, degraded,
/// shed)`, where arriving requests landed. An expired deadline counts
/// in `CTR_SHED_REJECTS` *and*, as it was admitted and served, in
/// `CTR_REQUESTS`; only the rest of the rejects were shed at
/// admission, so only they join the served requests in what was
/// offered.
fn ladder(ring: &SnapshotRing) -> (u64, u64, u64) {
    let served = ring.delta(CTR_REQUESTS);
    let degraded = ring.delta(CTR_DEGRADED_SERVES).min(served);
    let shed = ring
        .delta(CTR_SHED_REJECTS)
        .saturating_sub(ring.delta(CTR_DEADLINE_EXPIRED));
    (served, degraded, shed)
}

/// Renders one frame of the ops view.
fn render(
    out: &mut impl Write,
    frame: usize,
    snap: &MetricsSnapshot,
    ring: &SnapshotRing,
    req_window: &HistSnapshot,
    clear: bool,
) -> io::Result<()> {
    if clear {
        write!(out, "\x1b[2J\x1b[H")?;
    } else if frame > 0 {
        writeln!(out)?;
    }
    let window_s = ring.window_ns() as f64 / 1e9;
    writeln!(out, "econcast top — frame {frame}, window {:.1}s", window_s)?;
    let rate = |idx: usize| ring.rate_per_sec(idx);
    writeln!(
        out,
        "  rates    {:>10.1} req/s {:>10.1} batch/s {:>8.1} err/s",
        rate(CTR_REQUESTS),
        rate(CTR_BATCHES),
        rate(CTR_ERRORS)
    )?;
    // Ladder occupancy over the window: where arriving requests landed
    // (served normal / served degraded / shed), as fractions of
    // everything that arrived.
    let (served, degraded, shed) = ladder(ring);
    let offered = served + shed;
    let pct = |n: u64| {
        if offered == 0 {
            0.0
        } else {
            n as f64 / offered as f64 * 100.0
        }
    };
    writeln!(
        out,
        "  ladder   {:>9.1}% normal {:>9.1}% degraded {:>7.1}% shed   ({} offered)",
        pct(served - degraded),
        pct(degraded),
        pct(shed),
        offered
    )?;
    // Windowed request-latency percentiles (upper bucket edges — the
    // log-bucket resolution, good to ~7%).
    let q = |p: f64| req_window.quantile(p) as f64 / 1e3;
    if req_window.total() > 0 {
        writeln!(
            out,
            "  latency  {:>9.0}us p50 {:>12.0}us p99 {:>9.0}us p99.9   ({} in window)",
            q(0.50),
            q(0.99),
            q(0.999),
            req_window.total()
        )?;
    } else {
        writeln!(out, "  latency  (no requests in window)")?;
    }
    writeln!(
        out,
        "  queue    {:>10} depth {:>10} peak",
        snap.gauge(GAUGE_QUEUE_DEPTH),
        snap.gauge(GAUGE_QUEUE_DEPTH_PEAK)
    )?;
    writeln!(
        out,
        "  cache    {:>10} entries {:>8} KiB",
        snap.gauge(GAUGE_LRU_ENTRIES),
        snap.gauge(GAUGE_LRU_BYTES) / 1024
    )?;
    writeln!(
        out,
        "  cluster  {:>10} live backends {:>3} saturation windows open",
        snap.gauge(GAUGE_LIVE_BACKENDS),
        snap.gauge(GAUGE_SATURATION_OPEN)
    )?;
    // Ops totals only print once nonzero — a healthy cluster shows a
    // clean frame, an unhealthy one names its failure mode.
    let ops = [
        ("deadline misses", snap.counter(CTR_DEADLINE_EXPIRED)),
        ("overloaded sent", snap.counter(CTR_SHED_REJECTS)),
        ("overloaded received", snap.counter(CTR_OVERLOADED_RECEIVED)),
        ("failover re-serves", snap.counter(CTR_FAILOVER_RESERVES)),
        ("respawns", snap.counter(CTR_AUTO_RESPAWNS)),
        ("quarantines", snap.counter(CTR_QUARANTINES)),
        ("saturation opens", snap.counter(CTR_SATURATION_OPENS)),
    ];
    let mut shown = false;
    for (label, total) in ops {
        if total > 0 {
            if !shown {
                write!(out, "  ops     ")?;
                shown = true;
            }
            write!(out, " {label}={total}")?;
        }
    }
    if shown {
        writeln!(out)?;
    }
    out.flush()
}

/// Polls `cfg.addr` and renders one frame per scrape to `out`.
///
/// With `frames: 0` this runs until the peer hangs up (the live-ops
/// mode: the view dies with the front, cleanly); with a finite frame
/// count an io error propagates — a smoke run must not swallow one.
pub fn run(cfg: &TopConfig, out: &mut impl Write) -> io::Result<()> {
    let mut client = PolicyClient::connect(cfg.addr, 1)?;
    let started = Instant::now();
    let mut ring = SnapshotRing::new(WINDOW_FRAMES);
    let mut prev: Option<MetricsSnapshot> = None;
    let mut frame = 0usize;
    loop {
        let snap = match client.metrics() {
            Ok(s) => s,
            Err(e) if cfg.frames == 0 => {
                writeln!(out, "econcast top: connection closed ({e})")?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        ring.push(started.elapsed().as_nanos() as u64, &snap.counters);
        let req_window = match &prev {
            Some(p) => hist_delta(&snap.hist(HIST_REQUEST_NS), &p.hist(HIST_REQUEST_NS)),
            // First frame: everything since the server started.
            None => snap.hist(HIST_REQUEST_NS),
        };
        render(out, frame, &snap, &ring, &req_window, cfg.clear)?;
        prev = Some(snap);
        frame += 1;
        if cfg.frames > 0 && frame >= cfg.frames {
            return Ok(());
        }
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_service::{PolicyServer, RouterConfig, ServerConfig, ServiceConfig};

    #[test]
    fn hist_delta_is_the_window_and_clamps_resets() {
        let mut a = HistSnapshot::default();
        a.buckets = vec![(3, 5), (7, 2)];
        let mut b = HistSnapshot::default();
        b.buckets = vec![(3, 9), (7, 2), (9, 1)];
        let d = hist_delta(&b, &a);
        assert_eq!(d.buckets, vec![(3, 4), (9, 1)]);
        assert_eq!(d.total(), 5);
        // A restarted peer (counts went down across the board) clamps
        // to an empty window, it doesn't underflow.
        assert!(hist_delta(&a, &b).buckets.is_empty());
        assert!(hist_delta(&a, &a).buckets.is_empty());
    }

    #[test]
    fn ladder_counts_each_rejected_request_once() {
        // Over the window: 100 requests served (10 of them degraded,
        // 4 of those past their deadline), and 30 `Overloaded`
        // answers — 26 sheds at admission plus the 4 expiries, which
        // were also served. 126 requests were offered, not 130.
        let mut counters = vec![0u64; econcast_metrics::NUM_COUNTERS];
        let mut ring = SnapshotRing::new(4);
        ring.push(0, &counters);
        counters[CTR_REQUESTS] = 100;
        counters[CTR_DEGRADED_SERVES] = 10;
        counters[CTR_SHED_REJECTS] = 30;
        counters[CTR_DEADLINE_EXPIRED] = 4;
        ring.push(1_000_000_000, &counters);
        assert_eq!(ladder(&ring), (100, 10, 26));

        let snap = MetricsSnapshot {
            counters: counters.clone(),
            ..MetricsSnapshot::zeroed()
        };
        let mut out = Vec::new();
        render(&mut out, 0, &snap, &ring, &HistSnapshot::default(), false).expect("render");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("(126 offered)"), "{text}");
        assert!(text.contains("deadline misses=4"), "{text}");
        assert!(text.contains("overloaded sent=30"), "{text}");
    }

    #[test]
    fn top_renders_frames_against_a_live_server() {
        let handle = PolicyServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                router: RouterConfig {
                    shards: 1,
                    service: ServiceConfig {
                        workers: Some(1),
                        ..ServiceConfig::default()
                    },
                    ..RouterConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind")
        .spawn();
        // Put some traffic on the plane so the view has something to
        // show (the rates depend on when the two 10 ms frames land,
        // which is why this test only asserts shape, never totals).
        let batch = crate::perf::service_batch(8);
        let mut client = PolicyClient::connect(handle.addr(), 8).expect("connect");
        client.serve_batch(&batch).expect("serve");
        let mut out = Vec::new();
        run(
            &TopConfig {
                addr: handle.addr(),
                interval: Duration::from_millis(10),
                frames: 2,
                clear: false,
            },
            &mut out,
        )
        .expect("top run");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches("econcast top — frame").count(), 2);
        assert!(text.contains("req/s"), "rates line:\n{text}");
        assert!(text.contains("% shed"), "ladder line:\n{text}");
        assert!(text.contains("live backends"), "cluster line:\n{text}");
        assert!(!text.contains('\x1b'), "no ANSI when clear=false");
        handle.shutdown();
    }
}
