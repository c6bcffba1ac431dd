//! Admission control: the bounded queue and shed ladder in front of
//! the socket server's `serve_batch`.
//!
//! ## The shed ladder
//!
//! Every request arriving on a TCP connection walks the ladder
//! *before* it may join a batch:
//!
//! 1. **Admit** — queue depth at or below the degrade threshold
//!    (half of [`ServiceConfig::queue_capacity`]): served normally,
//!    at the caller's stated tolerance.
//! 2. **Admit degraded** — depth above the degrade threshold but
//!    within capacity: served with the tolerance relaxed by one
//!    decade (capped at [`DEGRADED_TOLERANCE_CAP`]). A heterogeneous
//!    request then runs the (P4) dual descent to a looser stopping
//!    tolerance, so it takes fewer iterations; a homogeneous request
//!    is answered by the closed form, which does not depend on
//!    tolerance. The response's weak-duality certificate
//!    reports the *achieved* gap, so a caller can always see exactly
//!    what accuracy it got.
//! 3. **Shed** — depth past capacity: rejected with an explicit
//!    `Overloaded { retry_after_us }` frame. Never a silent drop, never
//!    a reset.
//!
//! A shed request holds no queue slot, so the queue depth — and its
//! high-water mark — never exceeds the configured capacity.
//!
//! ## Deadlines
//!
//! A request may carry a `deadline_us` budget, measured from
//! server receipt. The ladder enforces it on the way *out*: a result
//! whose request ran past its budget is replaced by `Overloaded` —
//! the caller never receives a result it has already given up on
//! (pinned by the `deadline_expired_request_gets_overloaded_not_a_
//! late_result` test). Deadline-carrying requests are also served
//! earliest-deadline-first within a batch.
//!
//! [`ServiceConfig::queue_capacity`]: crate::ServiceConfig::queue_capacity

use econcast_metrics::{
    CounterTable, Gauge, MetricsSnapshot, CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES,
    CTR_SHED_REJECTS, GAUGE_QUEUE_DEPTH, GAUGE_QUEUE_DEPTH_PEAK,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Coarsest tolerance the degrade rung may relax a request to; also
/// the bound on how far a degraded serve can drift from the stated
/// tolerance (one decade, then this cap).
pub const DEGRADED_TOLERANCE_CAP: f64 = 1e-2;

/// One rung of the shed ladder, decided per request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve normally at the stated tolerance.
    Admit,
    /// Serve at the relaxed tolerance ([`degraded_tolerance`]).
    AdmitDegraded,
    /// Reject with `Overloaded`; the caller should retry no sooner
    /// than `retry_after_us`.
    Shed {
        /// Estimated queue-drain time in microseconds.
        retry_after_us: u32,
    },
}

/// The tolerance a degraded serve runs at: one decade looser than
/// stated, capped at [`DEGRADED_TOLERANCE_CAP`], never tighter than
/// stated.
pub fn degraded_tolerance(stated: f64) -> f64 {
    (stated * 10.0).min(DEGRADED_TOLERANCE_CAP).max(stated)
}

/// Shared admission state for one server front: a depth-bounded
/// virtual queue (the requests admitted but not yet served, across
/// every connection handler) plus the overload counters, which it
/// alone counts and contributes to the front's aggregate scrape. All
/// atomics — admission never takes a lock on the request path.
#[derive(Debug)]
pub struct AdmissionController {
    capacity: usize,
    degrade_at: usize,
    max_queue_delay: Duration,
    /// The queue-depth gauge (level + high-water mark) — the shared
    /// `econcast-metrics` primitive, so the same object feeds the
    /// ladder and a metrics scrape.
    queue: Gauge,
    /// The overload counters, under `CTR_SHED_REJECTS`,
    /// `CTR_DEGRADED_SERVES` and `CTR_DEADLINE_EXPIRED`.
    counters: CounterTable,
    /// EWMA of per-request service time, nanoseconds (α = 1/8);
    /// zero until the first observation.
    service_ns: AtomicU64,
    /// External backpressure hint, microseconds (e.g. the largest
    /// `retry_after_us` a cluster front's backends are currently
    /// advertising). Folded into [`retry_after_us`](Self::retry_after_us)
    /// via max so shed callers back off at least as far as the
    /// slowest layer below asked for. Zero when nothing downstream is
    /// saturated.
    external_hint_us: AtomicU32,
}

impl AdmissionController {
    /// Builds a controller for a queue of `queue_capacity` requests
    /// whose drain estimates floor at `max_queue_delay`.
    pub fn new(queue_capacity: usize, max_queue_delay: Duration) -> Self {
        let capacity = queue_capacity.max(1);
        AdmissionController {
            capacity,
            degrade_at: (capacity / 2).max(1),
            max_queue_delay,
            queue: Gauge::new(),
            counters: CounterTable::default(),
            service_ns: AtomicU64::new(0),
            external_hint_us: AtomicU32::new(0),
        }
    }

    /// Walks one request up the ladder. An admitted request holds one
    /// queue slot until [`release`](Self::release).
    pub fn admit(&self) -> Admission {
        let depth = self.queue.add(1) as usize;
        if depth > self.capacity {
            self.queue.sub(1);
            self.counters.add(CTR_SHED_REJECTS, 1);
            return Admission::Shed {
                retry_after_us: self.retry_after_us(),
            };
        }
        // Only a *held* slot advances the peak — the shed rung above
        // released its slot, so the peak stays within capacity (the
        // CI bounded-memory assertion).
        self.queue.note_peak(depth as u64);
        if depth > self.degrade_at {
            self.counters.add(CTR_DEGRADED_SERVES, 1);
            Admission::AdmitDegraded
        } else {
            Admission::Admit
        }
    }

    /// Returns `n` queue slots after their batch was served, folding
    /// the batch's wall time into the per-request service-time EWMA
    /// that prices [`retry_after_us`](Self::retry_after_us).
    pub fn release(&self, n: usize, elapsed: Duration) {
        if n == 0 {
            return;
        }
        self.queue.sub(n as u64);
        let per_req = (elapsed.as_nanos() / n as u128).min(u64::MAX as u128) as u64;
        let old = self.service_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            per_req
        } else {
            old - old / 8 + per_req / 8
        };
        self.service_ns.store(new, Ordering::Relaxed);
    }

    /// Marks one admitted request as having outlived its
    /// `deadline_us` budget: its result was replaced by `Overloaded`,
    /// so it counts as both expired and shed.
    pub fn note_deadline_expired(&self) {
        self.counters.add(CTR_DEADLINE_EXPIRED, 1);
        self.counters.add(CTR_SHED_REJECTS, 1);
    }

    /// Current queue depth (admitted, not yet served).
    pub fn depth(&self) -> usize {
        self.queue.value() as usize
    }

    /// High-water mark of the queue depth. The shed rung never holds
    /// a slot, so this never exceeds the configured capacity (the CI
    /// overload-smoke bounded-memory assertion).
    pub fn depth_peak(&self) -> usize {
        self.queue.peak() as usize
    }

    /// Publishes the current downstream backpressure hint
    /// (microseconds): the largest `retry_after_us` any layer below
    /// this controller is advertising, or zero when nothing is.
    /// Overwrites the previous hint — the caller is expected to
    /// republish its current view, not accumulate.
    pub fn set_external_hint_us(&self, hint_us: u32) {
        self.external_hint_us.store(hint_us, Ordering::Relaxed);
    }

    /// Estimated time until the current queue drains, floored at the
    /// configured `max_queue_delay` (so shed callers never retry into
    /// the same saturated window they were just rejected from) and at
    /// the published external hint (so a front never invites a retry
    /// sooner than its saturated backends asked for).
    pub fn retry_after_us(&self) -> u32 {
        let depth = self.queue.value();
        let per_req_us = self.service_ns.load(Ordering::Relaxed) / 1_000;
        let drain = depth.saturating_mul(per_req_us);
        let floor = self
            .max_queue_delay
            .as_micros()
            .min(u64::from(u32::MAX) as u128) as u64;
        let hint = u64::from(self.external_hint_us.load(Ordering::Relaxed));
        drain.max(floor).max(hint).min(u64::from(u32::MAX)) as u32
    }

    /// The front's own share of an aggregate scrape: its counter
    /// table (the overload counters) and the queue gauge's level and
    /// peak.
    /// A connection loop merges it into the target's scrape, so a
    /// cluster front's own counters join its backends' rather than
    /// replace them.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::zeroed();
        self.counters.fill(&mut snap);
        snap.gauges[GAUGE_QUEUE_DEPTH].1 = self.queue.value();
        snap.gauges[GAUGE_QUEUE_DEPTH_PEAK].1 = self.queue.peak();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_follow_depth() {
        let a = AdmissionController::new(4, Duration::from_millis(50));
        // degrade_at = 2: slots 1–2 admit, 3–4 degrade, 5 sheds.
        assert_eq!(a.admit(), Admission::Admit);
        assert_eq!(a.admit(), Admission::Admit);
        assert_eq!(a.admit(), Admission::AdmitDegraded);
        assert_eq!(a.admit(), Admission::AdmitDegraded);
        // Every attempt past capacity sheds and holds no slot: depth
        // and peak stay bounded by the capacity.
        for _ in 0..8 {
            assert!(matches!(a.admit(), Admission::Shed { .. }));
        }
        assert_eq!(a.depth(), 4);
        assert_eq!(a.depth_peak(), 4);
        a.release(4, Duration::from_millis(1));
        assert_eq!(a.depth(), 0);
        assert_eq!(a.admit(), Admission::Admit);
        assert!(a.depth_peak() <= 4);
    }

    #[test]
    fn retry_hint_floors_at_max_queue_delay_and_scales_with_depth() {
        let a = AdmissionController::new(2, Duration::from_millis(50));
        assert_eq!(a.admit(), Admission::Admit);
        assert_eq!(a.admit(), Admission::AdmitDegraded);
        // No service-time observation yet: the floor answers.
        match a.admit() {
            Admission::Shed { retry_after_us } => assert_eq!(retry_after_us, 50_000),
            other => panic!("expected shed, got {other:?}"),
        }
        // Teach it 100ms/request; two queued => ~200ms drain.
        a.release(2, Duration::from_millis(200));
        assert_eq!(a.admit(), Admission::Admit);
        assert_eq!(a.admit(), Admission::AdmitDegraded);
        match a.admit() {
            Admission::Shed { retry_after_us } => {
                assert!(retry_after_us >= 150_000, "got {retry_after_us}");
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn external_hint_raises_the_retry_floor() {
        let a = AdmissionController::new(1, Duration::from_millis(10));
        let _ = a.admit();
        match a.admit() {
            Admission::Shed { retry_after_us } => assert_eq!(retry_after_us, 10_000),
            other => panic!("expected shed, got {other:?}"),
        }
        // A saturated backend advertising 250ms dominates the local
        // floor; clearing it restores the local estimate.
        a.set_external_hint_us(250_000);
        match a.admit() {
            Admission::Shed { retry_after_us } => assert_eq!(retry_after_us, 250_000),
            other => panic!("expected shed, got {other:?}"),
        }
        a.set_external_hint_us(0);
        match a.admit() {
            Admission::Shed { retry_after_us } => assert_eq!(retry_after_us, 10_000),
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn degraded_tolerance_relaxes_one_decade_capped() {
        assert_eq!(degraded_tolerance(1e-4), 1e-3);
        assert_eq!(degraded_tolerance(1e-3), 1e-2);
        assert_eq!(degraded_tolerance(5e-3), 1e-2);
        // Already past the cap: never tightened.
        assert_eq!(degraded_tolerance(5e-2), 5e-2);
    }

    #[test]
    fn overlay_reports_counters_and_peak() {
        let a = AdmissionController::new(1, Duration::from_millis(10));
        let _ = a.admit();
        assert!(matches!(a.admit(), Admission::Shed { .. }));
        a.note_deadline_expired();
        let s = crate::ServiceStats::from_snapshot(&a.metrics());
        assert_eq!(s.shed_rejects, 2); // one shed + one expiry
        assert_eq!(s.deadline_expired, 1);
        assert_eq!(s.queue_depth_peak, 1);
        assert_eq!(a.metrics().gauge(GAUGE_QUEUE_DEPTH), 1, "one slot held");
    }
}
