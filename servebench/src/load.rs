//! Load phases against the front: a closed loop with a fixed window of
//! in-flight calls, and an open loop of seeded Poisson arrivals at a
//! fixed absolute rate, each call timed from the moment it was due.

use crate::check::Tally;
use crate::conn::{CallRef, Conn};
use crate::workload::Rng;
use std::io;
use std::time::{Duration, Instant};

/// Fewest calls an open-loop phase may end with: p99 then has at least
/// ten samples beyond it.
pub const MIN_OPEN_CALLS: usize = 1000;

/// Walks the plan's measured calls in order, wrapping around.
pub struct Cursor {
    next: usize,
    len: usize,
}

impl Cursor {
    pub fn new(len: usize) -> Self {
        Cursor { next: 0, len }
    }

    fn take(&mut self) -> CallRef {
        let k = self.next;
        self.next = (self.next + 1) % self.len;
        CallRef::Measured(k)
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    pub calls: usize,
    /// Wall time from the first send to the last completion.
    pub elapsed_s: f64,
    /// Per-call latency, µs: completion minus the call's due time
    /// (open loop) or send time (closed loop).
    pub latency_us: Vec<f64>,
    /// How late each open-loop call was sent against its schedule, µs.
    pub lag_us: Vec<f64>,
}

impl Phase {
    /// Requests answered correctly per second of phase wall time.
    pub fn goodput_rps(&self) -> f64 {
        self.tally.correct() as f64 / self.elapsed_s
    }

    /// One phase made of `parts` run one after another: counts, tallies,
    /// samples and wall time add up.
    pub fn concat(parts: &[Phase]) -> Phase {
        let mut all = Phase::default();
        for p in parts {
            all.tally.merge(&p.tally);
            all.calls += p.calls;
            all.elapsed_s += p.elapsed_s;
            all.latency_us.extend_from_slice(&p.latency_us);
            all.lag_us.extend_from_slice(&p.lag_us);
        }
        all
    }

    /// Waits for every call in flight and collects what completed.
    fn finish(conn: &Conn, start: Instant, lag_us: Vec<f64>) -> io::Result<Phase> {
        conn.wait_below(1)?;
        let done = conn.take();
        Ok(Phase {
            elapsed_s: done
                .last
                .map_or(0.0, |l| l.duration_since(start).as_secs_f64()),
            tally: done.tally,
            calls: done.calls,
            latency_us: done.latency_us,
            lag_us,
        })
    }
}

/// Closed loop: keeps `window` calls in flight for `duration`, then
/// drains.
pub fn closed(
    conn: &mut Conn,
    cursor: &mut Cursor,
    window: usize,
    duration: Duration,
) -> io::Result<Phase> {
    conn.take();
    let start = Instant::now();
    while start.elapsed() < duration {
        conn.wait_below(window)?;
        conn.submit(cursor.take(), Instant::now())?;
    }
    Phase::finish(conn, start, Vec::new())
}

/// Open loop: Poisson arrivals at `rate` calls per second for
/// `duration`, extended until at least `min_calls` calls were sent,
/// then drains. The sender sleeps until each call is due and never
/// waits on completions.
pub fn open(
    conn: &mut Conn,
    cursor: &mut Cursor,
    rate: f64,
    duration: Duration,
    min_calls: usize,
    rng: &mut Rng,
) -> io::Result<Phase> {
    tighten_timer_slack();
    conn.take();
    let start = Instant::now();
    let mut due = start + Duration::from_secs_f64(rng.exp_gap(rate));
    let mut lag_us = Vec::new();
    while lag_us.len() < min_calls || due < start + duration {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        conn.submit(cursor.take(), due)?;
        due += Duration::from_secs_f64(rng.exp_gap(rate));
    }
    Phase::finish(conn, start, lag_us)
}

/// Asks the kernel to wake this thread's sleeps within 1 µs of their
/// deadline instead of the default 50 µs slack, so sleeping until the
/// next arrival does not turn into schedule lag. Best effort: on
/// failure the default slack stays.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as its
        // only argument and touches no memory of ours; the unused
        // arguments are passed as zero as the interface requires.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }
}

/// The `q` quantile of `xs` as an order statistic (no interpolation).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail statistic of an open-loop phase: the phase is cut into
/// consecutive windows of at least [`MIN_OPEN_CALLS`] calls, and the
/// median of the windows' `q` quantiles is reported. Every window's p99
/// has ten samples beyond it, and one host stall episode moves one
/// window, not the reported figure. Returns the value and the window
/// count.
pub fn windowed_quantile(xs: &[f64], q: f64) -> (f64, usize) {
    let windows = (xs.len() / MIN_OPEN_CALLS).max(1);
    let per = xs.len() / windows;
    let qs: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                xs.len()
            } else {
                (w + 1) * per
            };
            quantile(&xs[w * per..end], q)
        })
        .collect();
    (median(&qs), windows)
}

/// Median of a few repeated measurements (the mean of the middle two
/// for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
