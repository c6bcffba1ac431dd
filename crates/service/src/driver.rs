//! The readiness-driven connection driver: one thread multiplexing
//! every in-flight backend sub-batch.
//!
//! The pre-pipeline router spawned one OS thread per backend with
//! work and joined them all — a full scatter/gather barrier whose
//! thread spawns cost more than the I/O on small sub-batches (and on
//! a single-CPU host the "parallel" gather was a context-switch
//! carousel). The driver replaces the barrier: sub-batches are
//! submitted back-to-back ([`RemoteShard::begin_batch`]), then one
//! loop polls every backend's socket at once ([`ready::wait`]) and
//! absorbs whichever replies arrive first
//! ([`RemoteShard::try_finish`]) — gathering from a fast backend
//! starts while a slow one is still solving, with zero extra threads.
//!
//! The loop parks until a backend turns readable or the nearest
//! ticket deadline ([`RemoteConfig::io_timeout`](crate::RemoteConfig))
//! passes, whichever comes first, so a wedged backend's timeout fires
//! on time and an idle drive never wakes on a timer.

use crate::client::ReplyFrames;
use crate::ready::{self, PollFd};
use crate::remote::{RemoteShard, RemoteTicket};
use std::ops::DerefMut;
use std::time::{Duration, Instant};

/// One submitted sub-batch being driven to completion.
#[derive(Debug)]
pub struct Job<S> {
    /// The router slot the results belong to.
    pub slot: usize,
    /// The dialer owning the in-flight connection: a plain `&mut`, or
    /// a guard of the router slot it lives in — dropped as soon as the
    /// job completes, so a finished slot is free while a slower one is
    /// still being driven.
    pub shard: S,
    /// The submitted batch's ticket.
    pub ticket: RemoteTicket,
}

/// How long the driver may park: until the nearest deadline (zero once
/// one has passed), or indefinitely when no ticket has one.
pub fn park_timeout(
    deadlines: impl IntoIterator<Item = Option<Instant>>,
    now: Instant,
) -> Option<Duration> {
    deadlines
        .into_iter()
        .flatten()
        .min()
        .map(|d| d.saturating_duration_since(now))
}

/// Drives every job to completion (success, stream failure, or
/// deadline) and returns `(slot, outcome)` pairs in completion order.
/// Failures are per-job: one backend's error never voids another's
/// sub-batch.
pub fn drive<S>(mut jobs: Vec<Job<S>>) -> Vec<(usize, std::io::Result<ReplyFrames>)>
where
    S: DerefMut<Target = RemoteShard>,
{
    let mut done = Vec::with_capacity(jobs.len());
    let mut fds: Vec<PollFd> = Vec::with_capacity(jobs.len());
    while !jobs.is_empty() {
        let mut k = 0;
        while k < jobs.len() {
            let job = &mut jobs[k];
            match job.shard.try_finish(&job.ticket) {
                Ok(None) => k += 1,
                Ok(Some(out)) => {
                    let job = jobs.swap_remove(k);
                    done.push((job.slot, Ok(out)));
                }
                Err(e) => {
                    let job = jobs.swap_remove(k);
                    done.push((job.slot, Err(e)));
                }
            }
        }
        if jobs.is_empty() {
            break;
        }
        // Park until any remaining backend has bytes for us or the
        // nearest deadline passes (deadlines are enforced inside
        // try_finish). Every job still here has a live connection: a
        // dropped one fails its try_finish above.
        fds.clear();
        fds.extend(
            jobs.iter()
                .map(|j| PollFd::new(j.shard.poll_fd().unwrap_or(-1), ready::READABLE)),
        );
        let park = park_timeout(jobs.iter().map(|j| j.ticket.deadline), Instant::now());
        let _ = ready::wait(&mut fds, park);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parks_until_the_nearest_deadline() {
        let now = Instant::now();
        let ms = Duration::from_millis;
        assert_eq!(park_timeout([], now), None, "nothing to wait for");
        assert_eq!(park_timeout([None, None], now), None, "no deadlines");
        assert_eq!(
            park_timeout([Some(now + ms(300)), None, Some(now + ms(40))], now),
            Some(ms(40)),
            "the nearest deadline wins, however far the others are"
        );
        assert_eq!(
            park_timeout([Some(now + ms(5)), Some(now)], now + ms(1)),
            Some(Duration::ZERO),
            "a passed deadline parks for nothing"
        );
        assert_eq!(
            park_timeout([Some(now + Duration::from_micros(250))], now),
            Some(Duration::from_micros(250)),
            "sub-millisecond remainders survive (the wait rounds them up)"
        );
    }
}
