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

use crate::remote::{RemoteShard, RemoteTicket};
use econcast_service::ready;
use econcast_service::ReplyFrames;
use std::time::Duration;

/// One submitted sub-batch being driven to completion.
#[derive(Debug)]
pub struct Job<'a> {
    /// The router slot the results belong to.
    pub slot: usize,
    /// The dialer owning the in-flight connection.
    pub shard: &'a mut RemoteShard,
    /// The submitted batch's ticket.
    pub ticket: RemoteTicket,
}

/// Upper bound on one poll parking interval: keeps the loop
/// responsive to deadline expiry even when no backend is delivering
/// (a wedged backend's descriptor never turns readable).
const PARK_CAP: Duration = Duration::from_millis(100);

/// Drives every job to completion (success, stream failure, or
/// deadline) and returns `(slot, outcome)` pairs in completion order.
/// Failures are per-job: one backend's error never voids another's
/// sub-batch.
pub fn drive(mut jobs: Vec<Job<'_>>) -> Vec<(usize, std::io::Result<ReplyFrames>)> {
    let mut done = Vec::with_capacity(jobs.len());
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
        // Park until any remaining backend has bytes for us (or the
        // cap elapses — deadlines are enforced inside try_finish). A
        // connection that lost its descriptor mid-flight polls as an
        // invalid fd, which poll(2) reports immediately, so the next
        // try_finish round surfaces its NotConnected error instead of
        // the loop wedging.
        let fds: Vec<(ready::RawFdAlias, i16)> = jobs
            .iter()
            .map(|j| (j.shard.poll_fd().unwrap_or(-1), ready::READABLE))
            .collect();
        let _ = ready::wait(&fds, Some(PARK_CAP));
    }
    done
}
