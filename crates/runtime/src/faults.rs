//! Message delivery for the live query plane.
//!
//! Every message of [`crate::cluster::RoadsCluster`] — a request out, a
//! reply back, a retry — goes through [`DispatchHandle::schedule_after`],
//! which delivers in one of two tiers:
//!
//! - **Zero delay: inline.** The job runs at once on the caller's thread:
//!   the client's for requests, the server's for replies. Each job is a
//!   non-blocking send on an unbounded channel, so running it inline
//!   cannot stall the caller.
//! - **Positive delay: timer.** Emulated link delay, retry backoff and
//!   straggler stretch queue the job on the [`Dispatcher`]'s timer
//!   thread, which runs it itself when it matures.
//!
//! Both tiers run the same [`DispatchJob::run`]. Retry, dedup and
//! failover decisions belong to `roads_core::QueryMachine`.

use crate::cluster::DispatchJob;
use std::collections::BTreeMap;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

enum TimerCmd {
    /// Run `job` no earlier than the given instant.
    Schedule(Instant, DispatchJob),
    Shutdown,
}

/// Cloneable handle for scheduling work on a [`Dispatcher`]; held by the
/// cluster and embedded in every in-flight reply path. Delayed jobs
/// scheduled after the dispatcher shut down are silently dropped (the
/// cluster is going away).
#[derive(Clone)]
pub(crate) struct DispatchHandle {
    cmd_tx: Sender<TimerCmd>,
}

impl DispatchHandle {
    /// Run `job` after `delay` from now: on this thread before returning
    /// when `delay` is zero, else on the timer thread.
    pub(crate) fn schedule_after(&self, delay: Duration, job: DispatchJob) {
        if delay.is_zero() {
            job.run();
        } else {
            let _ = self
                .cmd_tx
                .send(TimerCmd::Schedule(Instant::now() + delay, job));
        }
    }
}

/// The timer thread running delayed [`DispatchJob`]s in due order.
pub(crate) struct Dispatcher {
    handle: DispatchHandle,
    timer: Option<JoinHandle<()>>,
}

impl Dispatcher {
    /// Start the timer thread.
    pub(crate) fn start() -> Self {
        let (cmd_tx, cmd_rx) = unbounded::<TimerCmd>();
        let timer = thread::Builder::new()
            .name("roads-dispatch-timer".into())
            .spawn(move || {
                // Keyed by due time, then arrival: FIFO within a tick.
                let mut pending: BTreeMap<(Instant, u64), DispatchJob> = BTreeMap::new();
                let mut seq = 0u64;
                loop {
                    // Fire everything that has matured.
                    let now = Instant::now();
                    while let Some(job) = pending.first_entry().filter(|e| e.key().0 <= now) {
                        job.remove().run();
                    }
                    // Sleep until the next job matures or a command lands
                    // (an overflowing timeout waits indefinitely).
                    let wait = pending.keys().next().map_or(Duration::MAX, |&(next, _)| {
                        next.saturating_duration_since(Instant::now())
                    });
                    match cmd_rx.recv_timeout(wait) {
                        Ok(TimerCmd::Schedule(due, job)) => {
                            pending.insert((due, seq), job);
                            seq += 1;
                        }
                        Ok(TimerCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                }
            })
            .expect("spawn dispatch timer");
        Dispatcher {
            handle: DispatchHandle { cmd_tx },
            timer: Some(timer),
        }
    }

    /// The scheduling handle.
    pub(crate) fn handle(&self) -> &DispatchHandle {
        &self.handle
    }

    /// Stop the timer thread. Delayed jobs not yet matured are discarded.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.handle.cmd_tx.send(TimerCmd::Shutdown);
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::Receiver;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A probe job that reports `tag` on `tx` when it runs.
    fn tagged(tx: &Sender<u64>, tag: u64) -> DispatchJob {
        let tx = tx.clone();
        DispatchJob::test_probe(move || {
            let _ = tx.send(tag);
        })
    }

    fn next_tag(rx: &Receiver<u64>) -> u64 {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("scheduled job never fired")
    }

    #[test]
    fn dispatcher_runs_jobs_in_due_order() {
        let mut d = Dispatcher::start();
        let (tx, rx) = unbounded();
        for (tag, off_ms) in [(1u64, 30u64), (2, 5), (3, 15)] {
            d.handle()
                .schedule_after(Duration::from_millis(off_ms), tagged(&tx, tag));
        }
        let order: Vec<u64> = (0..3).map(|_| next_tag(&rx)).collect();
        assert_eq!(order, [2, 3, 1]);
        d.shutdown();
    }

    #[test]
    fn zero_delay_job_runs_before_schedule_returns() {
        let mut d = Dispatcher::start();
        let ran = Arc::new(Mutex::new(false));
        {
            let ran = Arc::clone(&ran);
            d.handle().schedule_after(
                Duration::ZERO,
                DispatchJob::test_probe(move || *ran.lock() = true),
            );
        }
        assert!(*ran.lock(), "a zero-delay job runs on the caller's thread");
        d.shutdown();
    }

    #[test]
    fn dispatcher_shutdown_discards_unmatured_jobs() {
        let mut d = Dispatcher::start();
        let (tx, rx) = unbounded();
        d.handle()
            .schedule_after(Duration::from_secs(60), tagged(&tx, 1));
        d.shutdown();
        // After shutdown only delayed jobs are dropped: a zero-delay job
        // still runs inline, and a delayed one is a silent no-op.
        d.handle().schedule_after(Duration::ZERO, tagged(&tx, 2));
        d.handle()
            .schedule_after(Duration::from_millis(1), tagged(&tx, 3));
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), [2]);
    }
}
