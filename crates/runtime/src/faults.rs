//! Timed message delivery for the live query plane.
//!
//! [`Dispatcher`] — a timer thread plus a bounded worker pool that
//! delivers timed messages (requests after the outbound delay, replies
//! after the return delay, retries after backoff) for
//! [`crate::cluster::RoadsCluster`]. However wide a query fans out, the
//! cluster runs a fixed number of dispatcher threads. Retry, dedup and
//! failover decisions belong to `roads_core::QueryMachine`.

use crate::cluster::DispatchJob;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

enum TimerCmd {
    /// Run `job` no earlier than the given instant.
    Schedule(Instant, DispatchJob),
    Shutdown,
}

/// Cloneable handle for scheduling work on a [`Dispatcher`]; held by the
/// cluster and embedded in every in-flight reply path. Sends after the
/// dispatcher shut down are silently dropped (the cluster is going away).
#[derive(Clone)]
pub(crate) struct DispatchHandle {
    cmd_tx: Sender<TimerCmd>,
}

impl DispatchHandle {
    /// Schedule `job` to run at `due`.
    pub(crate) fn schedule(&self, due: Instant, job: DispatchJob) {
        let _ = self.cmd_tx.send(TimerCmd::Schedule(due, job));
    }

    /// Schedule `job` after `delay` from now.
    pub(crate) fn schedule_after(&self, delay: Duration, job: DispatchJob) {
        self.schedule(Instant::now() + delay, job);
    }
}

/// Heap entry ordered by due time, FIFO within a tick.
struct Timed {
    due: Instant,
    seq: u64,
    job: DispatchJob,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Timer thread + bounded worker pool executing timed [`DispatchJob`]s.
pub(crate) struct Dispatcher {
    handle: DispatchHandle,
    timer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    /// Start the timer thread and `workers.max(1)` pool workers.
    pub(crate) fn start(workers: usize) -> Self {
        let (cmd_tx, cmd_rx) = unbounded::<TimerCmd>();
        let (job_tx, job_rx) = unbounded::<DispatchJob>();
        let timer = thread::Builder::new()
            .name("roads-dispatch-timer".into())
            .spawn(move || {
                let mut heap: BinaryHeap<Reverse<Timed>> = BinaryHeap::new();
                let mut seq = 0u64;
                loop {
                    // Fire everything that has matured.
                    let now = Instant::now();
                    while heap.peek().is_some_and(|Reverse(t)| t.due <= now) {
                        let Reverse(t) = heap.pop().expect("peeked");
                        let _ = job_tx.send(t.job);
                    }
                    // Sleep until the next job matures or a command lands.
                    let cmd = match heap.peek() {
                        Some(Reverse(next)) => {
                            let wait = next.due.saturating_duration_since(Instant::now());
                            match cmd_rx.recv_timeout(wait) {
                                Ok(cmd) => cmd,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        None => match cmd_rx.recv() {
                            Ok(cmd) => cmd,
                            Err(_) => break,
                        },
                    };
                    match cmd {
                        TimerCmd::Schedule(due, job) => {
                            heap.push(Reverse(Timed { due, seq, job }));
                            seq += 1;
                        }
                        TimerCmd::Shutdown => break,
                    }
                }
                // job_tx drops here; idle workers drain and exit.
            })
            .expect("spawn dispatch timer");
        // The channel receiver is single-consumer; workers share it behind
        // a mutex, each blocking in recv() while holding it — the lock is
        // released between dequeue and job execution, so jobs still spread
        // across the pool.
        let job_rx: Arc<Mutex<Receiver<DispatchJob>>> = Arc::new(Mutex::new(job_rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                thread::Builder::new()
                    .name(format!("roads-dispatch-{i}"))
                    .spawn(move || loop {
                        let job = job_rx.lock().recv();
                        match job {
                            Ok(job) => job.run(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn dispatch worker")
            })
            .collect();
        Dispatcher {
            handle: DispatchHandle { cmd_tx },
            timer: Some(timer),
            workers,
        }
    }

    /// The scheduling handle.
    pub(crate) fn handle(&self) -> &DispatchHandle {
        &self.handle
    }

    /// Stop the timer and drain the pool. Jobs not yet matured are
    /// discarded; jobs already handed to workers finish.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.handle.cmd_tx.send(TimerCmd::Shutdown);
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
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
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn dispatcher_runs_jobs_in_due_order() {
        let mut d = Dispatcher::start(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = Instant::now();
        for (tag, off_ms) in [(1u64, 30u64), (2, 5), (3, 15)] {
            let order = Arc::clone(&order);
            d.handle().schedule(
                now + Duration::from_millis(off_ms),
                DispatchJob::test_probe(move || order.lock().push(tag)),
            );
        }
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(&*order.lock(), &[2, 3, 1]);
        d.shutdown();
    }

    #[test]
    fn dispatcher_shutdown_discards_unmatured_jobs() {
        let mut d = Dispatcher::start(1);
        let ran = Arc::new(Mutex::new(false));
        {
            let ran = Arc::clone(&ran);
            d.handle().schedule_after(
                Duration::from_secs(60),
                DispatchJob::test_probe(move || *ran.lock() = true),
            );
        }
        d.shutdown();
        assert!(!*ran.lock());
        // Scheduling after shutdown is a silent no-op.
        d.handle()
            .schedule_after(Duration::ZERO, DispatchJob::test_probe(|| {}));
    }
}
