//! Load generators over a synchronous operation `op(i)` on stream index
//! `i`.
//!
//! The open loop models independent users: operation `i` is due at
//! `start + i / rate`, whether or not earlier ones have finished. Each of
//! the sender threads takes the next due index, waits for its due time if
//! it is early, and times the operation *from its due time*, so a stall
//! delays — and is charged to — every operation queued behind it. The
//! closed loop models callers that each wait for a reply before asking
//! again; it measures the highest rate the system sustains with that
//! many requests in flight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    pub index: usize,
    /// Due time to completion (open loop) or send to completion (closed
    /// loop), in milliseconds.
    pub latency_ms: f64,
    /// How late the generator sent it: send time minus due time (0 in a
    /// closed loop).
    pub late_ms: f64,
    pub result: R,
}

/// What a load phase produced.
#[derive(Debug)]
pub struct Phase<R> {
    pub samples: Vec<Sample<R>>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Open loop of `total` operations offered at `rate` per second, with
/// `senders` threads (the bound on operations in flight). Stream indices
/// run from `first`. `check` turns a reply into the sample's result after
/// the operation is timed.
pub fn open_loop<T, R: Send>(
    rate: f64,
    total: usize,
    senders: usize,
    first: usize,
    op: impl Fn(usize) -> T + Sync,
    check: impl Fn(usize, T) -> R + Sync,
) -> Phase<R> {
    let next = AtomicUsize::new(0);
    let cpu0 = crate::stats::cpu_seconds();
    let t0 = Instant::now();
    let samples = run_threads(senders, || {
        let mut out = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= total {
                return out;
            }
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = op(first + k);
            let done = Instant::now();
            out.push(Sample {
                index: first + k,
                latency_ms: ms(done.saturating_duration_since(due)),
                late_ms: ms(sent.saturating_duration_since(due)),
                result: check(first + k, reply),
            });
        }
    });
    Phase {
        samples,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::stats::cpu_seconds() - cpu0,
    }
}

/// Closed loop: `clients` threads each issue their next operation as soon
/// as the previous one returns, until `duration` has passed. Stream
/// indices run from `first`.
pub fn closed_loop<T, R: Send>(
    clients: usize,
    duration: Duration,
    first: usize,
    op: impl Fn(usize) -> T + Sync,
    check: impl Fn(usize, T) -> R + Sync,
) -> Phase<R> {
    let next = AtomicUsize::new(first);
    let cpu0 = crate::stats::cpu_seconds();
    let t0 = Instant::now();
    let end = t0 + duration;
    let samples = run_threads(clients, || {
        let mut out = Vec::new();
        while Instant::now() < end {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let sent = Instant::now();
            let reply = op(index);
            let done = Instant::now();
            out.push(Sample {
                index,
                latency_ms: ms(done - sent),
                late_ms: 0.0,
                result: check(index, reply),
            });
        }
        out
    });
    Phase {
        samples,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::stats::cpu_seconds() - cpu0,
    }
}

fn run_threads<R: Send>(
    threads: usize,
    body: impl Fn() -> Vec<Sample<R>> + Sync,
) -> Vec<Sample<R>> {
    let mut all: Vec<Sample<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(&body)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.index);
    all
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_later_operations() {
        // 1 sender, one operation due every 2 ms; operation 5 stalls for
        // 30 ms. Operations due during the stall wait for the sender, and
        // their due-time latency says so.
        let phase = open_loop(
            500.0,
            30,
            1,
            0,
            |i| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                i
            },
            |_, i| i,
        );
        assert_eq!(phase.samples.len(), 30);
        let lat = |i: usize| phase.samples[i].latency_ms;
        assert!(lat(5) >= 30.0);
        assert!(lat(6) >= 20.0, "due 2 ms after the stall began: {}", lat(6));
        assert!(phase.samples[6].late_ms >= 20.0);
        assert!(lat(6) > lat(4) + 15.0);
    }

    #[test]
    fn closed_loop_runs_for_its_duration_and_numbers_from_first() {
        let phase = closed_loop(
            2,
            Duration::from_millis(20),
            100,
            |i| {
                std::thread::sleep(Duration::from_millis(1));
                i
            },
            |_, i| i,
        );
        assert!(phase.wall_s >= 0.02);
        assert!(!phase.samples.is_empty());
        let idx: Vec<usize> = phase.samples.iter().map(|s| s.index).collect();
        assert_eq!(idx, (100..100 + idx.len()).collect::<Vec<_>>());
        assert!(phase.samples.iter().all(|s| s.result == s.index));
    }
}
