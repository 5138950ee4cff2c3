//! One background thread per periodic plane, with one lifecycle.
//!
//! The OpenMetrics [`crate::Sampler`], the runtime's auditor and its
//! watchdog all tick on a fixed wall-clock interval, can be ticked by hand
//! for deterministic tests, and must run one final tick when stopped, so
//! changes since the last scheduled tick always reach the final result.
//! [`Periodic`] is that lifecycle; the plane supplies the [`Tick`].

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Work a [`Periodic`] thread runs on its schedule.
pub trait Tick: Send + Sync + 'static {
    /// Run one tick.
    fn tick(&self);
}

#[derive(Default)]
struct Control {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A background thread calling [`Tick::tick`] every interval, the first
/// call one full interval after start. Stopping — [`Periodic::stop`] or
/// drop — wakes the thread, which runs one final tick and exits, and
/// joins it.
pub struct Periodic<T: Tick> {
    work: Arc<T>,
    control: Arc<Control>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Tick> Periodic<T> {
    /// Spawn thread `name` ticking `work` every `interval`.
    pub fn start(name: &str, work: Arc<T>, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "{name}: interval must be positive");
        let control = Arc::new(Control::default());
        let handle = {
            let (work, control) = (Arc::clone(&work), Arc::clone(&control));
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    let mut next = Instant::now() + interval;
                    loop {
                        let mut stop = control.stop.lock().expect("periodic stop flag");
                        while !*stop && Instant::now() < next {
                            let wait = next.saturating_duration_since(Instant::now());
                            stop = control
                                .wake
                                .wait_timeout(stop, wait)
                                .expect("periodic stop flag")
                                .0;
                        }
                        let stopping = *stop;
                        drop(stop);
                        work.tick();
                        if stopping {
                            return;
                        }
                        next += interval;
                    }
                })
                .expect("spawn periodic thread")
        };
        Periodic {
            work,
            control,
            handle: Some(handle),
        }
    }

    /// The ticked work.
    pub fn work(&self) -> &Arc<T> {
        &self.work
    }

    /// Run one tick right now, outside the schedule.
    pub fn tick_now(&self) {
        self.work.tick();
    }

    /// Stop the thread after its final tick and join it. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            *self.control.stop.lock().expect("periodic stop flag") = true;
            self.control.wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl<T: Tick> Drop for Periodic<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Count(AtomicU64);

    impl Tick for Count {
        fn tick(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn stop_runs_one_final_tick_and_is_idempotent() {
        let mut p = Periodic::start(
            "test-periodic",
            Arc::new(Count(AtomicU64::new(0))),
            Duration::from_secs(3600),
        );
        p.tick_now();
        assert_eq!(p.work().0.load(Ordering::SeqCst), 1);
        p.stop();
        assert_eq!(p.work().0.load(Ordering::SeqCst), 2, "final tick on stop");
        p.stop();
        assert_eq!(p.work().0.load(Ordering::SeqCst), 2);
    }
}
