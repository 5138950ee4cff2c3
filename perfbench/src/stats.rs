//! Measurement helpers: the percentile rule, order-independent answer
//! fingerprints, a seeded generator, and process CPU / memory from
//! `/proc`.

/// Samples that must lie strictly beyond a reported percentile. A tail
/// figure resting on fewer would move with one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `p`.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9)
        .expect("p < 100")
}

/// Sort a sample vector ascending (samples are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of any non-empty sample set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Indices of the stretches to estimate from, given each stretch's steal
/// fraction: every stretch with steal at most `quiet`, or, when fewer than
/// `wanted` were that quiet, the `wanted` with the least steal.
pub fn least_disturbed(steal: &[f64], wanted: usize, quiet: f64) -> Vec<usize> {
    let calm: Vec<usize> = (0..steal.len()).filter(|&k| steal[k] <= quiet).collect();
    if calm.len() >= wanted {
        return calm;
    }
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    by_steal.truncate(wanted);
    by_steal
}

/// splitmix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded splitmix64 stream; the benchmark's only source of randomness
/// besides the workload crate's own generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Order-independent fingerprint of a multiset of record ids. Two
/// answers agree iff (with overwhelming probability) they hold the same
/// ids the same number of times; a dropped, extra or duplicated record
/// changes `count` and both sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdSet {
    pub count: u64,
    sum: u64,
    xor: u64,
}

impl IdSet {
    pub fn add(&mut self, id: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(id));
        self.xor ^= mix64(id ^ 0x5555_5555_5555_5555);
    }

    pub fn of(ids: impl IntoIterator<Item = u64>) -> Self {
        let mut s = IdSet::default();
        for id in ids {
            s.add(id);
        }
        s
    }
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) used so far by every thread of this
/// process, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU seconds the calling thread has run so far, from
/// `/proc/thread-self/schedstat` (nanosecond resolution).
pub fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("read schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns as f64 * 1e-9
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// ("steal", from `/proc/stat`) over an interval. Printed with each run:
/// wall-clock figures from a run with high steal are slowed by
/// neighbours, not by the code.
pub struct Steal([u64; 2]);

impl Steal {
    fn read() -> [u64; 2] {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .expect("aggregate cpu line")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        [cpu.get(7).copied().unwrap_or(0), cpu.iter().sum()]
    }

    pub fn start() -> Steal {
        Steal(Self::read())
    }

    /// Steal over the interval since [`Steal::start`], as a fraction.
    pub fn fraction(&self) -> f64 {
        let [steal, total] = Self::read();
        let total = total.saturating_sub(self.0[1]);
        if total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.0[0]) as f64 / total as f64
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 51.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        for p in [50.0, 90.0, 99.0] {
            let n = samples_for(p);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, p).is_some(), "p{p} with {n} samples");
            assert!(
                percentile(&v[1..], p).is_none(),
                "p{p} with {} samples",
                n - 1
            );
        }
        assert_eq!(samples_for(99.0), 1000);
    }

    #[test]
    fn least_disturbed_prefers_quiet_stretches() {
        let steal = [0.30, 0.01, 0.20, 0.00, 0.02, 0.10];
        assert_eq!(least_disturbed(&steal, 2, 0.02), vec![1, 3, 4]);
        assert_eq!(least_disturbed(&steal, 4, 0.02), vec![3, 1, 4, 5]);
    }

    #[test]
    fn idset_detects_a_dropped_or_duplicated_record() {
        let full = IdSet::of([3, 14, 15, 92, 65]);
        assert_eq!(full, IdSet::of([65, 92, 15, 14, 3]), "order-independent");
        assert_ne!(full, IdSet::of([3, 14, 15, 92]));
        assert_ne!(full, IdSet::of([3, 14, 15, 92, 65, 65]));
        assert_ne!(full, IdSet::of([3, 14, 15, 92, 66]));
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(5) < 5 && (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn proc_readings_are_sane() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= c0);
        let t0 = thread_cpu_seconds();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            thread_cpu_seconds() - t0 >= 0.01,
            "a 20 ms spin is mostly on-CPU"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
