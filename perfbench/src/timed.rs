//! The untraced runs that give every end-to-end metric.

use crate::inputs::{assert_zero_emulation, clients, Answer, Inputs, Population, Workload};
use crate::loadgen::{closed_loop, ms, open_loop, Phase};
use crate::stats::{
    least_disturbed, median, peak_rss_mb, percentile, samples_for, sorted, thread_cpu_seconds,
    IdSet, Steal,
};
use crate::{Metric, Report};
use roads_core::{execute_query, update_round_delta, RoadsNetwork, SearchScope, ServerId};
use roads_netsim::DelaySpace;
use roads_runtime::{RoadsCluster, RuntimeConfig};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Seed of the (unused, zero-scaled) delay space the runtime requires.
pub const DELAY_SEED: u64 = 31;

/// What a live query left for the checker.
pub struct Reply {
    pub ids: IdSet,
    /// Complete, nothing failed, no retry.
    pub clean: bool,
}

/// Build the federation and start its cluster; the time until the first
/// query can be served.
pub fn start_cluster(inputs: &Inputs, cfg: RuntimeConfig) -> (f64, RoadsCluster) {
    let records = inputs.records.clone();
    let t0 = Instant::now();
    let net = inputs.build_network_from(records);
    let n = net.len();
    let cluster = RoadsCluster::start(net, DelaySpace::paper(n, DELAY_SEED), cfg);
    (t0.elapsed().as_secs_f64(), cluster)
}

/// Issue stream query `i` as the workload does: on `live_hot` a cache
/// round passes every `CACHE_ROUND_EVERY` queries.
pub fn live_query(
    cluster: &RoadsCluster,
    inputs: &Inputs,
    i: usize,
) -> roads_runtime::RuntimeOutcome {
    if inputs.workload == Workload::LiveHot && i.is_multiple_of(crate::inputs::CACHE_ROUND_EVERY) {
        cluster.advance_cache_round();
    }
    let (q, entry) = inputs.query(i);
    cluster.query(q, *entry)
}

/// Tails are printed but not declared in `BENCHMARK.json`: on a small
/// shared machine they follow how much CPU other tenants take more than
/// they follow the code.
fn tail_note(p99: &Metric, limit_ms: Option<f64>) -> String {
    let limit = match limit_ms {
        Some(l) if p99.value <= l => format!("; limit {l} ms met"),
        Some(l) => format!("; limit {l} ms missed"),
        None => String::new(),
    };
    format!(
        "{} {:.3} ms over {} samples{limit}",
        p99.name, p99.value, p99.samples
    )
}

pub fn reply(out: roads_runtime::RuntimeOutcome) -> Reply {
    Reply {
        ids: IdSet::of(out.records.iter().map(|r| r.id.0)),
        clean: out.complete && out.failed_servers.is_empty() && out.retries == 0,
    }
}

/// Exact answers of the stream's distinct queries, computed on first use
/// and only outside timed sections.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    pop: Population,
    memo: Vec<OnceLock<Answer>>,
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Oracle {
            inputs,
            pop: Population::new(&inputs.records),
            memo: (0..inputs.distinct_queries())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    pub fn answer(&self, i: usize) -> &Answer {
        let slot = self.inputs.distinct_index(i);
        self.memo[slot].get_or_init(|| self.pop.answer(&self.inputs.query(i).0))
    }

    /// Failed checks among `phase`'s replies (two checker threads).
    pub fn failures(&self, phase: &Phase<Reply>) -> u64 {
        let half = phase.samples.len() / 2;
        let (a, b) = phase.samples.split_at(half);
        let count = |part: &[crate::loadgen::Sample<Reply>]| {
            part.iter()
                .filter(|s| !s.result.clean || s.result.ids != self.answer(s.index).ids)
                .count() as u64
        };
        std::thread::scope(|s| {
            let h = s.spawn(|| count(a));
            count(b) + h.join().expect("checker thread panicked")
        })
    }
}

/// A live run measures in stretches until its seconds have passed. Each
/// stretch is an open-loop window of [`OPEN_WINDOW_S`] at the nominal
/// rate, a closed-loop window of [`CLOSED_WINDOW_S`] and a block of
/// [`PUBLISH_BLOCK`] publish rounds on a twin of the federation. On a
/// shared host the speed of the same code drifts over seconds, so every
/// metric draws its samples from the whole run, not from one part of it.
const OPEN_WINDOW_S: f64 = 0.5;
const CLOSED_WINDOW_S: f64 = 0.2;
const PUBLISH_BLOCK: usize = 40;
/// Share of a live run's seconds given to the untimed warm-up, and its
/// untimed publish rounds.
const WARM_SHARE: f64 = 0.05;
const WARM_ROUNDS: usize = 3;
/// A stretch is quiet when other guests took at most this share of the
/// host's CPU time during it (steal). Queries are judged on the quiet
/// stretches, or on the least disturbed [`QUIET_SHARE`] of them when
/// fewer were quiet: the runtime's thread handoffs magnify steal
/// several-fold, and other guests only ever slow the code down.
const QUIET_STEAL: f64 = 0.01;
const QUIET_SHARE: f64 = 1.0 / 3.0;

/// What one stretch of a live run measured.
struct Stretch {
    open_ms: Vec<f64>,
    late_ms: Vec<f64>,
    open_cpu_s: f64,
    closed: usize,
    closed_wall_s: f64,
    publish_ms: Vec<f64>,
    steal: f64,
}

/// `live_narrow` / `live_hot`.
pub fn live(inputs: &Inputs, seconds: f64) -> Report {
    let w = inputs.workload;
    let cfg = w.runtime_config();
    assert_zero_emulation(&cfg, inputs.max_reply_bytes());
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        drop(cluster.take());
        let (s, c) = start_cluster(inputs, cfg);
        setups.push(s);
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    let t_run = Instant::now();
    let steal = Steal::start();
    let mut churn = Churning::new(cluster.network().clone(), inputs);
    let oracle = Oracle::new(inputs);
    let op = |i: usize| live_query(&cluster, inputs, i);
    let check = |_: usize, out| reply(out);
    let rate = w
        .nominal_rate()
        .expect("live workloads have a nominal rate");
    let open_n = (rate * OPEN_WINDOW_S).round() as usize;

    // Warm-up (untimed): caches fill, lazy set-up finishes.
    let warm = closed_loop(
        clients(),
        Duration::from_secs_f64(seconds * WARM_SHARE),
        0,
        op,
        check,
    );
    churn.rounds(WARM_ROUNDS);
    let mut next = warm.samples.len();
    let mut failed = oracle.failures(&warm);
    let mut attempted = warm.samples.len() as u64;
    let mut stretches: Vec<Stretch> = Vec::new();
    while stretches.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        let stretch_steal = Steal::start();
        let open = open_loop(rate, open_n, clients(), next, op, check);
        next += open.samples.len();
        let closed = closed_loop(
            clients(),
            Duration::from_secs_f64(CLOSED_WINDOW_S),
            next,
            op,
            check,
        );
        next += closed.samples.len();
        let publish_ms = churn.rounds(PUBLISH_BLOCK);
        stretches.push(Stretch {
            open_ms: open.samples.iter().map(|s| s.latency_ms).collect(),
            late_ms: open.samples.iter().map(|s| s.late_ms).collect(),
            open_cpu_s: open.cpu_s,
            closed: closed.samples.len(),
            closed_wall_s: closed.wall_s,
            publish_ms,
            steal: stretch_steal.fraction(),
        });
        failed += oracle.failures(&open) + oracle.failures(&closed);
        attempted += (open.samples.len() + closed.samples.len()) as u64;
    }
    drop(cluster);
    failed += churn.failed;
    attempted += churn.rounds;
    let publish = Publish {
        times_ms: stretches.iter().flat_map(|s| s.publish_ms.iter().copied()).collect(),
        failed: churn.failed,
    };
    let run_steal = steal.fraction();
    live_report(w, setups, &stretches, publish, run_steal, attempted, failed)
}

/// The end-to-end metrics of a live run from its stretches.
fn live_report(
    w: Workload,
    setups: Vec<f64>,
    stretches: &[Stretch],
    publish: Publish,
    run_steal: f64,
    attempted: u64,
    failed: u64,
) -> Report {
    let steals: Vec<f64> = stretches.iter().map(|s| s.steal).collect();
    let wanted = (stretches.len() as f64 * QUIET_SHARE).ceil() as usize;
    let chosen: Vec<&Stretch> = least_disturbed(&steals, wanted, QUIET_STEAL)
        .into_iter()
        .map(|k| &stretches[k])
        .collect();
    let quiet_lat = sorted(chosen.iter().flat_map(|s| s.open_ms.iter().copied()).collect());
    let closed: usize = chosen.iter().map(|s| s.closed).sum();
    let closed_wall: f64 = chosen.iter().map(|s| s.closed_wall_s).sum();
    let lat = sorted(stretches.iter().flat_map(|s| s.open_ms.iter().copied()).collect());
    let late = sorted(stretches.iter().flat_map(|s| s.late_ms.iter().copied()).collect());
    let p99 = Metric::pct("query_p99_ms", &lat, 99.0);
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::pct("query_p50_ms", &quiet_lat, 50.0),
        Metric::new("throughput_qps", closed as f64 / closed_wall, "1/s", closed),
        // `/proc` counts CPU in 10 ms ticks, so it is read per window and
        // summed over the run. Steal is not counted as the process's CPU
        // time, so every stretch counts.
        Metric::new(
            "cpu_us_per_query",
            stretches.iter().map(|s| s.open_cpu_s).sum::<f64>() * 1e6 / lat.len() as f64,
            "us",
            lat.len(),
        ),
        publish.p50(),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let notes = vec![
        format!(
            "{} stretches of: open loop, {} queries offered at {} qps by {n} senders; closed loop, {n} clients for {CLOSED_WINDOW_S} s; {PUBLISH_BLOCK} publish rounds",
            stretches.len(),
            stretches[0].open_ms.len(),
            w.nominal_rate().unwrap_or(0.0),
            n = clients(),
        ),
        format!(
            "{} stretches quiet (steal <= {}%); p50 and throughput from {} of them",
            steals.iter().filter(|&&f| f <= QUIET_STEAL).count(),
            QUIET_STEAL * 100.0,
            chosen.len()
        ),
        tail_note(&p99, Some(w.latency_limit_ms())),
        publish.p99_note(),
        format!(
            "load generator lateness p99: {:.3} ms",
            percentile(&late, 99.0).unwrap_or(f64::NAN)
        ),
        format!("steal: {:.1}% of CPU time during the run", run_steal * 100.0),
    ];
    Report {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Wall times of `update_round_delta` rounds.
pub struct Publish {
    pub times_ms: Vec<f64>,
    pub failed: u64,
}

impl Publish {
    fn p50(&self) -> Metric {
        Metric::pct("publish_p50_ms", &sorted(self.times_ms.clone()), 50.0)
    }

    fn p99_note(&self) -> String {
        let t = sorted(self.times_ms.clone());
        tail_note(&Metric::pct("publish_p99_ms", &t, 99.0), None)
    }

    fn rounds(&self) -> u64 {
        self.times_ms.len() as u64
    }
}

/// Rounds a run times at least, so that the publish p99 has ten samples
/// beyond it.
fn min_rounds() -> usize {
    samples_for(99.0)
}

/// Churn rounds on a twin of the live federation, each applying 1%
/// record updates through `update_round_delta`. A round fails unless
/// every change applies.
struct Churning {
    net: RoadsNetwork,
    pop: Population,
    churn: crate::inputs::Churn,
    rounds: u64,
    failed: u64,
}

impl Churning {
    fn new(net: RoadsNetwork, inputs: &Inputs) -> Self {
        Churning {
            net,
            pop: Population::new(&inputs.records),
            churn: inputs.churn(),
            rounds: 0,
            failed: 0,
        }
    }

    /// Run `n` rounds; their wall times in ms.
    fn rounds(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let delta = self.churn.next_round(&mut self.pop);
                let t = Instant::now();
                let (_, outcome) = update_round_delta(&mut self.net, &delta);
                let took = ms(t.elapsed());
                self.rounds += 1;
                self.failed += u64::from(!applied_fully(&delta, &outcome));
                took
            })
            .collect()
    }
}

fn applied_fully(delta: &roads_core::RecordDelta, outcome: &roads_core::DeltaOutcome) -> bool {
    outcome.applied == delta.len() as u64 && outcome.rejected == 0
}

/// Rounds per block of `publish_churn`; each block's steal is measured.
const BLOCK_ROUNDS: usize = 50;


/// The timed reads of one block of `publish_churn` rounds.
#[derive(Default)]
struct ReadBlock {
    reads_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    steal: f64,
}

/// `publish_churn`: rounds of 1% updates, each followed by a batch of
/// concurrent reads checked against the updated population.
pub fn publish_churn(inputs: &Inputs, seconds: f64) -> Report {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let records = inputs.records.clone();
        let t0 = Instant::now();
        let net = inputs.build_network_from(records);
        let delays = DelaySpace::paper(net.len(), DELAY_SEED);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((net, delays));
    }
    let (mut net, delays) = built.expect("at least one set-up");
    let mut pop = Population::new(&inputs.records);
    let mut churn = inputs.churn();
    let readers = clients();

    let mut publish = Publish {
        times_ms: Vec::new(),
        failed: 0,
    };
    let steal = Steal::start();
    let mut blocks: Vec<ReadBlock> = Vec::new();
    let mut block = ReadBlock::default();
    let mut block_steal = Steal::start();
    let mut failed_reads = 0u64;
    let t0 = Instant::now();
    let mut round = 0usize;
    while t0.elapsed().as_secs_f64() < seconds * 0.9 || publish.times_ms.len() < min_rounds() {
        let delta = churn.next_round(&mut pop);
        let t = Instant::now();
        let (_, outcome) = update_round_delta(&mut net, &delta);
        let publish_ms = ms(t.elapsed());
        publish.failed += u64::from(!applied_fully(&delta, &outcome));

        // Each reader times its read, then, once every read is done,
        // checks it on its own thread.
        let first = round * readers;
        let b0 = Instant::now();
        let all_read = Barrier::new(readers);
        let outs: Vec<(f64, Instant, f64, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (first..first + readers)
                .map(|i| {
                    let (net, delays, pop, all_read) = (&net, &delays, &pop, &all_read);
                    s.spawn(move || {
                        let (q, entry) = inputs.query(i);
                        let cpu0 = thread_cpu_seconds();
                        let t = Instant::now();
                        let out = execute_query(net, delays, q, *entry, SearchScope::full());
                        let done = Instant::now();
                        let cpu = thread_cpu_seconds() - cpu0;
                        // No check may overlap another reader's timed read.
                        all_read.wait();
                        (ms(done - t), done, cpu, read_is_exact(net, pop, q, &out))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect()
        });
        // The batch ends when its last read does; the checks after it are
        // not part of the batch's wall time. A read runs on its reader's
        // thread alone, so that thread's CPU time is the read's.
        let last = outs.iter().map(|o| o.1).max().expect("at least one reader");
        let wall = (last - b0).as_secs_f64();
        let cpu: f64 = outs.iter().map(|o| o.2).sum();
        failed_reads += outs.iter().filter(|o| !o.3).count() as u64;
        round += 1;
        if round <= WARM_ROUNDS {
            continue;
        }
        publish.times_ms.push(publish_ms);
        block.reads_ms.extend(outs.iter().map(|o| o.0));
        block.wall_s += wall;
        block.cpu_s += cpu;
        if block.reads_ms.len() == BLOCK_ROUNDS * readers {
            block.steal = block_steal.fraction();
            blocks.push(std::mem::take(&mut block));
            block_steal = Steal::start();
        }
    }
    if !block.reads_ms.is_empty() {
        block.steal = block_steal.fraction();
        blocks.push(block);
    }
    // Reads, like live queries, are judged on the least disturbed blocks.
    let steals: Vec<f64> = blocks.iter().map(|b| b.steal).collect();
    let wanted = (blocks.len() as f64 * QUIET_SHARE).ceil() as usize;
    let chosen = least_disturbed(&steals, wanted, QUIET_STEAL);
    let quiet = chosen.iter().map(|&k| &blocks[k]);
    let wall: f64 = quiet.clone().map(|b| b.wall_s).sum();
    let cpu: f64 = quiet.clone().map(|b| b.cpu_s).sum();
    let quiet_lat = sorted(quiet.flat_map(|b| b.reads_ms.iter().copied()).collect());
    let n = quiet_lat.len();
    let lat = sorted(
        blocks
            .iter()
            .flat_map(|b| b.reads_ms.iter().copied())
            .collect(),
    );
    let reads = lat.len();
    let p99 = Metric::pct("query_p99_ms", &lat, 99.0);
    let limit = inputs.workload.latency_limit_ms();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::pct("query_p50_ms", &quiet_lat, 50.0),
        Metric::new("throughput_qps", n as f64 / wall, "1/s", n),
        Metric::new("cpu_us_per_query", cpu * 1e6 / n as f64, "us", n),
    ];
    metrics.push(publish.p50());
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    Report {
        attempted: round as u64 * (1 + readers as u64),
        failed: publish.failed + failed_reads,
        metrics,
        notes: vec![
            format!(
                "{round} rounds ({} timed), {reads} timed reads by {readers} readers",
                publish.rounds()
            ),
            format!(
                "{} blocks of {BLOCK_ROUNDS} rounds; reads judged on {} of them (steal <= {}%, or the least disturbed third)",
                blocks.len(),
                chosen.len(),
                QUIET_STEAL * 100.0
            ),
            tail_note(&p99, Some(limit)),
            publish.p99_note(),
            format!(
                "steal: {:.1}% of CPU time during the run",
                steal.fraction() * 100.0
            ),
        ],
    }
}

/// A read is exact when its count and matching servers equal the oracle's
/// and the records those servers hold for it are exactly the oracle's.
pub fn read_is_exact(
    net: &RoadsNetwork,
    pop: &Population,
    q: &roads_records::Query,
    out: &roads_core::QueryOutcome,
) -> bool {
    let exact = pop.answer(q);
    let mut servers: Vec<u32> = out.matching_servers.iter().map(|s| s.0).collect();
    servers.sort_unstable();
    let ids = IdSet::of(
        out.matching_servers
            .iter()
            .flat_map(|&s: &ServerId| net.store(s).search(q))
            .map(|r| r.id.0),
    );
    out.matching_records as u64 == exact.ids.count && servers == exact.servers && ids == exact.ids
}
