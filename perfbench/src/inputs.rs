//! Workload definitions and their seeded inputs: federations, query
//! streams, the Zipf-popular pool, record churn, and the brute-force
//! oracle that gives every query its exact answer.

use crate::stats::{IdSet, Rng};
use roads_core::{RecordDelta, RoadsConfig, RoadsNetwork, ServerId};
use roads_records::{OwnerId, Predicate, Query, Record, RecordId, Schema, Value, WireSize};
use roads_runtime::RuntimeConfig;
use roads_workload::{
    default_schema, generate_node_records, generate_queries, QueryWorkloadConfig,
    RecordWorkloadConfig,
};

/// Client threads (and so operations in flight): the core count, at
/// most 2.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LiveNarrow,
    LiveHot,
    PublishChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LiveNarrow,
        Workload::LiveHot,
        Workload::PublishChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveNarrow => "live_narrow",
            Workload::LiveHot => "live_hot",
            Workload::PublishChurn => "publish_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn federation(self) -> Federation {
        match self {
            Workload::LiveNarrow | Workload::LiveHot => Federation {
                servers: 64,
                records_per_server: 200,
                attrs: 16,
            },
            Workload::PublishChurn => Federation {
                servers: 64,
                records_per_server: 4_000,
                attrs: 8,
            },
        }
    }

    /// Query shape: (dimensions, range length per dimension).
    pub fn query_shape(self) -> (usize, f64) {
        match self {
            Workload::LiveNarrow | Workload::PublishChurn => (6, 0.25),
            Workload::LiveHot => (3, 0.25),
        }
    }

    /// Open-loop rate of the live workloads, queries per second. Fixed
    /// once, at about half the closed-loop throughput the commit that
    /// introduced the benchmark sustained on a 2-core host whose other
    /// tenants took much of its CPU, so the open loop stays below
    /// saturation even then. Never retuned: later commits are timed at the
    /// same offered load.
    pub fn nominal_rate(self) -> Option<f64> {
        match self {
            Workload::LiveNarrow => Some(NARROW_RATE_QPS),
            Workload::LiveHot => Some(HOT_RATE_QPS),
            Workload::PublishChurn => None,
        }
    }

    /// Limit on `query_p99_ms`. A run reports whether it held; the limit
    /// is not a pass/fail check, so that a slow run still yields numbers.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::LiveNarrow | Workload::LiveHot => 25.0,
            Workload::PublishChurn => 50.0,
        }
    }

    /// Runtime settings: the paper-calibrated preset with every emulated
    /// cost zeroed (see [`assert_zero_emulation`]).
    pub fn runtime_config(self) -> RuntimeConfig {
        let hot = self == Workload::LiveHot;
        RuntimeConfig {
            delay_scale: 0.0,
            base_query_cost_us: 0,
            per_record_retrieval_us: 0,
            bandwidth_mbps: f64::INFINITY,
            enable_planner: hot,
            cache_ttl_rounds: if hot { CACHE_TTL_ROUNDS } else { 0 },
            ..RuntimeConfig::paper_like()
        }
    }
}

pub const NARROW_RATE_QPS: f64 = 500.0;
pub const HOT_RATE_QPS: f64 = 1_000.0;
/// `live_hot`: queries in the Zipf-popular pool.
pub const HOT_POOL: usize = 512;
/// `live_hot`: result-cache TTL in rounds, and the query cadence at which
/// a round passes (`advance_cache_round`).
pub const CACHE_TTL_ROUNDS: u64 = 2;
pub const CACHE_ROUND_EVERY: usize = 1_024;
/// Share of the population each churn round updates in place.
pub const CHURN_FRACTION: f64 = 0.01;

/// Federation size.
#[derive(Debug, Clone, Copy)]
pub struct Federation {
    pub servers: usize,
    pub records_per_server: usize,
    pub attrs: usize,
}

/// Independent seed for one input stream of a run.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// Everything a run feeds the system, generated from its seed.
pub struct Inputs {
    pub workload: Workload,
    pub schema: Schema,
    pub records: Vec<Vec<Record>>,
    /// Query stream: `query(i)` for any index `i`.
    queries: Vec<(Query, ServerId)>,
    /// `live_hot`: pool index of stream position `i` (Zipf(1) draws).
    zipf: Vec<u32>,
    seed: u64,
}

/// Query stream length before it wraps. A `live_narrow` run draws fewer
/// queries than this unless its closed loop sustains over ~15k qps.
const STREAM_LEN: usize = 1 << 16;

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let fed = workload.federation();
        let schema = default_schema(fed.attrs);
        // The federation's data is fixed (the generator's default seed);
        // the run seed draws what is asked of it and how it changes.
        // Per-server value distributions are themselves random, so a
        // data set per seed would add run-to-run spread that no code
        // change causes.
        let records = generate_node_records(&RecordWorkloadConfig {
            nodes: fed.servers,
            records_per_node: fed.records_per_server,
            attrs: fed.attrs,
            ..RecordWorkloadConfig::default()
        });
        let (dims, range_len) = workload.query_shape();
        let count = if workload == Workload::LiveHot {
            HOT_POOL
        } else {
            STREAM_LEN
        };
        let queries = generate_queries(
            &schema,
            &QueryWorkloadConfig {
                count,
                dims,
                range_len,
                nodes: fed.servers,
                seed: sub_seed(seed, 2),
            },
        )
        .into_iter()
        .map(|(q, start)| (q, ServerId(start as u32)))
        .collect();
        let zipf = if workload == Workload::LiveHot {
            zipf_draws(HOT_POOL, STREAM_LEN, sub_seed(seed, 3))
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            schema,
            records,
            queries,
            zipf,
            seed,
        }
    }

    /// The `i`-th query of the stream and its entry server.
    pub fn query(&self, i: usize) -> &(Query, ServerId) {
        &self.queries[self.distinct_index(i)]
    }

    /// Which distinct query stream position `i` asks: its pool slot on
    /// `live_hot`, its position modulo the stream length elsewhere.
    pub fn distinct_index(&self, i: usize) -> usize {
        if self.zipf.is_empty() {
            i % self.queries.len()
        } else {
            self.zipf[i % self.zipf.len()] as usize
        }
    }

    /// Distinct queries the stream can yield (the pool size on
    /// `live_hot`).
    pub fn distinct_queries(&self) -> usize {
        self.queries.len()
    }

    /// Build the federation over `records` (a copy of this run's
    /// population, made outside any timed section).
    pub fn build_network_from(&self, records: Vec<Vec<Record>>) -> RoadsNetwork {
        RoadsNetwork::build(self.schema.clone(), RoadsConfig::paper_default(), records)
    }

    /// Largest reply any server can send: every record it holds.
    pub fn max_reply_bytes(&self) -> usize {
        self.records
            .iter()
            .map(|rs| rs.iter().map(WireSize::wire_size).sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// Churn generator for this run.
    pub fn churn(&self) -> Churn {
        Churn {
            rng: Rng::new(sub_seed(self.seed, 4), 0),
            per_server: self.workload.federation().records_per_server,
        }
    }
}

/// `len` draws from Zipf(1) over ranks `0..pool`.
pub fn zipf_draws(pool: usize, len: usize, seed: u64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for k in 1..=pool {
        acc += 1.0 / k as f64;
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed, 0);
    (0..len)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(pool - 1) as u32
        })
        .collect()
}

/// Fail before any timed phase if the runtime would still emulate cost:
/// a run that sleeps measures sleeps, not code.
pub fn assert_zero_emulation(cfg: &RuntimeConfig, max_reply_bytes: usize) {
    assert_eq!(cfg.delay_scale, 0.0, "network delays must be off");
    assert_eq!(
        cfg.base_query_cost_us, 0,
        "per-query backend cost must be off"
    );
    assert_eq!(
        cfg.per_record_retrieval_us, 0,
        "per-record backend cost must be off"
    );
    assert_eq!(
        cfg.transfer_us(max_reply_bytes),
        0,
        "reply transfer time must be 0 for the largest reply ({max_reply_bytes} bytes)"
    );
}

/// The exact answer of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub ids: IdSet,
    /// Servers holding at least one match, ascending.
    pub servers: Vec<u32>,
}

/// The benchmark's own copy of the record population, column by column,
/// kept in step with every delta it applies. Answers come from scanning
/// all of it.
pub struct Population {
    cols: Vec<Vec<f64>>,
    per_server: usize,
}

impl Population {
    pub fn new(records: &[Vec<Record>]) -> Population {
        let per_server = records[0].len();
        let attrs = records[0][0].values().len();
        let mut cols = vec![Vec::new(); attrs];
        for (s, rs) in records.iter().enumerate() {
            assert_eq!(rs.len(), per_server, "equal-size servers");
            for (i, r) in rs.iter().enumerate() {
                assert_eq!(
                    r.id.0 as usize,
                    s * per_server + i,
                    "dense ids in server order"
                );
                for (a, col) in cols.iter_mut().enumerate() {
                    col.push(value_f64(&r.values()[a]));
                }
            }
        }
        Population { cols, per_server }
    }

    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    pub fn answer(&self, q: &Query) -> Answer {
        let preds: Vec<(&[f64], f64, f64)> = q
            .predicates()
            .iter()
            .map(|p| match p {
                Predicate::Range { attr, lo, hi } => (self.cols[attr.index()].as_slice(), *lo, *hi),
                other => panic!("benchmark queries are ranges, got {other:?}"),
            })
            .collect();
        let (&(first, lo0, hi0), rest) = preds.split_first().expect("queries have predicates");
        let mut ids = IdSet::default();
        let mut servers = Vec::new();
        for (id, &v) in first.iter().enumerate() {
            if lo0 <= v
                && v <= hi0
                && rest
                    .iter()
                    .all(|&(col, lo, hi)| lo <= col[id] && col[id] <= hi)
            {
                ids.add(id as u64);
                let s = (id / self.per_server) as u32;
                if servers.last() != Some(&s) {
                    servers.push(s);
                }
            }
        }
        Answer { ids, servers }
    }

    /// Current values of record `id`.
    pub fn values(&self, id: usize) -> Vec<Value> {
        self.cols.iter().map(|c| Value::Float(c[id])).collect()
    }

    /// Overwrite a record's values.
    pub fn set(&mut self, r: &Record) {
        for (a, col) in self.cols.iter_mut().enumerate() {
            col[r.id.0 as usize] = value_f64(&r.values()[a]);
        }
    }
}

fn value_f64(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => panic!("benchmark records are numeric, got {other:?}"),
    }
}

/// Seeded record churn: each round updates a fixed share of the
/// population in place. A new value is another record's current value
/// of the same attribute on the same server, so every server's value
/// distributions stay what the generator made them while the records
/// holding each value change.
pub struct Churn {
    rng: Rng,
    per_server: usize,
}

impl Churn {
    /// Next round's delta, applied to `pop` as well.
    pub fn next_round(&mut self, pop: &mut Population) -> RecordDelta {
        let total = pop.len();
        let changes = ((total as f64 * CHURN_FRACTION) as usize).max(1);
        let mut picked = std::collections::HashSet::with_capacity(changes);
        let mut delta = RecordDelta::new();
        while picked.len() < changes {
            let id = self.rng.below(total);
            if !picked.insert(id) {
                continue;
            }
            let server = id / self.per_server;
            let values = (0..pop.cols.len())
                .map(|a| {
                    let donor = server * self.per_server + self.rng.below(self.per_server);
                    Value::Float(pop.cols[a][donor])
                })
                .collect();
            let rec = Record::new_unchecked(RecordId(id as u64), OwnerId(server as u32), values);
            pop.set(&rec);
            delta.update(ServerId(server as u32), rec);
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_identical_under_one_seed() {
        for w in Workload::ALL {
            let (a, b) = (Inputs::generate(w, 11), Inputs::generate(w, 11));
            assert_eq!(a.records, b.records);
            for i in [0, 1, 777, STREAM_LEN + 3] {
                assert_eq!(a.query(i), b.query(i));
            }
            let c = Inputs::generate(w, 12);
            assert_ne!(
                a.query(5),
                c.query(5),
                "{}: seed changes the queries",
                w.name()
            );
        }
        let (a, b) = (
            Inputs::generate(Workload::LiveHot, 5),
            Inputs::generate(Workload::LiveHot, 5),
        );
        assert_eq!(a.zipf, b.zipf);
        assert_ne!(a.zipf, Inputs::generate(Workload::LiveHot, 6).zipf);
    }

    #[test]
    fn zipf_pool_is_skewed_toward_low_ranks() {
        let d = zipf_draws(512, 100_000, 9);
        let mut hist = vec![0usize; 512];
        for &k in &d {
            hist[k as usize] += 1;
        }
        // Zipf(1) over 512 ranks: P(rank 0) = 1/H_512 ≈ 0.147, and rank
        // 0 is drawn about twice as often as rank 1.
        let p0 = hist[0] as f64 / d.len() as f64;
        assert!((0.13..0.165).contains(&p0), "p0 = {p0}");
        let r = hist[0] as f64 / hist[1] as f64;
        assert!((1.8..2.2).contains(&r), "rank0/rank1 = {r}");
        assert!(hist[511] > 0);
    }

    #[test]
    fn oracle_rejects_an_answer_with_one_record_dropped() {
        let inputs = Inputs::generate(Workload::LiveNarrow, 3);
        let pop = Population::new(&inputs.records);
        let net = inputs.build_network_from(inputs.records.clone());
        // A query with several matches, answered by brute force through
        // the library's own matcher.
        let (q, exact) = (0..)
            .map(|i| inputs.query(i).0.clone())
            .map(|q| {
                let ids: Vec<u64> = inputs
                    .records
                    .iter()
                    .flatten()
                    .filter(|r| q.matches(r))
                    .map(|r| r.id.0)
                    .collect();
                (q, ids)
            })
            .find(|(_, ids)| ids.len() >= 3)
            .expect("some query matches three records");
        let answer = pop.answer(&q);
        assert_eq!(answer.ids, IdSet::of(exact.iter().copied()));
        assert_eq!(
            answer.servers,
            net.matching_servers(&q)
                .iter()
                .map(|s| s.0)
                .collect::<Vec<_>>()
        );
        assert_ne!(answer.ids, IdSet::of(exact[1..].iter().copied()));
    }

    #[test]
    fn churn_keeps_the_oracle_in_step_with_the_network() {
        let inputs = Inputs::generate(Workload::LiveNarrow, 4);
        let mut pop = Population::new(&inputs.records);
        let mut net = inputs.build_network_from(inputs.records.clone());
        let mut churn = inputs.churn();
        for _ in 0..3 {
            let delta = churn.next_round(&mut pop);
            assert_eq!(delta.len(), 128, "1% of 12,800 records");
            let (_, outcome) = roads_core::update_round_delta(&mut net, &delta);
            assert_eq!((outcome.applied, outcome.rejected), (128, 0));
        }
        for i in 0..50 {
            let q = &inputs.query(i).0;
            let ids: Vec<u64> = (0..64)
                .flat_map(|s| net.search_local(ServerId(s), q))
                .map(|r| r.id.0)
                .collect();
            assert_eq!(pop.answer(q).ids, IdSet::of(ids));
        }
    }

    #[test]
    fn zero_emulation_holds_for_every_workload() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 1);
            assert_zero_emulation(&w.runtime_config(), inputs.max_reply_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "reply transfer time")]
    fn zero_emulation_guard_catches_a_finite_link() {
        let cfg = RuntimeConfig {
            bandwidth_mbps: 100.0,
            ..Workload::LiveNarrow.runtime_config()
        };
        assert_zero_emulation(&cfg, 1_000);
    }
}
