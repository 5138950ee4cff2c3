//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer, on the workload's own inputs.
//!
//! It is a separate process from the untraced runs, so no end-to-end
//! figure carries tracing cost. Every traced query and publish round
//! gets a root span; the calls it makes into the cluster, query
//! executor, engine, stores, summaries, planner and cache are child
//! spans sharing its id. Spans stay in memory and are written to
//! `.bench_out/` when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use crate::inputs::{
    assert_zero_emulation, clients, Inputs, Population, CACHE_ROUND_EVERY, CACHE_TTL_ROUNDS,
};
use crate::loadgen::{closed_loop, ms, open_loop};
use crate::stats::{percentile, samples_for, sorted, IdSet};
use crate::timed::{live_query, reply, start_cluster, Oracle, DELAY_SEED};
use crate::{Metric, Report};
use roads_core::{
    execute_query, execute_query_planned, execute_query_planned_traced, execute_query_traced,
    plan_query, update_round_delta, CachedResult, QueryPlan, ResultCache, RoadsNetwork,
    SearchScope, ServerId, TraceRole,
};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Record};
use roads_runtime::{RecordStore, RoadsCluster, RuntimeConfig};
use roads_telemetry::{Recorder, Registry, TailSampler};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Id of the query or publish round the span belongs to.
    pub query: u64,
    /// Work the call did, in the layer's own unit (records, contacts…).
    pub count: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, query: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
            count: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, count: u64) {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.count = count;
    }

    /// Time `f` as a child span of `parent`; `count` reads the work done
    /// from its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let query = self.spans[parent as usize].query;
        let id = self.open(name, Some(parent), query);
        let out = f();
        self.close(id, count(&out));
        out
    }

    /// Rename a span once its outcome is known (a cluster call turns out
    /// to be a cache replay).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"query\": {}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, s.query, s.count
            )?;
        }
        f.flush()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl Totals {
    /// Mean self time per call, in `unit_ns` units (1_000 for µs).
    fn per_call(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Reduce spans by name. Self time is each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns - s.start_ns;
        kids.sort_unstable();
        let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if a >= b {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
        t.count += s.count;
    }
    out
}

/// Queries traced per run, at most.
const MAX_TRACED: usize = 2_000;
/// Queries per block of the recorder-overhead comparison.
const OVERHEAD_BLOCK: usize = 50;
/// Replayed (cache-hit) queries timed per run.
const REPLAYS: usize = 300;
/// Explained queries per run.
const EXPLAINS: usize = 300;
/// Span ids of publish rounds start here, above any query's stream
/// position.
const PUBLISH_ID_BASE: u64 = 1 << 40;

pub fn run(inputs: &Inputs, seconds: f64) -> Report {
    let w = inputs.workload;
    let cfg = w.runtime_config();
    assert_zero_emulation(&cfg, inputs.max_reply_bytes());
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let (_, cluster) = start_cluster(inputs, cfg);
    let net: &RoadsNetwork = cluster.network();
    let n = net.len();
    let delays = DelaySpace::paper(n, DELAY_SEED);
    let stores: Vec<RecordStore> = (0..n)
        .map(|s| RecordStore::new(inputs.schema.clone(), net.records(ServerId(s as u32))))
        .collect();
    let oracle = Oracle::new(inputs);
    let mut tracer = Tracer::new();
    let mut m = Layers::default();

    // Warm-up, one client: lazy set-up finishes; its rate sizes the
    // generator pass on workloads without a nominal rate.
    let warm = closed_loop(
        1,
        secs(0.03),
        0,
        |i| live_query(&cluster, inputs, i),
        |_, o| reply(o),
    );
    m.failed += oracle.failures(&warm);
    m.attempted += warm.samples.len() as u64;
    let mut next = warm.samples.len();

    // Generator lateness: the open loop at the workload's rate.
    let rate = w
        .nominal_rate()
        .unwrap_or_else(|| 0.5 * warm.samples.len() as f64 / warm.wall_s);
    let gen = open_loop(
        rate,
        samples_for(99.0),
        clients(),
        next,
        |i| live_query(&cluster, inputs, i),
        |_, o| reply(o),
    );
    m.failed += oracle.failures(&gen);
    m.attempted += gen.samples.len() as u64;
    next += gen.samples.len();
    m.late_p99 = percentile(
        &sorted(gen.samples.iter().map(|s| s.late_ms).collect()),
        99.0,
    )
    .expect("generator pass sized for p99");

    // Untraced pass over a fixed query range, then the traced pass over
    // the same range from the same cache state.
    flush(&cluster);
    let base = next;
    let untraced = closed_loop(
        1,
        secs(0.12),
        base,
        |i| live_query(&cluster, inputs, i),
        |_, o| reply(o),
    );
    m.failed += oracle.failures(&untraced);
    m.attempted += untraced.samples.len() as u64;
    flush(&cluster);
    let cache = ResultCache::new(CACHE_TTL_ROUNDS);
    let budget = secs(0.3);
    let t0 = Instant::now();
    let mut traced_n = 0;
    while traced_n < untraced.samples.len().min(MAX_TRACED) && t0.elapsed() < budget {
        trace_query(
            &mut tracer,
            &mut m,
            &cluster,
            &delays,
            &stores,
            &cache,
            inputs,
            &oracle,
            base + traced_n,
        );
        traced_n += 1;
    }
    let untraced_ms: f64 = untraced.samples[..traced_n]
        .iter()
        .map(|s| s.latency_ms)
        .sum();
    next = base + untraced.samples.len();
    let traced_ms = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "cluster.query" || s.name == "cluster.replay")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum::<f64>();
    m.trace_overhead = traced_ms / untraced_ms - 1.0;

    // Per-contact queue and compute time, from explained misses.
    for i in next..next + EXPLAINS {
        flush(&cluster);
        let (q, entry) = inputs.query(i);
        let root = tracer.open("explain", None, i as u64);
        let (out, ex) = tracer.span(
            "cluster.query_explained",
            root,
            || cluster.query_explained(q, *entry),
            |r| r.1.hops.len() as u64,
        );
        tracer.close(root, 0);
        m.check(reply(out), &oracle, i);
        for hop in &ex.hops {
            m.explain_hops += 1;
            m.queue_us += hop.split.queue_us;
            m.compute_us += hop.split.compute_us;
        }
    }
    next += EXPLAINS;

    // Recorder + tail-sampler overhead: the same queries on a plain and an
    // instrumented cluster, in alternating blocks.
    let (overhead, used) =
        recorder_overhead(&cluster, inputs, cfg, &oracle, next, secs(0.12), &mut m);
    m.recorder_overhead = overhead;
    next += used;

    // Cache replays: each query once to fill, then timed as a hit.
    replays(&mut tracer, &mut m, net, inputs, &oracle, next);
    drop(stores);

    // Publish rounds on two twins of the federation: one through
    // `update_round_delta`, one through `RoadsNetwork::apply`.
    publish(&mut tracer, &mut m, net, inputs, secs(0.1));
    drop(cluster);

    let path = std::path::PathBuf::from(".bench_out").join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = tracer.write(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let spans = tracer.spans().len();
    let totals = reduce(tracer.spans());
    let mut notes = vec![format!("{spans} spans written to {}", path.display())];
    for (name, t) in &totals {
        notes.push(format!(
            "span {name:<32} calls {:>7} total {:>12.3} self {:>12.3} us/call count {:>9}",
            t.calls,
            t.total_ns as f64 / t.calls as f64 / 1e3,
            t.per_call(1e3),
            t.count
        ));
    }
    Report {
        attempted: m.attempted,
        failed: m.failed,
        metrics: m.metrics(&totals, traced_n),
        notes,
    }
}

/// Empty the cluster's result cache (a no-op without one): every entry
/// ages past the TTL.
fn flush(cluster: &RoadsCluster) {
    for _ in 0..CACHE_TTL_ROUNDS {
        cluster.advance_cache_round();
    }
}

/// Counters and sums gathered alongside the spans.
#[derive(Default)]
struct Layers {
    attempted: u64,
    failed: u64,
    late_p99: f64,
    trace_overhead: f64,
    recorder_overhead: f64,
    retries: u64,
    /// Per traced miss: cluster time minus query-executor time, and
    /// contacts.
    overhead_ns: f64,
    overhead_contacts: u64,
    misses: u64,
    greedy_contacts: u64,
    planned_contacts: u64,
    explain_hops: u64,
    queue_us: f64,
    compute_us: f64,
    rounds: u64,
    round_bytes: u64,
    round_messages: u64,
    dirty_branches: u64,
    shard_rebuilds: u64,
}

impl Layers {
    fn check(&mut self, r: crate::timed::Reply, oracle: &Oracle, i: usize) {
        self.attempted += 1;
        if !r.clean || r.ids != oracle.answer(i).ids {
            self.failed += 1;
        }
    }

    fn metrics(&self, t: &BTreeMap<&'static str, Totals>, traced: usize) -> Vec<Metric> {
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        let per = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let q = traced as f64;
        let (cq, qe, ev, mm) = (
            get("cluster.query"),
            get("queryexec.execute_query"),
            get("engine.evaluate"),
            get("summary.may_match"),
        );
        let (rs, ss, pl, cl) = (
            get("runtime_store.search"),
            get("store.search"),
            get("planner.plan_query"),
            get("cache.lookup"),
        );
        let (ap, me, le, un) = (
            get("engine.apply"),
            get("summary.merge"),
            get("summary.learn"),
            get("summary.unlearn"),
        );
        let rp = get("cluster.replay");
        let rounds = self.rounds as f64;
        let ns = |x: Totals| per(x.self_ns as f64, x.count as f64);
        vec![
            Metric::new(
                "cluster.query_us",
                cq.per_call(1e3),
                "us",
                cq.calls as usize,
            ),
            Metric::new(
                "cluster.contacts_per_query",
                per(cq.count as f64, cq.calls as f64),
                "count",
                cq.calls as usize,
            ),
            Metric::new(
                "cluster.overhead_us_per_contact",
                per(self.overhead_ns / 1e3, self.overhead_contacts as f64),
                "us",
                self.misses as usize,
            ),
            Metric::new(
                "cluster.queue_us",
                per(self.queue_us, self.explain_hops as f64),
                "us",
                self.explain_hops as usize,
            ),
            Metric::new(
                "cluster.compute_us",
                per(self.compute_us, self.explain_hops as f64),
                "us",
                self.explain_hops as usize,
            ),
            Metric::new(
                "cluster.retries_per_query",
                per(self.retries as f64, q),
                "count",
                traced,
            ),
            Metric::new(
                "cluster.replay_us",
                rp.per_call(1e3),
                "us",
                rp.calls as usize,
            ),
            Metric::new(
                "runtime_store.search_us",
                per(rs.self_ns as f64 / 1e3, q),
                "us",
                traced,
            ),
            Metric::new(
                "runtime_store.records_per_query",
                per(rs.count as f64, q),
                "count",
                traced,
            ),
            Metric::new(
                "queryexec.query_us",
                qe.per_call(1e3),
                "us",
                qe.calls as usize,
            ),
            Metric::new(
                "engine.evaluate_us",
                ev.per_call(1e3),
                "us",
                ev.calls as usize,
            ),
            Metric::new(
                "engine.evaluate_calls_per_query",
                per(ev.calls as f64, q),
                "count",
                traced,
            ),
            Metric::new("engine.apply_ms", ap.per_call(1e6), "ms", ap.calls as usize),
            Metric::new("store.search_us", ss.per_call(1e3), "us", ss.calls as usize),
            Metric::new(
                "store.records_per_search",
                per(ss.count as f64, ss.calls as f64),
                "count",
                ss.calls as usize,
            ),
            Metric::new(
                "updates.dirty_branches_per_round",
                per(self.dirty_branches as f64, rounds),
                "count",
                self.rounds as usize,
            ),
            Metric::new(
                "updates.shard_rebuilds_per_round",
                per(self.shard_rebuilds as f64, rounds),
                "count",
                self.rounds as usize,
            ),
            Metric::new("summary.may_match_ns", ns(mm), "ns", mm.count as usize),
            Metric::new("summary.merge_us", ns(me) / 1e3, "us", me.count as usize),
            Metric::new("summary.learn_ns", ns(le), "ns", le.count as usize),
            Metric::new("summary.unlearn_ns", ns(un), "ns", un.count as usize),
            Metric::new("planner.plan_us", pl.per_call(1e3), "us", pl.calls as usize),
            Metric::new(
                "planner.contacts_ratio",
                per(self.planned_contacts as f64, self.greedy_contacts as f64),
                "ratio",
                traced,
            ),
            Metric::new(
                "cache.hit_ratio",
                per(cl.count as f64, cl.calls as f64),
                "ratio",
                cl.calls as usize,
            ),
            Metric::new("cache.lookup_us", cl.per_call(1e3), "us", cl.calls as usize),
            Metric::new(
                "updates.round_bytes",
                per(self.round_bytes as f64, rounds),
                "bytes",
                self.rounds as usize,
            ),
            Metric::new(
                "updates.round_messages",
                per(self.round_messages as f64, rounds),
                "count",
                self.rounds as usize,
            ),
            Metric::new(
                "telemetry.recorder_overhead_frac",
                self.recorder_overhead,
                "frac",
                1,
            ),
            Metric::new(
                "loadgen.late_ms_p99",
                self.late_p99,
                "ms",
                samples_for(99.0),
            ),
            Metric::new("trace.overhead_frac", self.trace_overhead, "frac", traced),
        ]
    }
}

/// Trace stream query `i` through every layer it touches.
#[allow(clippy::too_many_arguments)]
fn trace_query(
    tr: &mut Tracer,
    m: &mut Layers,
    cluster: &RoadsCluster,
    delays: &DelaySpace,
    stores: &[RecordStore],
    cache: &ResultCache,
    inputs: &Inputs,
    oracle: &Oracle,
    i: usize,
) {
    let net = cluster.network();
    let (q, entry) = inputs.query(i);
    let (q, entry) = (q, *entry);
    let planned = inputs.workload.runtime_config().enable_planner;
    if i.is_multiple_of(CACHE_ROUND_EVERY) {
        cache.advance_round();
    }
    let root = tr.open("query", None, i as u64);

    // The live cluster, as the workload issues it.
    let hits0 = cluster.result_cache().map_or(0, |c| c.hits());
    let call = tr.open("cluster.query", Some(root), i as u64);
    let out = live_query(cluster, inputs, i);
    tr.close(call, out.servers_contacted as u64);
    let hit = cluster.result_cache().map_or(0, |c| c.hits()) > hits0;
    if hit {
        tr.rename(call, "cluster.replay");
    }
    m.retries += out.retries as u64;
    let records = out.records.clone();
    let contacts = out.servers_contacted as u64;
    m.check(reply(out), oracle, i);

    // Planner and query executor on the same federation.
    let plan: QueryPlan = tr.span(
        "planner.plan_query",
        root,
        || plan_query(net, q, entry, SearchScope::full()),
        |p| p.contacts.len() as u64,
    );
    let outcome = tr.span(
        "queryexec.execute_query",
        root,
        || {
            if planned {
                execute_query_planned(net, delays, q, entry, SearchScope::full(), &plan)
            } else {
                execute_query(net, delays, q, entry, SearchScope::full())
            }
        },
        |o| o.servers_contacted as u64,
    );
    let qe_ns = {
        let s = &tr.spans()[tr.spans().len() - 1];
        (s.end_ns - s.start_ns) as f64
    };
    // The simulation plane must find exactly the oracle's matches too.
    m.attempted += 1;
    if outcome.matching_records as u64 != oracle.answer(i).ids.count {
        m.failed += 1;
    }
    if !hit {
        m.misses += 1;
        let cq = &tr.spans()[call as usize];
        m.overhead_ns += (cq.end_ns - cq.start_ns) as f64 - qe_ns;
        m.overhead_contacts += contacts;
    }
    // Contacts under the other routing too, for the planner's saving.
    let (greedy, via_plan) = if planned {
        let greedy = execute_query(net, delays, q, entry, SearchScope::full());
        (greedy.servers_contacted, outcome.servers_contacted)
    } else {
        let via_plan = execute_query_planned(net, delays, q, entry, SearchScope::full(), &plan);
        (outcome.servers_contacted, via_plan.servers_contacted)
    };
    m.greedy_contacts += greedy as u64;
    m.planned_contacts += via_plan as u64;

    // Engine, summaries and both record stores, once per contact of the
    // workload's routing.
    let (_, events) = if planned {
        execute_query_planned_traced(net, delays, q, entry, SearchScope::full(), &plan)
    } else {
        execute_query_traced(net, delays, q, entry, SearchScope::full())
    };
    for ev in &events {
        let s = ev.server;
        let at_entry = ev.role == TraceRole::Entry;
        let eval = tr.span(
            "engine.evaluate",
            root,
            || net.evaluate(s, q, at_entry),
            |_| 1,
        );
        tr.span(
            "summary.may_match",
            root,
            || {
                let mut calls = 1u64;
                let mut any = net.local_summary(s).may_match(q);
                for &c in net.tree().children(s) {
                    any |= net.branch_summary(c).may_match(q);
                    calls += 1;
                }
                std::hint::black_box(any);
                calls
            },
            |&calls| calls,
        );
        let searched = match ev.role {
            TraceRole::AncestorProbe => net.local_summary(s).may_match(q),
            _ => eval.local_match,
        };
        if searched {
            tr.span(
                "store.search",
                root,
                || net.store(s).search(q),
                |r| r.len() as u64,
            );
            tr.span(
                "runtime_store.search",
                root,
                || stores[s.index()].search(q).len(),
                |&n| n as u64,
            );
        }
    }

    // The result cache, keyed and aged as the cluster's.
    let looked = tr.span(
        "cache.lookup",
        root,
        || cache.lookup(entry, 0, SearchScope::full(), q),
        |r| u64::from(r.is_some()),
    );
    if looked.is_none() {
        cache.insert(
            entry,
            0,
            SearchScope::full(),
            q,
            CachedResult {
                matching_servers: Vec::new(),
                matching_records: records.len(),
                records,
            },
        );
    }
    tr.close(root, 0);
}

/// Overhead of a recorder and tail sampler: the same queries run on the
/// plain cluster and on an instrumented twin, in blocks whose order
/// alternates (ABBA) so drift cancels.
fn recorder_overhead(
    plain: &RoadsCluster,
    inputs: &Inputs,
    cfg: RuntimeConfig,
    oracle: &Oracle,
    first: usize,
    budget: Duration,
    m: &mut Layers,
) -> (f64, usize) {
    let reg = Registry::new();
    let mut instrumented = RoadsCluster::start_instrumented(
        plain.network().clone(),
        DelaySpace::paper(plain.network().len(), DELAY_SEED),
        cfg,
        &reg,
    );
    instrumented.set_recorder(std::sync::Arc::new(Recorder::new(65_536)));
    instrumented.set_tail_sampler(TailSampler::shared());
    flush(plain);
    flush(&instrumented);
    let (mut t_plain, mut t_instr) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut block = 0;
    while t0.elapsed() < budget || block < 4 {
        let range = first + block * OVERHEAD_BLOCK..first + (block + 1) * OVERHEAD_BLOCK;
        let order: [&RoadsCluster; 2] = if block % 4 == 0 || block % 4 == 3 {
            [plain, &instrumented]
        } else {
            [&instrumented, plain]
        };
        for c in order {
            let t = Instant::now();
            let outs: Vec<_> = range.clone().map(|i| live_query(c, inputs, i)).collect();
            let spent = ms(t.elapsed());
            if std::ptr::eq(c, plain) {
                t_plain += spent;
            } else {
                t_instr += spent;
            }
            for (i, out) in range.clone().zip(outs) {
                m.check(reply(out), oracle, i);
            }
        }
        block += 1;
    }
    (t_instr / t_plain - 1.0, block * OVERHEAD_BLOCK)
}

/// Cache-hit replays on a twin cluster with the result cache on.
fn replays(
    tr: &mut Tracer,
    m: &mut Layers,
    net: &RoadsNetwork,
    inputs: &Inputs,
    oracle: &Oracle,
    first: usize,
) {
    let cfg = RuntimeConfig {
        cache_ttl_rounds: CACHE_TTL_ROUNDS,
        ..inputs.workload.runtime_config()
    };
    let cluster = RoadsCluster::start(net.clone(), DelaySpace::paper(net.len(), DELAY_SEED), cfg);
    for i in first..first + REPLAYS {
        let (q, entry) = inputs.query(i);
        let fill = cluster.query(q, *entry);
        m.check(reply(fill), oracle, i);
        let root = tr.open("replay", None, i as u64);
        let out = tr.span(
            "cluster.replay",
            root,
            || cluster.query(q, *entry),
            |o| o.records.len() as u64,
        );
        tr.close(root, 0);
        m.check(reply(out), oracle, i);
    }
}

/// Churn rounds on two twins of the federation, with the summary
/// operations a round implies timed on copies.
fn publish(tr: &mut Tracer, m: &mut Layers, net: &RoadsNetwork, inputs: &Inputs, budget: Duration) {
    let mut a = net.clone();
    let mut b = net.clone();
    let mut before = Population::new(&inputs.records);
    let mut after = Population::new(&inputs.records);
    let mut churn = inputs.churn();
    let t0 = Instant::now();
    let mut round = 0u64;
    while t0.elapsed() < budget || round < 10 {
        let delta = churn.next_round(&mut after);
        let root = tr.open("publish.round", None, PUBLISH_ID_BASE + round);

        // Unlearn the old and learn the new versions of every changed
        // record on a copy of its server's local summary.
        let mut by_server: BTreeMap<u32, Vec<(Record, Record)>> = BTreeMap::new();
        for (server, change) in delta.changes() {
            let new = change.record().expect("churn only updates").clone();
            let old =
                Record::new_unchecked(new.id, OwnerId(server.0), before.values(new.id.0 as usize));
            by_server.entry(server.0).or_default().push((old, new));
        }
        for (&s, pairs) in &by_server {
            let mut summary = a.local_summary(ServerId(s)).clone();
            tr.span(
                "summary.unlearn",
                root,
                || {
                    for (old, _) in pairs {
                        summary.remove_record(old);
                    }
                },
                |_| pairs.len() as u64,
            );
            tr.span(
                "summary.learn",
                root,
                || pairs.iter().for_each(|(_, new)| summary.add_record(new)),
                |_| pairs.len() as u64,
            );
            std::hint::black_box(&summary);
        }
        for (_, change) in delta.changes() {
            before.set(change.record().expect("churn only updates"));
        }

        let (breakdown, outcome) = tr.span(
            "updates.update_round_delta",
            root,
            || update_round_delta(&mut a, &delta),
            |r| r.1.dirty_branches.len() as u64,
        );
        let applied = tr.span(
            "engine.apply",
            root,
            || b.apply(&delta),
            |o| o.shard_rebuilds,
        );
        m.attempted += 1;
        let full =
            |o: &roads_core::DeltaOutcome| o.applied == delta.len() as u64 && o.rejected == 0;
        if !full(&outcome) || !full(&applied) || outcome.dirty_branches != applied.dirty_branches {
            m.failed += 1;
        }
        // Merge every dirty branch's children into a copy of its local
        // summary, as the round's re-aggregation does.
        for &s in &outcome.dirty_branches {
            let kids = a.tree().children(s);
            if kids.is_empty() {
                continue;
            }
            let mut acc = a.local_summary(s).clone();
            tr.span(
                "summary.merge",
                root,
                || {
                    kids.iter()
                        .for_each(|&c| acc.merge(a.branch_summary(c)).expect("uniform summaries"))
                },
                |_| kids.len() as u64,
            );
            std::hint::black_box(&acc);
        }
        tr.close(root, 0);
        m.rounds += 1;
        m.round_bytes += breakdown.total_bytes();
        m.round_messages += breakdown.total_messages();
        m.dirty_branches += outcome.dirty_branches.len() as u64;
        m.shard_rebuilds += outcome.shard_rebuilds;
        round += 1;
    }
    // After the rounds, both twins must hold exactly the churned
    // population.
    for i in 0..20 {
        let q = &inputs.query(i).0;
        let exact = after.answer(q).ids;
        for net in [&a, &b] {
            let ids = IdSet::of(
                (0..net.len() as u32)
                    .flat_map(|s| net.search_local(ServerId(s), q))
                    .map(|r| r.id.0),
            );
            m.attempted += 1;
            if ids != exact {
                m.failed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 1,
            count: 1,
        };
        let spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 30, Some(0)),
            mk("b", 20, 40, Some(0)),  // overlaps a: union 10..40
            mk("c", 90, 120, Some(0)), // clipped to 90..100
            mk("leaf", 12, 18, Some(1)),
        ];
        let t = reduce(&spans);
        assert_eq!(t["root"].self_ns, 100 - 30 - 10);
        assert_eq!(t["a"].self_ns, 20 - 6);
        assert_eq!(t["leaf"].self_ns, 6);
        assert_eq!(t["a"].calls, 1);
    }

    #[test]
    fn tracer_records_name_parent_and_query() {
        let mut tr = Tracer::new();
        let root = tr.open("query", None, 42);
        let v = tr.span("child", root, || 7usize, |&n| n as u64);
        tr.close(root, 0);
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(
            (s[1].name, s[1].parent, s[1].query, s[1].count),
            ("child", Some(root), 42, 7)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
