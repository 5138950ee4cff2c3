//! Tail-based sampling: keep full provenance only for queries worth it.
//!
//! Head-based sampling decides *before* a query runs whether to trace
//! it — which is exactly wrong for tail latency analysis, since the
//! interesting queries (the slow, failed, or incomplete ones) are rare
//! and unpredictable. The [`TailSampler`] decides *after* the fact:
//! every completed query's latency folds into a histogram (cheap,
//! always on), and only queries that are slow (above a live
//! p99-tracked threshold), failed, or incomplete retain their full
//! [`QueryExplain`] record — optionally with the flight-recorder event
//! trace — in a bounded reservoir. Histogram buckets carry the trace id
//! of one retained query each (exemplar-style), so a p99 bucket in an
//! exposition links back to a concrete, fully-explained query.

use crate::event::Event;
use crate::explain::QueryExplain;
use crate::json::Json;
use crate::registry::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a query's explain record was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetainReason {
    /// Response time above the live p99 threshold (or the floor while
    /// the histogram is still warming up).
    Slow,
    /// The query failed outright (no usable outcome).
    Failed,
    /// The query completed but could not reach every matching branch
    /// (dead servers, deadline).
    Incomplete,
}

impl RetainReason {
    /// Stable label (used in JSON artifacts and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Failed => "failed",
            RetainReason::Incomplete => "incomplete",
        }
    }

    /// Inverse of [`RetainReason::as_str`].
    pub fn parse(s: &str) -> Option<RetainReason> {
        Some(match s {
            "slow" => RetainReason::Slow,
            "failed" => RetainReason::Failed,
            "incomplete" => RetainReason::Incomplete,
            _ => return None,
        })
    }
}

/// Tuning knobs for [`TailSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Maximum retained explain records; the least-slow `Slow` entry is
    /// evicted first when full (`Failed`/`Incomplete` are only evicted
    /// by other `Failed`/`Incomplete` once no `Slow` entries remain).
    pub capacity: usize,
    /// Samples required before the live p99 threshold activates; until
    /// then only `floor_ms` gates retention.
    pub min_samples: u64,
    /// Queries faster than this are never retained as `Slow`, even when
    /// the warm-up p99 is tiny.
    pub floor_ms: f64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            capacity: 64,
            min_samples: 32,
            floor_ms: 1.0,
        }
    }
}

/// One retained tail query.
#[derive(Debug, Clone)]
pub struct RetainedQuery {
    /// Retention sequence number: 1 for the sampler's first retention,
    /// increasing by one per retention and never reused, so a reader can
    /// tell new entries apart even after eviction reorders the reservoir.
    pub seq: u64,
    /// Why it was kept.
    pub reason: RetainReason,
    /// The full provenance record.
    pub explain: QueryExplain,
    /// Flight-recorder events of the same trace, when a recorder was
    /// attached at observation time.
    pub events: Vec<Event>,
}

#[derive(Debug, Default)]
struct TailState {
    retained: Vec<RetainedQuery>,
    /// Histogram bucket edge (ms) → trace id of one retained query that
    /// landed in that bucket.
    exemplars: BTreeMap<u64, u64>,
    observed: u64,
    dropped: u64,
    /// Retentions so far (the last [`RetainedQuery::seq`] handed out).
    retentions: u64,
}

/// The tail-based sampling reservoir. Thread-safe; share via `Arc`.
#[derive(Debug)]
pub struct TailSampler {
    cfg: TailConfig,
    /// Live latency distribution of *all* observed queries, threshold
    /// source for the `Slow` decision.
    latency_ms: Histogram,
    state: Mutex<TailState>,
}

impl Default for TailSampler {
    fn default() -> Self {
        Self::new(TailConfig::default())
    }
}

impl TailSampler {
    /// A sampler with explicit tuning.
    pub fn new(cfg: TailConfig) -> Self {
        TailSampler {
            cfg: TailConfig {
                capacity: cfg.capacity.max(1),
                ..cfg
            },
            latency_ms: Histogram::new(),
            state: Mutex::new(TailState::default()),
        }
    }

    /// A shared sampler with default tuning.
    pub fn shared() -> Arc<TailSampler> {
        Arc::new(TailSampler::default())
    }

    /// The live retention threshold in milliseconds: the tracked p99
    /// once warmed up, the floor before that. A query at or above this
    /// is `Slow`.
    pub fn threshold_ms(&self) -> f64 {
        if self.latency_ms.count() < self.cfg.min_samples {
            return self.cfg.floor_ms;
        }
        self.latency_ms
            .percentile(0.99)
            .unwrap_or(self.cfg.floor_ms)
            .max(self.cfg.floor_ms)
    }

    /// Classify a completed query without retaining anything.
    pub fn classify(&self, response_ms: f64, failed: bool, complete: bool) -> Option<RetainReason> {
        if failed {
            Some(RetainReason::Failed)
        } else if !complete {
            Some(RetainReason::Incomplete)
        } else if response_ms >= self.threshold_ms() {
            Some(RetainReason::Slow)
        } else {
            None
        }
    }

    /// Observe a completed query: fold its latency into the live
    /// histogram, and retain the explain record (plus optional
    /// flight-recorder events) when it is slow, failed, or incomplete.
    /// Returns the retention decision; `None` means the record was
    /// dropped after folding.
    pub fn observe(
        &self,
        explain: QueryExplain,
        failed: bool,
        events: Vec<Event>,
    ) -> Option<RetainReason> {
        let response_ms = explain.response_us / 1_000.0;
        // Classify against the threshold *before* folding this sample in,
        // so a query is compared to the distribution of its predecessors.
        let reason = self.classify(response_ms, failed, explain.complete);
        self.latency_ms.record(response_ms);
        let mut g = self.state.lock();
        g.observed += 1;
        let Some(reason) = reason else {
            g.dropped += 1;
            return None;
        };
        if g.retained.len() >= self.cfg.capacity && !Self::evict(&mut g.retained, reason) {
            g.dropped += 1;
            return None;
        }
        if explain.trace_id != 0 {
            let edge = Histogram::bucket_edge(response_ms);
            g.exemplars.insert(edge.to_bits(), explain.trace_id);
        }
        g.retentions += 1;
        let seq = g.retentions;
        g.retained.push(RetainedQuery {
            seq,
            reason,
            explain,
            events,
        });
        Some(reason)
    }

    /// Drop one entry to make room for a new `incoming` retention.
    /// `Slow` entries go first (least-slow first); `Failed`/`Incomplete`
    /// are only displaced by another `Failed`/`Incomplete`. Returns
    /// false when nothing may be evicted (incoming is dropped instead).
    fn evict(retained: &mut Vec<RetainedQuery>, incoming: RetainReason) -> bool {
        let slowest_first = |r: &[RetainedQuery]| {
            r.iter()
                .enumerate()
                .filter(|(_, q)| q.reason == RetainReason::Slow)
                .min_by(|(_, a), (_, b)| {
                    a.explain
                        .response_us
                        .partial_cmp(&b.explain.response_us)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
        };
        if let Some(i) = slowest_first(retained) {
            retained.swap_remove(i);
            return true;
        }
        // Reservoir holds only Failed/Incomplete: keep them unless the
        // incoming query is also Failed/Incomplete (recency wins then).
        if incoming != RetainReason::Slow {
            retained.swap_remove(0);
            return true;
        }
        false
    }

    /// Snapshot of the retained tail queries.
    pub fn retained(&self) -> Vec<RetainedQuery> {
        self.state.lock().retained.clone()
    }

    /// Exemplar lookup: the retained trace id for the histogram bucket
    /// `response_ms` falls into, if that bucket has one.
    pub fn exemplar(&self, response_ms: f64) -> Option<u64> {
        let edge = Histogram::bucket_edge(response_ms);
        self.state.lock().exemplars.get(&edge.to_bits()).copied()
    }

    /// Total queries observed.
    pub fn observed(&self) -> u64 {
        self.state.lock().observed
    }

    /// Queries dropped after folding (not retained).
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Serialize the reservoir as a `SLOW_QUERIES.json` document:
    /// retained queries ranked by response time (slowest first), each
    /// with its retention reason, attribution, full explain record, and
    /// (when present) flight-recorder events; plus the sampler state
    /// (threshold, counts, exemplar map).
    pub fn report(&self) -> Json {
        let g = self.state.lock();
        let mut ranked: Vec<&RetainedQuery> = g.retained.iter().collect();
        ranked.sort_by(|a, b| {
            b.explain
                .response_us
                .partial_cmp(&a.explain.response_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let queries = ranked
            .iter()
            .map(|q| {
                let mut pairs = vec![
                    ("reason", Json::str(q.reason.as_str())),
                    ("explain", q.explain.to_json()),
                ];
                if !q.events.is_empty() {
                    pairs.push((
                        "events",
                        Json::arr(q.events.iter().map(event_to_json).collect()),
                    ));
                }
                Json::obj(pairs)
            })
            .collect();
        let exemplars = g
            .exemplars
            .iter()
            .map(|(&edge, &trace)| {
                Json::obj(vec![
                    ("bucket_ms", Json::num(f64::from_bits(edge))),
                    ("trace_id", Json::num(trace as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("slow_queries", Json::num(1.0)),
            ("threshold_ms", Json::num(self.threshold_ms())),
            ("observed", Json::num(g.observed as f64)),
            ("dropped", Json::num(g.dropped as f64)),
            ("retained", Json::arr(queries)),
            ("exemplars", Json::arr(exemplars)),
        ])
    }
}

/// Serialize one flight-recorder event for the SLOW_QUERIES artifact
/// (enough to rebuild the span tree: ids, kind, timing).
fn event_to_json(e: &Event) -> Json {
    Json::obj(vec![
        ("at_us", Json::num(e.at_us as f64)),
        ("dur_us", Json::num(e.dur_us as f64)),
        ("node", Json::num(e.node as f64)),
        ("trace", Json::num(e.trace.0 as f64)),
        ("span", Json::num(e.span.0 as f64)),
        ("parent", Json::num(e.parent.0 as f64)),
        ("kind", Json::str(e.kind.as_str())),
        ("detail", Json::num(e.detail as f64)),
    ])
}

/// Parse one event serialized by [`event_to_json`] back into an
/// [`Event`]. Used by `roads-inspect` to validate retained traces.
pub fn event_from_json(doc: &Json) -> Result<Event, String> {
    use crate::event::{EventKind, SpanId, TraceId};
    let f = |k: &str| doc.get(k).and_then(Json::as_f64);
    let kind = doc
        .get("kind")
        .and_then(Json::as_str_val)
        .and_then(EventKind::parse)
        .ok_or("event missing kind")?;
    Ok(Event {
        at_us: f("at_us").ok_or("event missing at_us")? as u64,
        dur_us: f("dur_us").unwrap_or(0.0) as u64,
        node: f("node").unwrap_or(0.0) as u32,
        trace: TraceId(f("trace").ok_or("event missing trace")? as u64),
        span: SpanId(f("span").ok_or("event missing span")? as u64),
        parent: SpanId(f("parent").unwrap_or(0.0) as u64),
        kind,
        detail: f("detail").unwrap_or(0.0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{ExplainDecision, ExplainHop, HopOutcome, LatencySplit};

    fn explain_ms(id: u64, ms: f64, complete: bool) -> QueryExplain {
        QueryExplain {
            query_id: id,
            trace_id: id + 100,
            entry: 0,
            response_us: ms * 1_000.0,
            complete,
            deadline_hit: false,
            records: 0,
            hops: vec![ExplainHop {
                server: 0,
                decision: ExplainDecision::Entry,
                summary: None,
                false_positive: false,
                outcome: HopOutcome::Replied,
                at_us: 0.0,
                dur_us: ms * 1_000.0,
                caused_by: None,
                local_matches: 0,
                split: LatencySplit::default(),
            }],
        }
    }

    #[test]
    fn warmup_uses_floor_then_live_p99() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 10,
            floor_ms: 5.0,
        });
        assert_eq!(s.threshold_ms(), 5.0);
        // Fast queries below the floor are dropped even during warm-up.
        assert_eq!(s.observe(explain_ms(0, 1.0, true), false, Vec::new()), None);
        // Above the floor retains as Slow.
        assert_eq!(
            s.observe(explain_ms(1, 6.0, true), false, Vec::new()),
            Some(RetainReason::Slow)
        );
        // Warm the histogram: 100 fast samples push p99 low, but the
        // floor still applies.
        for i in 0..100 {
            s.observe(explain_ms(2 + i, 0.5, true), false, Vec::new());
        }
        assert!(s.threshold_ms() >= 5.0);
        // And a genuinely slow query after warm-up is retained.
        assert_eq!(
            s.observe(explain_ms(999, 50.0, true), false, Vec::new()),
            Some(RetainReason::Slow)
        );
    }

    #[test]
    fn failed_and_incomplete_always_retained() {
        let s = TailSampler::default();
        assert_eq!(
            s.observe(explain_ms(1, 0.01, true), true, Vec::new()),
            Some(RetainReason::Failed)
        );
        assert_eq!(
            s.observe(explain_ms(2, 0.01, false), false, Vec::new()),
            Some(RetainReason::Incomplete)
        );
        assert_eq!(s.retained().len(), 2);
    }

    #[test]
    fn reservoir_evicts_least_slow_first() {
        let s = TailSampler::new(TailConfig {
            capacity: 2,
            min_samples: 1_000_000, // stay on the floor threshold
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false, Vec::new());
        s.observe(explain_ms(2, 30.0, true), false, Vec::new());
        // Full. A slower query displaces the least-slow entry (id 1).
        s.observe(explain_ms(3, 20.0, true), false, Vec::new());
        let ids: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&3));
        // A Failed query also displaces a Slow one.
        s.observe(explain_ms(4, 0.1, true), true, Vec::new());
        assert!(s
            .retained()
            .iter()
            .any(|q| q.reason == RetainReason::Failed));
        // Once only Failed/Incomplete remain, Slow queries cannot evict.
        s.observe(explain_ms(5, 0.1, false), false, Vec::new());
        assert!(s.retained().iter().all(|q| q.reason != RetainReason::Slow));
        let before: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        s.observe(explain_ms(6, 500.0, true), false, Vec::new());
        let after: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        assert_eq!(before, after, "Slow must not displace Failed/Incomplete");
    }

    #[test]
    fn exemplars_link_buckets_to_trace_ids() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 42.0, true), false, Vec::new());
        // The exact value and a same-bucket neighbour both resolve.
        assert_eq!(s.exemplar(42.0), Some(101));
        // A far-away bucket has no exemplar.
        assert_eq!(s.exemplar(0.004), None);
    }

    #[test]
    fn report_ranks_by_latency_and_round_trips() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false, Vec::new());
        s.observe(explain_ms(2, 99.0, true), false, Vec::new());
        s.observe(explain_ms(3, 55.0, true), false, Vec::new());
        let doc = s.report();
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert!(parsed.get("slow_queries").is_some());
        let retained = parsed.get("retained").and_then(Json::as_arr).unwrap();
        let ids: Vec<u64> = retained
            .iter()
            .map(|q| {
                QueryExplain::from_json(q.get("explain").unwrap())
                    .unwrap()
                    .query_id
            })
            .collect();
        assert_eq!(ids, vec![2, 3, 1], "ranked slowest first");
        assert_eq!(s.observed(), 3);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn retained_events_serialize_and_parse_back() {
        use crate::event::{Recorder, SpanId};
        let rec = Recorder::new(64);
        let trace = rec.next_trace_id();
        rec.record_span(
            trace,
            SpanId::NONE,
            0,
            crate::event::EventKind::QueryStart,
            0,
            100,
            7,
        );
        let events: Vec<Event> = rec.events();
        let mut e = explain_ms(1, 20.0, true);
        e.trace_id = trace.0;
        let s = TailSampler::new(TailConfig {
            capacity: 4,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(e, false, events.clone());
        let doc = s.report();
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let retained = parsed.get("retained").and_then(Json::as_arr).unwrap();
        let evs = retained[0].get("events").and_then(Json::as_arr).unwrap();
        let back: Vec<Event> = evs.iter().map(|e| event_from_json(e).unwrap()).collect();
        assert_eq!(back, events);
    }
}
