//! Parity between the two drivers of the one query machine: the
//! simulator (`execute_query_traced` / `execute_query_planned_traced`)
//! and the threaded runtime must contact the same servers and return the
//! same records for any hierarchy, query and entry, greedy or planned —
//! and both must equal the exact answer over every server's records.

use proptest::prelude::*;
use roads_core::{
    execute_query_planned_traced, execute_query_traced, plan_query, RoadsConfig, RoadsNetwork,
    SearchScope, ServerId, TraceEvent,
};
use roads_netsim::DelaySpace;
use roads_records::{AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value};
use roads_runtime::{RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use std::collections::BTreeSet;

/// `n` servers of degree `k`, each holding 1–6 records over two unit
/// attributes drawn from `seed`. Coarse histograms make false-positive
/// redirects common, so the drivers must also agree on dead ends.
fn network(n: usize, k: usize, seed: u64) -> RoadsNetwork {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut id = 0u64;
    let records: Vec<Vec<Record>> = (0..n)
        .map(|s| {
            let count = 1 + (next() * 6.0) as usize;
            (0..count)
                .map(|_| {
                    id += 1;
                    Record::new_unchecked(
                        RecordId(id),
                        OwnerId(s as u32),
                        vec![Value::Float(next()), Value::Float(next())],
                    )
                })
                .collect()
        })
        .collect();
    let cfg = RoadsConfig {
        max_children: k,
        summary: SummaryConfig::with_buckets(16),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(Schema::unit_numeric(2), cfg, records)
}

/// The live runtime with every emulated cost off: no link delays, no
/// backend or transfer time.
fn zero_emulation(planner: bool) -> RuntimeConfig {
    RuntimeConfig {
        delay_scale: 0.0,
        base_query_cost_us: 0,
        per_record_retrieval_us: 0,
        bandwidth_mbps: f64::INFINITY,
        enable_planner: planner,
        ..RuntimeConfig::test_fast()
    }
}

/// Record ids every server holds that match `q`, sorted.
fn exact_answer(net: &RoadsNetwork, q: &Query) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..net.len() as u32)
        .flat_map(|s| net.records(ServerId(s)))
        .filter(|r| q.matches(r))
        .map(|r| r.id.0)
        .collect();
    ids.sort_unstable();
    ids
}

/// Record ids the simulated contacts' local searches found, sorted.
fn sim_ids(net: &RoadsNetwork, q: &Query, trace: &[TraceEvent]) -> Vec<u64> {
    let mut ids: Vec<u64> = trace
        .iter()
        .filter(|e| e.local_matches > 0)
        .flat_map(|e| net.search_local(e.server, q))
        .map(|r| r.id.0)
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn live_and_simulated_drivers_agree(
        (n, k) in (1usize..40, 2usize..6),
        seed in any::<u64>(),
        (lo0, w0) in (0.0f64..1.0, 0.0f64..0.7),
        (lo1, w1, one_dim) in (0.0f64..1.0, 0.0f64..0.7, any::<bool>()),
        entry_pick in any::<u32>(),
        planner in any::<bool>(),
    ) {
        let net = network(n, k, seed);
        let mut predicates = vec![Predicate::Range { attr: AttrId(0), lo: lo0, hi: lo0 + w0 }];
        if !one_dim {
            predicates.push(Predicate::Range { attr: AttrId(1), lo: lo1, hi: lo1 + w1 });
        }
        let q = Query::new(QueryId(7), predicates);
        let entry = ServerId(entry_pick % n as u32);
        let delays = DelaySpace::paper(n, seed);

        let (sim, trace) = if planner {
            let plan = plan_query(&net, &q, entry, SearchScope::full());
            execute_query_planned_traced(&net, &delays, &q, entry, SearchScope::full(), &plan)
        } else {
            execute_query_traced(&net, &delays, &q, entry, SearchScope::full())
        };
        let sim_servers: BTreeSet<ServerId> = trace.iter().map(|e| e.server).collect();
        let sim_records = sim_ids(&net, &q, &trace);
        prop_assert_eq!(sim_records.len(), sim.matching_records);
        let exact = exact_answer(&net, &q);

        let cluster = RoadsCluster::start(net, delays, zero_emulation(planner));
        let (live, explain) = cluster.query_explained(&q, entry);
        let live_servers: BTreeSet<ServerId> =
            explain.hops.iter().map(|h| ServerId(h.server)).collect();
        let mut live_records: Vec<u64> = live.records.iter().map(|r| r.id.0).collect();
        live_records.sort_unstable();
        cluster.shutdown();

        prop_assert!(live.complete, "healthy cluster must be complete");
        prop_assert_eq!(live.servers_contacted, sim.servers_contacted);
        prop_assert_eq!(&live_servers, &sim_servers, "contacted servers differ");
        prop_assert_eq!(&live_records, &sim_records, "record ids differ");
        prop_assert_eq!(&live_records, &exact, "result is not the exact answer");
    }
}
