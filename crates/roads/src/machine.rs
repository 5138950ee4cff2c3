//! The query protocol as one sans-IO state machine (§III-A redirects,
//! §III-C overlay shortcuts and failover).
//!
//! [`QueryMachine`] makes every client-side decision of one query: which
//! server to contact next and in which [`ContactMode`], mode-aware
//! deduplication, retry and overlay failover after a failed contact,
//! whether the result is provably complete, and the per-contact
//! [`ExplainHop`] record. [`route`] is the server side of the same
//! protocol: what a contacted server searches and where it redirects.
//!
//! The machine does no I/O and reads no clock. A driver feeds it events
//! stamped with the driver's own time — `start`, `reply`, `timeout`,
//! `down`, `deadline` — and carries out the [`Dispatch`]es it returns.
//! Two drivers exist: the simulator in [`crate::queryexec`] (virtual time,
//! byte and message accounting) and the threaded runtime in
//! `roads-runtime` (channels, timers, metrics, flight recorder).

use crate::engine::RoadsNetwork;
use crate::planner::{PlanAction, QueryPlan};
use crate::queryexec::SearchScope;
use crate::tree::ServerId;
use roads_records::Query;
use roads_summary::SummaryVerdict;
use roads_telemetry::{
    ExplainDecision, ExplainHop, HopOutcome, LatencySplit, QueryExplain, SummaryKind, TraceId,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How a contacted server treats the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactMode {
    /// Entry server: children + overlay shortcuts + ancestor probes.
    Entry,
    /// Branch server: local data + children.
    Branch,
    /// Ancestor probe: local data only.
    LocalOnly,
    /// Overlay stand-in for a crashed server: forward to `dead`'s children
    /// using its replicated branch summary, no local search here.
    Failover {
        /// The unreachable server being routed around.
        dead: ServerId,
    },
}

/// What a contacted server does with the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Search the server's locally attached records.
    pub search_local: bool,
    /// Where the query goes next: children and overlay shortcuts first,
    /// ancestor probes last.
    pub targets: Vec<(ServerId, ContactMode)>,
}

/// The per-contact routing step, run by the contacted server.
///
/// Entry and branch contacts evaluate the query against every summary the
/// server holds ([`RoadsNetwork::evaluate`]); an ancestor probe searches
/// local data only; a failover stand-in forwards to the dead server's
/// matching children using its replicated branch summary, without
/// searching its own data (that is queried separately). Targets are
/// unfiltered: the [`QueryMachine`] applies scope and deduplication.
pub fn route(net: &RoadsNetwork, server: ServerId, query: &Query, mode: ContactMode) -> Route {
    match mode {
        ContactMode::LocalOnly => Route {
            search_local: true,
            targets: Vec::new(),
        },
        ContactMode::Entry | ContactMode::Branch => {
            let ev = net.evaluate(server, query, mode == ContactMode::Entry);
            let mut targets: Vec<(ServerId, ContactMode)> = Vec::with_capacity(
                ev.child_targets.len() + ev.replica_targets.len() + ev.ancestor_targets.len(),
            );
            targets.extend(
                ev.child_targets
                    .iter()
                    .chain(&ev.replica_targets)
                    .map(|&t| (t, ContactMode::Branch)),
            );
            targets.extend(
                ev.ancestor_targets
                    .iter()
                    .map(|&a| (a, ContactMode::LocalOnly)),
            );
            Route {
                search_local: ev.local_match,
                targets,
            }
        }
        ContactMode::Failover { dead } => Route {
            search_local: false,
            targets: net
                .tree()
                .children(dead)
                .iter()
                .filter(|c| net.branch_summary(**c).may_match(query))
                .map(|&c| (c, ContactMode::Branch))
                .collect(),
        },
    }
}

/// Widening order of the redirect modes: an ancestor probe searches only
/// local data, a branch visit additionally expands children, an entry
/// visit additionally consults the replication overlay.
fn mode_rank(mode: ContactMode) -> u8 {
    match mode {
        ContactMode::LocalOnly => 0,
        ContactMode::Branch => 1,
        ContactMode::Entry => 2,
        ContactMode::Failover { .. } => unreachable!("failover visits dedup separately"),
    }
}

/// Mode-aware visited bookkeeping for one query's dispatch tree.
#[derive(Debug, Default)]
struct VisitLedger {
    visited: HashMap<ServerId, u8>,
    failover: HashSet<(ServerId, ServerId)>,
}

impl VisitLedger {
    /// Whether a dispatch of `target` in `mode` should go out. Repeat
    /// visits are admitted only when `mode` is strictly wider than every
    /// prior visit (the mode *upgrade*: a `LocalOnly`-probed server later
    /// found to gate a matching branch must still expand its children).
    /// `Failover` visits are routing-only and tracked per
    /// `(target, dead server)` pair, independent of the widening ladder.
    fn admit(&mut self, target: ServerId, mode: ContactMode) -> bool {
        if let ContactMode::Failover { dead } = mode {
            return self.failover.insert((target, dead));
        }
        let rank = mode_rank(mode);
        match self.visited.get_mut(&target) {
            Some(prev) if *prev >= rank => false,
            Some(prev) => {
                *prev = rank;
                true
            }
            None => {
                self.visited.insert(target, rank);
                true
            }
        }
    }
}

/// How the machine reacts to a failed contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Re-sends of a timed-out dispatch before giving up on its target.
    pub max_retries: u32,
    /// Backoff before the first re-send, in milliseconds; it doubles per
    /// retry.
    pub backoff_base_ms: u64,
    /// Route around given-up servers through the replication overlay.
    pub failover: bool,
}

/// Exponential backoff before retry `tries + 1` of a dispatch, in µs: the
/// base doubles per prior attempt, with the shift capped so large retry
/// counts cannot overflow into a zero delay.
fn backoff_us(base_ms: u64, tries: u32) -> u64 {
    base_ms
        .saturating_mul(1u64 << tries.min(16))
        .saturating_mul(1_000)
}

/// One contact the driver must make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// Attempt id: dense, in dispatch order, starting at 0 for the entry.
    pub attempt: usize,
    /// The server to contact.
    pub server: ServerId,
    /// What the server is asked to do.
    pub mode: ContactMode,
    /// Wait before sending (retry backoff), in µs.
    pub backoff_us: u64,
    /// The attempt whose reply or failure caused this one (`None` for the
    /// entry).
    pub caused_by: Option<usize>,
    /// Why the contact is made.
    pub decision: ExplainDecision,
}

/// A contacted server's answer, as the driver received it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerReply {
    /// The server's [`Route`] targets.
    pub targets: Vec<(ServerId, ContactMode)>,
    /// Records its local search returned.
    pub records: usize,
    /// Mailbox wait at the server, in µs.
    pub queue_us: f64,
    /// Server-side work, in µs.
    pub compute_us: f64,
}

/// What the machine decided on a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The reply's records are new to the result (not a stand-in's, not a
    /// late duplicate of a server already merged): merge them.
    pub fresh: bool,
    /// Contacts to make next.
    pub dispatches: Vec<Dispatch>,
}

/// One dispatched contact, as the machine tracks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// The contacted server.
    pub server: ServerId,
    /// What it was asked to do.
    pub mode: ContactMode,
    /// Retries already performed for this target before this attempt.
    pub tries: u32,
    /// The attempt that caused this one.
    pub caused_by: Option<usize>,
    /// Why it was made.
    pub decision: ExplainDecision,
    /// Dispatch time, driver µs.
    pub at_us: u64,
    /// How it ended (`Abandoned` while still open).
    pub outcome: HopOutcome,
    open: bool,
    end_us: u64,
    local_matches: u64,
    /// Replied with neither records nor targets.
    dead_end: bool,
    split: LatencySplit,
}

/// Per-query protocol state: see the module docs.
#[derive(Debug)]
pub struct QueryMachine<'a> {
    net: &'a RoadsNetwork,
    query: &'a Query,
    entry: ServerId,
    entry_depth: usize,
    scope: SearchScope,
    policy: RetryPolicy,
    attempts: Vec<Attempt>,
    /// Attempts still awaiting a reply.
    open: usize,
    ledger: VisitLedger,
    /// Servers whose local data has been merged (guards against
    /// double-merging when a late reply races a retry's).
    resolved: HashSet<ServerId>,
    /// Servers given up on, with the widest mode that failed.
    failed: BTreeMap<ServerId, ContactMode>,
    /// Overlay stand-ins that died while helping. Kept apart from
    /// `failed` (which feeds completeness and the failed-server list): a
    /// dead helper only disqualifies itself from further nominations.
    dead_helpers: HashSet<ServerId>,
    /// Next failover candidate index per dead server.
    failover_pos: HashMap<ServerId, usize>,
    /// Distinct servers whose replies landed.
    responders: HashSet<ServerId>,
    /// Whether the overlay evaluation for the whole hierarchy (ancestor
    /// probes, replica shortcuts) ran: an Entry-mode reply landed, or a
    /// plan computed it up front. Without it a failed entry leaves the
    /// hierarchy beyond its own branch unexamined.
    entry_served: bool,
    /// A plan replaced the entry's own expansion.
    planned: bool,
    records: u64,
    retries: usize,
    deadline_hit: bool,
    /// Driver time of the event being handled.
    now_us: u64,
    /// Dispatches decided while handling it.
    outbox: Vec<Dispatch>,
}

impl<'a> QueryMachine<'a> {
    /// A machine for `query` entering at `entry`, confined to `scope`.
    pub fn new(
        net: &'a RoadsNetwork,
        query: &'a Query,
        entry: ServerId,
        scope: SearchScope,
        policy: RetryPolicy,
    ) -> Self {
        QueryMachine {
            net,
            query,
            entry,
            entry_depth: net.tree().depth(entry),
            scope,
            policy,
            attempts: Vec::new(),
            open: 0,
            ledger: VisitLedger::default(),
            resolved: HashSet::new(),
            failed: BTreeMap::new(),
            dead_helpers: HashSet::new(),
            failover_pos: HashMap::new(),
            responders: HashSet::new(),
            entry_served: false,
            planned: false,
            records: 0,
            retries: 0,
            deadline_hit: false,
            now_us: 0,
            outbox: Vec::new(),
        }
    }

    /// The dispatches decided since the event began.
    fn drain(&mut self) -> Vec<Dispatch> {
        std::mem::take(&mut self.outbox)
    }

    /// Start the query: contact the entry in Entry mode. With a `plan`,
    /// the plan's contacts go out at once in place of the entry's own
    /// expansion, whose targets are then ignored; the entry still answers
    /// for its local data.
    pub fn start(&mut self, now_us: u64, plan: Option<&QueryPlan>) -> Vec<Dispatch> {
        self.now_us = now_us;
        self.ledger.admit(self.entry, ContactMode::Entry);
        self.push(
            self.entry,
            ContactMode::Entry,
            None,
            ExplainDecision::Entry,
            0,
        );
        if let Some(plan) = plan {
            assert_eq!(plan.entry, self.entry, "plan computed for another entry");
            self.planned = true;
            self.entry_served = true;
            for pc in &plan.contacts {
                let mode = match pc.action {
                    PlanAction::Descend => ContactMode::Branch,
                    PlanAction::Probe => ContactMode::LocalOnly,
                };
                if self.ledger.admit(pc.server, mode) {
                    // The plan was computed from the entry's replicated
                    // summaries, so the entry caused every contact.
                    self.push(pc.server, mode, Some(0), ExplainDecision::Planned, 0);
                }
            }
        }
        self.drain()
    }

    /// Attempt `attempt`'s server answered. Late replies (after a timeout
    /// verdict, racing a retry) are folded in too: they resolve their hop
    /// and their targets still count.
    pub fn reply(&mut self, attempt: usize, now_us: u64, reply: ServerReply) -> Step {
        self.now_us = now_us;
        let a = &mut self.attempts[attempt];
        if a.open {
            a.open = false;
            self.open -= 1;
        }
        a.outcome = HopOutcome::Replied;
        a.end_us = now_us;
        a.local_matches = reply.records as u64;
        a.dead_end = reply.records == 0 && reply.targets.is_empty();
        a.split.queue_us = reply.queue_us;
        a.split.compute_us = reply.compute_us;
        let (server, mode) = (a.server, a.mode);
        self.responders.insert(server);
        // Any reply proves the server serviceable again, helper or not.
        self.dead_helpers.remove(&server);
        if mode == ContactMode::Entry {
            self.entry_served = true;
        }
        let fresh = !matches!(mode, ContactMode::Failover { .. }) && self.resolved.insert(server);
        if fresh {
            // Withdraw any failure verdict from an earlier timed-out attempt.
            self.failed.remove(&server);
            self.records += reply.records as u64;
        }
        // A plan replaced the entry's own expansion.
        let targets = if mode == ContactMode::Entry && self.planned {
            Vec::new()
        } else {
            reply.targets
        };
        for (t, m) in targets {
            if mode == ContactMode::Entry && !self.in_scope(t, m) {
                continue;
            }
            if !self.ledger.admit(t, m) {
                continue;
            }
            let decision = match m {
                // A Branch redirect from the target's tree parent is
                // ordinary summary descent; from anyone else (the entry's
                // replica shortcuts, a failover stand-in) it rode the
                // replication overlay.
                ContactMode::Branch if self.net.tree().parent(t) == Some(server) => {
                    ExplainDecision::SummaryDescent
                }
                ContactMode::Branch => ExplainDecision::OverlayShortcut,
                ContactMode::LocalOnly => ExplainDecision::AncestorProbe,
                ContactMode::Entry => ExplainDecision::Entry,
                ContactMode::Failover { .. } => ExplainDecision::Failover,
            };
            self.push(t, m, Some(attempt), decision, 0);
        }
        Step {
            fresh,
            dispatches: self.drain(),
        }
    }

    /// Attempt `attempt` got no reply in time: retry it if budget remains,
    /// otherwise give up on its server and fail over. Ignored (no
    /// dispatches) once the attempt is closed.
    pub fn timeout(&mut self, attempt: usize, now_us: u64) -> Vec<Dispatch> {
        self.fail(attempt, now_us, HopOutcome::TimedOut)
    }

    /// Attempt `attempt`'s server was found down (its mailbox closed). It
    /// cannot recover without a restart, so the retry budget is skipped
    /// and failover starts at once. Ignored once the attempt is closed.
    pub fn down(&mut self, attempt: usize, now_us: u64) -> Vec<Dispatch> {
        self.fail(attempt, now_us, HopOutcome::MailboxDown)
    }

    /// The query's deadline passed: close every open attempt as abandoned
    /// and fail its target, starting nothing new. Returns the attempts cut
    /// off, ascending.
    pub fn deadline(&mut self, now_us: u64) -> Vec<usize> {
        self.deadline_hit = true;
        let cut: Vec<usize> = (0..self.attempts.len())
            .filter(|&i| self.attempts[i].open)
            .collect();
        for &i in &cut {
            let a = &mut self.attempts[i];
            a.open = false;
            a.end_us = now_us;
            let (server, mode) = (a.server, a.mode);
            if !matches!(mode, ContactMode::Failover { .. }) {
                self.mark_failed(server, mode);
            }
        }
        self.open = 0;
        cut
    }

    fn fail(&mut self, attempt: usize, now_us: u64, outcome: HopOutcome) -> Vec<Dispatch> {
        self.now_us = now_us;
        let a = &mut self.attempts[attempt];
        if !a.open {
            return Vec::new(); // a reply raced in first, or already failed
        }
        a.open = false;
        self.open -= 1;
        a.outcome = outcome;
        a.end_us = now_us;
        let (server, mode, tries) = (a.server, a.mode, a.tries);
        if outcome == HopOutcome::TimedOut && tries < self.policy.max_retries {
            self.retries += 1;
            // Retries bypass the visit ledger: same target, same mode.
            self.push(
                server,
                mode,
                Some(attempt),
                ExplainDecision::Retry,
                tries + 1,
            );
            return self.drain();
        }
        match mode {
            ContactMode::Failover { dead } => {
                // The stand-in died too: remember it so failover for a
                // *different* dead server cannot nominate it again, then
                // advance to the next candidate.
                self.dead_helpers.insert(server);
                self.try_failover(dead, attempt);
            }
            ContactMode::LocalOnly => {
                // Only this server held the probed data; nothing replicates
                // *records*, so there is nowhere to fail over to.
                self.mark_failed(server, mode);
            }
            ContactMode::Branch => {
                self.mark_failed(server, mode);
                self.try_failover(server, attempt);
            }
            ContactMode::Entry => {
                self.mark_failed(server, mode);
                // A dead entry needs both a replacement entry (to run the
                // overlay evaluation for the rest of the hierarchy, unless
                // that already happened) and a stand-in for its own
                // branch: the replacement's redirect targets include the
                // dead server itself, but the ledger already holds it at
                // Entry rank, so its children would otherwise be
                // unreachable.
                if !self.entry_served {
                    self.entry_failover(server, attempt);
                }
                self.try_failover(server, attempt);
            }
        }
        self.drain()
    }

    fn mark_failed(&mut self, server: ServerId, mode: ContactMode) {
        if self.resolved.contains(&server) {
            return; // its data already arrived via an earlier attempt
        }
        // Keep the widest failed mode: completeness must account for the
        // broadest responsibility this server was ever given.
        let e = self.failed.entry(server).or_insert(mode);
        if mode_rank(mode) > mode_rank(*e) {
            *e = mode;
        }
    }

    /// Whether `server` can stand in for a dead one: not known dead.
    fn viable_helper(&self, server: ServerId) -> bool {
        !self.failed.contains_key(&server) && !self.dead_helpers.contains(&server)
    }

    /// Dispatch the next viable overlay stand-in for `dead`'s branch.
    fn try_failover(&mut self, dead: ServerId, caused_by: usize) {
        if !self.policy.failover {
            return;
        }
        let net = self.net;
        // A stand-in only forwards to the dead server's children; skip the
        // whole exercise when no unresolved child branch can match.
        let worth_it =
            net.tree().children(dead).iter().any(|&c| {
                net.branch_summary(c).may_match(self.query) && !self.resolved.contains(&c)
            });
        if !worth_it {
            return;
        }
        let candidates = net.replica_set(dead).failover_candidates();
        let mut pos = self.failover_pos.get(&dead).copied().unwrap_or(0);
        while pos < candidates.len() {
            let helper = candidates[pos];
            pos += 1;
            let mode = ContactMode::Failover { dead };
            if self.viable_helper(helper) && self.ledger.admit(helper, mode) {
                self.push(helper, mode, Some(caused_by), ExplainDecision::Failover, 0);
                break;
            }
        }
        // Candidates exhausted leaves the subtree unavailable, and
        // `completeness` reports it.
        self.failover_pos.insert(dead, pos);
    }

    /// Nominate a replacement entry server after the original died.
    fn entry_failover(&mut self, dead: ServerId, caused_by: usize) {
        if !self.policy.failover {
            return;
        }
        for helper in self.net.replica_set(dead).failover_candidates() {
            if self.viable_helper(helper) && self.ledger.admit(helper, ContactMode::Entry) {
                let mode = ContactMode::Entry;
                self.push(helper, mode, Some(caused_by), ExplainDecision::Failover, 0);
                return;
            }
        }
    }

    /// Entry-mode expansions are confined to the query's scope. Replica
    /// redirect targets and ancestor probes consume scope differently: an
    /// ancestor's sibling sits one level *below* the ancestor it is
    /// reached through. Children always pass.
    fn in_scope(&self, target: ServerId, mode: ContactMode) -> bool {
        let depth = self.net.tree().depth(target);
        match mode {
            ContactMode::LocalOnly => self.scope.admits_ancestor(self.entry_depth, depth),
            _ => self.scope.admits_replica(self.entry_depth, depth),
        }
    }

    /// Record a new attempt and queue its dispatch. A retry (`tries > 0`)
    /// waits out its backoff first.
    fn push(
        &mut self,
        server: ServerId,
        mode: ContactMode,
        caused_by: Option<usize>,
        decision: ExplainDecision,
        tries: u32,
    ) {
        let backoff_us = match tries {
            0 => 0,
            t => backoff_us(self.policy.backoff_base_ms, t - 1),
        };
        let attempt = self.attempts.len();
        self.attempts.push(Attempt {
            server,
            mode,
            tries,
            caused_by,
            decision,
            at_us: self.now_us,
            outcome: HopOutcome::Abandoned,
            open: true,
            end_us: self.now_us,
            local_matches: 0,
            dead_end: false,
            split: LatencySplit {
                backoff_us: backoff_us as f64,
                ..LatencySplit::default()
            },
        });
        self.open += 1;
        self.outbox.push(Dispatch {
            attempt,
            server,
            mode,
            backoff_us,
            caused_by,
            decision,
        });
    }

    /// The driver charged `us` of link time to `attempt` (its explain
    /// hop's network share).
    pub fn set_link_us(&mut self, attempt: usize, us: f64) {
        self.attempts[attempt].split.network_us = us;
    }

    /// Every attempt so far, indexed by attempt id.
    pub fn attempts(&self) -> &[Attempt] {
        &self.attempts
    }

    /// Whether `attempt` still awaits a reply.
    pub fn is_open(&self, attempt: usize) -> bool {
        self.attempts[attempt].open
    }

    /// No attempt awaits a reply: the query is over.
    pub fn is_done(&self) -> bool {
        self.open == 0
    }

    /// Distinct servers whose replies landed (overlay stand-ins and late
    /// duplicates count each server once).
    pub fn responders(&self) -> usize {
        self.responders.len()
    }

    /// Records merged into the result.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Dispatches re-sent after a timeout.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Servers given up on, ascending. Failed overlay stand-ins are not
    /// listed — only servers whose own data or branch was queried.
    pub fn failed_servers(&self) -> Vec<ServerId> {
        self.failed.keys().copied().collect()
    }

    /// Truthful completeness: sound because summaries never produce false
    /// negatives — `!may_match` proves absence, and every dispatched child
    /// of a failed server ends the query either resolved or failed (with
    /// its own entry in `failed` recursing this check). A failed *entry*
    /// additionally requires that the overlay evaluation ran somewhere
    /// (`entry_served`); otherwise nothing examined the hierarchy beyond
    /// its branch.
    pub fn completeness(&self) -> bool {
        if self.deadline_hit {
            return false;
        }
        let net = self.net;
        let children_covered = |s: ServerId| {
            net.tree().children(s).iter().all(|&c| {
                !net.branch_summary(c).may_match(self.query)
                    || self.resolved.contains(&c)
                    || self.failed.contains_key(&c)
            })
        };
        self.failed.iter().all(|(&s, &mode)| {
            let local_ok = !net.local_summary(s).may_match(self.query);
            match mode {
                ContactMode::LocalOnly => local_ok,
                ContactMode::Branch => local_ok && children_covered(s),
                ContactMode::Entry => self.entry_served && local_ok && children_covered(s),
                ContactMode::Failover { .. } => true, // stand-ins hold no queried data
            }
        })
    }

    /// The query's provenance record: one hop per attempt, in dispatch
    /// order, with the summary kind that vouched for each routed contact.
    pub fn explain(&self, response_us: f64, trace_id: TraceId) -> QueryExplain {
        let hops = self
            .attempts
            .iter()
            .map(|a| {
                let summary = self.vouching_kind(a);
                ExplainHop {
                    server: a.server.0,
                    decision: a.decision,
                    summary,
                    // A branch summary vouched for this subtree, yet
                    // neither local records nor any further redirect came
                    // back: the lossy summary matched spuriously.
                    false_positive: a.mode == ContactMode::Branch
                        && a.dead_end
                        && summary.is_some(),
                    outcome: a.outcome,
                    at_us: a.at_us as f64,
                    dur_us: a.end_us.saturating_sub(a.at_us) as f64,
                    caused_by: a.caused_by,
                    local_matches: a.local_matches,
                    split: a.split,
                }
            })
            .collect();
        QueryExplain {
            query_id: self.query.id.0,
            trace_id: trace_id.0,
            entry: self.entry.0,
            response_us,
            complete: self.completeness(),
            deadline_hit: self.deadline_hit,
            records: self.records,
            hops,
        }
    }

    /// Which summary structure vouched for a routed contact. Descents and
    /// shortcuts (planned or not) were admitted by the target's *branch*
    /// summary; ancestor probes by its *local* summary (the probe asks
    /// only about the ancestor's own records).
    fn vouching_kind(&self, a: &Attempt) -> Option<SummaryKind> {
        let summary = match (a.decision, a.mode) {
            (ExplainDecision::SummaryDescent | ExplainDecision::OverlayShortcut, _)
            | (ExplainDecision::Planned, ContactMode::Branch) => self.net.branch_summary(a.server),
            (ExplainDecision::AncestorProbe | ExplainDecision::Planned, _) => {
                self.net.local_summary(a.server)
            }
            _ => return None,
        };
        match summary.decide(self.query) {
            SummaryVerdict::Match { fuzziest } => fuzziest.and_then(summary_kind),
            SummaryVerdict::Prune { decided_by } => decided_by.and_then(summary_kind),
        }
    }
}

/// Map an [`AttributeSummary::kind_name`](roads_summary::AttributeSummary)
/// label into the telemetry vocabulary.
fn summary_kind(label: &str) -> Option<SummaryKind> {
    Some(match label {
        "histogram" => SummaryKind::Histogram,
        "multires" => SummaryKind::MultiRes,
        "set" => SummaryKind::ValueSet,
        "bloom" => SummaryKind::Bloom,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u32) -> ServerId = ServerId;

    #[test]
    fn ledger_admits_mode_upgrade_not_downgrade() {
        let mut l = VisitLedger::default();
        assert!(l.admit(S(3), ContactMode::LocalOnly));
        // Regression (mode-insensitive dedup): the same server targeted as
        // Branch after a LocalOnly ancestor probe must be re-dispatched,
        // otherwise its children are never expanded and records are lost.
        assert!(l.admit(S(3), ContactMode::Branch));
        assert!(!l.admit(S(3), ContactMode::Branch), "same mode dedups");
        assert!(!l.admit(S(3), ContactMode::LocalOnly), "downgrade dedups");
        assert!(l.admit(S(3), ContactMode::Entry), "entry is widest");
    }

    #[test]
    fn ledger_entry_covers_narrower_modes() {
        let mut l = VisitLedger::default();
        assert!(l.admit(S(0), ContactMode::Entry));
        assert!(!l.admit(S(0), ContactMode::Branch));
        assert!(!l.admit(S(0), ContactMode::LocalOnly));
    }

    #[test]
    fn ledger_failover_visits_track_per_dead_server() {
        let mut l = VisitLedger::default();
        assert!(l.admit(S(1), ContactMode::LocalOnly));
        // A visited server can still act as failover helper...
        assert!(l.admit(S(1), ContactMode::Failover { dead: S(7) }));
        // ...once per dead sibling...
        assert!(!l.admit(S(1), ContactMode::Failover { dead: S(7) }));
        assert!(l.admit(S(1), ContactMode::Failover { dead: S(8) }));
        // ...without consuming its widening ladder.
        assert!(l.admit(S(1), ContactMode::Branch));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_us(10, 0), 10_000);
        assert_eq!(backoff_us(10, 1), 20_000);
        assert_eq!(backoff_us(10, 3), 80_000);
        assert_eq!(backoff_us(u64::MAX, 40), u64::MAX);
    }
}
