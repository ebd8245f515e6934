//! The standard metrics sink: an [`Observer`] that aggregates every
//! event into histograms, matrices, and per-PE counters.
//!
//! One simulation involves several components (engine, memory system,
//! abstract machine) that each need to emit events into the *same*
//! sink, so the sink comes in two layers: [`Metrics`] is the plain
//! aggregate (plain data, `Send`, mergeable — safe to ship across the
//! experiment harness's worker threads), and [`SharedMetrics`] is a
//! cheaply cloneable `Rc<RefCell<Metrics>>` handle whose clones are
//! boxed into each component within a single simulation thread.

use std::cell::RefCell;
use std::rc::Rc;

use pim_trace::{MemOp, PeId, StorageArea};

use crate::hist::Histogram;
use crate::json::Json;
use crate::observe::{CohState, Observer, PeCycles, TransitionMatrix};
use crate::series::TimeSeries;

/// Goal-queue depth sampling window, in simulated cycles.
const GOAL_DEPTH_INTERVAL: u64 = 1024;

/// Aggregated simulation metrics. Plain data: clone, merge, serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Coherence transitions, one matrix per storage area
    /// (`StorageArea::ALL` order).
    pub transitions: [TransitionMatrix; 5],
    /// Bus-acquisition latency (cycles between requesting and winning
    /// arbitration) over all grants.
    pub bus_wait: Histogram,
    /// Bus-hold time (cycles the winning transaction occupied the bus).
    pub bus_hold: Histogram,
    /// Total acquisition-wait cycles per storage area.
    pub bus_wait_by_area: [u64; 5],
    /// Total bus-hold cycles per storage area.
    pub bus_hold_by_area: [u64; 5],
    /// Bus grants per memory operation (`MemOp::ALL` order).
    pub bus_grants_by_op: [u64; 10],
    /// Lock-stall durations (cycles from `LH` refusal to wake-up).
    pub lock_wait: Histogram,
    /// Reductions committed, per PE.
    pub reductions_by_pe: Vec<u64>,
    /// Goal suspensions, per PE.
    pub suspensions_by_pe: Vec<u64>,
    /// Goal resumptions, per PE.
    pub resumptions_by_pe: Vec<u64>,
    /// Completed garbage collections.
    pub gc_collections: u64,
    /// Live words copied per collection.
    pub gc_words: Histogram,
    /// Goal-queue depth over simulated time.
    pub goal_depth: TimeSeries,
    /// Injected faults per kind label (sorted for stable JSON output).
    pub faults_injected: std::collections::BTreeMap<&'static str, u64>,
    /// Fault events recovered (equals the injected total after any
    /// completed run — injection is bounded per operation).
    pub faults_recovered: u64,
    /// Bus operations that recovered from at least one fault.
    pub fault_recoveries: u64,
    /// Extra completion-delay cycles per recovered operation.
    pub fault_penalty: Histogram,
    /// Lock-directory deadlocks detected (wait-for cycles reported
    /// instead of hanging).
    pub deadlocks: u64,
    /// Livelock/starvation watchdog expirations.
    pub watchdog_expirations: u64,
}

impl Metrics {
    /// Checkpoint hook: serializes every accumulator, in declaration
    /// order. Fault-kind labels are written as strings and re-interned
    /// on restore.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        for m in &self.transitions {
            m.save_ckpt(w);
        }
        self.bus_wait.save_ckpt(w);
        self.bus_hold.save_ckpt(w);
        for &v in &self.bus_wait_by_area {
            w.put_u64(v);
        }
        for &v in &self.bus_hold_by_area {
            w.put_u64(v);
        }
        for &v in &self.bus_grants_by_op {
            w.put_u64(v);
        }
        self.lock_wait.save_ckpt(w);
        w.put_u64s(&self.reductions_by_pe);
        w.put_u64s(&self.suspensions_by_pe);
        w.put_u64s(&self.resumptions_by_pe);
        w.put_u64(self.gc_collections);
        self.gc_words.save_ckpt(w);
        self.goal_depth.save_ckpt(w);
        w.put_len(self.faults_injected.len());
        for (label, &count) in &self.faults_injected {
            w.put_str(label);
            w.put_u64(count);
        }
        w.put_u64(self.faults_recovered);
        w.put_u64(self.fault_recoveries);
        self.fault_penalty.save_ckpt(w);
        w.put_u64(self.deadlocks);
        w.put_u64(self.watchdog_expirations);
    }

    /// Checkpoint hook: restores an aggregate saved by
    /// [`Metrics::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        for m in &mut self.transitions {
            m.restore_ckpt(r)?;
        }
        self.bus_wait.restore_ckpt(r)?;
        self.bus_hold.restore_ckpt(r)?;
        for v in self.bus_wait_by_area.iter_mut() {
            *v = r.get_u64()?;
        }
        for v in self.bus_hold_by_area.iter_mut() {
            *v = r.get_u64()?;
        }
        for v in self.bus_grants_by_op.iter_mut() {
            *v = r.get_u64()?;
        }
        self.lock_wait.restore_ckpt(r)?;
        self.reductions_by_pe = r.get_u64s()?;
        self.suspensions_by_pe = r.get_u64s()?;
        self.resumptions_by_pe = r.get_u64s()?;
        self.gc_collections = r.get_u64()?;
        self.gc_words.restore_ckpt(r)?;
        self.goal_depth.restore_ckpt(r)?;
        self.faults_injected.clear();
        let n = r.get_len()?;
        for _ in 0..n {
            let label = pim_ckpt::intern(r.get_str()?);
            let count = r.get_u64()?;
            self.faults_injected.insert(label, count);
        }
        self.faults_recovered = r.get_u64()?;
        self.fault_recoveries = r.get_u64()?;
        self.fault_penalty.restore_ckpt(r)?;
        self.deadlocks = r.get_u64()?;
        self.watchdog_expirations = r.get_u64()?;
        Ok(())
    }
}

fn bump(counts: &mut Vec<u64>, pe: PeId) {
    let i = pe.index();
    if i >= counts.len() {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

impl Metrics {
    /// An empty aggregate.
    pub fn new() -> Metrics {
        Metrics {
            transitions: Default::default(),
            bus_wait: Histogram::new(),
            bus_hold: Histogram::new(),
            bus_wait_by_area: [0; 5],
            bus_hold_by_area: [0; 5],
            bus_grants_by_op: [0; 10],
            lock_wait: Histogram::new(),
            reductions_by_pe: Vec::new(),
            suspensions_by_pe: Vec::new(),
            resumptions_by_pe: Vec::new(),
            gc_collections: 0,
            gc_words: Histogram::new(),
            goal_depth: TimeSeries::new(GOAL_DEPTH_INTERVAL),
            faults_injected: std::collections::BTreeMap::new(),
            faults_recovered: 0,
            fault_recoveries: 0,
            fault_penalty: Histogram::new(),
            deadlocks: 0,
            watchdog_expirations: 0,
        }
    }

    /// Total faults injected across all kinds.
    pub fn faults_injected_total(&self) -> u64 {
        self.faults_injected.values().sum()
    }

    /// The transition matrix summed over all five areas.
    pub fn transitions_total(&self) -> TransitionMatrix {
        let mut all = TransitionMatrix::new();
        for m in &self.transitions {
            all.merge(m);
        }
        all
    }

    /// Accumulates another aggregate into this one.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.transitions.iter_mut().zip(other.transitions.iter()) {
            a.merge(b);
        }
        self.bus_wait.merge(&other.bus_wait);
        self.bus_hold.merge(&other.bus_hold);
        for (a, b) in self
            .bus_wait_by_area
            .iter_mut()
            .zip(other.bus_wait_by_area.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .bus_hold_by_area
            .iter_mut()
            .zip(other.bus_hold_by_area.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .bus_grants_by_op
            .iter_mut()
            .zip(other.bus_grants_by_op.iter())
        {
            *a += b;
        }
        self.lock_wait.merge(&other.lock_wait);
        merge_counts(&mut self.reductions_by_pe, &other.reductions_by_pe);
        merge_counts(&mut self.suspensions_by_pe, &other.suspensions_by_pe);
        merge_counts(&mut self.resumptions_by_pe, &other.resumptions_by_pe);
        self.gc_collections += other.gc_collections;
        self.gc_words.merge(&other.gc_words);
        self.goal_depth.merge(&other.goal_depth);
        for (&kind, &n) in &other.faults_injected {
            *self.faults_injected.entry(kind).or_insert(0) += n;
        }
        self.faults_recovered += other.faults_recovered;
        self.fault_recoveries += other.fault_recoveries;
        self.fault_penalty.merge(&other.fault_penalty);
        self.deadlocks += other.deadlocks;
        self.watchdog_expirations += other.watchdog_expirations;
    }

    /// The stable JSON form used inside the report files.
    pub fn to_json(&self) -> Json {
        let by_area = Json::obj(StorageArea::ALL.map(|area| {
            let m = &self.transitions[area.index()];
            (area.label(), matrix_json(m))
        }));
        let grants: u64 = self.bus_grants_by_op.iter().sum();
        Json::obj([
            (
                "state_transitions",
                Json::obj([
                    (
                        "states",
                        Json::arr(CohState::ALL.map(|s| Json::from(s.label()))),
                    ),
                    ("total", Json::from(self.transitions_total().total())),
                    ("all_areas", matrix_json(&self.transitions_total())),
                    ("by_area", by_area),
                ]),
            ),
            (
                "bus",
                Json::obj([
                    ("grants", Json::from(grants)),
                    ("acquisition_wait_cycles", histogram_json(&self.bus_wait)),
                    ("hold_cycles", histogram_json(&self.bus_hold)),
                    (
                        "wait_cycles_by_area",
                        area_counts_json(&self.bus_wait_by_area),
                    ),
                    (
                        "hold_cycles_by_area",
                        area_counts_json(&self.bus_hold_by_area),
                    ),
                    (
                        "grants_by_op",
                        Json::obj(
                            MemOp::ALL
                                .iter()
                                .map(|op| {
                                    (op.mnemonic(), Json::from(self.bus_grants_by_op[op.index()]))
                                })
                                .collect::<Vec<_>>(),
                        ),
                    ),
                ]),
            ),
            ("lock_wait_cycles", histogram_json(&self.lock_wait)),
            (
                "faults",
                Json::obj([
                    (
                        "injected_by_kind",
                        Json::obj(
                            self.faults_injected
                                .iter()
                                .map(|(&kind, &n)| (kind, Json::from(n)))
                                .collect::<Vec<_>>(),
                        ),
                    ),
                    ("injected_total", Json::from(self.faults_injected_total())),
                    ("recovered_total", Json::from(self.faults_recovered)),
                    ("recovered_operations", Json::from(self.fault_recoveries)),
                    ("penalty_cycles", histogram_json(&self.fault_penalty)),
                    ("deadlocks", Json::from(self.deadlocks)),
                    (
                        "watchdog_expirations",
                        Json::from(self.watchdog_expirations),
                    ),
                ]),
            ),
            (
                "kl1",
                Json::obj([
                    ("reductions_by_pe", counts_json(&self.reductions_by_pe)),
                    ("suspensions_by_pe", counts_json(&self.suspensions_by_pe)),
                    ("resumptions_by_pe", counts_json(&self.resumptions_by_pe)),
                    (
                        "gc",
                        Json::obj([
                            ("collections", Json::from(self.gc_collections)),
                            ("words_copied", histogram_json(&self.gc_words)),
                        ]),
                    ),
                    ("goal_queue_depth", series_json(&self.goal_depth)),
                ]),
            ),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

fn merge_counts(into: &mut Vec<u64>, from: &[u64]) {
    if from.len() > into.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a += b;
    }
}

fn counts_json(counts: &[u64]) -> Json {
    Json::arr(counts.iter().map(|&n| Json::from(n)))
}

fn area_counts_json(counts: &[u64; 5]) -> Json {
    Json::obj(StorageArea::ALL.map(|a| (a.label(), Json::from(counts[a.index()]))))
}

/// Histogram wire form: summary statistics plus the non-empty log2
/// buckets as `[upper_bound, count]` pairs.
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("min", h.min().map_or(Json::Null, Json::from)),
        ("max", h.max().map_or(Json::Null, Json::from)),
        ("mean", Json::from(h.mean())),
        ("p50", Json::from(h.percentile(50.0))),
        ("p90", Json::from(h.percentile(90.0))),
        ("p99", Json::from(h.percentile(99.0))),
        (
            "log2_buckets",
            Json::arr(
                h.nonzero_buckets()
                    .map(|(limit, n)| Json::arr([Json::from(limit), Json::from(n)])),
            ),
        ),
    ])
}

/// Per-PE cycle-accounting wire form: one object per PE with the four
/// accounts and their sum (the PE's final clock).
pub fn pe_cycles_json(accounts: &[PeCycles]) -> Json {
    Json::arr(accounts.iter().enumerate().map(|(pe, c)| {
        Json::obj([
            ("pe", Json::from(pe)),
            ("busy", Json::from(c.busy)),
            ("bus_wait", Json::from(c.bus_wait)),
            ("lock_wait", Json::from(c.lock_wait)),
            ("idle", Json::from(c.idle)),
            ("total", Json::from(c.total())),
        ])
    }))
}

/// Transition-matrix wire form: 5x5 row-major counts in
/// [`CohState::ALL`] order.
pub fn matrix_json(m: &TransitionMatrix) -> Json {
    Json::arr(
        CohState::ALL.map(|from| Json::arr(CohState::ALL.map(|to| Json::from(m.count(from, to))))),
    )
}

/// Time-series wire form: the interval plus one entry per non-empty
/// window (`[start_cycle, count, mean, max]`).
pub fn series_json(ts: &TimeSeries) -> Json {
    Json::obj([
        ("interval_cycles", Json::from(ts.interval())),
        ("samples", Json::from(ts.count())),
        (
            "windows",
            Json::arr(ts.windows().filter(|(_, w)| w.count > 0).map(|(start, w)| {
                Json::arr([
                    Json::from(start),
                    Json::from(w.count),
                    Json::from(w.mean()),
                    Json::from(w.max),
                ])
            })),
        ),
    ])
}

impl Observer for Metrics {
    fn state_transition(
        &mut self,
        _pe: PeId,
        area: StorageArea,
        from: CohState,
        to: CohState,
        _cycle: u64,
    ) {
        self.transitions[area.index()].record(from, to);
    }

    fn bus_grant(
        &mut self,
        _pe: PeId,
        op: MemOp,
        area: StorageArea,
        _issue: u64,
        wait: u64,
        tx_cycles: u64,
    ) {
        self.bus_wait.record(wait);
        self.bus_hold.record(tx_cycles);
        self.bus_wait_by_area[area.index()] += wait;
        self.bus_hold_by_area[area.index()] += tx_cycles;
        self.bus_grants_by_op[op.index()] += 1;
    }

    fn lock_wait(
        &mut self,
        _pe: PeId,
        _addr: pim_trace::Addr,
        _area: StorageArea,
        wait: u64,
        _resume_cycle: u64,
    ) {
        self.lock_wait.record(wait);
    }

    fn reduction(&mut self, pe: PeId, _cycle: u64) {
        bump(&mut self.reductions_by_pe, pe);
    }

    fn suspension(&mut self, pe: PeId, _cycle: u64, _goal: pim_trace::Addr) {
        bump(&mut self.suspensions_by_pe, pe);
    }

    fn resumption(&mut self, pe: PeId, _cycle: u64, _goal: pim_trace::Addr) {
        bump(&mut self.resumptions_by_pe, pe);
    }

    fn gc(&mut self, _pe: PeId, _cycle: u64, words_copied: u64) {
        self.gc_collections += 1;
        self.gc_words.record(words_copied);
    }

    fn goal_queue_depth(&mut self, _pe: PeId, cycle: u64, depth: u64) {
        self.goal_depth.record(cycle, depth);
    }

    fn fault_injected(&mut self, _pe: PeId, kind: &'static str, _cycle: u64) {
        *self.faults_injected.entry(kind).or_insert(0) += 1;
    }

    fn fault_recovered(&mut self, _pe: PeId, faults: u32, penalty: u64, _cycle: u64) {
        self.faults_recovered += faults as u64;
        self.fault_recoveries += 1;
        self.fault_penalty.record(penalty);
    }

    fn deadlock(&mut self, _pes: &[PeId], _cycle: u64) {
        self.deadlocks += 1;
    }

    fn watchdog(&mut self, _pe: PeId, _clock: u64, _budget: u64) {
        self.watchdog_expirations += 1;
    }
}

/// A shared handle to one [`Metrics`] aggregate.
///
/// Clone it once per component (engine, memory system, machine) and box
/// each clone as that component's observer; all events land in the same
/// aggregate. Single-threaded by construction (`Rc`) — the experiment
/// harness creates one per worker thread and ships the plain
/// [`Metrics`] snapshot back.
///
/// # Examples
///
/// ```
/// use pim_obs::{Observer, SharedMetrics};
/// use pim_trace::PeId;
/// let shared = SharedMetrics::new();
/// let mut a = shared.clone();
/// let mut b = shared.clone();
/// a.reduction(PeId(0), 10);
/// b.reduction(PeId(1), 20);
/// assert_eq!(shared.snapshot().reductions_by_pe, vec![1, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics(Rc<RefCell<Metrics>>);

impl SharedMetrics {
    /// A handle to a fresh aggregate.
    pub fn new() -> SharedMetrics {
        SharedMetrics::default()
    }

    /// A boxed observer clone, ready to attach to a component.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    /// A copy of the current aggregate.
    pub fn snapshot(&self) -> Metrics {
        self.0.borrow().clone()
    }

    /// Extracts the aggregate, leaving an empty one behind.
    pub fn take(&self) -> Metrics {
        self.0.replace(Metrics::new())
    }

    /// Checkpoint hook: serializes the current aggregate.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.0.borrow().save_ckpt(w);
    }

    /// Checkpoint hook: replaces the shared aggregate with one saved by
    /// [`SharedMetrics::save_ckpt`]. Every clone of this handle sees the
    /// restored state.
    pub fn restore_ckpt(&self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        self.0.borrow_mut().restore_ckpt(r)
    }
}

impl Observer for SharedMetrics {
    fn state_transition(
        &mut self,
        pe: PeId,
        area: StorageArea,
        from: CohState,
        to: CohState,
        cycle: u64,
    ) {
        self.0
            .borrow_mut()
            .state_transition(pe, area, from, to, cycle);
    }

    fn bus_grant(
        &mut self,
        pe: PeId,
        op: MemOp,
        area: StorageArea,
        issue: u64,
        wait: u64,
        tx_cycles: u64,
    ) {
        self.0
            .borrow_mut()
            .bus_grant(pe, op, area, issue, wait, tx_cycles);
    }

    fn lock_wait(
        &mut self,
        pe: PeId,
        addr: pim_trace::Addr,
        area: StorageArea,
        wait: u64,
        resume_cycle: u64,
    ) {
        self.0
            .borrow_mut()
            .lock_wait(pe, addr, area, wait, resume_cycle);
    }

    fn lock_acquired(&mut self, pe: PeId, addr: pim_trace::Addr, area: StorageArea, cycle: u64) {
        self.0.borrow_mut().lock_acquired(pe, addr, area, cycle);
    }

    fn lock_released(
        &mut self,
        pe: PeId,
        addr: pim_trace::Addr,
        area: StorageArea,
        cycle: u64,
        woken: &[PeId],
    ) {
        self.0
            .borrow_mut()
            .lock_released(pe, addr, area, cycle, woken);
    }

    fn reduction(&mut self, pe: PeId, cycle: u64) {
        self.0.borrow_mut().reduction(pe, cycle);
    }

    fn suspension(&mut self, pe: PeId, cycle: u64, goal: pim_trace::Addr) {
        self.0.borrow_mut().suspension(pe, cycle, goal);
    }

    fn resumption(&mut self, pe: PeId, cycle: u64, goal: pim_trace::Addr) {
        self.0.borrow_mut().resumption(pe, cycle, goal);
    }

    fn gc(&mut self, pe: PeId, cycle: u64, words_copied: u64) {
        self.0.borrow_mut().gc(pe, cycle, words_copied);
    }

    fn goal_queue_depth(&mut self, pe: PeId, cycle: u64, depth: u64) {
        self.0.borrow_mut().goal_queue_depth(pe, cycle, depth);
    }

    fn fault_injected(&mut self, pe: PeId, kind: &'static str, cycle: u64) {
        self.0.borrow_mut().fault_injected(pe, kind, cycle);
    }

    fn fault_recovered(&mut self, pe: PeId, faults: u32, penalty: u64, cycle: u64) {
        self.0
            .borrow_mut()
            .fault_recovered(pe, faults, penalty, cycle);
    }

    fn deadlock(&mut self, pes: &[PeId], cycle: u64) {
        self.0.borrow_mut().deadlock(pes, cycle);
    }

    fn watchdog(&mut self, pe: PeId, clock: u64, budget: u64) {
        self.0.borrow_mut().watchdog(pe, clock, budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_clones_feed_one_aggregate() {
        let shared = SharedMetrics::new();
        let mut engine_view = shared.clone();
        let mut cache_view = shared.clone();
        engine_view.bus_grant(PeId(0), MemOp::Read, StorageArea::Heap, 1, 3, 13);
        cache_view.state_transition(PeId(0), StorageArea::Heap, CohState::Inv, CohState::Ec, 1);
        let m = shared.snapshot();
        assert_eq!(m.bus_wait.count(), 1);
        assert_eq!(m.transitions_total().total(), 1);
    }

    #[test]
    fn merge_combines_disjoint_runs() {
        let mut a = Metrics::new();
        a.reduction(PeId(0), 5);
        a.bus_grant(PeId(0), MemOp::Write, StorageArea::Goal, 2, 0, 7);
        let mut b = Metrics::new();
        b.reduction(PeId(2), 9);
        b.lock_wait(PeId(1), 0x40, StorageArea::Goal, 40, 90);
        a.merge(&b);
        assert_eq!(a.reductions_by_pe, vec![1, 0, 1]);
        assert_eq!(a.bus_hold.sum(), 7);
        assert_eq!(a.lock_wait.count(), 1);
    }

    #[test]
    fn take_resets_the_aggregate() {
        let shared = SharedMetrics::new();
        shared.observer().gc(PeId(0), 100, 64);
        assert_eq!(shared.take().gc_collections, 1);
        assert_eq!(shared.snapshot().gc_collections, 0);
    }

    #[test]
    fn json_form_has_stable_top_level_keys() {
        let m = Metrics::new();
        let Json::Obj(pairs) = m.to_json() else {
            panic!("metrics JSON must be an object");
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "state_transitions",
                "bus",
                "lock_wait_cycles",
                "faults",
                "kl1"
            ]
        );
    }

    #[test]
    fn fault_events_aggregate_and_merge() {
        let mut a = Metrics::new();
        a.fault_injected(PeId(0), "bus_nack", 10);
        a.fault_injected(PeId(0), "bus_nack", 11);
        a.fault_injected(PeId(1), "pe_stall", 12);
        a.fault_recovered(PeId(0), 2, 9, 20);
        a.fault_recovered(PeId(1), 1, 8, 21);
        a.deadlock(&[PeId(0), PeId(1)], 99);
        a.watchdog(PeId(0), 1000, 500);
        let mut b = Metrics::new();
        b.fault_injected(PeId(2), "bus_nack", 1);
        b.fault_recovered(PeId(2), 1, 3, 5);
        a.merge(&b);
        assert_eq!(a.faults_injected["bus_nack"], 3);
        assert_eq!(a.faults_injected["pe_stall"], 1);
        assert_eq!(a.faults_injected_total(), 4);
        assert_eq!(a.faults_recovered, 4);
        assert_eq!(a.fault_recoveries, 3);
        assert_eq!(a.fault_penalty.sum(), 20);
        assert_eq!(a.deadlocks, 1);
        assert_eq!(a.watchdog_expirations, 1);
    }
}
