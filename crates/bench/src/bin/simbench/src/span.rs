//! Per-layer host-time tracing for the traced pass.
//!
//! Spans are recorded from this package, around the calls into each layer:
//! [`TimedProcess`] around `Process::step`, [`TimedSystem`] around
//! `MemorySystem::access`, [`TimedObserver`] around every observer
//! callback, and the caller around `Engine::run`. The wrappers are passive
//! (they forward every call unchanged), so a traced unit simulates exactly
//! what an untraced one does.
//!
//! A thread-local [`SpanStack`] keeps one frame per open span. A layer's
//! self time is its span's duration minus its children's, and each child
//! also charges its parent the calibrated cost of an empty span (the
//! bookkeeping outside the child's own timestamps).

use crate::alloc::allocations;
use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats, Outcome, ProtocolError};
use pim_obs::{CohState, Observer};
use pim_sim::MemorySystem;
use pim_trace::{Addr, AreaMap, MemOp, MemoryPort, PeId, Process, RefStats, StepOutcome, Word};
use std::cell::RefCell;
use std::time::Instant;

/// A layer of the simulator stack timed by the traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pim-sim`'s `Engine::run` (the scheduler and engine port).
    Engine,
    /// The reference-generating process: the KL1 `Cluster` or the trace
    /// `Replayer`.
    Process,
    /// The PIM protocol (`pim-cache`'s `PimSystem`).
    PimCache,
    /// The Illinois baseline (`pim-sim`'s `IllinoisSystem`).
    Illinois,
    /// `pim-obs` observer callbacks.
    Observer,
}

impl Layer {
    /// Dense index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated spans of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Closed spans.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus child spans and their calibrated cost.
    pub self_ns: u64,
    /// Allocations made while the layer itself was on top of the stack.
    pub self_allocs: u64,
}

/// How often each [`StepOutcome`] came back from the timed process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// Steps that did useful work.
    pub ran: u64,
    /// Steps with nothing to do.
    pub idle: u64,
    /// Steps aborted on a lock stall (re-run later).
    pub stalled: u64,
    /// The final step that reported termination.
    pub finished: u64,
}

impl StepCounts {
    /// All steps.
    pub fn total(&self) -> u64 {
        self.ran + self.idle + self.stalled + self.finished
    }
}

/// Everything the traced pass recorded since the last [`take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recorded {
    /// Per-layer spans, indexed by [`Layer::index`].
    pub layers: [LayerStat; 5],
    /// Outcomes of the timed process's steps.
    pub steps: StepCounts,
}

impl Recorded {
    /// The spans of one layer.
    pub fn layer(&self, layer: Layer) -> LayerStat {
        self.layers[layer.index()]
    }
}

#[derive(Debug)]
struct Frame {
    layer: Layer,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// A stack of open spans over explicit timestamps and allocation counts,
/// so the accounting can be tested with synthetic clocks.
#[derive(Debug, Default)]
pub struct SpanStack {
    frames: Vec<Frame>,
    recorded: Recorded,
    span_cost_ns: u64,
}

impl SpanStack {
    /// An empty stack that charges each parent `span_cost_ns` per child.
    pub fn new(span_cost_ns: u64) -> SpanStack {
        SpanStack {
            frames: Vec::with_capacity(8),
            recorded: Recorded::default(),
            span_cost_ns,
        }
    }

    /// Opens a span of `layer` at `now_ns` with `allocs` allocations so far.
    pub fn enter(&mut self, layer: Layer, now_ns: u64, allocs: u64) {
        self.frames.push(Frame {
            layer,
            start_ns: now_ns,
            start_allocs: allocs,
            child_ns: 0,
            child_allocs: 0,
        });
    }

    /// Closes the innermost span at `now_ns` with `allocs` allocations so far.
    ///
    /// # Panics
    ///
    /// Panics when no span is open, which is a bug in the caller.
    pub fn exit(&mut self, now_ns: u64, allocs: u64) {
        let Some(frame) = self.frames.pop() else {
            panic!("span exit without a matching enter");
        };
        let total = now_ns.saturating_sub(frame.start_ns);
        let allocs = allocs.saturating_sub(frame.start_allocs);
        let stat = &mut self.recorded.layers[frame.layer.index()];
        stat.calls += 1;
        stat.total_ns += total;
        stat.self_ns += total.saturating_sub(frame.child_ns);
        stat.self_allocs += allocs.saturating_sub(frame.child_allocs);
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += total + self.span_cost_ns;
            parent.child_allocs += allocs;
        }
    }

    /// Returns what was recorded and starts afresh, keeping the span cost.
    pub fn take(&mut self) -> Recorded {
        std::mem::take(&mut self.recorded)
    }
}

thread_local! {
    static STACK: RefCell<SpanStack> = RefCell::new(SpanStack::new(0));
    static EPOCH: Instant = Instant::now();
}

fn now_ns() -> u64 {
    EPOCH.with(|epoch| u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Runs `f` inside a span of `layer` on this thread's stack.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let (t, a) = (now_ns(), allocations());
    STACK.with_borrow_mut(|s| s.enter(layer, t, a));
    let out = f();
    let (t, a) = (now_ns(), allocations());
    STACK.with_borrow_mut(|s| s.exit(t, a));
    out
}

/// Returns this thread's recordings since the last call and clears them.
pub fn take() -> Recorded {
    STACK.with_borrow_mut(SpanStack::take)
}

/// Measures what an empty span costs its parent, in nanoseconds (the
/// median of several rounds), and sets this thread's stack to subtract
/// that much, rounded, per child from then on.
pub fn calibrate() -> f64 {
    const ROUNDS: usize = 7;
    const SPANS: u32 = 20_000;
    STACK.set(SpanStack::new(0));
    let mut costs: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            timed(Layer::Engine, || {
                for _ in 0..SPANS {
                    timed(Layer::Process, || std::hint::black_box(()));
                }
            });
            take().layer(Layer::Engine).self_ns as f64 / f64::from(SPANS)
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    let cost = costs[ROUNDS / 2];
    STACK.set(SpanStack::new(cost.round() as u64));
    cost
}

fn count_step(outcome: StepOutcome) {
    STACK.with_borrow_mut(|s| {
        let steps = &mut s.recorded.steps;
        match outcome {
            StepOutcome::Ran => steps.ran += 1,
            StepOutcome::Idle => steps.idle += 1,
            StepOutcome::Stalled => steps.stalled += 1,
            StepOutcome::Finished => steps.finished += 1,
        }
    });
}

/// A process whose steps run in [`Layer::Process`] spans.
#[derive(Debug)]
pub struct TimedProcess<P>(pub P);

impl<P: Process> Process for TimedProcess<P> {
    fn pe_count(&self) -> u32 {
        self.0.pe_count()
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let outcome = timed(Layer::Process, || self.0.step(pe, port));
        count_step(outcome);
        outcome
    }
}

impl<P> std::borrow::Borrow<P> for TimedProcess<P> {
    fn borrow(&self) -> &P {
        &self.0
    }
}

impl<P> std::borrow::BorrowMut<P> for TimedProcess<P> {
    fn borrow_mut(&mut self) -> &mut P {
        &mut self.0
    }
}

/// A memory system whose accesses run in spans of its layer.
#[derive(Debug)]
pub struct TimedSystem<S> {
    /// The wrapped system.
    pub inner: S,
    layer: Layer,
}

impl<S> TimedSystem<S> {
    /// Wraps `inner`, timing its accesses as `layer`.
    pub fn new(inner: S, layer: Layer) -> TimedSystem<S> {
        TimedSystem { inner, layer }
    }
}

impl<S: MemorySystem> MemorySystem for TimedSystem<S> {
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        timed(self.layer, || self.inner.access(pe, op, addr, data))
    }

    fn area_map(&self) -> &AreaMap {
        self.inner.area_map()
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        self.inner.poke(addr, value);
    }

    fn peek(&self, addr: Addr) -> Word {
        self.inner.peek(addr)
    }

    fn bus_stats(&self) -> &BusStats {
        self.inner.bus_stats()
    }

    fn ref_stats(&self) -> &RefStats {
        self.inner.ref_stats()
    }

    fn access_stats(&self) -> &AccessStats {
        self.inner.access_stats()
    }

    fn lock_stats(&self) -> &LockStats {
        self.inner.lock_stats()
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.inner.set_observer(observer);
    }

    fn set_now(&mut self, cycle: u64) {
        self.inner.set_now(cycle);
    }

    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.inner.save_ckpt(w);
    }

    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        self.inner.restore_ckpt(r)
    }
}

/// An observer whose callbacks run in [`Layer::Observer`] spans.
#[derive(Debug)]
pub struct TimedObserver(pub Box<dyn Observer>);

impl Observer for TimedObserver {
    fn state_transition(
        &mut self,
        pe: PeId,
        area: pim_trace::StorageArea,
        from: CohState,
        to: CohState,
        cycle: u64,
    ) {
        timed(Layer::Observer, || {
            self.0.state_transition(pe, area, from, to, cycle)
        });
    }

    fn bus_grant(
        &mut self,
        pe: PeId,
        op: MemOp,
        area: pim_trace::StorageArea,
        issue: u64,
        wait: u64,
        tx_cycles: u64,
    ) {
        timed(Layer::Observer, || {
            self.0.bus_grant(pe, op, area, issue, wait, tx_cycles)
        });
    }

    fn lock_wait(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: pim_trace::StorageArea,
        wait: u64,
        resume_cycle: u64,
    ) {
        timed(Layer::Observer, || {
            self.0.lock_wait(pe, addr, area, wait, resume_cycle)
        });
    }

    fn lock_acquired(&mut self, pe: PeId, addr: Addr, area: pim_trace::StorageArea, cycle: u64) {
        timed(Layer::Observer, || {
            self.0.lock_acquired(pe, addr, area, cycle)
        });
    }

    fn lock_released(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: pim_trace::StorageArea,
        cycle: u64,
        woken: &[PeId],
    ) {
        timed(Layer::Observer, || {
            self.0.lock_released(pe, addr, area, cycle, woken)
        });
    }

    fn reduction(&mut self, pe: PeId, cycle: u64) {
        timed(Layer::Observer, || self.0.reduction(pe, cycle));
    }

    fn suspension(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        timed(Layer::Observer, || self.0.suspension(pe, cycle, goal));
    }

    fn resumption(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        timed(Layer::Observer, || self.0.resumption(pe, cycle, goal));
    }

    fn gc(&mut self, pe: PeId, cycle: u64, words_copied: u64) {
        timed(Layer::Observer, || self.0.gc(pe, cycle, words_copied));
    }

    fn goal_queue_depth(&mut self, pe: PeId, cycle: u64, depth: u64) {
        timed(Layer::Observer, || {
            self.0.goal_queue_depth(pe, cycle, depth)
        });
    }

    fn fault_injected(&mut self, pe: PeId, kind: &'static str, cycle: u64) {
        timed(Layer::Observer, || self.0.fault_injected(pe, kind, cycle));
    }

    fn fault_recovered(&mut self, pe: PeId, faults: u32, penalty: u64, cycle: u64) {
        timed(Layer::Observer, || {
            self.0.fault_recovered(pe, faults, penalty, cycle)
        });
    }

    fn deadlock(&mut self, pes: &[PeId], cycle: u64) {
        timed(Layer::Observer, || self.0.deadlock(pes, cycle));
    }

    fn watchdog(&mut self, pe: PeId, clock: u64, budget: u64) {
        timed(Layer::Observer, || self.0.watchdog(pe, clock, budget));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children_and_their_span_cost() {
        // engine [0, 1000) > process [100, 600) > pim-cache [200, 300)
        //                  > process [700, 800)
        let mut s = SpanStack::new(5);
        s.enter(Layer::Engine, 0, 0);
        s.enter(Layer::Process, 100, 1);
        s.enter(Layer::PimCache, 200, 2);
        s.exit(300, 4);
        s.exit(600, 7);
        s.enter(Layer::Process, 700, 7);
        s.exit(800, 7);
        s.exit(1000, 9);
        let r = s.take();
        let engine = r.layer(Layer::Engine);
        assert_eq!(engine.calls, 1);
        assert_eq!(engine.total_ns, 1000);
        // 1000 - (500 + 5) - (100 + 5)
        assert_eq!(engine.self_ns, 390);
        // 9 allocations in all, 6 of them inside the process spans.
        assert_eq!(engine.self_allocs, 3);
        let process = r.layer(Layer::Process);
        assert_eq!(process.calls, 2);
        assert_eq!(process.total_ns, 600);
        // (500 - (100 + 5)) + 100
        assert_eq!(process.self_ns, 495);
        assert_eq!(process.self_allocs, 4);
        let cache = r.layer(Layer::PimCache);
        assert_eq!((cache.calls, cache.total_ns, cache.self_ns), (1, 100, 100));
        assert_eq!(cache.self_allocs, 2);
        assert_eq!(s.take(), Recorded::default(), "take resets the record");
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut s = SpanStack::new(50);
        s.enter(Layer::Engine, 0, 0);
        s.enter(Layer::Process, 10, 0);
        s.exit(20, 0);
        s.exit(30, 0);
        assert_eq!(s.take().layer(Layer::Engine).self_ns, 0);
    }

    #[test]
    fn calibrated_cost_is_subtracted_from_parents() {
        let cost = calibrate();
        assert!(
            cost < 10_000.0,
            "an empty span should cost well under 10 µs"
        );
        timed(Layer::Engine, || {
            for _ in 0..1_000 {
                timed(Layer::Process, || ());
            }
        });
        let r = take();
        assert_eq!(r.layer(Layer::Process).calls, 1_000);
        let engine = r.layer(Layer::Engine);
        let process = r.layer(Layer::Process);
        assert!(engine.self_ns + process.total_ns <= engine.total_ns);
    }
}
