//! The deterministic multiprocessor engine.
//!
//! Each PE carries a local cycle clock. The scheduler always steps the
//! runnable PE with the lowest clock (ties broken by PE id), so the
//! interleaving is a legal serialization in simulated-time order — the
//! deterministic equivalent of the paper's "cache simulators artificially
//! synchronize among themselves at each simulated bus request".
//!
//! The pick order is a contract: on every micro-step the scheduler picks
//! the PE that minimizes `(clock, PE id)` among the PEs not blocked on a
//! lock. A blocked PE is never picked, whatever its clock, and a clock of
//! `u64::MAX` is as pickable as any other. When every PE is blocked there
//! is no pick, and the run ends in [`SimError::Deadlock`]. Every pinned
//! digest depends on this order, and a property test in this module
//! checks it against the original `min_by_key` expression.
//!
//! Timing model per memory operation:
//!
//! * cache hit: one PE cycle, no bus;
//! * miss / upgrade / broadcast: the PE arbitrates for the bus
//!   (`start = max(pe clock, bus-free time)`) and holds it for the
//!   transaction's cycles (the paper's non-preemptive bus);
//! * `LH` refusal: the PE blocks (bus-free busy wait) until the holder's
//!   `UL` broadcast, then retries the whole micro-step.

use crate::{MemorySystem, SimError};
use pim_cache::Outcome;
use pim_fault::{arbitrate_with_faults, find_cycle, FaultPlan, FaultStats};
use pim_obs::{Observer, PeCycles};
use pim_trace::{Access, Addr, AreaMap, MemOp, MemoryPort, PeId, PortValue, Word};
pub use pim_trace::{Process, StepOutcome};

/// Summary of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Micro-steps executed across all PEs.
    pub steps: u64,
    /// Final per-PE clocks (cycles).
    pub pe_clocks: Vec<u64>,
    /// Where each PE's cycles went: busy, bus wait, lock wait, idle.
    /// Each entry's total equals the corresponding `pe_clocks` value.
    pub pe_cycles: Vec<PeCycles>,
    /// Simulated completion time: the maximum PE clock.
    pub makespan: u64,
    /// Whether the process reported [`StepOutcome::Finished`] (as opposed
    /// to hitting the step limit).
    pub finished: bool,
}

/// The engine: a [`MemorySystem`] plus PE clocks and the shared bus clock.
///
/// # Examples
///
/// Replaying a two-access trace through the PIM cache:
///
/// ```
/// use pim_cache::{PimSystem, SystemConfig};
/// use pim_sim::{Engine, MemorySystem, Replayer};
/// use pim_trace::{Access, AreaMap, MemOp, PeId, StorageArea};
///
/// let map = AreaMap::standard();
/// let heap = map.base(StorageArea::Heap);
/// let trace = vec![
///     Access::new(PeId(0), MemOp::DirectWrite, heap, StorageArea::Heap),
///     Access::new(PeId(1), MemOp::Read, heap, StorageArea::Heap),
/// ];
/// let mut replayer = Replayer::from_merged(&trace, 2);
/// let mut engine = Engine::new(
///     PimSystem::new(SystemConfig { pes: 2, ..Default::default() }),
///     2,
/// );
/// let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
/// assert!(stats.finished);
/// assert_eq!(engine.system().ref_stats().total(), 2);
/// ```
#[derive(Debug)]
pub struct Engine<S> {
    system: S,
    clocks: Vec<u64>,
    bus_free: u64,
    blocked: Vec<bool>,
    // For each blocked PE, the holder of the lock it waits on — the
    // out-edges of the LWAIT wait-for graph the deadlock detector
    // searches.
    blocked_on: Vec<Option<PeId>>,
    idle_poll_cycles: u64,
    // Per-PE bus-wait/lock-wait/idle accumulators; `busy` stays zero
    // here and is derived from the clocks when stats are reported.
    accounts: Vec<PeCycles>,
    observer: Option<Box<dyn Observer>>,
    trace: Option<Vec<Access>>,
    fault_plan: Option<FaultPlan>,
    fault_stats: FaultStats,
    watchdog: Option<u64>,
    pending_error: Option<SimError>,
    // Stuck-replay detection: `progress` advances on every step that
    // issues a memory operation or does more than idle; `quiet_at[pe]`
    // holds its value at PE's latest idle step that issued no memory
    // operation. A PE is quiet while the two are equal.
    progress: u64,
    quiet_at: Vec<u64>,
}

impl<S: MemorySystem> Engine<S> {
    /// Wraps a memory system for `pes` processing elements.
    pub fn new(system: S, pes: u32) -> Engine<S> {
        Engine {
            system,
            clocks: vec![0; pes as usize],
            bus_free: 0,
            blocked: vec![false; pes as usize],
            blocked_on: vec![None; pes as usize],
            idle_poll_cycles: 16,
            accounts: vec![PeCycles::default(); pes as usize],
            observer: None,
            trace: None,
            fault_plan: None,
            fault_stats: FaultStats::new(),
            watchdog: None,
            pending_error: None,
            progress: 1,
            quiet_at: vec![0; pes as usize],
        }
    }

    /// Attaches a deterministic fault plan: every bus operation is
    /// tested against the plan and may suffer NACKs, parity retries,
    /// snoop-ack timeouts, or stall windows before completing. Faults
    /// are timing-only, so the final machine state matches a fault-free
    /// run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.is_active().then_some(plan);
    }

    /// Counters for the faults injected and recovered so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Arms the livelock/starvation watchdog: if any PE's clock passes
    /// `budget` cycles before the process finishes, the run stops with
    /// [`SimError::WatchdogExpired`] instead of spinning.
    pub fn set_watchdog(&mut self, budget: u64) {
        self.watchdog = Some(budget);
    }

    /// Starts recording every *completed* memory operation as a replayable
    /// [`Access`] trace. Refused (stalled) attempts are excluded on
    /// purpose: a replay regenerates its own stalls from the protocol
    /// state, so recording only the committed operations makes the trace
    /// replay-faithful through [`crate::Replayer`].
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the trace recorded since [`Engine::record_trace`] (empty if
    /// recording was never enabled), in global issue order.
    pub fn take_trace(&mut self) -> Vec<Access> {
        self.trace.take().unwrap_or_default()
    }

    /// Sets how far an idle PE's clock advances per empty poll.
    pub fn set_idle_poll_cycles(&mut self, cycles: u64) {
        self.idle_poll_cycles = cycles.max(1);
    }

    /// Attaches an observer receiving bus-grant and lock-wait events.
    /// Without one (the `NullObserver` configuration) the instrumented
    /// sites cost a single branch and the simulation is bit-identical.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// The per-PE cycle accounting so far. `busy` is the remainder of
    /// each PE's clock after bus-wait, lock-wait, and idle cycles, so
    /// every entry's total equals the PE's current clock.
    pub fn pe_cycles(&self) -> Vec<PeCycles> {
        self.accounts
            .iter()
            .zip(self.clocks.iter())
            .map(|(acct, &clock)| PeCycles {
                busy: clock - acct.bus_wait - acct.lock_wait - acct.idle,
                ..*acct
            })
            .collect()
    }

    /// The wrapped memory system.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// Consumes the engine, returning the memory system and final stats.
    pub fn into_system(self) -> S {
        self.system
    }

    /// Current clock of `pe`.
    pub fn clock(&self, pe: PeId) -> u64 {
        self.clocks[pe.index()]
    }

    /// Runs `f` with a port for `pe` outside the scheduling loop — for
    /// bootstrap pokes and post-run inspection. Counted operations issued
    /// here still advance `pe`'s clock and the bus normally.
    ///
    /// # Panics
    ///
    /// Panics on protocol misuse — a harness bug, unlike the in-run
    /// path, which reports [`SimError::Protocol`] instead.
    pub fn with_port<R>(&mut self, pe: PeId, f: impl FnOnce(&mut dyn MemoryPort) -> R) -> R {
        let mut port = EnginePort {
            system: &mut self.system,
            clock: &mut self.clocks[pe.index()],
            bus_free: &mut self.bus_free,
            pe,
            stalled: false,
            woken: Vec::new(),
            account: &mut self.accounts[pe.index()],
            observer: &mut self.observer,
            trace: &mut self.trace,
            fault_plan: self.fault_plan.as_ref(),
            fault_stats: &mut self.fault_stats,
            lock_holder: None,
            error: &mut self.pending_error,
        };
        let out = f(&mut port);
        if let Some(err) = self.pending_error.take() {
            panic!("{err}");
        }
        out
    }

    /// The wait-for edges of the currently blocked PEs (waiter → lock
    /// holder).
    fn wait_edges(&self) -> Vec<(PeId, PeId)> {
        self.blocked_on
            .iter()
            .enumerate()
            .filter_map(|(i, holder)| holder.map(|h| (PeId(i as u32), h)))
            .collect()
    }

    /// Runs `process` to completion (or until `max_steps`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when the lock wait-for graph
    /// closes a cycle, [`SimError::Protocol`] when the process misuses
    /// the lock protocol, and [`SimError::WatchdogExpired`] when a
    /// watchdog budget set via [`Engine::set_watchdog`] is exceeded.
    /// Each is also reported to the attached observer. Returns
    /// [`SimError::ReplayStuck`] when some PE is blocked and every
    /// other PE only idles without touching memory, so nothing can
    /// ever release the lock it waits on.
    pub fn run(
        &mut self,
        process: &mut impl Process,
        max_steps: u64,
    ) -> Result<RunStats, SimError> {
        assert_eq!(
            process.pe_count() as usize,
            self.clocks.len(),
            "process/engine PE count mismatch"
        );
        let _perf = pim_perf::span(pim_perf::phase::ENGINE_RUN);
        let mut steps = 0;
        let mut finished = false;
        while steps < max_steps {
            // With on-block cycle detection below, "every PE blocked" is
            // unreachable — but keep a structured fallback.
            let Some(pe) = next_pe(&self.clocks, &self.blocked) else {
                return Err(self.deadlock_error());
            };
            let pe = PeId(pe as u32);

            let clock_before = self.clocks[pe.index()];
            let mut port = EnginePort {
                system: &mut self.system,
                clock: &mut self.clocks[pe.index()],
                bus_free: &mut self.bus_free,
                pe,
                stalled: false,
                woken: Vec::new(),
                account: &mut self.accounts[pe.index()],
                observer: &mut self.observer,
                trace: &mut self.trace,
                fault_plan: self.fault_plan.as_ref(),
                fault_stats: &mut self.fault_stats,
                lock_holder: None,
                error: &mut self.pending_error,
            };
            let outcome = process.step(pe, &mut port);
            let stalled = port.stalled;
            let lock_holder = port.lock_holder;
            let woken = std::mem::take(&mut port.woken);
            if let Some(err) = self.pending_error.take() {
                return Err(err);
            }
            let pe_clock_now = self.clocks[pe.index()];
            // An idle step that left the clock alone issued no memory
            // operation and changed nothing any other PE can see.
            let quiet = outcome == StepOutcome::Idle && pe_clock_now == clock_before;
            if quiet {
                self.quiet_at[pe.index()] = self.progress;
            } else {
                self.progress += 1;
            }
            for (w, addr, area) in woken {
                if w != pe {
                    self.blocked[w.index()] = false;
                    self.blocked_on[w.index()] = None;
                    // The waiter busy-waited until the UL broadcast. Its
                    // clock stood still while blocked, so the bump is
                    // exactly the stall duration.
                    let c = &mut self.clocks[w.index()];
                    let waited = pe_clock_now.saturating_sub(*c);
                    *c = (*c).max(pe_clock_now);
                    self.accounts[w.index()].lock_wait += waited;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.lock_wait(w, addr, area, waited, pe_clock_now);
                    }
                }
            }
            steps += 1;
            match outcome {
                StepOutcome::Ran => {
                    debug_assert!(!stalled, "process ignored a stall");
                }
                StepOutcome::Idle => {
                    self.clocks[pe.index()] += self.idle_poll_cycles;
                    self.accounts[pe.index()].idle += self.idle_poll_cycles;
                    if quiet {
                        if let Some(pes) = self.stuck_pes() {
                            return Err(SimError::ReplayStuck { pes });
                        }
                    }
                }
                StepOutcome::Stalled => {
                    assert!(stalled, "process reported a stall the port did not see");
                    self.blocked[pe.index()] = true;
                    self.blocked_on[pe.index()] = lock_holder;
                    // A new wait-for edge can only close a cycle through
                    // itself — check the moment it appears, instead of
                    // hanging until every PE blocks.
                    if let Some(cycle) = find_cycle(&self.wait_edges()) {
                        let clock = self.clocks[pe.index()];
                        if let Some(obs) = self.observer.as_deref_mut() {
                            obs.deadlock(&cycle, clock);
                        }
                        return Err(SimError::Deadlock { cycle, clock });
                    }
                }
                StepOutcome::Finished => {
                    finished = true;
                    break;
                }
            }
            if let Some(budget) = self.watchdog {
                let clock = self.clocks[pe.index()];
                if clock > budget {
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.watchdog(pe, clock, budget);
                    }
                    return Err(SimError::WatchdogExpired { pe, clock, budget });
                }
            }
        }
        Ok(RunStats {
            steps,
            pe_clocks: self.clocks.clone(),
            pe_cycles: self.pe_cycles(),
            makespan: self.clocks.iter().copied().max().unwrap_or(0),
            finished,
        })
    }

    /// Checkpoint hook: serializes the wrapped system and the engine's
    /// scheduling state — PE clocks, bus clock, blocked flags and
    /// wait-for edges, cycle accounts, fault counters, and the recorded
    /// trace if recording is on. The observer, fault plan, and watchdog
    /// are configuration, not state: the resuming process re-attaches
    /// them from its own flags.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.system.save_ckpt(w);
        w.put_u64s(&self.clocks);
        w.put_u64(self.bus_free);
        w.put_len(self.blocked.len());
        for &b in &self.blocked {
            w.put_bool(b);
        }
        for holder in &self.blocked_on {
            w.put_opt_u64(holder.map(|pe| pe.0 as u64));
        }
        w.put_u64(self.idle_poll_cycles);
        for acct in &self.accounts {
            w.put_u64(acct.busy);
            w.put_u64(acct.bus_wait);
            w.put_u64(acct.lock_wait);
            w.put_u64(acct.idle);
        }
        self.fault_stats.save_ckpt(w);
        w.put_bool(self.trace.is_some());
        if let Some(trace) = &self.trace {
            w.put_len(trace.len());
            for a in trace {
                w.put_u32(a.pe.0);
                w.put_u8(a.op.index() as u8);
                w.put_u64(a.addr);
                w.put_u8(a.area.index() as u8);
            }
        }
    }

    /// Checkpoint hook: restores an engine saved by
    /// [`Engine::save_ckpt`] into an engine built over a system of
    /// identical configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count disagrees, or
    /// any nested restore fails.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.system.restore_ckpt(r)?;
        let clocks = r.get_u64s()?;
        if clocks.len() != self.clocks.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "engine has {} PEs, checkpoint has {}",
                    self.clocks.len(),
                    clocks.len()
                ),
            });
        }
        self.clocks = clocks;
        self.bus_free = r.get_u64()?;
        let n = r.get_len()?;
        if n != self.blocked.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("blocked set for {n} PEs, engine has {}", self.blocked.len()),
            });
        }
        for b in self.blocked.iter_mut() {
            *b = r.get_bool()?;
        }
        for holder in self.blocked_on.iter_mut() {
            *holder = r.get_opt_u64()?.map(|v| PeId(v as u32));
        }
        self.idle_poll_cycles = r.get_u64()?.max(1);
        for acct in self.accounts.iter_mut() {
            acct.busy = r.get_u64()?;
            acct.bus_wait = r.get_u64()?;
            acct.lock_wait = r.get_u64()?;
            acct.idle = r.get_u64()?;
        }
        self.fault_stats.restore_ckpt(r)?;
        self.trace = if r.get_bool()? {
            let len = r.get_len()?;
            let mut trace = Vec::with_capacity(len);
            for _ in 0..len {
                let pe = PeId(r.get_u32()?);
                let op = mem_op_from_tag(r.get_u8()?)?;
                let addr = r.get_u64()?;
                let area = area_from_tag(r.get_u8()?)?;
                trace.push(Access::new(pe, op, addr, area));
            }
            Some(trace)
        } else {
            None
        };
        self.pending_error = None;
        // Idle steps taken before the restore say nothing about the
        // restored state.
        self.progress += 1;
        Ok(())
    }

    /// The blocked PEs, if at least one PE is blocked and every other
    /// PE has been quiet since the last step that made progress. Such a
    /// machine never moves again: a lock is released only by a memory
    /// operation, and no PE that could issue one will.
    fn stuck_pes(&self) -> Option<Vec<PeId>> {
        let mut pes = Vec::new();
        for (i, &blocked) in self.blocked.iter().enumerate() {
            if blocked {
                pes.push(PeId(i as u32));
            } else if self.quiet_at[i] != self.progress {
                return None;
            }
        }
        (!pes.is_empty()).then_some(pes)
    }

    /// Builds the deadlock error for the all-blocked fallback.
    fn deadlock_error(&mut self) -> SimError {
        let clock = self.clocks.iter().copied().max().unwrap_or(0);
        let cycle = find_cycle(&self.wait_edges()).unwrap_or_else(|| {
            // No recorded cycle (possible only if holder bookkeeping is
            // incomplete): report every blocked PE.
            (0..self.clocks.len() as u32).map(PeId).collect()
        });
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.deadlock(&cycle, clock);
        }
        SimError::Deadlock { cycle, clock }
    }
}

/// The PE the scheduler steps next: the unblocked PE with the lowest
/// clock, ties to the lowest id, or `None` when every PE is blocked.
///
/// One scan on every step. A blocked PE's key is `u64::MAX`, so the
/// scan makes one comparison per PE, which the compiler turns into
/// conditional moves: which PE is lowest changes almost every step, so
/// a branch on it would mispredict. A key of `u64::MAX` never wins, so
/// when no PE does, the first unblocked PE (whose clock must be
/// `u64::MAX`) is the pick. DESIGN "The engine's step loop" gives the
/// forms measured against this one.
#[inline]
fn next_pe(clocks: &[u64], blocked: &[bool]) -> Option<usize> {
    let mut pick = usize::MAX;
    let mut low = u64::MAX;
    for (i, (&clock, &blocked)) in clocks.iter().zip(blocked).enumerate() {
        let key = clock | u64::from(blocked).wrapping_neg();
        if key < low {
            low = key;
            pick = i;
        }
    }
    if pick == usize::MAX {
        return blocked.iter().position(|&b| !b);
    }
    Some(pick)
}

/// Decodes a [`MemOp`] checkpoint tag, its [`MemOp::index`].
fn mem_op_from_tag(tag: u8) -> Result<MemOp, pim_ckpt::CkptError> {
    MemOp::from_index(usize::from(tag)).ok_or_else(|| pim_ckpt::CkptError::Corrupt {
        detail: format!("unknown memory op tag {tag}"),
    })
}

/// Decodes a [`pim_trace::StorageArea`] checkpoint tag.
fn area_from_tag(tag: u8) -> Result<pim_trace::StorageArea, pim_ckpt::CkptError> {
    pim_trace::StorageArea::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| pim_ckpt::CkptError::Corrupt {
            detail: format!("unknown storage area tag {tag}"),
        })
}

/// The engine-backed [`MemoryPort`] handed to a process step.
struct EnginePort<'a, S> {
    system: &'a mut S,
    clock: &'a mut u64,
    bus_free: &'a mut u64,
    pe: PeId,
    stalled: bool,
    // Each woken waiter with the lock word that released it, so the
    // scheduler can stamp the lock-wait span with its address and area.
    woken: Vec<(PeId, Addr, pim_trace::StorageArea)>,
    account: &'a mut PeCycles,
    observer: &'a mut Option<Box<dyn Observer>>,
    trace: &'a mut Option<Vec<Access>>,
    fault_plan: Option<&'a FaultPlan>,
    fault_stats: &'a mut FaultStats,
    // Holder of the lock whose `LH` refusal stalled this step — the
    // wait-for edge the deadlock detector records.
    lock_holder: Option<PeId>,
    error: &'a mut Option<SimError>,
}

impl<S: MemorySystem> MemoryPort for EnginePort<'_, S> {
    fn op(&mut self, op: MemOp, addr: Addr, data: Option<Word>) -> PortValue {
        if self.stalled {
            // The step is poisoned; refuse further work so the process
            // aborts cleanly and re-runs after the wake-up.
            return PortValue::Stall;
        }
        *self.clock += 1;
        let issue = *self.clock;
        self.system.set_now(issue);
        let outcome = match self.system.access(self.pe, op, addr, data) {
            Ok(outcome) => outcome,
            Err(error) => {
                // Protocol misuse is a process bug, but not a reason to
                // kill the host: poison the step and surface a
                // structured diagnostic through the engine.
                *self.error = Some(SimError::Protocol {
                    pe: self.pe,
                    addr,
                    error,
                });
                self.stalled = true;
                return PortValue::Stall;
            }
        };
        match outcome {
            Outcome::Done {
                value,
                bus_cycles,
                woken,
                ..
            } => {
                if bus_cycles > 0 {
                    // Pure arbitration, optionally through the fault plan.
                    // Fault decisions key on the issue cycle and PE id
                    // only, so the injected schedule is a pure function of
                    // the simulated run.
                    let grant = match self.fault_plan {
                        Some(plan) => {
                            let fg = arbitrate_with_faults(
                                plan,
                                *self.bus_free,
                                *self.clock,
                                bus_cycles,
                                self.pe,
                            );
                            if !fg.events.is_empty() {
                                self.fault_stats.absorb(&fg);
                                if let Some(obs) = self.observer.as_deref_mut() {
                                    for ev in &fg.events {
                                        obs.fault_injected(self.pe, ev.kind.label(), ev.cycle);
                                    }
                                    obs.fault_recovered(
                                        self.pe,
                                        fg.events.len() as u32,
                                        fg.penalty,
                                        fg.grant.bus_free,
                                    );
                                }
                            }
                            fg.grant
                        }
                        None => pim_bus::arbitrate(*self.bus_free, *self.clock, bus_cycles),
                    };
                    *self.clock = grant.bus_free;
                    *self.bus_free = grant.bus_free;
                    self.account.bus_wait += grant.wait;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        let area = self.system.area_map().area(addr);
                        obs.bus_grant(
                            self.pe,
                            op,
                            area,
                            issue,
                            grant.wait - bus_cycles,
                            bus_cycles,
                        );
                    }
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    let done = *self.clock;
                    match op {
                        MemOp::LockRead => {
                            let area = self.system.area_map().area(addr);
                            obs.lock_acquired(self.pe, addr, area, done);
                        }
                        MemOp::WriteUnlock | MemOp::Unlock => {
                            let area = self.system.area_map().area(addr);
                            obs.lock_released(self.pe, addr, area, done, &woken);
                        }
                        _ => {}
                    }
                }
                if !woken.is_empty() {
                    let area = self.system.area_map().area(addr);
                    self.woken
                        .extend(woken.into_iter().map(|w| (w, addr, area)));
                }
                if let Some(trace) = self.trace.as_mut() {
                    trace.push(Access::new(
                        self.pe,
                        op,
                        addr,
                        self.system.area_map().area(addr),
                    ));
                }
                PortValue::Value(value)
            }
            Outcome::LockBusy { holder } => {
                self.stalled = true;
                self.lock_holder = Some(holder);
                PortValue::Stall
            }
        }
    }

    fn peek(&self, addr: Addr) -> Word {
        self.system.peek(addr)
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        self.system.poke(addr, value);
    }

    fn area_map(&self) -> &AreaMap {
        self.system.area_map()
    }

    fn now(&self) -> u64 {
        *self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_cache::{PimSystem, SystemConfig};
    use pim_trace::StorageArea;

    /// Two PEs ping-ponging a counter under locks until it reaches a
    /// limit; exercises stalls, wake-ups and bus arbitration end to end.
    struct LockPingPong {
        addr: Addr,
        limit: Word,
        holding: [bool; 2],
    }

    impl Process for LockPingPong {
        fn pe_count(&self) -> u32 {
            2
        }

        fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
            let i = pe.index();
            if self.holding[i] {
                // Second half of the split critical section: increment.
                let v = port.peek(self.addr);
                port.write_unlock(self.addr, v + 1)
                    .expect_value("uw under held lock");
                self.holding[i] = false;
                return StepOutcome::Ran;
            }
            match port.lock_read(self.addr) {
                PortValue::Stall => StepOutcome::Stalled,
                PortValue::Value(v) if v >= self.limit => {
                    port.unlock(self.addr).expect_value("unlock");
                    StepOutcome::Finished
                }
                PortValue::Value(_) => {
                    // Hold the lock across a step boundary on purpose to
                    // manufacture LWAIT conflicts.
                    self.holding[i] = true;
                    StepOutcome::Ran
                }
            }
        }
    }

    #[test]
    fn lock_ping_pong_terminates_and_counts_conflicts() {
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let addr = system.area_map().base(StorageArea::Heap);
        let mut engine = Engine::new(system, 2);
        let mut proc = LockPingPong {
            addr,
            limit: 50,
            holding: [false, false],
        };
        let stats = engine.run(&mut proc, 100_000).unwrap();
        assert!(stats.finished, "ping-pong must terminate");
        let sys = engine.system();
        assert_eq!(sys.peek(addr), 50);
        // Cross-step lock holds make conflicts and LWAIT wake-ups happen.
        assert!(sys.lock_stats().lr_refused > 0, "expected lock conflicts");
        assert!(
            sys.lock_stats().unlock_no_waiter < sys.lock_stats().unlock_total,
            "some unlocks must have had waiters"
        );
        assert!(stats.makespan > 0);
    }

    /// A process that idles until an external flag appears, then finishes.
    struct Idler {
        flag_addr: Addr,
        polls: u32,
    }

    impl Process for Idler {
        fn pe_count(&self) -> u32 {
            1
        }
        fn step(&mut self, _pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
            self.polls += 1;
            if self.polls == 5 {
                port.poke(self.flag_addr, 1);
            }
            if port.peek(self.flag_addr) == 1 {
                StepOutcome::Finished
            } else {
                StepOutcome::Idle
            }
        }
    }

    #[test]
    fn idle_steps_advance_the_clock() {
        let system = PimSystem::new(SystemConfig {
            pes: 1,
            ..SystemConfig::default()
        });
        let flag = system.area_map().base(StorageArea::Communication);
        let mut engine = Engine::new(system, 1);
        engine.set_idle_poll_cycles(10);
        let stats = engine
            .run(
                &mut Idler {
                    flag_addr: flag,
                    polls: 0,
                },
                1_000,
            )
            .unwrap();
        assert!(stats.finished);
        assert_eq!(stats.makespan, 40, "four idle polls × 10 cycles");
    }

    #[test]
    fn bus_serializes_across_pes() {
        // Both PEs miss on different blocks: the second transaction must
        // start after the first releases the bus.
        struct TwoMisses {
            a: Addr,
            b: Addr,
            done: [bool; 2],
        }
        impl Process for TwoMisses {
            fn pe_count(&self) -> u32 {
                2
            }
            fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
                if self.done.iter().all(|&d| d) {
                    return StepOutcome::Finished;
                }
                if self.done[pe.index()] {
                    return StepOutcome::Idle;
                }
                let addr = if pe.index() == 0 { self.a } else { self.b };
                port.read(addr).expect_value("read");
                self.done[pe.index()] = true;
                StepOutcome::Ran
            }
        }
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let h = system.area_map().base(StorageArea::Heap);
        let mut engine = Engine::new(system, 2);
        let stats = engine
            .run(
                &mut TwoMisses {
                    a: h,
                    b: h + 64,
                    done: [false, false],
                },
                100,
            )
            .unwrap();
        assert!(stats.finished);
        // Each miss is 13 bus cycles; serialized they end at ≥ 26.
        assert!(
            stats.makespan >= 26,
            "makespan {} too small",
            stats.makespan
        );
    }

    fn heap_trace(ops: &[(u32, MemOp, u64)]) -> (PimSystem, Vec<Access>) {
        let pes = 1 + ops.iter().map(|&(pe, _, _)| pe).max().unwrap_or(0);
        let system = PimSystem::new(SystemConfig {
            pes,
            ..SystemConfig::default()
        });
        let heap = system.area_map().base(StorageArea::Heap);
        let trace = ops
            .iter()
            .map(|&(pe, op, off)| Access::new(PeId(pe), op, heap + off, StorageArea::Heap))
            .collect();
        (system, trace)
    }

    #[test]
    fn a_lock_held_by_a_finished_stream_is_a_stuck_replay() {
        // PE0 locks a word and its stream ends; PE1 then blocks on that
        // lock, and nothing left could ever release it.
        let (system, trace) = heap_trace(&[
            (0, MemOp::LockRead, 0),
            (1, MemOp::Read, 0x10),
            (1, MemOp::Read, 0x20),
            (1, MemOp::LockRead, 0),
            (1, MemOp::Unlock, 0),
        ]);
        let mut replayer = crate::Replayer::from_merged(&trace, 2);
        let mut engine = Engine::new(system, 2);
        let err = engine.run(&mut replayer, u64::MAX).unwrap_err();
        assert_eq!(err, SimError::ReplayStuck { pes: vec![PeId(1)] });
    }

    #[test]
    fn a_blocked_pe_beside_an_idle_one_is_not_stuck_while_the_holder_runs() {
        // PE2 finishes its one access early and idles while PE1 waits
        // on PE0's lock; PE0 is still working and releases it.
        let (system, trace) = heap_trace(&[
            (0, MemOp::LockRead, 0),
            (0, MemOp::Read, 0x10),
            (0, MemOp::Read, 0x20),
            (0, MemOp::Read, 0x30),
            (0, MemOp::Unlock, 0),
            (1, MemOp::LockRead, 0),
            (1, MemOp::Unlock, 0),
            (2, MemOp::Read, 0x40),
        ]);
        let mut replayer = crate::Replayer::from_merged(&trace, 3);
        let mut engine = Engine::new(system, 3);
        let stats = engine.run(&mut replayer, u64::MAX).unwrap();
        assert!(stats.finished);
        assert!(
            engine.system().lock_stats().lr_refused > 0,
            "PE1 must block"
        );
    }

    /// The pick as the engine first wrote it, kept as the oracle that
    /// pins [`next_pe`]'s order.
    fn oracle_pick(clocks: &[u64], blocked: &[bool]) -> Option<usize> {
        clocks
            .iter()
            .enumerate()
            .filter(|&(i, _)| !blocked[i])
            .min_by_key(|&(i, &c)| (c, i))
            .map(|(i, _)| i)
    }

    /// Clocks drawn mostly from a few small values, so ties are common,
    /// with whole-range values and the top of the range mixed in.
    fn clock() -> impl proptest::prelude::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![
            4 => 0..4u64,
            2 => any::<u64>(),
            1 => Just(u64::MAX),
            1 => Just(u64::MAX - 1),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4_000))]
        #[test]
        fn next_pe_matches_the_min_by_key_oracle(
            pes in proptest::collection::vec((clock(), 0..3u8), 0..17),
        ) {
            let clocks: Vec<u64> = pes.iter().map(|&(c, _)| c).collect();
            // One PE in three blocked, so small machines are often all
            // blocked.
            let blocked: Vec<bool> = pes.iter().map(|&(_, b)| b == 0).collect();
            proptest::prop_assert_eq!(
                next_pe(&clocks, &blocked),
                oracle_pick(&clocks, &blocked)
            );
        }
    }

    #[test]
    fn next_pe_edge_cases_match_the_oracle() {
        let cases: &[(&[u64], &[bool], Option<usize>)] = &[
            (&[], &[], None),
            (&[5, 5, 5], &[true, true, true], None),
            (&[u64::MAX, u64::MAX], &[false, false], Some(0)),
            (&[0, u64::MAX], &[true, false], Some(1)),
            (&[3, u64::MAX, u64::MAX], &[true, false, false], Some(1)),
            (&[u64::MAX, 7], &[false, false], Some(1)),
            (&[3, 1, 1, 0], &[false, false, false, true], Some(1)),
            (&[9, 2, 2], &[false, true, false], Some(2)),
        ];
        for &(clocks, blocked, want) in cases {
            assert_eq!(next_pe(clocks, blocked), want, "{clocks:?} {blocked:?}");
            assert_eq!(oracle_pick(clocks, blocked), want, "{clocks:?} {blocked:?}");
        }
    }

    #[test]
    fn step_limit_reports_unfinished() {
        struct Forever;
        impl Process for Forever {
            fn pe_count(&self) -> u32 {
                1
            }
            fn step(&mut self, _pe: PeId, _port: &mut dyn MemoryPort) -> StepOutcome {
                StepOutcome::Idle
            }
        }
        let system = PimSystem::new(SystemConfig {
            pes: 1,
            ..SystemConfig::default()
        });
        let mut engine = Engine::new(system, 1);
        let stats = engine.run(&mut Forever, 10).unwrap();
        assert!(!stats.finished);
        assert_eq!(stats.steps, 10);
    }
}
