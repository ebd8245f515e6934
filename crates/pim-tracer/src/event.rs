//! The trace event model and the bounded, deterministic ring buffer.
//!
//! Every hook of [`pim_obs::Observer`] maps onto one [`Event`], stamped
//! with the simulated cycle at which it happened (`ts`). Events carry a
//! derived **total order** — `(ts, pe, kind)` — and the ring keeps the
//! `cap` *smallest* events under that order rather than the most
//! recently arrived ones. This makes the retained set a pure function
//! of the emitted multiset. Events do not arrive in timestamp order (a
//! bus span or a lock wait is reported when it ends but stamped with
//! the cycle it began), yet any arrival order of the same events
//! retains (and later exports) a byte-identical trace.
//!
//! Overflow is never silent: [`TraceBuffer::emitted`] counts every event
//! offered and [`TraceBuffer::dropped`] is always `emitted - recorded`.

use pim_obs::{CohState, Observer};
use pim_trace::{Addr, MemOp, PeId, StorageArea};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Default ring capacity when `--trace FILE` gives no `:cap=N` suffix.
pub const DEFAULT_CAP: usize = 1 << 20;

/// What happened. Ordered so [`Event`] has a total order; the variant
/// order here is part of the on-disk sort (ties on `(ts, pe)` resolve
/// by kind), so append new variants at the point that reads best in a
/// timeline, not necessarily at the end.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A coherence-state transition of one cached block. Instant.
    ///
    /// Causal link: a transition stamped with cycle `c` on PE `p` was
    /// produced by the memory access *issued* at `c` by `p`; if a
    /// [`EventKind::Bus`] span on the same PE starts at the same `c`,
    /// that bus transaction serviced this miss.
    Transition {
        /// Storage area of the block.
        area: StorageArea,
        /// State before the access.
        from: CohState,
        /// State after the access.
        to: CohState,
    },
    /// A bus transaction span: `[ts, ts + wait + hold)`, where `wait`
    /// is queueing delay behind earlier holders and `hold` is this
    /// transaction's own bus occupancy `[ts + wait, ts + wait + hold)`.
    Bus {
        /// The operation that went to the bus.
        op: MemOp,
        /// Storage area of the access.
        area: StorageArea,
        /// Queueing cycles before the grant.
        wait: u64,
        /// Bus-hold cycles of the transaction itself.
        hold: u64,
    },
    /// A lock-wait span `[ts, ts + dur)`: the PE stalled on a locked
    /// word until the holder's unlock at `ts + dur` woke it.
    ///
    /// Causal link: the matching [`EventKind::LockReleased`] has the
    /// same `addr` and cycle `ts + dur`; its PE is the lock holder the
    /// critical path continues on.
    LockWait {
        /// The locked word.
        addr: Addr,
        /// Storage area of the word.
        area: StorageArea,
        /// Stall length in cycles.
        dur: u64,
    },
    /// A successful `LR` lock-read completed at `ts`. Instant.
    LockAcquired {
        /// The locked word.
        addr: Addr,
        /// Storage area of the word.
        area: StorageArea,
    },
    /// A `UW`/`U` unlock completed at `ts`, waking `woken` waiters.
    /// Instant.
    LockReleased {
        /// The unlocked word.
        addr: Addr,
        /// Storage area of the word.
        area: StorageArea,
        /// How many suspended PEs this unlock woke.
        woken: u32,
    },
    /// One KL1 goal reduction committed. Instant.
    Reduction,
    /// A goal suspended on an unbound variable. Instant.
    ///
    /// Causal link: `goal` is the goal-record address; the
    /// [`EventKind::Resumption`] that carries the same `goal` is the
    /// binder waking this suspension.
    Suspension {
        /// Goal-record address (the suspension's identity).
        goal: Addr,
    },
    /// A suspended goal was resumed by a binding. Instant.
    Resumption {
        /// Goal-record address of the resumed goal.
        goal: Addr,
    },
    /// A local garbage collection finished at `ts`. Instant.
    Gc {
        /// Words copied to the new semispace.
        words: u64,
    },
    /// Goal-queue depth sample. Rendered as a counter track.
    GoalDepth {
        /// Queue depth after the sampled scheduler step.
        depth: u64,
    },
    /// A fault was injected. Instant.
    FaultInjected {
        /// Fault kind label from `pim-fault`.
        kind: &'static str,
    },
    /// A fault-recovery sequence completed at `ts`. Instant.
    FaultRecovered {
        /// Faults absorbed by this recovery.
        faults: u32,
        /// Total recovery penalty in cycles.
        penalty: u64,
    },
    /// The watchdog fired for a stalled PE. Instant.
    Watchdog {
        /// Cycle budget that was exceeded.
        budget: u64,
    },
    /// Deadlock detected among `pes`. Instant, attributed to the
    /// lowest-numbered participant.
    Deadlock {
        /// All PEs in the cycle.
        pes: Vec<PeId>,
    },
}

/// One cycle-stamped trace event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Simulated cycle: the instant itself, or a span's start.
    pub ts: u64,
    /// The PE the event belongs to.
    pub pe: PeId,
    /// What happened.
    pub kind: EventKind,
}

/// Bounded event store keeping the `cap` smallest events by the total
/// `(ts, pe, kind)` order.
///
/// Steady state allocates nothing: the backing heap grows to `cap + 1`
/// slots and stays there; past capacity every insert is one push and
/// one pop. (The one exception is [`EventKind::Deadlock`]'s PE list —
/// a terminal, at-most-once event.)
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    heap: BinaryHeap<Event>,
    emitted: u64,
}

impl TraceBuffer {
    /// A buffer retaining at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        TraceBuffer {
            cap,
            // +1: record() pushes before popping the largest back out.
            heap: BinaryHeap::with_capacity(cap.saturating_add(1)),
            emitted: 0,
        }
    }

    /// Offers one event; past capacity the largest event (latest by the
    /// total order) is discarded and counted in [`TraceBuffer::dropped`].
    pub fn record(&mut self, ev: Event) {
        self.emitted += 1;
        if self.cap == 0 {
            return;
        }
        self.heap.push(ev);
        if self.heap.len() > self.cap {
            self.heap.pop();
        }
    }

    /// Events offered so far, recorded or not.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events currently retained.
    pub fn recorded(&self) -> usize {
        self.heap.len()
    }

    /// Events discarded at the ring cap: always `emitted - recorded`.
    pub fn dropped(&self) -> u64 {
        self.emitted - self.heap.len() as u64
    }

    /// Drains the retained events in ascending `(ts, pe, kind)` order.
    pub fn into_sorted(self) -> Vec<Event> {
        self.heap.into_sorted_vec()
    }

    /// Checkpoint hook: serializes the capacity, the emitted count, and
    /// the retained events in ascending order (sorting makes the wire
    /// form independent of heap layout, hence of arrival order).
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.cap as u64);
        w.put_u64(self.emitted);
        let mut events: Vec<Event> = self.heap.iter().cloned().collect();
        events.sort();
        w.put_len(events.len());
        for ev in &events {
            save_event(ev, w);
        }
    }

    /// Checkpoint hook: restores a buffer saved by
    /// [`TraceBuffer::save_ckpt`].
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the ring capacity disagrees
    /// (the capacity comes from the `--trace` spec and must match across
    /// resume); [`pim_ckpt::CkptError::Corrupt`] on impossible counts or
    /// unknown event encodings.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let cap = r.get_u64()? as usize;
        if cap != self.cap {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("trace ring capacity {} vs checkpoint {cap}", self.cap),
            });
        }
        self.emitted = r.get_u64()?;
        let n = r.get_len()?;
        if n > cap || (n as u64) > self.emitted {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: format!(
                    "trace ring retains {n} events with cap {cap}, emitted {}",
                    self.emitted
                ),
            });
        }
        self.heap.clear();
        for _ in 0..n {
            self.heap.push(read_event(r)?);
        }
        Ok(())
    }
}

fn save_event(ev: &Event, w: &mut pim_ckpt::Writer) {
    w.put_u64(ev.ts);
    w.put_u32(ev.pe.0);
    match &ev.kind {
        EventKind::Transition { area, from, to } => {
            w.put_u8(0);
            w.put_u8(area.index() as u8);
            w.put_u8(from.index() as u8);
            w.put_u8(to.index() as u8);
        }
        EventKind::Bus {
            op,
            area,
            wait,
            hold,
        } => {
            w.put_u8(1);
            w.put_u8(op_tag(*op));
            w.put_u8(area.index() as u8);
            w.put_u64(*wait);
            w.put_u64(*hold);
        }
        EventKind::LockWait { addr, area, dur } => {
            w.put_u8(2);
            w.put_u64(*addr);
            w.put_u8(area.index() as u8);
            w.put_u64(*dur);
        }
        EventKind::LockAcquired { addr, area } => {
            w.put_u8(3);
            w.put_u64(*addr);
            w.put_u8(area.index() as u8);
        }
        EventKind::LockReleased { addr, area, woken } => {
            w.put_u8(4);
            w.put_u64(*addr);
            w.put_u8(area.index() as u8);
            w.put_u32(*woken);
        }
        EventKind::Reduction => w.put_u8(5),
        EventKind::Suspension { goal } => {
            w.put_u8(6);
            w.put_u64(*goal);
        }
        EventKind::Resumption { goal } => {
            w.put_u8(7);
            w.put_u64(*goal);
        }
        EventKind::Gc { words } => {
            w.put_u8(8);
            w.put_u64(*words);
        }
        EventKind::GoalDepth { depth } => {
            w.put_u8(9);
            w.put_u64(*depth);
        }
        EventKind::FaultInjected { kind } => {
            w.put_u8(10);
            w.put_str(kind);
        }
        EventKind::FaultRecovered { faults, penalty } => {
            w.put_u8(11);
            w.put_u32(*faults);
            w.put_u64(*penalty);
        }
        EventKind::Watchdog { budget } => {
            w.put_u8(12);
            w.put_u64(*budget);
        }
        EventKind::Deadlock { pes } => {
            w.put_u8(13);
            w.put_len(pes.len());
            for pe in pes {
                w.put_u32(pe.0);
            }
        }
    }
}

fn read_event(r: &mut pim_ckpt::Reader<'_>) -> Result<Event, pim_ckpt::CkptError> {
    let ts = r.get_u64()?;
    let pe = PeId(r.get_u32()?);
    let kind = match r.get_u8()? {
        0 => EventKind::Transition {
            area: area_from_tag(r.get_u8()?)?,
            from: coh_from_tag(r.get_u8()?)?,
            to: coh_from_tag(r.get_u8()?)?,
        },
        1 => EventKind::Bus {
            op: op_from_tag(r.get_u8()?)?,
            area: area_from_tag(r.get_u8()?)?,
            wait: r.get_u64()?,
            hold: r.get_u64()?,
        },
        2 => EventKind::LockWait {
            addr: r.get_u64()?,
            area: area_from_tag(r.get_u8()?)?,
            dur: r.get_u64()?,
        },
        3 => EventKind::LockAcquired {
            addr: r.get_u64()?,
            area: area_from_tag(r.get_u8()?)?,
        },
        4 => EventKind::LockReleased {
            addr: r.get_u64()?,
            area: area_from_tag(r.get_u8()?)?,
            woken: r.get_u32()?,
        },
        5 => EventKind::Reduction,
        6 => EventKind::Suspension { goal: r.get_u64()? },
        7 => EventKind::Resumption { goal: r.get_u64()? },
        8 => EventKind::Gc {
            words: r.get_u64()?,
        },
        9 => EventKind::GoalDepth {
            depth: r.get_u64()?,
        },
        10 => EventKind::FaultInjected {
            kind: pim_ckpt::intern(r.get_str()?),
        },
        11 => EventKind::FaultRecovered {
            faults: r.get_u32()?,
            penalty: r.get_u64()?,
        },
        12 => EventKind::Watchdog {
            budget: r.get_u64()?,
        },
        13 => {
            let n = r.get_len()?;
            let pes = (0..n)
                .map(|_| r.get_u32().map(PeId))
                .collect::<Result<Vec<_>, _>>()?;
            EventKind::Deadlock { pes }
        }
        other => {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: format!("unknown trace event tag {other}"),
            })
        }
    };
    Ok(Event { ts, pe, kind })
}

fn op_tag(op: MemOp) -> u8 {
    match MemOp::ALL.iter().position(|&o| o == op) {
        Some(i) => i as u8,
        None => unreachable!("MemOp::ALL covers every variant"),
    }
}

fn op_from_tag(tag: u8) -> Result<MemOp, pim_ckpt::CkptError> {
    MemOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| pim_ckpt::CkptError::Corrupt {
            detail: format!("unknown memory op tag {tag}"),
        })
}

fn area_from_tag(tag: u8) -> Result<StorageArea, pim_ckpt::CkptError> {
    StorageArea::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| pim_ckpt::CkptError::Corrupt {
            detail: format!("unknown storage area tag {tag}"),
        })
}

fn coh_from_tag(tag: u8) -> Result<CohState, pim_ckpt::CkptError> {
    CohState::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| pim_ckpt::CkptError::Corrupt {
            detail: format!("unknown coherence state tag {tag}"),
        })
}

/// Clonable handle to one shared [`TraceBuffer`], in the same style as
/// `pim_obs::SharedMetrics`: every component that wants to feed the
/// tracer gets its own boxed clone via [`SharedTracer::observer`].
#[derive(Debug, Clone)]
pub struct SharedTracer {
    buf: Rc<RefCell<TraceBuffer>>,
}

impl SharedTracer {
    /// A tracer whose ring retains at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        SharedTracer {
            buf: Rc::new(RefCell::new(TraceBuffer::with_capacity(cap))),
        }
    }

    /// A boxed observer clone feeding this tracer.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    /// Events offered so far.
    pub fn emitted(&self) -> u64 {
        self.buf.borrow().emitted()
    }

    /// Events currently retained.
    pub fn recorded(&self) -> usize {
        self.buf.borrow().recorded()
    }

    /// Events discarded at the ring cap.
    pub fn dropped(&self) -> u64 {
        self.buf.borrow().dropped()
    }

    /// Drains the buffer into ascending event order. Other clones keep
    /// working but feed a now-empty buffer; drain once, after the run.
    pub fn take_sorted(&self) -> Vec<Event> {
        let cap = self.buf.borrow().cap;
        self.buf
            .replace(TraceBuffer::with_capacity(cap))
            .into_sorted()
    }

    fn push(&mut self, ts: u64, pe: PeId, kind: EventKind) {
        self.buf.borrow_mut().record(Event { ts, pe, kind });
    }

    /// Checkpoint hook: serializes the shared ring. See
    /// [`TraceBuffer::save_ckpt`].
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.buf.borrow().save_ckpt(w);
    }

    /// Checkpoint hook: restores the shared ring in place, so every
    /// existing observer clone keeps feeding the restored buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceBuffer::restore_ckpt`] errors.
    pub fn restore_ckpt(&self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        self.buf.borrow_mut().restore_ckpt(r)
    }
}

impl Observer for SharedTracer {
    fn state_transition(
        &mut self,
        pe: PeId,
        area: StorageArea,
        from: CohState,
        to: CohState,
        cycle: u64,
    ) {
        self.push(cycle, pe, EventKind::Transition { area, from, to });
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
        self.push(
            issue,
            pe,
            EventKind::Bus {
                op,
                area,
                wait,
                hold: tx_cycles,
            },
        );
    }

    fn lock_wait(&mut self, pe: PeId, addr: Addr, area: StorageArea, wait: u64, resume_cycle: u64) {
        self.push(
            resume_cycle.saturating_sub(wait),
            pe,
            EventKind::LockWait {
                addr,
                area,
                dur: wait,
            },
        );
    }

    fn lock_acquired(&mut self, pe: PeId, addr: Addr, area: StorageArea, cycle: u64) {
        self.push(cycle, pe, EventKind::LockAcquired { addr, area });
    }

    fn lock_released(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
        cycle: u64,
        woken: &[PeId],
    ) {
        self.push(
            cycle,
            pe,
            EventKind::LockReleased {
                addr,
                area,
                woken: woken.len() as u32,
            },
        );
    }

    fn reduction(&mut self, pe: PeId, cycle: u64) {
        self.push(cycle, pe, EventKind::Reduction);
    }

    fn suspension(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        self.push(cycle, pe, EventKind::Suspension { goal });
    }

    fn resumption(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        self.push(cycle, pe, EventKind::Resumption { goal });
    }

    fn gc(&mut self, pe: PeId, cycle: u64, words_copied: u64) {
        self.push(
            cycle,
            pe,
            EventKind::Gc {
                words: words_copied,
            },
        );
    }

    fn goal_queue_depth(&mut self, pe: PeId, cycle: u64, depth: u64) {
        self.push(cycle, pe, EventKind::GoalDepth { depth });
    }

    fn fault_injected(&mut self, pe: PeId, kind: &'static str, cycle: u64) {
        self.push(cycle, pe, EventKind::FaultInjected { kind });
    }

    fn fault_recovered(&mut self, pe: PeId, faults: u32, penalty: u64, cycle: u64) {
        self.push(cycle, pe, EventKind::FaultRecovered { faults, penalty });
    }

    fn deadlock(&mut self, pes: &[PeId], cycle: u64) {
        let pe = pes.iter().copied().min().unwrap_or(PeId(0));
        self.push(cycle, pe, EventKind::Deadlock { pes: pes.to_vec() });
    }

    fn watchdog(&mut self, pe: PeId, clock: u64, budget: u64) {
        self.push(clock, pe, EventKind::Watchdog { budget });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, pe: u32) -> Event {
        Event {
            ts,
            pe: PeId(pe),
            kind: EventKind::Reduction,
        }
    }

    #[test]
    fn ring_keeps_smallest_and_counts_drops() {
        let mut buf = TraceBuffer::with_capacity(3);
        for ts in [9, 2, 7, 4, 1] {
            buf.record(ev(ts, 0));
        }
        assert_eq!(buf.emitted(), 5);
        assert_eq!(buf.recorded(), 3);
        assert_eq!(buf.dropped(), 2);
        let kept: Vec<u64> = buf.into_sorted().into_iter().map(|e| e.ts).collect();
        assert_eq!(kept, [1, 2, 4]);
    }

    #[test]
    fn retained_set_is_arrival_order_independent() {
        let mut a = TraceBuffer::with_capacity(4);
        let mut b = TraceBuffer::with_capacity(4);
        let events: Vec<Event> = (0..10).map(|i| ev(i * 3 % 10, (i % 4) as u32)).collect();
        for e in &events {
            a.record(e.clone());
        }
        for e in events.iter().rev() {
            b.record(e.clone());
        }
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    fn zero_cap_counts_but_stores_nothing() {
        let mut buf = TraceBuffer::with_capacity(0);
        buf.record(ev(5, 1));
        assert_eq!(buf.emitted(), 1);
        assert_eq!(buf.recorded(), 0);
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn shared_clones_feed_one_buffer() {
        let tracer = SharedTracer::with_capacity(16);
        let mut a = tracer.observer();
        let mut b = tracer.observer();
        a.reduction(PeId(0), 10);
        b.gc(PeId(1), 20, 64);
        b.suspension(PeId(1), 30, 0x40);
        assert_eq!(tracer.emitted(), 3);
        let evs = tracer.take_sorted();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].ts, 10);
        assert_eq!(evs[2].kind, EventKind::Suspension { goal: 0x40 });
        assert_eq!(tracer.recorded(), 0);
    }
}
