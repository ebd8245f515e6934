//! Dereferencing, binding (with per-word locks), active unification, and
//! resumption of suspended goals.

use crate::layout::SUSP_RECORD_WORDS;
use crate::machine::{pv, Abort, Cluster, Mres};
use crate::words::Tagged;
use pim_trace::{Addr, MemoryPort, Word};

/// Result of dereferencing a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Deref {
    /// A bound value.
    Bound(Tagged),
    /// An unbound variable: the address of its cell.
    Unbound(Addr),
}

/// Follows reference chains with counted reads until a value or an
/// unbound cell (a self-reference or a hooked cell).
pub(crate) fn deref(port: &mut dyn MemoryPort, mut w: Word) -> Mres<Deref> {
    loop {
        match Tagged::decode(w) {
            Tagged::Ref(a) => {
                let w2 = pv(port.read(a))?;
                if w2 == 0 {
                    panic!(
                        "cell {a:#x} reads zero (area {:?})",
                        port.area_map().try_area(a)
                    );
                }
                match Tagged::decode(w2) {
                    Tagged::Ref(b) if b == a => return Ok(Deref::Unbound(a)),
                    Tagged::Hook(_) => return Ok(Deref::Unbound(a)),
                    _ => w = w2,
                }
            }
            Tagged::Hook(_) => {
                unreachable!("hooks live in cells, never in registers")
            }
            t => return Ok(Deref::Bound(t)),
        }
    }
}

/// Reads a cell into register form: a hooked (unbound-with-waiters) cell
/// reads as a reference to itself, so the variable's identity survives.
pub(crate) fn read_cell(port: &mut dyn MemoryPort, addr: Addr) -> Mres<Word> {
    let w = pv(port.read(addr))?;
    if w == 0 {
        panic!(
            "cell {addr:#x} reads zero (area {:?})",
            port.area_map().try_area(addr)
        );
    }
    Ok(match Tagged::decode(w) {
        Tagged::Hook(_) => Tagged::Ref(addr).encode(),
        _ => w,
    })
}

/// Outcome of attempting to bind a variable cell.
enum BindResult {
    /// Bound; any suspended goals were resumed.
    Done,
    /// Another PE bound it first; here is the value found.
    WasBound(Word),
}

impl Cluster {
    /// Active unification (body `=` and `:=` against bound variables).
    ///
    /// Returns `false` on a top-level mismatch (program failure in
    /// committed-choice languages). Bindings lock the variable cell
    /// (`LR`), re-check under the lock, write-unlock (`UW`), and resume
    /// any hooked goals onto this PE's goal list.
    pub(crate) fn unify(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        wa: Word,
        wb: Word,
        depth: u32,
    ) -> Mres<bool> {
        if depth > 10_000 {
            return Err(Abort::Fail("unification recursion too deep".into()));
        }
        let da = deref(port, wa)?;
        let db = deref(port, wb)?;
        match (da, db) {
            (Deref::Unbound(a), Deref::Unbound(b)) => {
                if a == b {
                    return Ok(true);
                }
                // Bind the higher cell to the lower (older) one so chains
                // stay acyclic; lock order is by address via this rule.
                let (young, old) = if a > b { (a, b) } else { (b, a) };
                match self.bind(pe, port, young, Tagged::Ref(old).encode())? {
                    BindResult::Done => Ok(true),
                    BindResult::WasBound(w) => {
                        self.unify(pe, port, w, Tagged::Ref(old).encode(), depth + 1)
                    }
                }
            }
            (Deref::Unbound(a), Deref::Bound(v)) | (Deref::Bound(v), Deref::Unbound(a)) => {
                match self.bind(pe, port, a, v.encode())? {
                    BindResult::Done => Ok(true),
                    BindResult::WasBound(w) => self.unify(pe, port, w, v.encode(), depth + 1),
                }
            }
            (Deref::Bound(x), Deref::Bound(y)) => self.unify_bound(pe, port, x, y, depth),
        }
    }

    fn unify_bound(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        x: Tagged,
        y: Tagged,
        depth: u32,
    ) -> Mres<bool> {
        match (x, y) {
            (Tagged::Int(a), Tagged::Int(b)) => Ok(a == b),
            (Tagged::Atom(a), Tagged::Atom(b)) => Ok(a == b),
            (Tagged::Nil, Tagged::Nil) => Ok(true),
            (Tagged::List(a), Tagged::List(b)) => {
                if a == b {
                    return Ok(true);
                }
                let car_a = read_cell(port, a)?;
                let car_b = read_cell(port, b)?;
                if !self.unify(pe, port, car_a, car_b, depth + 1)? {
                    return Ok(false);
                }
                let cdr_a = read_cell(port, a + 1)?;
                let cdr_b = read_cell(port, b + 1)?;
                self.unify(pe, port, cdr_a, cdr_b, depth + 1)
            }
            (Tagged::Struct(a), Tagged::Struct(b)) => {
                if a == b {
                    return Ok(true);
                }
                let fa = pv(port.read(a))?;
                let fb = pv(port.read(b))?;
                let (ia, na) = match Tagged::decode(fa) {
                    Tagged::Functor(i, n) => (i, n),
                    other => panic!("structure without functor: {other:?}"),
                };
                let (ib, nb) = match Tagged::decode(fb) {
                    Tagged::Functor(i, n) => (i, n),
                    other => panic!("structure without functor: {other:?}"),
                };
                if ia != ib || na != nb {
                    return Ok(false);
                }
                for i in 0..u64::from(na) {
                    let ca = read_cell(port, a + 1 + i)?;
                    let cb = read_cell(port, b + 1 + i)?;
                    if !self.unify(pe, port, ca, cb, depth + 1)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Binds the variable cell at `cell` to `value` under the hardware
    /// lock, resuming hooked goals. If another PE bound the cell first,
    /// returns the value it found instead.
    fn bind(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        cell: Addr,
        value: Word,
    ) -> Mres<BindResult> {
        let w = pv(port.lock_read(cell))?; // stall point
        match Tagged::decode(w) {
            Tagged::Ref(a) if a == cell => {
                pv(port.write_unlock(cell, value))?;
                Ok(BindResult::Done)
            }
            Tagged::Hook(chain) => {
                pv(port.write_unlock(cell, value))?;
                self.resume_chain(pe, port, chain)?;
                Ok(BindResult::Done)
            }
            _ => {
                // Lost the race: someone bound it between our deref and
                // our lock. Unlock and let the caller re-unify.
                pv(port.unlock(cell))?;
                Ok(BindResult::WasBound(w))
            }
        }
    }

    /// Walks a suspension-record chain, moving every still-floating goal
    /// onto this PE's goal list (goal migration to the binder) and
    /// recycling the records. Suspension records are read-once: `ER`/`RP`.
    pub(crate) fn resume_chain(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        chain: Addr,
    ) -> Mres<()> {
        let mut cur = Some(chain);
        while let Some(c) = cur {
            let mut words = [0; SUSP_RECORD_WORDS as usize];
            Cluster::read_record(self.config.block_words, port, c, &mut words)?;
            let goal_rec = match Tagged::decode(words[0]) {
                Tagged::Ref(a) => a,
                other => panic!("suspension record {c:#x} head {other:?}"),
            };
            cur = match Tagged::decode(words[1]) {
                Tagged::Nil => None,
                Tagged::Ref(a) => Some(a),
                other => panic!("suspension record {c:#x} next {other:?}"),
            };
            // One-shot resume: the first binder wins; stale hooks from
            // earlier suspensions of a reused record are skipped.
            if self.floating.remove(&goal_rec) {
                self.pes[pe].deque.push_front(goal_rec);
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.resumption(pim_trace::PeId(pe as u32), port.now(), goal_rec);
                }
            }
            let owner = self.susp_owner(c)?;
            self.pes[owner].alloc.free_susp_record(c);
        }
        Ok(())
    }
}
