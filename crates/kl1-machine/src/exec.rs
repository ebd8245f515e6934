//! Instruction execution: one abstract instruction per engine micro-step.

use crate::machine::{pv, Abort, Cluster, Mres, Phase};
use crate::unify::{deref, read_cell, Deref};
use crate::words::Tagged;
use fghc::ast::{ArithOp, CmpOp};
use fghc::instr::{Const, Instr, Operand, SetOp, TypeTest};
use pim_trace::{Addr, MemOp, MemoryPort, Word};

/// Result of evaluating an arithmetic operand in a guard.
enum NumVal {
    Int(i64),
    Unbound(Addr),
    NotNum,
}

fn const_word(c: Const) -> Word {
    match c {
        Const::Int(i) => Tagged::Int(i).encode(),
        Const::Atom(a) => Tagged::Atom(a).encode(),
        Const::Nil => Tagged::Nil.encode(),
    }
}

/// The word a structure/cons slot being built at `slot_addr` receives.
/// A fresh variable is the slot itself, and its register gets a
/// reference to it.
fn slot_word(regs: &mut [Word], slot_addr: Addr, op: SetOp) -> Word {
    match op {
        SetOp::Reg(r) => regs[r as usize],
        SetOp::Const(c) => const_word(c),
        SetOp::Fresh(r) => {
            let w = Tagged::Ref(slot_addr).encode();
            regs[r as usize] = w;
            w
        }
    }
}

impl Cluster {
    /// Writes one fresh heap word (`DW` on block boundary).
    fn write_heap(&self, port: &mut dyn MemoryPort, addr: Addr, w: Word) -> Mres<()> {
        let op = if addr.is_multiple_of(self.config.block_words) {
            MemOp::DirectWrite
        } else {
            MemOp::Write
        };
        pv(port.op(op, addr, Some(w)))?;
        Ok(())
    }

    /// Resolves a structure/cons slot being built at `slot_addr`.
    fn set_slot(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        slot_addr: Addr,
        op: SetOp,
    ) -> Mres<()> {
        let w = slot_word(&mut self.pes[pe].regs, slot_addr, op);
        self.write_heap(port, slot_addr, w)
    }

    fn num_operand(&mut self, pe: usize, port: &mut dyn MemoryPort, op: Operand) -> Mres<NumVal> {
        let w = match op {
            Operand::Int(i) => return Ok(NumVal::Int(i)),
            Operand::Reg(r) => self.pes[pe].regs[r as usize],
        };
        Ok(match deref(port, w)? {
            Deref::Unbound(a) => NumVal::Unbound(a),
            Deref::Bound(Tagged::Int(i)) => NumVal::Int(i),
            Deref::Bound(_) => NumVal::NotNum,
        })
    }

    fn soft_fail(&mut self, pe: usize) {
        self.pes[pe].pc = self.pes[pe].clause_fail;
    }

    fn arith(op: ArithOp, a: i64, b: i64) -> Mres<i64> {
        let r = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => {
                if b == 0 {
                    return Err(Abort::Fail("division by zero".into()));
                }
                a.checked_div(b)
            }
            ArithOp::Mod => {
                if b == 0 {
                    return Err(Abort::Fail("modulo by zero".into()));
                }
                a.checked_rem(b)
            }
        };
        r.ok_or_else(|| Abort::Fail(format!("arithmetic overflow: {a} {op:?} {b}")))
    }

    fn compare(op: CmpOp, a: i64, b: i64) -> bool {
        match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Executes the instruction at the current `pc`.
    pub(crate) fn exec_instr(&mut self, pe: usize, port: &mut dyn MemoryPort) -> Mres<()> {
        let pc = self.pes[pe].pc;
        // Borrowed, not cloned. Only `Spawn` and `PutStruct` keep the
        // borrow into their arm, and there they touch `self.pes` by field
        // and call `&self` helpers.
        let instr = &self.program.code[pc];

        // Instruction fetch: one counted read per encoded word.
        let fetch_base = self.inst_base + self.program.word_offsets[pc];
        for k in 0..instr.words() {
            pv(port.op(MemOp::Read, fetch_base + k, None))?;
        }
        self.pes[pe].instructions += 1;

        let next = pc + 1;
        match *instr {
            // ---- clause control ----
            Instr::TryClause { next: fail_to } => {
                self.pes[pe].clause_fail = fail_to;
                self.pes[pe].pc = next;
            }
            Instr::SwitchOnTag {
                var,
                int,
                atom,
                nil,
                list,
                strct,
            } => {
                // First-argument indexing: pick the clause chain for X0's
                // tag, writing the dereferenced value back so the chain's
                // Wait instructions don't re-walk the reference path.
                let w = self.pes[pe].regs[0];
                match deref(port, w)? {
                    Deref::Unbound(a) => {
                        self.pes[pe].regs[0] = Tagged::Ref(a).encode();
                        self.pes[pe].pc = var;
                    }
                    Deref::Bound(t) => {
                        self.pes[pe].regs[0] = t.encode();
                        self.pes[pe].pc = match t {
                            Tagged::Int(_) => int,
                            Tagged::Atom(_) => atom,
                            Tagged::Nil => nil,
                            Tagged::List(_) => list,
                            Tagged::Struct(_) => strct,
                            other => unreachable!("{other:?} in argument register"),
                        };
                    }
                }
            }
            Instr::Retry {
                body,
                next: fail_to,
            } => {
                self.pes[pe].clause_fail = fail_to;
                self.pes[pe].pc = body;
            }
            Instr::NoMoreClauses => {
                if self.pes[pe].susp_vars.is_empty() {
                    let Some((proc, _)) = self.pes[pe].current else {
                        unreachable!("failing without a goal")
                    };
                    let (name, arity) = &self.program.proc_names[proc as usize];
                    return Err(Abort::Fail(format!(
                        "goal failed: no clause of {name}/{arity} applies"
                    )));
                }
                self.start_suspension(pe, port)?;
            }
            Instr::Commit => {
                self.pes[pe].susp_vars.clear();
                self.pes[pe].reductions += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.reduction(pim_trace::PeId(pe as u32), port.now());
                }
                self.pes[pe].pc = next;
            }
            Instr::Proceed => {
                self.pes[pe].current = None;
                self.pes[pe].phase = Phase::Fetch;
                self.live_goals -= 1;
            }
            Instr::Execute { proc, argc } => {
                // Same goal continues in registers: no goal-area traffic.
                self.begin_goal(pe, proc, argc);
            }
            Instr::Spawn { proc, ref args } => {
                let rec = self.pes[pe].alloc.goal_record();
                let regs = &self.pes[pe].regs;
                let words = args.iter().map(|&r| regs[r as usize]);
                self.write_goal_record(port, rec, proc, words)?;
                self.pes[pe].deque.push_front(rec);
                self.live_goals += 1;
                self.pes[pe].pc = next;
            }
            Instr::Halt => {
                self.halted = true;
            }

            // ---- passive part ----
            Instr::WaitConst { reg, val } => {
                let w = self.pes[pe].regs[reg as usize];
                match deref(port, w)? {
                    Deref::Unbound(a) => {
                        self.pes[pe].susp_vars.push(a);
                        self.soft_fail(pe);
                    }
                    Deref::Bound(t) => {
                        let want = Tagged::decode(const_word(val));
                        if t == want {
                            self.pes[pe].pc = next;
                        } else {
                            self.soft_fail(pe);
                        }
                    }
                }
            }
            Instr::WaitList { reg, car, cdr } => {
                let w = self.pes[pe].regs[reg as usize];
                match deref(port, w)? {
                    Deref::Unbound(a) => {
                        self.pes[pe].susp_vars.push(a);
                        self.soft_fail(pe);
                    }
                    Deref::Bound(Tagged::List(a)) => {
                        self.pes[pe].regs[car as usize] = read_cell(port, a)?;
                        self.pes[pe].regs[cdr as usize] = read_cell(port, a + 1)?;
                        self.pes[pe].pc = next;
                    }
                    Deref::Bound(_) => self.soft_fail(pe),
                }
            }
            Instr::WaitStruct {
                reg,
                functor,
                arity,
                dst,
            } => {
                let w = self.pes[pe].regs[reg as usize];
                match deref(port, w)? {
                    Deref::Unbound(a) => {
                        self.pes[pe].susp_vars.push(a);
                        self.soft_fail(pe);
                    }
                    Deref::Bound(Tagged::Struct(a)) => {
                        let f = pv(port.read(a))?;
                        match Tagged::decode(f) {
                            Tagged::Functor(fid, n) if fid == functor && n == arity => {
                                for i in 0..u64::from(arity) {
                                    self.pes[pe].regs[dst as usize + i as usize] =
                                        read_cell(port, a + 1 + i)?;
                                }
                                self.pes[pe].pc = next;
                            }
                            _ => self.soft_fail(pe),
                        }
                    }
                    Deref::Bound(_) => self.soft_fail(pe),
                }
            }
            Instr::GuardCmp { op, a, b } => {
                let va = self.num_operand(pe, port, a)?;
                let vb = self.num_operand(pe, port, b)?;
                match (va, vb) {
                    (NumVal::Int(x), NumVal::Int(y)) => {
                        if Self::compare(op, x, y) {
                            self.pes[pe].pc = next;
                        } else {
                            self.soft_fail(pe);
                        }
                    }
                    (NumVal::Unbound(v), _) | (_, NumVal::Unbound(v)) => {
                        self.pes[pe].susp_vars.push(v);
                        self.soft_fail(pe);
                    }
                    _ => self.soft_fail(pe),
                }
            }
            Instr::GuardIs { dst, op, a, b } => {
                let va = self.num_operand(pe, port, a)?;
                let vb = self.num_operand(pe, port, b)?;
                match (va, vb) {
                    (NumVal::Int(x), NumVal::Int(y)) => {
                        let r = Self::arith(op, x, y)?;
                        self.pes[pe].regs[dst as usize] = Tagged::Int(r).encode();
                        self.pes[pe].pc = next;
                    }
                    (NumVal::Unbound(v), _) | (_, NumVal::Unbound(v)) => {
                        self.pes[pe].susp_vars.push(v);
                        self.soft_fail(pe);
                    }
                    _ => self.soft_fail(pe),
                }
            }
            Instr::GuardType { test, reg } => {
                let w = self.pes[pe].regs[reg as usize];
                match deref(port, w)? {
                    Deref::Unbound(a) => {
                        self.pes[pe].susp_vars.push(a);
                        self.soft_fail(pe);
                    }
                    Deref::Bound(t) => {
                        let ok = match test {
                            TypeTest::Integer => matches!(t, Tagged::Int(_)),
                            TypeTest::Atom => matches!(t, Tagged::Atom(_) | Tagged::Nil),
                            TypeTest::List => matches!(t, Tagged::List(_)),
                        };
                        if ok {
                            self.pes[pe].pc = next;
                        } else {
                            self.soft_fail(pe);
                        }
                    }
                }
            }
            Instr::Otherwise => {
                if self.pes[pe].susp_vars.is_empty() {
                    self.pes[pe].pc = next;
                } else {
                    // Some earlier clause suspended: `otherwise` must not
                    // commit; suspend the goal.
                    self.start_suspension(pe, port)?;
                }
            }

            // ---- active part ----
            Instr::MoveReg { src, dst } => {
                self.pes[pe].regs[dst as usize] = self.pes[pe].regs[src as usize];
                self.pes[pe].pc = next;
            }
            Instr::PutConst { dst, val } => {
                self.pes[pe].regs[dst as usize] = const_word(val);
                self.pes[pe].pc = next;
            }
            Instr::PutVar { dst } => {
                let a = self.pes[pe].alloc.heap(1);
                self.write_heap(port, a, Tagged::Ref(a).encode())?;
                self.pes[pe].regs[dst as usize] = Tagged::Ref(a).encode();
                self.pes[pe].pc = next;
            }
            Instr::PutList { dst, car, cdr } => {
                let a = self.pes[pe].alloc.heap(2);
                self.set_slot(pe, port, a, car)?;
                self.set_slot(pe, port, a + 1, cdr)?;
                self.pes[pe].regs[dst as usize] = Tagged::List(a).encode();
                self.pes[pe].pc = next;
            }
            Instr::PutStruct {
                dst,
                functor,
                ref args,
            } => {
                let n = args.len() as u64;
                let a = self.pes[pe].alloc.heap(1 + n);
                self.write_heap(port, a, Tagged::Functor(functor, n as u8).encode())?;
                for (i, &op) in args.iter().enumerate() {
                    let slot = a + 1 + i as u64;
                    let w = slot_word(&mut self.pes[pe].regs, slot, op);
                    self.write_heap(port, slot, w)?;
                }
                self.pes[pe].regs[dst as usize] = Tagged::Struct(a).encode();
                self.pes[pe].pc = next;
            }
            Instr::BodyIs { dst, op, a, b } => {
                let va = self.num_operand(pe, port, a)?;
                let vb = self.num_operand(pe, port, b)?;
                match (va, vb) {
                    (NumVal::Int(x), NumVal::Int(y)) => {
                        let r = Self::arith(op, x, y)?;
                        self.pes[pe].regs[dst as usize] = Tagged::Int(r).encode();
                        self.pes[pe].pc = next;
                    }
                    _ => {
                        return Err(Abort::Fail(
                            "body arithmetic on unbound or non-integer data \
                             (guard the inputs with integer/1 or a comparison)"
                                .into(),
                        ))
                    }
                }
            }
            Instr::Unify { a, b } => {
                let wa = self.pes[pe].regs[a as usize];
                let wb = self.pes[pe].regs[b as usize];
                if !self.unify(pe, port, wa, wb, 0)? {
                    return Err(Abort::Fail("unification failed in body".into()));
                }
                self.pes[pe].pc = next;
            }
        }
        Ok(())
    }
}
