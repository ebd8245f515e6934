//! The parallel KL1 abstract machine (cluster of PEs).
//!
//! Execution model (paper Section 2.2): each PE reduces goals from its own
//! goal list, depth-first. A goal is dequeued (its record read once with
//! `ER`/`RP` and recycled), its compiled clauses are tried in order; on
//! commit the body creates new goals (records direct-written once) and the
//! last body call continues in registers. If no clause commits but some
//! suspended, the goal is written back to the goal area as a *floating*
//! record and hooked — under a per-variable hardware lock held across
//! micro-steps — to each suspending variable via suspension records.
//! Binding a hooked variable resumes the floating goals onto the binder's
//! goal list. Idle PEs request work from busy PEs; goals migrate through
//! two-word communication-area messages (written once, read once with
//! `RI`) and the stolen record is read out of the donor's goal area with
//! `ER`, exactly the cache-to-cache pattern the PIM commands optimize.

use crate::error::MachineError;
use crate::layout::{Layout, PeAllocators, SemispaceTooLarge, TooManyPes};
use crate::words::Tagged;
use fghc::instr::{CodeAddr, CompiledProgram, ProcId};
use fghc::Term;
use pim_obs::Observer;
use pim_trace::{Addr, AreaMap, MemOp, MemoryPort, PeId, PortValue, Process, StepOutcome, Word};
use std::collections::{BTreeSet, VecDeque};

/// Why a micro-step could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Abort {
    /// A memory operation hit a remote lock; re-run the step after wake.
    Stall,
    /// The program failed (unification failure, no applicable clause,
    /// arithmetic on unbound data).
    Fail(String),
    /// The machine state is unusable (corrupt record, stray address,
    /// malformed message): halt with a structured diagnostic.
    Fatal(MachineError),
}

pub(crate) type Mres<T> = Result<T, Abort>;

/// Unwraps a [`PortValue`], converting a stall into [`Abort::Stall`].
pub(crate) fn pv(v: PortValue) -> Mres<Word> {
    match v {
        PortValue::Value(w) => Ok(w),
        PortValue::Stall => Err(Abort::Stall),
    }
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of PEs.
    pub pes: u32,
    /// The storage-area partition — must match the memory system's.
    pub area_map: AreaMap,
    /// Cache-block words, for `DW`-friendly record alignment and the
    /// `ER`/`RP` read recipe.
    pub block_words: u64,
    /// Heap semispace size per PE in words: `Some(n)` enables the
    /// stop-and-copy garbage collector of [`crate::gc`] over two `n`-word
    /// semispaces; `None` (the default) gives each PE its whole slice and
    /// never collects.
    pub heap_semispace_words: Option<u64>,
}

impl ClusterConfig {
    /// Checks [`ClusterConfig::pes`] against this configuration's
    /// storage areas and block size, before any cluster is built:
    /// [`Cluster::new`] panics on a PE count that does not fit. The check
    /// assumes the widest goal records (arity 255), so a configuration it
    /// accepts builds for every program.
    ///
    /// # Errors
    ///
    /// [`TooManyPes`], naming the largest PE count that fits.
    pub fn check_pes(&self) -> Result<(), TooManyPes> {
        Layout::try_new(self.area_map.clone(), self.pes, u8::MAX, self.block_words).map(drop)
    }

    /// Checks [`ClusterConfig::heap_semispace_words`] against the heap
    /// slices of this configuration's layout, before any cluster is
    /// built: [`Cluster::new`] panics on a size that does not fit.
    ///
    /// # Errors
    ///
    /// [`SemispaceTooLarge`] when two semispaces exceed a PE's heap
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if [`ClusterConfig::check_pes`] refuses the PE count.
    pub fn check_semispace(&self) -> Result<(), SemispaceTooLarge> {
        let Some(words) = self.heap_semispace_words else {
            return Ok(());
        };
        // The heap slices do not depend on the program's arity.
        let layout = Layout::new(self.area_map.clone(), self.pes, 0, self.block_words);
        layout.semispace_words(words).map(drop)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            pes: 8,
            area_map: AreaMap::standard(),
            block_words: 4,
            heap_semispace_words: None,
        }
    }
}

/// Per-goal-reduction phase of one PE.
///
/// `Copy`, so a step dispatches on it and saves it for undo without
/// copying anything on the heap.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Needs a goal: pop the local list, consume a reply, or send a
    /// work request.
    Fetch,
    /// Executing instructions at `pc`.
    Run,
    /// Multi-step goal suspension (holds a variable lock across steps).
    Suspend(SuspendState),
}

/// State of an in-progress suspension. The variables it hooks are the
/// PE's [`PeState::hook_vars`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SuspendState {
    /// The floating goal record.
    pub rec: Addr,
    /// Next index into [`PeState::hook_vars`].
    pub idx: usize,
    /// Whether the current variable's lock is held (across a step
    /// boundary — the source of `LWAIT` conflicts).
    pub locked: bool,
    /// The suspension record prepared while the lock is held.
    pub srec: Addr,
}

/// One processing element's machine state (registers and bookkeeping are
/// machine-side; all *terms* live in simulated shared memory).
#[derive(Debug)]
pub(crate) struct PeState {
    pub regs: Vec<Word>,
    pub pc: CodeAddr,
    pub clause_fail: CodeAddr,
    pub susp_vars: Vec<Addr>,
    /// The variables a [`Phase::Suspend`] hooks, sorted and deduplicated;
    /// stale in any other phase. Kept here rather than in the phase so
    /// the phase is `Copy` and the buffer is reused.
    pub hook_vars: Vec<Addr>,
    pub phase: Phase,
    pub current: Option<(ProcId, u8)>,
    pub deque: VecDeque<Addr>,
    pub alloc: PeAllocators,
    pub outstanding_target: Option<u32>,
    pub incoming_requests: VecDeque<u32>,
    pub reply_ready: bool,
    pub next_target: u32,
    pub reductions: u64,
    pub suspensions: u64,
    pub instructions: u64,
}

/// Aggregate machine statistics (the paper's Table 1 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Completed goal reductions.
    pub reductions: u64,
    /// Goal suspensions.
    pub suspensions: u64,
    /// Abstract instructions executed.
    pub instructions: u64,
    /// Goals transferred between PEs by the load balancer.
    pub goals_migrated: u64,
    /// Heap words allocated.
    pub heap_words: u64,
    /// Garbage-collection statistics (all zero when GC is disabled).
    pub gc: crate::gc::GcStats,
}

/// The KL1 machine: a cluster of PEs sharing one memory system.
///
/// Implements [`Process`], so it runs under the `pim-sim` engine (cache
/// simulation) or directly against a `FlatPort` (functional runs and raw
/// reference counting).
#[derive(Debug)]
pub struct Cluster {
    pub(crate) program: CompiledProgram,
    pub(crate) config: ClusterConfig,
    pub(crate) layout: Layout,
    pub(crate) pes: Vec<PeState>,
    pub(crate) inst_base: Addr,
    pub(crate) halted: bool,
    pub(crate) failed: Option<String>,
    /// A fatal machine error, if one halted the run ([`Cluster::machine_error`]).
    pub(crate) fatal: Option<MachineError>,
    pub(crate) booted: bool,
    pub(crate) live_goals: u64,
    // BTreeSet, not HashSet: the GC seeds its root worklist from this set,
    // so iteration order must be deterministic or copy order (and thus bus
    // traffic) varies run to run.
    pub(crate) floating: BTreeSet<Addr>,
    pub(crate) goals_migrated: u64,
    pub(crate) gc_stats: crate::gc::GcStats,
    pub(crate) observer: Option<Box<dyn Observer>>,
    query: Option<(ProcId, Vec<Term>)>,
    pub(crate) query_vars: Vec<(String, Addr)>,
}

impl Cluster {
    /// Builds a cluster for `program`.
    ///
    /// # Panics
    ///
    /// Panics if the compiled code does not fit the instruction area, or
    /// if [`ClusterConfig::check_pes`] or
    /// [`ClusterConfig::check_semispace`] refuses the configuration.
    pub fn new(program: CompiledProgram, config: ClusterConfig) -> Cluster {
        let max_arity = program
            .proc_names
            .iter()
            .map(|(_, a)| *a)
            .max()
            .unwrap_or(0);
        let layout = Layout::new(
            config.area_map.clone(),
            config.pes,
            max_arity,
            config.block_words,
        );
        let inst_base = config.area_map.base(pim_trace::StorageArea::Instruction);
        assert!(
            program.total_words <= config.area_map.size(pim_trace::StorageArea::Instruction),
            "program does not fit the instruction area"
        );
        // Registers start as (and are wiped to) Nil so the garbage
        // collector can decode any register word safely.
        let regs = vec![Tagged::Nil.encode(); (program.max_regs as usize + 8).max(32)];
        let pes = (0..config.pes)
            .map(|i| PeState {
                regs: regs.clone(),
                pc: 0,
                clause_fail: 0,
                susp_vars: Vec::new(),
                hook_vars: Vec::new(),
                phase: Phase::Fetch,
                current: None,
                deque: VecDeque::new(),
                alloc: PeAllocators::with_semispace(&layout, PeId(i), config.heap_semispace_words),
                outstanding_target: None,
                incoming_requests: VecDeque::new(),
                reply_ready: false,
                next_target: (i + 1) % config.pes,
                reductions: 0,
                suspensions: 0,
                instructions: 0,
            })
            .collect();
        Cluster {
            program,
            config,
            layout,
            pes,
            inst_base,
            halted: false,
            failed: None,
            fatal: None,
            booted: false,
            live_goals: 0,
            floating: BTreeSet::new(),
            goals_migrated: 0,
            gc_stats: crate::gc::GcStats::default(),
            observer: None,
            query: None,
            query_vars: Vec::new(),
        }
    }

    /// Attaches an observer receiving KL1 machine events (reductions,
    /// suspensions, resumptions, GC pauses, goal-queue depth), stamped
    /// with the port's simulated cycle. With no observer attached (the
    /// default) the machine does no extra work.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// Sets the initial query: `name(args…)` starts on PE 0. Variables in
    /// `args` become fresh heap cells whose bindings can be read back with
    /// [`Cluster::extract`] after the run.
    ///
    /// # Errors
    ///
    /// [`MachineError::UndefinedQuery`] if the procedure does not exist.
    pub fn set_query(&mut self, name: &str, args: Vec<Term>) -> Result<(), MachineError> {
        let Some(proc) = self.program.lookup(name, args.len() as u8) else {
            return Err(MachineError::UndefinedQuery {
                name: name.to_string(),
                arity: args.len() as u8,
            });
        };
        self.query = Some((proc, args));
        Ok(())
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Whether the program failed, and why.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// The fatal machine error that halted the run, if any. Always
    /// accompanied by a [`Cluster::failure`] message carrying the same
    /// diagnostic; present only for machine-integrity failures, not
    /// FGHC-level program failures.
    pub fn machine_error(&self) -> Option<&MachineError> {
        self.fatal.as_ref()
    }

    /// Aggregate statistics across PEs.
    pub fn stats(&self) -> MachineStats {
        let mut s = MachineStats {
            goals_migrated: self.goals_migrated,
            gc: self.gc_stats,
            ..MachineStats::default()
        };
        for (i, pe) in self.pes.iter().enumerate() {
            s.reductions += pe.reductions;
            s.suspensions += pe.suspensions;
            s.instructions += pe.instructions;
            s.heap_words += pe.alloc.heap_used(&self.layout, PeId(i as u32));
        }
        s
    }

    /// The heap address of a named query variable (after the run started).
    pub fn query_var(&self, name: &str) -> Option<Addr> {
        self.query_vars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| *a)
    }

    /// Decodes the term bound to query variable `name`, reading memory
    /// uncounted through `port`. `None` if the variable is unknown.
    pub fn extract(&self, port: &dyn MemoryPort, name: &str) -> Option<Term> {
        let addr = self.query_var(name)?;
        Some(crate::term_io::extract_term(
            port,
            Tagged::Ref(addr).encode(),
            &self.program.symbols,
        ))
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// A digest of the compiled program (instruction listing), pinned into
    /// checkpoints so a resume against different code is refused.
    fn program_digest(&self) -> u64 {
        pim_ckpt::fnv1a64(format!("{}", self.program).as_bytes())
    }

    fn save_phase(pe: &PeState, w: &mut pim_ckpt::Writer) {
        match pe.phase {
            Phase::Fetch => w.put_u8(0),
            Phase::Run => w.put_u8(1),
            Phase::Suspend(s) => {
                w.put_u8(2);
                w.put_u64(s.rec);
                w.put_u64s(&pe.hook_vars);
                w.put_u64(s.idx as u64);
                w.put_bool(s.locked);
                w.put_u64(s.srec);
            }
        }
    }

    /// Reads a phase saved by [`Cluster::save_phase`], restoring a
    /// suspension's variables into `hook_vars`.
    fn read_phase(
        r: &mut pim_ckpt::Reader<'_>,
        hook_vars: &mut Vec<Addr>,
    ) -> Result<Phase, pim_ckpt::CkptError> {
        match r.get_u8()? {
            0 => Ok(Phase::Fetch),
            1 => Ok(Phase::Run),
            2 => {
                let rec = r.get_u64()?;
                let vars = r.get_u64s()?;
                let idx = r.get_u64()? as usize;
                let locked = r.get_bool()?;
                let srec = r.get_u64()?;
                if idx > vars.len() {
                    return Err(pim_ckpt::CkptError::Corrupt {
                        detail: format!("suspension index {idx} beyond {} vars", vars.len()),
                    });
                }
                *hook_vars = vars;
                Ok(Phase::Suspend(SuspendState {
                    rec,
                    idx,
                    locked,
                    srec,
                }))
            }
            tag => Err(pim_ckpt::CkptError::Corrupt {
                detail: format!("unknown PE phase tag {tag}"),
            }),
        }
    }

    /// Checkpoint hook: serializes the complete machine state — every
    /// PE's registers, phase, goal deque, allocators and counters, plus
    /// cluster-wide bookkeeping (floating-goal set, query variables,
    /// runtime symbol-table growth) and a digest of the compiled program.
    /// Term *contents* live in simulated shared memory and travel with the
    /// memory system's own checkpoint, not this one.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.program_digest());
        w.put_u32(self.config.pes);
        w.put_u64(self.config.block_words);
        w.put_opt_u64(self.config.heap_semispace_words);
        // Runtime symbol growth: atoms/functors interned after compile
        // (query arguments) must exist again for result extraction.
        let symbols = &self.program.symbols;
        w.put_len(symbols.atom_count());
        for id in 0..symbols.atom_count() {
            w.put_str(symbols.atom_name(id as u32));
        }
        w.put_len(symbols.functor_count());
        for id in 0..symbols.functor_count() {
            let (name, arity) = symbols.functor(id as u32);
            w.put_str(name);
            w.put_u8(arity);
        }
        for pe in &self.pes {
            w.put_u64s(&pe.regs);
            w.put_u64(pe.pc as u64);
            w.put_u64(pe.clause_fail as u64);
            w.put_u64s(&pe.susp_vars);
            Cluster::save_phase(pe, w);
            match pe.current {
                Some((proc, argc)) => {
                    w.put_bool(true);
                    w.put_u32(proc);
                    w.put_u8(argc);
                }
                None => w.put_bool(false),
            }
            w.put_len(pe.deque.len());
            for &rec in &pe.deque {
                w.put_u64(rec);
            }
            pe.alloc.save_ckpt(w);
            w.put_opt_u64(pe.outstanding_target.map(u64::from));
            w.put_len(pe.incoming_requests.len());
            for &q in &pe.incoming_requests {
                w.put_u32(q);
            }
            w.put_bool(pe.reply_ready);
            w.put_u32(pe.next_target);
            w.put_u64(pe.reductions);
            w.put_u64(pe.suspensions);
            w.put_u64(pe.instructions);
        }
        w.put_bool(self.halted);
        match &self.failed {
            Some(msg) => {
                w.put_bool(true);
                w.put_str(msg);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.booted);
        w.put_u64(self.live_goals);
        let floating: Vec<Addr> = self.floating.iter().copied().collect();
        w.put_u64s(&floating);
        w.put_u64(self.goals_migrated);
        w.put_u64(self.gc_stats.collections);
        w.put_u64(self.gc_stats.words_copied);
        w.put_u64(self.gc_stats.words_reclaimed);
        w.put_len(self.query_vars.len());
        for (name, addr) in &self.query_vars {
            w.put_str(name);
            w.put_u64(*addr);
        }
    }

    /// Checkpoint hook: restores state saved by [`Cluster::save_ckpt`]
    /// into a cluster freshly built from the *same* compiled program and
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the program digest or
    /// configuration disagrees with the checkpoint;
    /// [`pim_ckpt::CkptError::Corrupt`] on impossible machine state.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let digest = r.get_u64()?;
        if digest != self.program_digest() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "program digest {digest:#018x} disagrees with compiled program \
                     {:#018x} — resume needs the identical source",
                    self.program_digest()
                ),
            });
        }
        let pes = r.get_u32()?;
        if pes != self.config.pes {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("checkpoint has {pes} PEs, cluster has {}", self.config.pes),
            });
        }
        let block_words = r.get_u64()?;
        let semispace = r.get_opt_u64()?;
        if block_words != self.config.block_words || semispace != self.config.heap_semispace_words {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: "block size or GC configuration disagrees with checkpoint".to_string(),
            });
        }
        // Re-intern runtime symbol growth. Interning is append-only and
        // order-stable, so replaying the table reproduces identical ids —
        // anything else means the program changed underneath us.
        let atom_count = r.get_len()?;
        if atom_count < self.program.symbols.atom_count() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: "checkpoint symbol table smaller than compiled program's".to_string(),
            });
        }
        for id in 0..atom_count {
            let name = r.get_str()?;
            if self.program.symbols.intern_atom(name) as usize != id {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: format!("atom {name:?} interned out of order"),
                });
            }
        }
        let functor_count = r.get_len()?;
        for id in 0..functor_count {
            let name = r.get_str()?.to_string();
            let arity = r.get_u8()?;
            if self.program.symbols.intern_functor(&name, arity) as usize != id {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: format!("functor {name}/{arity} interned out of order"),
                });
            }
        }
        for pe in self.pes.iter_mut() {
            let regs = r.get_u64s()?;
            if regs.len() != pe.regs.len() {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: format!(
                        "PE register file has {} words, checkpoint {}",
                        pe.regs.len(),
                        regs.len()
                    ),
                });
            }
            pe.regs = regs;
            pe.pc = r.get_u64()? as CodeAddr;
            pe.clause_fail = r.get_u64()? as CodeAddr;
            pe.susp_vars = r.get_u64s()?;
            pe.phase = Cluster::read_phase(r, &mut pe.hook_vars)?;
            pe.current = if r.get_bool()? {
                let proc = r.get_u32()?;
                if proc as usize >= self.program.proc_names.len() {
                    return Err(pim_ckpt::CkptError::Corrupt {
                        detail: format!("current goal references unknown procedure {proc}"),
                    });
                }
                Some((proc, r.get_u8()?))
            } else {
                None
            };
            if pe.pc >= self.program.code.len() && !matches!(pe.phase, Phase::Fetch) {
                return Err(pim_ckpt::CkptError::Corrupt {
                    detail: format!("PE pc {} beyond program end", pe.pc),
                });
            }
            pe.deque = (0..r.get_len()?)
                .map(|_| r.get_u64())
                .collect::<Result<VecDeque<_>, _>>()?;
            pe.alloc.restore_ckpt(r)?;
            pe.outstanding_target = r.get_opt_u64()?.map(|v| v as u32);
            pe.incoming_requests = (0..r.get_len()?)
                .map(|_| r.get_u32())
                .collect::<Result<VecDeque<_>, _>>()?;
            pe.reply_ready = r.get_bool()?;
            pe.next_target = r.get_u32()?;
            pe.reductions = r.get_u64()?;
            pe.suspensions = r.get_u64()?;
            pe.instructions = r.get_u64()?;
        }
        self.halted = r.get_bool()?;
        self.failed = if r.get_bool()? {
            Some(r.get_str()?.to_string())
        } else {
            None
        };
        self.fatal = None;
        self.booted = r.get_bool()?;
        self.live_goals = r.get_u64()?;
        self.floating = r.get_u64s()?.into_iter().collect();
        self.goals_migrated = r.get_u64()?;
        self.gc_stats.collections = r.get_u64()?;
        self.gc_stats.words_copied = r.get_u64()?;
        self.gc_stats.words_reclaimed = r.get_u64()?;
        let n = r.get_len()?;
        self.query_vars = (0..n)
            .map(|_| Ok((r.get_str()?.to_string(), r.get_u64()?)))
            .collect::<Result<Vec<_>, pim_ckpt::CkptError>>()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Booting
    // ------------------------------------------------------------------

    fn boot(&mut self, port: &mut dyn MemoryPort) -> Mres<()> {
        let Some((proc, args)) = self.query.clone() else {
            return Err(Abort::Fatal(MachineError::QueryNotSet));
        };
        let argc = args.len() as u8;
        let mut vars = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            let w = crate::term_io::build_term(
                port,
                &mut self.pes[0].alloc,
                arg,
                &mut vars,
                &mut self.program.symbols,
            );
            self.pes[0].regs[i] = w;
        }
        self.query_vars = vars;
        self.pes[0].current = Some((proc, argc));
        self.pes[0].pc = self.program.entry(proc);
        self.pes[0].phase = Phase::Run;
        self.live_goals = 1;
        self.booted = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Record helpers (the ER/RP read-once recipe and DW write-once)
    // ------------------------------------------------------------------

    /// Writes a fresh record: `DW` on block boundaries, `W` elsewhere.
    pub(crate) fn write_record(
        &self,
        port: &mut dyn MemoryPort,
        base: Addr,
        words: impl IntoIterator<Item = Word>,
    ) -> Mres<()> {
        for (i, w) in words.into_iter().enumerate() {
            let a = base + i as Addr;
            let op = if a.is_multiple_of(self.config.block_words) {
                MemOp::DirectWrite
            } else {
                MemOp::Write
            };
            pv(port.op(op, a, Some(w)))?;
        }
        Ok(())
    }

    /// Reads a read-once record of `out.len()` words into `out`: `ER`
    /// throughout, `RP` for a final word that does not land on a block
    /// end (paper Section 3.2). `bw` is the block size in words.
    pub(crate) fn read_record(
        bw: u64,
        port: &mut dyn MemoryPort,
        base: Addr,
        out: &mut [Word],
    ) -> Mres<()> {
        let len = out.len() as u64;
        for (i, slot) in (0..len).zip(out) {
            let a = base + i;
            let last_of_region = i == len - 1;
            let ends_block = a % bw == bw - 1;
            let op = if last_of_region && !ends_block {
                MemOp::ReadPurge
            } else {
                MemOp::ExclusiveRead
            };
            *slot = pv(port.op(op, a, None))?;
        }
        Ok(())
    }

    /// Which PE's suspension slice contains `addr`.
    pub(crate) fn susp_owner(&self, addr: Addr) -> Mres<usize> {
        for i in 0..self.pes.len() {
            let (lo, hi) = self
                .layout
                .slice(pim_trace::StorageArea::Suspension, PeId(i as u32));
            if addr >= lo && addr < hi {
                return Ok(i);
            }
        }
        Err(Abort::Fatal(MachineError::AddressOutsideSlices {
            addr,
            area: "suspension",
        }))
    }

    /// Which PE's goal slice contains `addr`.
    pub(crate) fn goal_owner(&self, addr: Addr) -> Mres<usize> {
        for i in 0..self.pes.len() {
            let (lo, hi) = self
                .layout
                .slice(pim_trace::StorageArea::Goal, PeId(i as u32));
            if addr >= lo && addr < hi {
                return Ok(i);
            }
        }
        Err(Abort::Fatal(MachineError::AddressOutsideSlices {
            addr,
            area: "goal",
        }))
    }

    // ------------------------------------------------------------------
    // Goal management
    // ------------------------------------------------------------------

    /// Writes the goal record at `rec`: its header, then the argument
    /// words. The record is *not* enqueued.
    pub(crate) fn write_goal_record(
        &self,
        port: &mut dyn MemoryPort,
        rec: Addr,
        proc: ProcId,
        args: impl ExactSizeIterator<Item = Word>,
    ) -> Mres<()> {
        let header = Tagged::Functor(proc, args.len() as u8).encode();
        self.write_record(port, rec, std::iter::once(header).chain(args))
    }

    /// Loads the goal record at `rec` into `pe`'s registers and recycles
    /// it. Returns `(proc, argc)`.
    fn load_goal_record(
        &mut self,
        pe: usize,
        port: &mut dyn MemoryPort,
        rec: Addr,
    ) -> Mres<(ProcId, u8)> {
        // The header must be read with a plain (non-purging) read: the
        // record's length is not known yet, and an `RP` here would discard
        // the still-unread argument words with the block. The arguments
        // then form one read-once region whose ER/RP purges also cover the
        // header's block.
        let header = pv(port.read(rec))?;
        let (proc, argc) = match Tagged::decode(header) {
            Tagged::Functor(p, n) => (p, n),
            _ => {
                return Err(Abort::Fatal(MachineError::CorruptGoalRecord {
                    rec,
                    word: header,
                }))
            }
        };
        if argc > 0 {
            // Straight into the registers. Goal records are never locked,
            // so no read here stalls; a corrupt record halts the machine,
            // after every argument was read.
            let args = &mut self.pes[pe].regs[..usize::from(argc)];
            Cluster::read_record(self.config.block_words, port, rec + 1, args)?;
            if let Some(&w) = args.iter().find(|&&w| w == 0) {
                return Err(Abort::Fatal(MachineError::CorruptGoalRecord {
                    rec,
                    word: w,
                }));
            }
        }
        let owner = self.goal_owner(rec)?;
        self.pes[owner].alloc.free_goal_record(rec);
        Ok((proc, argc))
    }

    /// Begins running `proc` with arguments already in registers.
    pub(crate) fn begin_goal(&mut self, pe: usize, proc: ProcId, argc: u8) {
        let st = &mut self.pes[pe];
        st.current = Some((proc, argc));
        st.pc = self.program.entry(proc);
        st.susp_vars.clear();
        st.phase = Phase::Run;
        // Wipe stale temporaries so the garbage collector traces only
        // this goal's values.
        for r in st.regs[usize::from(argc)..].iter_mut() {
            *r = Tagged::Nil.encode();
        }
    }

    // ------------------------------------------------------------------
    // Load balancing (paper Section 2.2: on-demand scheduler)
    // ------------------------------------------------------------------

    /// Donates one goal to a waiting requester, if we have a surplus.
    /// Returns `true` if a reply was written.
    fn serve_request(&mut self, pe: usize, port: &mut dyn MemoryPort) -> Mres<bool> {
        if self.pes[pe].incoming_requests.is_empty() {
            return Ok(false);
        }
        if self.pes[pe].deque.is_empty() {
            // Nothing to give: decline (status lines, uncounted) so the
            // requesters can retarget.
            while let Some(q) = self.pes[pe].incoming_requests.pop_front() {
                self.pes[q as usize].outstanding_target = None;
            }
            return Ok(false);
        }
        let q = self.pes[pe].incoming_requests[0] as usize;
        // Steal from the back: the oldest goal, usually the largest
        // remaining subtree.
        let Some(&rec) = self.pes[pe].deque.back() else {
            unreachable!("work-request reply path checked the deque is non-empty")
        };
        let slot = self.layout.pair_slot(PeId(q as u32), PeId(pe as u32));
        // Read the request message with RI — we are about to rewrite the
        // buffer in place with the reply.
        pv(port.op(MemOp::ReadInvalidate, slot, None))?;
        pv(port.op(MemOp::ReadInvalidate, slot + 1, None))?;
        pv(port.op(MemOp::Write, slot, Some(Tagged::Int(rec as i64).encode())))?;
        pv(port.op(
            MemOp::Write,
            slot + 1,
            Some(Tagged::Int(pe as i64).encode()),
        ))?;
        // Commit the transfer only after all counted operations succeeded.
        self.pes[pe].incoming_requests.pop_front();
        self.pes[pe].deque.pop_back();
        self.pes[q].reply_ready = true;
        self.goals_migrated += 1;
        Ok(true)
    }

    /// One scheduling action for a PE with no goal. Returns the outcome.
    fn fetch_step(&mut self, pe: usize, port: &mut dyn MemoryPort) -> Mres<StepOutcome> {
        // Local goal available?
        if let Some(&rec) = self.pes[pe].deque.front() {
            let (proc, argc) = self.load_goal_record(pe, port, rec)?;
            self.pes[pe].deque.pop_front();
            self.begin_goal(pe, proc, argc);
            return Ok(StepOutcome::Ran);
        }
        // A donated goal arrived?
        if self.pes[pe].reply_ready {
            let Some(donor) = self.pes[pe].outstanding_target else {
                return Err(Abort::Fatal(MachineError::ReplyWithoutRequest {
                    pe: pe as u32,
                }));
            };
            let slot = self.layout.pair_slot(PeId(pe as u32), PeId(donor));
            // Read the reply with RI — this buffer is rewritten in place
            // by our next request to the same donor.
            let w0 = pv(port.op(MemOp::ReadInvalidate, slot, None))?;
            let _donor_id = pv(port.op(MemOp::ReadInvalidate, slot + 1, None))?;
            let rec = match Tagged::decode(w0) {
                Tagged::Int(a) => a as Addr,
                _ => {
                    return Err(Abort::Fatal(MachineError::BadReplyMessage {
                        pe: pe as u32,
                        word: w0,
                    }))
                }
            };
            self.pes[pe].reply_ready = false;
            self.pes[pe].outstanding_target = None;
            let (proc, argc) = self.load_goal_record(pe, port, rec)?;
            self.begin_goal(pe, proc, argc);
            return Ok(StepOutcome::Ran);
        }
        // Ask a busy PE for work: write a two-word request message into
        // the pair's turnaround buffer (written once, read once by the
        // donor with RI).
        if self.pes[pe].outstanding_target.is_none() {
            let n = self.pes.len();
            let start = self.pes[pe].next_target as usize;
            for k in 0..n {
                let t = (start + k) % n;
                if t != pe && !self.pes[t].deque.is_empty() {
                    let slot = self.layout.pair_slot(PeId(pe as u32), PeId(t as u32));
                    pv(port.op(MemOp::Write, slot, Some(Tagged::Int(1).encode())))?;
                    pv(port.op(
                        MemOp::Write,
                        slot + 1,
                        Some(Tagged::Int(pe as i64).encode()),
                    ))?;
                    self.pes[t].incoming_requests.push_back(pe as u32);
                    self.pes[pe].outstanding_target = Some(t as u32);
                    self.pes[pe].next_target = ((t + 1) % n) as u32;
                    return Ok(StepOutcome::Idle);
                }
            }
        }
        // Nothing anywhere: terminal?
        let quiescent = self
            .pes
            .iter()
            .all(|p| matches!(p.phase, Phase::Fetch) && p.deque.is_empty() && !p.reply_ready);
        if quiescent {
            if self.live_goals == 0 {
                self.halted = true;
                return Ok(StepOutcome::Finished);
            }
            if self.live_goals == self.floating.len() as u64 {
                let mut procs: Vec<String> = self
                    .floating
                    .iter()
                    .map(|&rec| {
                        let header = port.peek(rec);
                        match Tagged::decode(header) {
                            Tagged::Functor(p, n) => {
                                let (name, _) = &self.program.proc_names[p as usize];
                                format!("{name}/{n}")
                            }
                            other => format!("<bad header {other:?}>"),
                        }
                    })
                    .collect();
                procs.sort();
                self.failed = Some(format!(
                    "perpetual suspension: {} goal(s) still waiting on unbound variables: {}",
                    self.floating.len(),
                    procs.join(", ")
                ));
                self.halted = true;
                return Ok(StepOutcome::Finished);
            }
        }
        Ok(StepOutcome::Idle)
    }

    // ------------------------------------------------------------------
    // The suspension state machine (multi-step; holds a lock across one
    // step boundary — the LWAIT window of Table 5)
    // ------------------------------------------------------------------

    fn suspend_step(&mut self, pe: usize, port: &mut dyn MemoryPort) -> Mres<StepOutcome> {
        let mut st = match self.pes[pe].phase {
            Phase::Suspend(s) => s,
            other => unreachable!("suspend_step in {other:?}"),
        };
        // Already resumed by a binder (possibly spuriously)? Stop hooking.
        if !self.floating.contains(&st.rec) {
            self.pes[pe].phase = Phase::Fetch;
            return Ok(StepOutcome::Ran);
        }
        if st.locked {
            // Second half: publish the hook and release the lock.
            let v = self.pes[pe].hook_vars[st.idx];
            pv(port.write_unlock(v, Tagged::Hook(st.srec).encode()))?;
            st.locked = false;
            st.idx += 1;
            self.pes[pe].phase = if st.idx == self.pes[pe].hook_vars.len() {
                Phase::Fetch
            } else {
                Phase::Suspend(st)
            };
            return Ok(StepOutcome::Ran);
        }
        let v = self.pes[pe].hook_vars[st.idx];
        let w = pv(port.lock_read(v))?; // stall point (nothing held yet)
        match Tagged::decode(w) {
            Tagged::Ref(a) if a == v => {
                // Still unbound, no previous waiters.
                let srec = self.pes[pe].alloc.susp_record();
                self.write_record(
                    port,
                    srec,
                    [Tagged::Ref(st.rec).encode(), Tagged::Nil.encode()],
                )?;
                st.srec = srec;
                st.locked = true;
                self.pes[pe].phase = Phase::Suspend(st);
            }
            Tagged::Hook(prev) => {
                // Unbound with existing waiters: chain in front.
                let srec = self.pes[pe].alloc.susp_record();
                self.write_record(
                    port,
                    srec,
                    [Tagged::Ref(st.rec).encode(), Tagged::Ref(prev).encode()],
                )?;
                st.srec = srec;
                st.locked = true;
                self.pes[pe].phase = Phase::Suspend(st);
            }
            _bound => {
                // The variable was bound while we prepared to hook: the
                // goal is runnable again right now.
                pv(port.unlock(v))?;
                if self.floating.remove(&st.rec) {
                    self.pes[pe].deque.push_front(st.rec);
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.resumption(PeId(pe as u32), port.now(), st.rec);
                    }
                }
                self.pes[pe].phase = Phase::Fetch;
            }
        }
        Ok(StepOutcome::Ran)
    }

    /// Enters the suspension phase from `NoMoreClauses` (same step):
    /// writes the floating goal record and queues the variable hooks.
    pub(crate) fn start_suspension(&mut self, pe: usize, port: &mut dyn MemoryPort) -> Mres<()> {
        let Some((proc, argc)) = self.pes[pe].current else {
            unreachable!("suspending without a goal");
        };
        // The suspending variables become the hook list, and the two
        // buffers trade places so neither is reallocated.
        let st = &mut self.pes[pe];
        std::mem::swap(&mut st.susp_vars, &mut st.hook_vars);
        st.susp_vars.clear();
        st.hook_vars.sort_unstable();
        st.hook_vars.dedup();
        debug_assert!(!st.hook_vars.is_empty());
        let rec = st.alloc.goal_record();
        let args = self.pes[pe].regs[..usize::from(argc)].iter().copied();
        self.write_goal_record(port, rec, proc, args)?;
        self.floating.insert(rec);
        self.pes[pe].suspensions += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.suspension(PeId(pe as u32), port.now(), rec);
        }
        self.pes[pe].current = None;
        self.pes[pe].phase = Phase::Suspend(SuspendState {
            rec,
            idx: 0,
            locked: false,
            srec: 0,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Step machinery
    // ------------------------------------------------------------------

    fn snapshot(&self, pe: usize) -> Undo {
        let st = &self.pes[pe];
        Undo {
            pc: st.pc,
            clause_fail: st.clause_fail,
            susp_len: st.susp_vars.len(),
            phase: st.phase,
            current: st.current,
            alloc: st.alloc.mark(),
        }
    }

    fn restore(&mut self, pe: usize, undo: Undo) {
        let st = &mut self.pes[pe];
        st.pc = undo.pc;
        st.clause_fail = undo.clause_fail;
        st.susp_vars.truncate(undo.susp_len);
        st.phase = undo.phase;
        st.current = undo.current;
        st.alloc.rollback(undo.alloc);
    }
}

struct Undo {
    pc: CodeAddr,
    clause_fail: CodeAddr,
    susp_len: usize,
    phase: Phase,
    current: Option<(ProcId, u8)>,
    alloc: crate::layout::AllocMark,
}

impl Process for Cluster {
    fn pe_count(&self) -> u32 {
        self.config.pes
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        if self.halted {
            return StepOutcome::Finished;
        }
        let pe = pe.index();
        let undo = self.snapshot(pe);

        let result = (|| -> Mres<StepOutcome> {
            if !self.booted {
                self.boot(port)?;
            }
            // Stop-and-copy GC runs between micro-steps, when no PE holds
            // a cross-step variable lock.
            if self.gc_due() {
                let _perf = pim_perf::span(pim_perf::phase::GC);
                let copied_before = self.gc_stats.words_copied;
                self.collect_garbage(port)?;
                if let Some(obs) = self.observer.as_deref_mut() {
                    let copied = self.gc_stats.words_copied - copied_before;
                    obs.gc(PeId(pe as u32), port.now(), copied);
                }
                return Ok(StepOutcome::Ran);
            }
            // Donor side of the load balancer runs between any two
            // micro-steps.
            if self.serve_request(pe, port)? {
                return Ok(StepOutcome::Ran);
            }
            match self.pes[pe].phase {
                Phase::Fetch => self.fetch_step(pe, port),
                Phase::Run => {
                    self.exec_instr(pe, port)?;
                    Ok(StepOutcome::Ran)
                }
                Phase::Suspend(_) => self.suspend_step(pe, port),
            }
        })();

        if let Some(obs) = self.observer.as_deref_mut() {
            obs.goal_queue_depth(PeId(pe as u32), port.now(), self.pes[pe].deque.len() as u64);
        }

        match result {
            Ok(outcome) => outcome,
            Err(Abort::Stall) => {
                self.restore(pe, undo);
                StepOutcome::Stalled
            }
            Err(Abort::Fail(msg)) => {
                self.failed = Some(msg);
                self.halted = true;
                StepOutcome::Finished
            }
            Err(Abort::Fatal(err)) => {
                self.failed = Some(err.to_string());
                self.fatal = Some(err);
                self.halted = true;
                StepOutcome::Finished
            }
        }
    }
}

/// Validates that a reply-slot message round-trips (unit-level sanity of
/// the encoding used by the load balancer).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_encoding_round_trips() {
        let w = Tagged::Int(12_345).encode();
        match Tagged::decode(w) {
            Tagged::Int(v) => assert_eq!(v, 12_345),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cluster_builds_for_default_config() {
        let prog = fghc::compile("main :- true | halt.").unwrap();
        let c = Cluster::new(prog, ClusterConfig::default());
        assert_eq!(c.pe_count(), 8);
        assert!(c.failure().is_none());
    }
}
