//! Deterministic host-I/O fault injection under the persistence stack.
//!
//! Every durable artifact in the workspace — `pim-ckpt/v1` snapshots,
//! the `pim-swl/v1` sweep journal, `pim-status/v1` telemetry, the JSON
//! reports and traces — flows through the primitives in this module:
//! [`write_atomic`] (temp + fsync + rename), [`read_file`], and
//! [`append_sync`] (append + fdatasync with truncate-back recovery).
//! With no fault plan installed they cost one relaxed atomic load over
//! the plain syscalls; with `--io-chaos` they consult a seeded,
//! deterministic fault plan and inject disk failures *under* the real
//! persistence code, so the recovery paths the binaries ship are the
//! ones the torture suite exercises.
//!
//! # Fault plan
//!
//! The plan is a pure function keyed `(seed, op-index, path-class,
//! attempt)` through the same splitmix64 mix discipline as
//! `pim-fault`'s worker-level plans: no mutable PRNG state, so the
//! schedule is reproducible from the seed alone and independent of
//! thread interleaving for any fixed op. Rates are in parts per million
//! (no floating point). Injected kinds:
//!
//! - **enospc** — the write reports a full disk, possibly after putting
//!   a real prefix of the bytes on disk;
//! - **eio** — a write, fsync, rename, or read fails outright;
//! - **short** — a write persists only a prefix of the bytes and fails;
//! - **torn** — a read returns fewer bytes than the file holds (never
//!   surfaced to callers: the shim detects and retries it, because a
//!   torn read that *escaped* into journal replay would truncate valid
//!   acknowledged records).
//!
//! # Recovery policy
//!
//! Injection and recovery are bounded by construction: attempts
//! `0..max_retries` may fault, attempt `max_retries` never does (the
//! same final-attempt discipline as the `--chaos` worker killer), so
//! every operation converges to the undisturbed result — unless the
//! plan's `kill=CLASS@N` marker says that class's disk *died*, in which
//! case every attempt faults and the error escapes to the caller's own
//! policy: fail loud by name (checkpoints, reports), degrade to a
//! one-line warning (telemetry side files), or finish the sweep
//! degraded with resume disabled (the journal).

use std::io::{self, Seek as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::splitmix64;

/// One million: rates are expressed in parts per million.
pub const PPM: u64 = 1_000_000;

/// Fault rate applied when `--io-chaos` names only a seed: 15% of
/// eligible attempts draw a fault. High enough that a short sweep sees
/// faults on most files, low enough that the default retry budget
/// converges with margin to spare.
pub const DEFAULT_RATE_PPM: u64 = 150_000;

/// Default bounded retry budget: up to 4 faulted attempts, then one
/// final attempt that the plan is forbidden to touch.
pub const DEFAULT_RETRIES: u32 = 4;

/// Default base backoff between faulted attempts, in milliseconds
/// (doubled per attempt; deterministic, no jitter).
pub const DEFAULT_BACKOFF_MS: u64 = 1;

/// Which persistence path an operation belongs to. The class is part of
/// the fault key (so one seed exercises different schedules per path)
/// and the unit of the `kill=CLASS@N` dead-disk marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// The pim-swl/v1 sweep journal (durability-critical).
    Journal,
    /// pim-ckpt/v1 snapshot files (durability-critical).
    Checkpoint,
    /// JSON reports and result tables (fail loud by name).
    Report,
    /// Chrome-trace exports (fail loud by name).
    Trace,
    /// pim-status/v1 snapshots and Prometheus side files (degrade to a
    /// one-line warning; never perturb the run).
    Telemetry,
    /// Benchmark outputs from `pimbench`/`repro` side files.
    Bench,
    /// Anything not otherwise classified.
    Other,
}

impl PathClass {
    /// Every class, in fault-key index order.
    pub const ALL: [PathClass; 7] = [
        PathClass::Journal,
        PathClass::Checkpoint,
        PathClass::Report,
        PathClass::Trace,
        PathClass::Telemetry,
        PathClass::Bench,
        PathClass::Other,
    ];

    /// The spec token and diagnostic name for this class.
    pub fn label(self) -> &'static str {
        match self {
            PathClass::Journal => "journal",
            PathClass::Checkpoint => "checkpoint",
            PathClass::Report => "report",
            PathClass::Trace => "trace",
            PathClass::Telemetry => "telemetry",
            PathClass::Bench => "bench",
            PathClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            PathClass::Journal => 0,
            PathClass::Checkpoint => 1,
            PathClass::Report => 2,
            PathClass::Trace => 3,
            PathClass::Telemetry => 4,
            PathClass::Bench => 5,
            PathClass::Other => 6,
        }
    }

    fn parse(s: &str) -> Option<PathClass> {
        PathClass::ALL.iter().copied().find(|c| c.label() == s)
    }
}

/// The direction of an operation, for kind eligibility: write faults
/// (enospc, short) cannot strike a read and torn reads cannot strike a
/// write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// A read of a durable file.
    Read,
    /// A write, sync, or rename of a durable file.
    Write,
}

/// The kind of host-I/O fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The disk reports full (`ENOSPC`), possibly after a real prefix
    /// of the bytes landed.
    Enospc,
    /// A write, fsync, rename, or read fails outright (`EIO`).
    Eio,
    /// Only a prefix of the bytes is persisted before the write fails.
    ShortWrite,
    /// A read returns fewer bytes than the file holds; detected and
    /// retried inside the shim, never surfaced.
    TornRead,
}

impl IoFaultKind {
    /// Every kind, in stats order.
    pub const ALL: [IoFaultKind; 4] = [
        IoFaultKind::Enospc,
        IoFaultKind::Eio,
        IoFaultKind::ShortWrite,
        IoFaultKind::TornRead,
    ];

    /// The spec token and diagnostic name for this kind.
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::Eio => "eio",
            IoFaultKind::ShortWrite => "short",
            IoFaultKind::TornRead => "torn",
        }
    }

    fn index(self) -> usize {
        match self {
            IoFaultKind::Enospc => 0,
            IoFaultKind::Eio => 1,
            IoFaultKind::ShortWrite => 2,
            IoFaultKind::TornRead => 3,
        }
    }

    fn eligible(self, dir: IoDir) -> bool {
        match dir {
            IoDir::Read => matches!(self, IoFaultKind::Eio | IoFaultKind::TornRead),
            IoDir::Write => !matches!(self, IoFaultKind::TornRead),
        }
    }

    fn parse(s: &str) -> Option<IoFaultKind> {
        IoFaultKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

/// A parsed `--io-chaos seed=N[,rate=PPM][,kinds=...]` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoChaosConfig {
    /// Root of every fault decision.
    pub seed: u64,
    /// Probability, in parts per million, that an eligible attempt
    /// draws a fault.
    pub rate_ppm: u64,
    /// The fault kinds the plan may draw from.
    pub kinds: Vec<IoFaultKind>,
    /// Faulted attempts permitted per operation; attempt `max_retries`
    /// is always fault-free, so any plan without `kill` converges.
    pub max_retries: u32,
    /// Base backoff between faulted attempts, in milliseconds.
    pub backoff_ms: u64,
    /// `Some((class, n))`: the `n`th and every later operation on
    /// `class` fails on *every* attempt — the disk died. Used to drive
    /// the degraded-sweep path end to end.
    pub kill: Option<(PathClass, u64)>,
}

impl IoChaosConfig {
    /// Parses the `--io-chaos` value: `seed=N` (required) plus optional
    /// `rate=PPM`, `kinds=eio+short+...`, `retries=N`, `backoff_ms=N`,
    /// and `kill=CLASS@N`. Duplicate keys are last-wins; every error
    /// names the flag and the offending key or value (exit-2 material).
    pub fn parse_spec(spec: &str) -> Result<IoChaosConfig, String> {
        let pairs = crate::spec::parse_kv_spec("io-chaos", spec)?;
        let mut cfg = IoChaosConfig {
            seed: 0,
            rate_ppm: DEFAULT_RATE_PPM,
            kinds: IoFaultKind::ALL.to_vec(),
            max_retries: DEFAULT_RETRIES,
            backoff_ms: DEFAULT_BACKOFF_MS,
            kill: None,
        };
        let mut have_seed = false;
        let bad = |key: &str, value: &str| format!("bad value `{value}` for `{key}` in --io-chaos");
        for (key, value) in &pairs {
            match key.as_str() {
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| bad(key, value))?;
                    have_seed = true;
                }
                "rate" => {
                    cfg.rate_ppm = value.parse().map_err(|_| bad(key, value))?;
                    if cfg.rate_ppm > PPM {
                        return Err(format!(
                            "rate in --io-chaos is parts per million and must be <= {PPM}, \
                             got {value}"
                        ));
                    }
                }
                "kinds" => {
                    let mut kinds = Vec::new();
                    for token in value.split('+').filter(|t| !t.is_empty()) {
                        let kind = IoFaultKind::parse(token).ok_or_else(|| {
                            format!(
                                "unknown kind `{token}` in --io-chaos (accepted: enospc, eio, \
                                 short, torn)"
                            )
                        })?;
                        if !kinds.contains(&kind) {
                            kinds.push(kind);
                        }
                    }
                    if kinds.is_empty() {
                        return Err("empty `kinds` in --io-chaos".into());
                    }
                    cfg.kinds = kinds;
                }
                "retries" => cfg.max_retries = value.parse().map_err(|_| bad(key, value))?,
                "backoff_ms" => cfg.backoff_ms = value.parse().map_err(|_| bad(key, value))?,
                "kill" => {
                    let Some((class, n)) = value.split_once('@') else {
                        return Err(format!(
                            "kill in --io-chaos must be CLASS@N (e.g. journal@3), got `{value}`"
                        ));
                    };
                    let class = PathClass::parse(class).ok_or_else(|| {
                        format!(
                            "unknown class `{class}` in --io-chaos kill (accepted: {})",
                            PathClass::ALL.map(PathClass::label).join(", ")
                        )
                    })?;
                    let n: u64 = n.parse().map_err(|_| bad(key, value))?;
                    cfg.kill = Some((class, n));
                }
                other => {
                    return Err(format!(
                        "unknown key `{other}` in --io-chaos (accepted: seed, rate, kinds, \
                         retries, backoff_ms, kill)"
                    ));
                }
            }
        }
        if !have_seed {
            return Err("missing `seed` in --io-chaos".into());
        }
        Ok(cfg)
    }
}

/// An injected fault plus the mix key that sub-decisions (which syscall
/// an EIO strikes, how long a short write's surviving prefix is) are
/// derived from.
#[derive(Debug, Clone, Copy)]
struct Inject {
    kind: IoFaultKind,
    key: u64,
}

fn raw_decide(
    cfg: &IoChaosConfig,
    op_index: u64,
    class: PathClass,
    dir: IoDir,
    attempt: u32,
) -> Option<Inject> {
    if cfg.rate_ppm == 0 || attempt >= cfg.max_retries {
        return None;
    }
    let eligible: Vec<IoFaultKind> = cfg
        .kinds
        .iter()
        .copied()
        .filter(|k| k.eligible(dir))
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let key = splitmix64(
        cfg.seed
            ^ splitmix64(op_index ^ ((class.index() as u64) << 56) ^ ((u64::from(attempt)) << 48)),
    );
    if key % PPM >= cfg.rate_ppm {
        return None;
    }
    let pick = splitmix64(key) % eligible.len() as u64;
    Some(Inject {
        kind: eligible[pick as usize],
        key,
    })
}

/// The pure fault decision: does attempt `attempt` of logical operation
/// `op_index` on `class` in direction `dir` draw a fault, and of what
/// kind? Same inputs, same answer — no hidden state — and any
/// `attempt >= cfg.max_retries` is `None` by construction, which is the
/// convergence guarantee the torture suite pins.
pub fn decide(
    cfg: &IoChaosConfig,
    op_index: u64,
    class: PathClass,
    dir: IoDir,
    attempt: u32,
) -> Option<IoFaultKind> {
    raw_decide(cfg, op_index, class, dir, attempt).map(|i| i.kind)
}

/// Counters the shim keeps while a plan is installed, for the one-line
/// stderr summary the binaries print on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoChaosStats {
    /// Logical operations that consulted the plan.
    pub ops: u64,
    /// Faults injected, indexed like [`IoFaultKind::ALL`].
    pub injected: [u64; 4],
    /// Extra attempts spent recovering from faults.
    pub retries: u64,
    /// Operations that failed every permitted attempt (only possible
    /// under `kill`, or when a *real* disk error persists).
    pub exhausted: u64,
}

impl IoChaosStats {
    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

struct State {
    cfg: IoChaosConfig,
    op_index: AtomicU64,
    class_ops: [AtomicU64; 7],
    injected: [AtomicU64; 4],
    retries: AtomicU64,
    exhausted: AtomicU64,
}

impl State {
    fn new(cfg: IoChaosConfig) -> State {
        State {
            cfg,
            op_index: AtomicU64::new(0),
            class_ops: Default::default(),
            injected: Default::default(),
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Arc<State>>> = Mutex::new(None);

fn lock_state() -> MutexGuard<'static, Option<Arc<State>>> {
    match STATE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn current() -> Option<Arc<State>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    lock_state().clone()
}

/// Installs `cfg` as the process-wide fault plan. Binaries call this
/// once at flag-parse time; subsequent durable I/O consults the plan.
pub fn install(cfg: IoChaosConfig) {
    *lock_state() = Some(Arc::new(State::new(cfg)));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the process-wide fault plan (tests; binaries never need to).
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *lock_state() = None;
}

/// True when a fault plan is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A snapshot of the installed plan's counters, if any.
pub fn stats() -> Option<IoChaosStats> {
    let state = current()?;
    let mut s = IoChaosStats {
        ops: state.op_index.load(Ordering::Relaxed),
        retries: state.retries.load(Ordering::Relaxed),
        exhausted: state.exhausted.load(Ordering::Relaxed),
        ..IoChaosStats::default()
    };
    for (slot, counter) in s.injected.iter_mut().zip(&state.injected) {
        *slot = counter.load(Ordering::Relaxed);
    }
    Some(s)
}

/// The `[io-chaos]` stderr summary the binaries print on exit, or
/// `None` when no plan is installed. Stderr only: report and stdout
/// bytes must stay byte-identical to the undisturbed run.
pub fn summary_line() -> Option<String> {
    let state = current()?;
    let s = stats()?;
    Some(format!(
        "[io-chaos] seed={} ops={} injected={} (enospc={} eio={} short={} torn={}) \
         retries={} exhausted={}",
        state.cfg.seed,
        s.ops,
        s.total_injected(),
        s.injected[0],
        s.injected[1],
        s.injected[2],
        s.injected[3],
        s.retries,
        s.exhausted,
    ))
}

/// Serializes and scopes a plan for in-process tests: holds a global
/// test gate (so concurrent `#[test]`s never fight over the one
/// process-wide plan) and uninstalls on drop.
pub struct ScopedIoChaos {
    _gate: MutexGuard<'static, ()>,
}

impl ScopedIoChaos {
    /// Installs `cfg` until the returned guard drops.
    pub fn install(cfg: IoChaosConfig) -> ScopedIoChaos {
        static GATE: Mutex<()> = Mutex::new(());
        let gate = match GATE.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        install(cfg);
        ScopedIoChaos { _gate: gate }
    }
}

impl Drop for ScopedIoChaos {
    fn drop(&mut self) {
        uninstall();
    }
}

/// One logical operation's view of the plan: the op index is drawn once
/// when the operation starts, then each attempt consults the pure
/// decision with the attempt number — so a retried operation re-rolls
/// the attempt, not the operation.
struct OpPlan {
    state: Arc<State>,
    class: PathClass,
    op_index: u64,
    killed: bool,
}

impl OpPlan {
    fn begin(class: PathClass) -> Option<OpPlan> {
        let state = current()?;
        let op_index = state.op_index.fetch_add(1, Ordering::Relaxed);
        let class_op = state.class_ops[class.index()].fetch_add(1, Ordering::Relaxed);
        let killed = matches!(state.cfg.kill, Some((kc, n)) if kc == class && class_op >= n);
        Some(OpPlan {
            state,
            class,
            op_index,
            killed,
        })
    }

    fn max_retries(&self) -> u32 {
        self.state.cfg.max_retries
    }

    fn fault(&self, dir: IoDir, attempt: u32) -> Option<Inject> {
        let inject = if self.killed {
            // The class's disk died: every attempt faults, including the
            // normally-protected final one, so the error escapes to the
            // caller's policy.
            Some(Inject {
                kind: IoFaultKind::Eio,
                key: splitmix64(
                    self.state.cfg.seed ^ splitmix64(self.op_index ^ u64::from(attempt)),
                ),
            })
        } else {
            raw_decide(&self.state.cfg, self.op_index, self.class, dir, attempt)
        };
        if let Some(inj) = &inject {
            self.state.injected[inj.kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    fn backoff(&self, attempt: u32) {
        self.state.retries.fetch_add(1, Ordering::Relaxed);
        let ms = self
            .state
            .cfg
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(6));
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    fn exhausted(&self) {
        self.state.exhausted.fetch_add(1, Ordering::Relaxed);
    }
}

/// A syscall-attributed I/O failure: which primitive failed (`open`,
/// `append`, `fsync`, `rename`, `read`, `truncate`) and the underlying
/// error. [`append_sync`] reports these so the journal can name the
/// failing syscall in its diagnostics.
#[derive(Debug)]
pub struct SyscallError {
    /// The failing primitive, by name.
    pub syscall: &'static str,
    /// The underlying I/O error (real or injected).
    pub error: io::Error,
}

impl std::fmt::Display for SyscallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.syscall, self.error)
    }
}

impl std::error::Error for SyscallError {}

impl From<SyscallError> for io::Error {
    fn from(e: SyscallError) -> io::Error {
        io::Error::new(e.error.kind(), format!("{} failed: {}", e.syscall, e.error))
    }
}

fn injected_err(kind: IoFaultKind, detail: String) -> io::Error {
    let name = match kind {
        IoFaultKind::Enospc => "ENOSPC (disk full)",
        IoFaultKind::Eio => "EIO",
        IoFaultKind::ShortWrite => "short write",
        IoFaultKind::TornRead => "torn read",
    };
    io::Error::other(format!("io-chaos: injected {name}: {detail}"))
}

fn warn_dir_sync_failed(dir: &Path, e: &io::Error) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: cannot fsync directory {}: {e} (renames may not survive power loss; \
             further directory-fsync failures will not be reported)",
            dir.display()
        );
    }
}

fn write_atomic_attempt(
    path: &Path,
    dir: &Path,
    tmp: &Path,
    bytes: &[u8],
    fault: Option<Inject>,
) -> io::Result<()> {
    let mut f = std::fs::File::create(tmp)?;
    if let Some(inj) = fault {
        // All injected write faults strike the temp file or the rename
        // *before* it happens, so the destination is never touched — the
        // atomicity contract holds even under injection; what recovery
        // must handle is the stranded partial temp file.
        let prefix = |n: u64| (n % (bytes.len() as u64 + 1)) as usize;
        match inj.kind {
            IoFaultKind::Enospc => {
                let keep = prefix(inj.key >> 8);
                let _ = f.write_all(&bytes[..keep]);
                return Err(injected_err(
                    inj.kind,
                    format!("writing {} ({keep} bytes landed)", tmp.display()),
                ));
            }
            IoFaultKind::ShortWrite => {
                let keep = prefix(inj.key >> 8);
                f.write_all(&bytes[..keep])?;
                let _ = f.sync_all();
                return Err(injected_err(
                    inj.kind,
                    format!("{keep} of {} bytes to {}", bytes.len(), tmp.display()),
                ));
            }
            IoFaultKind::Eio => match (inj.key >> 8) % 3 {
                0 => {
                    return Err(injected_err(inj.kind, format!("writing {}", tmp.display())));
                }
                1 => {
                    f.write_all(bytes)?;
                    return Err(injected_err(
                        inj.kind,
                        format!("fsync of {}", tmp.display()),
                    ));
                }
                _ => {
                    f.write_all(bytes)?;
                    f.sync_all()?;
                    return Err(injected_err(
                        inj.kind,
                        format!("rename of {} to {}", tmp.display(), path.display()),
                    ));
                }
            },
            IoFaultKind::TornRead => {}
        }
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, path)?;
    // Make the rename itself durable. Failure does not invalidate the
    // write, but it is no longer silently discarded (satellite: surface
    // directory-fsync errors once).
    if let Err(e) = std::fs::File::open(dir).and_then(|d| d.sync_all()) {
        warn_dir_sync_failed(dir, &e);
    }
    Ok(())
}

/// Durably replaces `path` with `bytes` under the installed fault plan:
/// write a temp sibling, fsync, rename over the destination, fsync the
/// directory. Readers of `path` see either the old complete file or the
/// new complete file, never a partial one — injected faults strike the
/// temp file and are recovered by removing it and retrying (bounded;
/// the final attempt is fault-free unless the class's disk died).
pub fn write_atomic(class: PathClass, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let (dir, tmp) = crate::temp_sibling(path, "tmp");
    let plan = OpPlan::begin(class);
    let max = plan.as_ref().map(OpPlan::max_retries).unwrap_or(0);
    let mut last: Option<io::Error> = None;
    for attempt in 0..=max {
        let fault = plan.as_ref().and_then(|p| p.fault(IoDir::Write, attempt));
        match write_atomic_attempt(path, &dir, &tmp, bytes, fault) {
            Ok(()) => return Ok(()),
            Err(e) => {
                // Never strand the partial temp file (satellite: remove
                // the orphan on write/fsync/rename failure).
                let _ = std::fs::remove_file(&tmp);
                last = Some(e);
            }
        }
        if attempt < max {
            if let Some(p) = &plan {
                p.backoff(attempt);
            }
        }
    }
    if let Some(p) = &plan {
        p.exhausted();
    }
    Err(last.unwrap_or_else(|| io::Error::other("write failed")))
}

fn read_attempt(path: &Path, fault: Option<Inject>) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    if let Some(inj) = fault {
        match inj.kind {
            IoFaultKind::Eio => {
                return Err(injected_err(
                    inj.kind,
                    format!("reading {}", path.display()),
                ));
            }
            IoFaultKind::TornRead => {
                // A real torn read would hand back a prefix; the shim
                // detects it (as a checksummed reader would) and reports
                // it as a failure to retry, so a truncated view never
                // escapes into replay logic that might truncate valid
                // records on the strength of it.
                let keep = (inj.key >> 8) as usize % (bytes.len() + 1);
                return Err(injected_err(
                    inj.kind,
                    format!("{keep} of {} bytes from {}", bytes.len(), path.display()),
                ));
            }
            _ => {}
        }
    }
    Ok(bytes)
}

/// Reads the whole file at `path` under the installed fault plan.
/// Injected read faults (EIO, torn reads) are retried with backoff; a
/// real `NotFound` returns immediately (retrying cannot create the
/// file).
pub fn read_file(class: PathClass, path: &Path) -> io::Result<Vec<u8>> {
    let plan = OpPlan::begin(class);
    let max = plan.as_ref().map(OpPlan::max_retries).unwrap_or(0);
    let mut last: Option<io::Error> = None;
    for attempt in 0..=max {
        let fault = plan.as_ref().and_then(|p| p.fault(IoDir::Read, attempt));
        match read_attempt(path, fault) {
            Ok(bytes) => return Ok(bytes),
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    return Err(e);
                }
                last = Some(e);
            }
        }
        if attempt < max {
            if let Some(p) = &plan {
                p.backoff(attempt);
            }
        }
    }
    if let Some(p) = &plan {
        p.exhausted();
    }
    Err(last.unwrap_or_else(|| io::Error::other("read failed")))
}

fn append_attempt(
    file: &mut std::fs::File,
    bytes: &[u8],
    fault: Option<Inject>,
) -> Result<(), SyscallError> {
    if let Some(inj) = fault {
        let prefix = |n: u64| (n % (bytes.len() as u64 + 1)) as usize;
        match inj.kind {
            IoFaultKind::Enospc => {
                let keep = prefix(inj.key >> 8);
                let _ = file.write_all(&bytes[..keep]);
                return Err(SyscallError {
                    syscall: "append",
                    error: injected_err(inj.kind, format!("{keep} bytes landed")),
                });
            }
            IoFaultKind::ShortWrite => {
                let keep = prefix(inj.key >> 8);
                if let Err(error) = file.write_all(&bytes[..keep]) {
                    return Err(SyscallError {
                        syscall: "append",
                        error,
                    });
                }
                let _ = file.sync_data();
                return Err(SyscallError {
                    syscall: "append",
                    error: injected_err(inj.kind, format!("{keep} of {} bytes", bytes.len())),
                });
            }
            IoFaultKind::Eio => {
                if (inj.key >> 8) % 2 == 0 {
                    return Err(SyscallError {
                        syscall: "append",
                        error: injected_err(inj.kind, "write refused".into()),
                    });
                }
                // The record's bytes land, but the fsync that would
                // acknowledge them fails: recovery must truncate them
                // back out, or an unacknowledged record would survive.
                if let Err(error) = file.write_all(bytes) {
                    return Err(SyscallError {
                        syscall: "append",
                        error,
                    });
                }
                return Err(SyscallError {
                    syscall: "fsync",
                    error: injected_err(inj.kind, "sync refused".into()),
                });
            }
            IoFaultKind::TornRead => {}
        }
    }
    file.write_all(bytes).map_err(|error| SyscallError {
        syscall: "append",
        error,
    })?;
    file.sync_data().map_err(|error| SyscallError {
        syscall: "fsync",
        error,
    })
}

/// Durably appends `bytes` to `file` (already positioned at `known_len`,
/// the length of the acknowledged prefix) and fsyncs, under the
/// installed fault plan. A faulted attempt — including one whose bytes
/// landed but whose fsync failed — is recovered by truncating the file
/// back to `known_len` and retrying, so the file only ever grows by
/// whole acknowledged records. If recovery itself fails, that error is
/// returned immediately (the file can no longer be trusted for
/// appends).
pub fn append_sync(
    class: PathClass,
    file: &mut std::fs::File,
    known_len: u64,
    bytes: &[u8],
) -> Result<(), SyscallError> {
    let plan = OpPlan::begin(class);
    let max = plan.as_ref().map(OpPlan::max_retries).unwrap_or(0);
    let mut last: Option<SyscallError> = None;
    for attempt in 0..=max {
        let fault = plan.as_ref().and_then(|p| p.fault(IoDir::Write, attempt));
        match append_attempt(file, bytes, fault) {
            Ok(()) => return Ok(()),
            Err(e) => {
                file.set_len(known_len).map_err(|error| SyscallError {
                    syscall: "truncate",
                    error,
                })?;
                file.seek(io::SeekFrom::Start(known_len))
                    .map_err(|error| SyscallError {
                        syscall: "seek",
                        error,
                    })?;
                last = Some(e);
            }
        }
        if attempt < max {
            if let Some(p) = &plan {
                p.backoff(attempt);
            }
        }
    }
    if let Some(p) = &plan {
        p.exhausted();
    }
    Err(last.unwrap_or_else(|| SyscallError {
        syscall: "append",
        error: io::Error::other("append failed"),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, rate: u64) -> IoChaosConfig {
        IoChaosConfig {
            seed,
            rate_ppm: rate,
            kinds: IoFaultKind::ALL.to_vec(),
            max_retries: DEFAULT_RETRIES,
            backoff_ms: 0,
            kill: None,
        }
    }

    #[test]
    fn decide_is_pure_and_final_attempt_is_clean() {
        let c = cfg(42, 800_000);
        for op in 0..200u64 {
            for class in PathClass::ALL {
                for attempt in 0..=c.max_retries {
                    let a = decide(&c, op, class, IoDir::Write, attempt);
                    let b = decide(&c, op, class, IoDir::Write, attempt);
                    assert_eq!(a, b);
                    if attempt >= c.max_retries {
                        assert_eq!(a, None);
                    }
                }
            }
        }
    }

    #[test]
    fn rate_zero_never_faults_and_rate_ppm_always_faults_before_final() {
        let quiet = cfg(7, 0);
        let loud = cfg(7, PPM);
        for op in 0..100u64 {
            assert_eq!(
                decide(&quiet, op, PathClass::Journal, IoDir::Write, 0),
                None
            );
            assert!(decide(&loud, op, PathClass::Journal, IoDir::Write, 0).is_some());
        }
    }

    #[test]
    fn kinds_respect_direction() {
        let mut c = cfg(3, PPM);
        c.kinds = vec![IoFaultKind::TornRead];
        for op in 0..50u64 {
            assert_eq!(decide(&c, op, PathClass::Report, IoDir::Write, 0), None);
            assert_eq!(
                decide(&c, op, PathClass::Report, IoDir::Read, 0),
                Some(IoFaultKind::TornRead)
            );
        }
        c.kinds = vec![IoFaultKind::Enospc, IoFaultKind::ShortWrite];
        for op in 0..50u64 {
            assert_eq!(decide(&c, op, PathClass::Report, IoDir::Read, 0), None);
        }
    }

    #[test]
    fn parse_spec_accepts_the_documented_keys() {
        let c = IoChaosConfig::parse_spec(
            "seed=9,rate=250000,kinds=eio+torn,retries=2,backoff_ms=0,kill=journal@5",
        )
        .unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.rate_ppm, 250_000);
        assert_eq!(c.kinds, vec![IoFaultKind::Eio, IoFaultKind::TornRead]);
        assert_eq!(c.max_retries, 2);
        assert_eq!(c.kill, Some((PathClass::Journal, 5)));
    }

    #[test]
    fn parse_spec_refuses_hostile_inputs_by_name() {
        for (spec, needle) in [
            ("rate=5", "missing `seed`"),
            ("seed=x", "bad value `x` for `seed`"),
            ("seed=1,rate=2000001", "parts per million"),
            ("seed=1,kinds=quantum", "unknown kind `quantum`"),
            ("seed=1,kinds=", "empty `kinds`"),
            ("seed=1,bogus=2", "unknown key `bogus`"),
            ("seed=1,kill=nope@3", "unknown class `nope`"),
            ("seed=1,kill=journal", "must be CLASS@N"),
        ] {
            let err = IoChaosConfig::parse_spec(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: {err}");
            assert!(
                err.contains("io-chaos") || needle.contains("CLASS@N"),
                "spec `{spec}`: {err}"
            );
        }
        // Duplicate keys are last-wins, like every FileSpec flag.
        let c = IoChaosConfig::parse_spec("seed=1,seed=2").unwrap();
        assert_eq!(c.seed, 2);
    }

    #[test]
    fn write_atomic_converges_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("pim-vfs-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        {
            let _guard = ScopedIoChaos::install(cfg(1234, 900_000));
            for round in 0..20u8 {
                let payload = vec![round; 1 + round as usize * 7];
                write_atomic(PathClass::Report, &path, &payload).unwrap();
                assert_eq!(std::fs::read(&path).unwrap(), payload);
            }
            assert!(stats().unwrap().total_injected() > 0);
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "out.bin")
            .collect();
        assert!(leftovers.is_empty(), "stranded temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_class_fails_loud_while_others_converge() {
        let dir = std::env::temp_dir().join(format!("pim-vfs-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dead.bin");
        let mut c = cfg(5, 0);
        c.kill = Some((PathClass::Journal, 0));
        let _guard = ScopedIoChaos::install(c);
        let err = write_atomic(PathClass::Journal, &path, b"x").unwrap_err();
        assert!(err.to_string().contains("io-chaos"), "{err}");
        assert!(!path.exists());
        write_atomic(PathClass::Report, &path, b"fine").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"fine");
        assert_eq!(stats().unwrap().exhausted, 1);
        drop(_guard);
        std::fs::remove_dir_all(&dir).ok();
    }
}
