//! The supervised sweep executor: a bounded worker pool with per-cell
//! retry, deterministic backoff, quarantine, and graceful degradation.
//!
//! # Cell lifecycle
//!
//! ```text
//!            ┌────────── served from journal ──────────┐
//!            │                                          ▼
//! pending ──qsort──> claimed ──run──> done ──append──> recorded
//!            │          │ failure/panic
//!            │          ▼
//!            │       backoff ──retry──> claimed   (attempt < budget)
//!            │          │
//!            │          ▼ budget exhausted
//!            │      quarantined ──append──> recorded
//!            │
//!            └── cancel raised before claim ──> skipped (not journaled)
//! ```
//!
//! Every attempt runs under `catch_unwind`, so a panicking cell (or a
//! chaos-killed worker) is a structured per-cell failure, never a dead
//! sweep. The *final* permitted attempt is always chaos-free, which is
//! what makes `--chaos` runs converge to the undisturbed result: chaos
//! can consume attempts and wall time, but a deterministic cell's last
//! attempt decides the same outcome either way.
//!
//! Backoff between attempts is pure in (base, cell digest, attempt) —
//! no clocks, no RNG state — so retry schedules are reproducible.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use pim_fault::chaos::{ChaosEvent, ChaosPlan};
use pim_obs::Histogram;
use pim_telemetry::RunStatus;
use workloads::runner::{run_cell, CellControl, CellError, RunReport};

use crate::journal::{CellOutcome, CellRow, Journal, JournalError};
use crate::spec::{Cell, CellBench};

/// Executor policy for one sweep invocation.
#[derive(Debug)]
pub struct ExecConfig {
    /// Worker threads (0 = the host's available parallelism).
    pub threads: usize,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Per-cell wall-clock timeout in seconds (`None` = unbounded).
    pub timeout_secs: Option<u64>,
    /// Base backoff between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// The chaos fault injector for self-tests (never consulted on a
    /// cell's final permitted attempt).
    pub chaos: Option<ChaosPlan>,
}

/// The fate of one cell in the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFate {
    /// Completed and validated.
    Done(CellRow),
    /// Failed every permitted attempt; the sweep continued without it.
    Quarantined {
        /// Attempts consumed.
        attempts: u32,
        /// The final (chaos-free) attempt's failure.
        error: String,
    },
    /// Never ran to completion this invocation: the cancel flag was
    /// raised first. A later resume picks it up from the journal.
    Skipped,
}

/// Everything one executor invocation produced.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-cell fates, in grid order.
    pub cells: Vec<(Cell, CellFate)>,
    /// Cells actually executed by this invocation.
    pub executed: u64,
    /// Cells served from the journal without running.
    pub reused: u64,
    /// Extra attempts consumed beyond the first, across all cells.
    pub retries: u64,
    /// The first journal append failure, if any (the sweep keeps
    /// running; the report is still produced).
    pub journal_error: Option<JournalError>,
    /// Worker threads that died outside the per-attempt unwind guard.
    pub worker_deaths: u64,
    /// Wall milliseconds per executed cell (done and quarantined),
    /// merged across workers. Host-dependent — reports may only place
    /// it in the provenance block.
    pub wall_hist: Histogram,
}

impl SweepResult {
    /// Whether the sweep degraded: any quarantined or skipped cell,
    /// journal trouble, or a dead worker. Degraded sweeps still report
    /// every cell; callers surface the difference via the exit code.
    pub fn degraded(&self) -> bool {
        self.journal_error.is_some()
            || self.worker_deaths > 0
            || self
                .cells
                .iter()
                .any(|(_, fate)| !matches!(fate, CellFate::Done(_)))
    }
}

/// Deterministic backoff before retry `attempt + 1`: exponential in the
/// attempt with a content-addressed jitter so colliding cells do not
/// retry in lockstep. Pure in its arguments — reproducible schedules.
pub fn backoff_delay_ms(base_ms: u64, digest: u64, attempt: u32) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(6));
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&digest.to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    let jitter = pim_ckpt::fnv1a64(&key) % (exp / 4 + 1);
    exp.saturating_add(jitter).min(5_000)
}

fn row_of(report: &RunReport) -> CellRow {
    CellRow {
        reductions: report.machine.reductions,
        suspensions: report.machine.suspensions,
        references: report.refs.total(),
        bus_cycles: report.bus.total_cycles(),
        lookups: report.access.lookups,
        hits: report.access.hits,
        lr_total: report.locks.lr_total,
        makespan: report.makespan,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}

/// One attempt of one cell, inside the unwind guard.
fn run_attempt(
    cell: &Cell,
    cfg: &ExecConfig,
    cancel: Option<&AtomicBool>,
    chaos: Option<ChaosEvent>,
    telemetry: Option<&RunStatus>,
) -> Result<CellRow, CellError> {
    match chaos {
        Some(ChaosEvent::Kill) => {
            if let Some(t) = telemetry {
                t.chaos_kill();
            }
            panic!("chaos: worker killed mid-cell (`{}`)", cell.key())
        }
        Some(ChaosEvent::Delay(ms)) => {
            if let Some(t) = telemetry {
                t.chaos_delay();
            }
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        None => {}
    }
    match cell.bench {
        CellBench::Poison => panic!(
            "poison cell `{}` panicked (deterministic self-test failure)",
            cell.key()
        ),
        CellBench::Real(bench) => {
            // The telemetry tick lives on this frame so the control
            // block can borrow it; it feeds chunk-boundary progress
            // without touching the run itself.
            let tick;
            let progress: Option<&(dyn Fn(u64) + Sync)> = match telemetry {
                Some(t) => {
                    tick = move |steps: u64| t.engine_chunk(steps);
                    Some(&tick)
                }
                None => None,
            };
            let ctl = CellControl {
                // A deadline past what `Instant` can represent is none.
                deadline: cfg.timeout_secs.and_then(|s| {
                    std::time::Instant::now().checked_add(std::time::Duration::from_secs(s))
                }),
                cancel,
                budget_secs: cfg.timeout_secs.unwrap_or(0),
                progress,
            };
            run_cell(cell.protocol, bench, cell.scale, cell.config(), &ctl).map(|r| row_of(&r))
        }
    }
}

/// Runs the attempt loop for one cell. Returns the fate plus the number
/// of attempts consumed.
fn supervise_cell(
    cell: &Cell,
    cfg: &ExecConfig,
    cancel: Option<&AtomicBool>,
    telemetry: Option<&RunStatus>,
) -> (CellFate, u32) {
    let digest = cell.digest();
    let mut last_error = String::new();
    for attempt in 0..cfg.max_attempts.max(1) {
        if let Some(t) = telemetry {
            if attempt == 0 {
                t.cell_running(&cell.key());
            } else {
                t.cell_retrying(&cell.key(), attempt + 1);
            }
        }
        let final_attempt = attempt + 1 >= cfg.max_attempts.max(1);
        // The final permitted attempt is always chaos-free: chaos may
        // consume the retry budget's slack, never the budget itself.
        let chaos = if final_attempt {
            None
        } else {
            cfg.chaos.as_ref().and_then(|p| p.decide(digest, attempt))
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(cell, cfg, cancel, chaos, telemetry)
        }));
        match outcome {
            Ok(Ok(row)) => return (CellFate::Done(row), attempt + 1),
            Ok(Err(CellError::Cancelled { .. })) => return (CellFate::Skipped, attempt + 1),
            Ok(Err(e)) => last_error = e.to_string(),
            Err(payload) => last_error = panic_message(payload),
        }
        if final_attempt {
            break;
        }
        // Between attempts the cancel flag wins over the backoff sleep.
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return (CellFate::Skipped, attempt + 1);
        }
        std::thread::sleep(std::time::Duration::from_millis(backoff_delay_ms(
            cfg.backoff_ms,
            digest,
            attempt,
        )));
    }
    (
        CellFate::Quarantined {
            attempts: cfg.max_attempts.max(1),
            error: last_error,
        },
        cfg.max_attempts.max(1),
    )
}

/// Runs one unit of work under the supervisor's unwind guard: a panic
/// becomes `Err(message)` instead of a dead process. This is the same
/// containment every sweep attempt runs under, exposed for harnesses
/// (like `repro`) that supervise their own work lists.
pub fn contained<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Silences the process-global panic hook. Supervised cells *expect*
/// panics (poison cells, chaos kills) and capture the message into the
/// per-cell failure, so the default hook's backtrace spew is pure noise
/// on a supervisor's stderr. Binaries call this once before the sweep;
/// the library never touches the hook on its own.
pub fn silence_panic_output() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Executes `cells` under supervision.
///
/// Cells whose digest appears in `prior` (replayed from the journal)
/// are served from it without running — that is what makes a resumed
/// sweep converge instead of repeating work. Everything else runs on
/// up to `cfg.threads` workers; completions and quarantines are
/// appended (and fsync'd) to `journal` before they are counted. The
/// per-cell fates come back in grid order regardless of scheduling, so
/// a deterministic grid yields a byte-identical report at any thread
/// count.
///
/// `telemetry`, when present, receives the full cell lifecycle feed
/// (registration, running/retrying, terminal states, chaos hits, engine
/// chunks). The feed is strictly passive: fates, rows, journal bytes,
/// and report bytes are identical with telemetry on or off.
pub fn run_sweep(
    cells: &[Cell],
    prior: &BTreeMap<u64, CellOutcome>,
    cfg: &ExecConfig,
    journal: Option<&mut Journal>,
    cancel: Option<&AtomicBool>,
    telemetry: Option<&RunStatus>,
) -> SweepResult {
    if let Some(t) = telemetry {
        for cell in cells {
            t.register_cell(&cell.key());
        }
    }
    let fates: Vec<Mutex<Option<CellFate>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let mut reused = 0u64;
    let mut pending = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match prior.get(&cell.digest()) {
            Some(CellOutcome::Done(row)) => {
                *lock_clean(&fates[i]) = Some(CellFate::Done(*row));
                reused += 1;
                if let Some(t) = telemetry {
                    t.reuse_cell(&cell.key(), false);
                }
            }
            Some(CellOutcome::Quarantined { attempts, error }) => {
                *lock_clean(&fates[i]) = Some(CellFate::Quarantined {
                    attempts: *attempts,
                    error: error.clone(),
                });
                reused += 1;
                if let Some(t) = telemetry {
                    t.reuse_cell(&cell.key(), true);
                }
            }
            None => pending.push(i),
        }
    }
    let executed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let journal = Mutex::new(journal);
    let journal_error: Mutex<Option<JournalError>> = Mutex::new(None);
    let workers = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
    .min(pending.len().max(1));
    if let Some(t) = telemetry {
        t.set_workers(workers as u64);
    }
    let mut worker_deaths = 0u64;
    let wall_hist = Mutex::new(Histogram::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker wall-time histogram, merged once at
                    // worker exit so the hot loop stays lock-free.
                    let mut local_hist = Histogram::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = pending.get(slot) else { break };
                        let cell = &cells[i];
                        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                            *lock_clean(&fates[i]) = Some(CellFate::Skipped);
                            if let Some(t) = telemetry {
                                t.cell_skipped(&cell.key());
                            }
                            continue;
                        }
                        let started = std::time::Instant::now();
                        let (fate, attempts) = supervise_cell(cell, cfg, cancel, telemetry);
                        retries.fetch_add(u64::from(attempts.saturating_sub(1)), Ordering::Relaxed);
                        let record = match &fate {
                            CellFate::Done(row) => Some(CellOutcome::Done(*row)),
                            CellFate::Quarantined { attempts, error } => {
                                Some(CellOutcome::Quarantined {
                                    attempts: *attempts,
                                    error: error.clone(),
                                })
                            }
                            CellFate::Skipped => None,
                        };
                        if let Some(outcome) = record {
                            let wall_ms =
                                u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                            local_hist.record(wall_ms);
                            executed.fetch_add(1, Ordering::Relaxed);
                            if let Some(j) = lock_clean(&journal).as_deref_mut() {
                                if let Err(e) = j.append(cell.digest(), &outcome) {
                                    lock_clean(&journal_error).get_or_insert(e);
                                }
                            }
                        }
                        if let Some(t) = telemetry {
                            match &fate {
                                CellFate::Done(_) => t.cell_done(&cell.key()),
                                CellFate::Quarantined { attempts, error } => {
                                    t.cell_quarantined(&cell.key(), *attempts, error);
                                }
                                CellFate::Skipped => t.cell_skipped(&cell.key()),
                            }
                        }
                        *lock_clean(&fates[i]) = Some(fate);
                    }
                    lock_clean(&wall_hist).merge(&local_hist);
                })
            })
            .collect();
        for h in handles {
            if h.join().is_err() {
                // The per-attempt unwind guard makes this unreachable in
                // practice; degrade instead of aborting if it happens.
                worker_deaths += 1;
            }
        }
    });
    let cells_out = cells
        .iter()
        .zip(fates)
        .map(|(cell, fate)| {
            let fate = match fate.into_inner() {
                Ok(f) => f,
                Err(poisoned) => poisoned.into_inner(),
            };
            (*cell, fate.unwrap_or(CellFate::Skipped))
        })
        .collect();
    SweepResult {
        cells: cells_out,
        executed: executed.into_inner(),
        reused,
        retries: retries.into_inner(),
        journal_error: journal_error
            .into_inner()
            .unwrap_or_else(|p| p.into_inner()),
        worker_deaths,
        wall_hist: wall_hist.into_inner().unwrap_or_else(|p| p.into_inner()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use pim_fault::chaos::ChaosConfig;

    fn smoke_spec(benches: &str) -> SweepSpec {
        SweepSpec::parse(&format!(
            "protocols=pim\nbenches={benches}\nscales=smoke\npes=2\nbackoff=1\n"
        ))
        .unwrap()
    }

    fn cfg(max_attempts: u32) -> ExecConfig {
        ExecConfig {
            threads: 2,
            max_attempts,
            timeout_secs: None,
            backoff_ms: 1,
            chaos: None,
        }
    }

    #[test]
    fn clean_cells_complete_and_count_as_executed() {
        let cells = smoke_spec("tri,semi").cells();
        let result = run_sweep(&cells, &BTreeMap::new(), &cfg(2), None, None, None);
        assert_eq!(result.executed, 2);
        assert_eq!(result.reused, 0);
        assert_eq!(result.retries, 0);
        assert!(!result.degraded());
        for (cell, fate) in &result.cells {
            match fate {
                CellFate::Done(row) => assert!(row.makespan > 0, "{}", cell.key()),
                other => panic!("{}: {other:?}", cell.key()),
            }
        }
    }

    #[test]
    fn poison_cells_quarantine_while_the_rest_complete() {
        let cells = smoke_spec("tri,poison,semi").cells();
        let result = run_sweep(&cells, &BTreeMap::new(), &cfg(3), None, None, None);
        assert!(result.degraded());
        assert_eq!(result.retries, 2); // poison consumed its whole budget
        let fates: Vec<&CellFate> = result.cells.iter().map(|(_, f)| f).collect();
        assert!(matches!(fates[0], CellFate::Done(_)));
        assert!(matches!(fates[2], CellFate::Done(_)));
        match fates[1] {
            CellFate::Quarantined { attempts, error } => {
                assert_eq!(*attempts, 3);
                assert!(error.contains("poison cell"), "{error}");
            }
            other => panic!("poison cell: {other:?}"),
        }
    }

    #[test]
    fn prior_outcomes_are_served_without_execution() {
        let cells = smoke_spec("tri,semi").cells();
        let first = run_sweep(&cells, &BTreeMap::new(), &cfg(2), None, None, None);
        let prior: BTreeMap<u64, CellOutcome> = first
            .cells
            .iter()
            .filter_map(|(cell, fate)| match fate {
                CellFate::Done(row) => Some((cell.digest(), CellOutcome::Done(*row))),
                _ => None,
            })
            .collect();
        let second = run_sweep(&cells, &prior, &cfg(2), None, None, None);
        assert_eq!(second.executed, 0);
        assert_eq!(second.reused, 2);
        assert_eq!(
            first.cells.iter().map(|(_, f)| f).collect::<Vec<_>>(),
            second.cells.iter().map(|(_, f)| f).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chaos_converges_to_the_undisturbed_result() {
        let cells = smoke_spec("tri,semi,poison").cells();
        let clean = run_sweep(&cells, &BTreeMap::new(), &cfg(3), None, None, None);
        for seed in [1u64, 2] {
            let chaos = ChaosPlan::new(ChaosConfig {
                seed,
                kill_ppm: 600_000,
                delay_ppm: 300_000,
                max_delay_ms: 3,
            });
            let chaotic = run_sweep(
                &cells,
                &BTreeMap::new(),
                &ExecConfig {
                    chaos: Some(chaos),
                    ..cfg(3)
                },
                None,
                None,
                None,
            );
            // Fates are identical; only retry/wall accounting may differ.
            assert_eq!(
                clean.cells.iter().map(|(_, f)| f).collect::<Vec<_>>(),
                chaotic.cells.iter().map(|(_, f)| f).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn raised_cancel_flag_skips_pending_cells() {
        let cells = smoke_spec("tri,semi").cells();
        let cancel = AtomicBool::new(true);
        let result = run_sweep(&cells, &BTreeMap::new(), &cfg(2), None, Some(&cancel), None);
        assert_eq!(result.executed, 0);
        assert!(result
            .cells
            .iter()
            .all(|(_, f)| matches!(f, CellFate::Skipped)));
        assert!(result.degraded());
    }

    #[test]
    fn backoff_is_pure_bounded_and_grows() {
        let a = backoff_delay_ms(25, 42, 0);
        assert_eq!(a, backoff_delay_ms(25, 42, 0));
        assert!(a >= 25);
        assert!(backoff_delay_ms(25, 42, 3) >= backoff_delay_ms(25, 42, 0));
        assert!(backoff_delay_ms(1_000_000, 42, 31) <= 5_000);
        assert_eq!(backoff_delay_ms(0, 42, 0), 0);
    }
}
