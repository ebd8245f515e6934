//! Structured simulation errors: every recoverable failure the engine
//! can hit — deadlock, protocol misuse, watchdog expiry, a stuck replay
//! — is reported as a [`SimError`] instead of a panic, so callers can
//! print a diagnostic and exit cleanly.

use pim_cache::ProtocolError;
use pim_trace::{Addr, PeId};

/// A simulation-level failure detected by the engine.
///
/// These are *detector* results, not bugs in the engine: a workload (or
/// an adversarial fault plan) drove the machine into a state the engine
/// refuses to simulate further. The run's partial statistics are still
/// valid up to the failure point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The lock-directory deadlock detector found a wait-for cycle:
    /// each listed PE is blocked on a lock held by the next (the last
    /// waits on the first). Detected by cycle search over the LWAIT
    /// wait-for graph the moment the cycle closes, instead of hanging.
    Deadlock {
        /// The PEs forming the cycle, in waiter → holder order,
        /// rotated to start at the smallest id.
        cycle: Vec<PeId>,
        /// Simulated cycle at which the deadlock closed.
        clock: u64,
    },
    /// A process issued an operation the protocol rejects (e.g.
    /// re-locking a word it already holds) — a workload bug surfaced
    /// as a diagnostic rather than a panic.
    Protocol {
        /// The issuing PE.
        pe: PeId,
        /// The address of the rejected operation.
        addr: Addr,
        /// The protocol's rejection.
        error: ProtocolError,
    },
    /// The livelock/starvation watchdog expired: a PE's clock passed
    /// the configured budget without the process finishing.
    WatchdogExpired {
        /// The PE whose clock crossed the budget.
        pe: PeId,
        /// Its clock at detection time.
        clock: u64,
        /// The configured budget.
        budget: u64,
    },
    /// No PE can make progress, though none is deadlocked: the listed
    /// PEs are blocked on a lock, and every other PE's latest step was
    /// an idle step that issued no memory operation. The lock holder
    /// will never release it — typically a replayed stream that ends
    /// while still holding a lock.
    ReplayStuck {
        /// The blocked PEs.
        pes: Vec<PeId>,
    },
    /// The host-side wall-clock deadline (`--timeout SECS`) expired
    /// before the simulation finished. Unlike [`WatchdogExpired`]
    /// (a *simulated*-cycle budget), this bounds real time: a
    /// pathological trace or workload stops after the deadline with its
    /// partial statistics intact instead of running forever.
    ///
    /// [`WatchdogExpired`]: SimError::WatchdogExpired
    WallClockExpired {
        /// The configured deadline, in seconds.
        budget_secs: u64,
        /// Simulated cycle reached when the deadline fired.
        cycle: u64,
        /// Micro-steps executed when the deadline fired.
        steps: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, clock } => {
                write!(f, "deadlock at cycle {clock}: lock wait-for cycle ")?;
                for (i, pe) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{pe}")?;
                }
                if let Some(first) = cycle.first() {
                    write!(f, " -> {first}")?;
                }
                Ok(())
            }
            SimError::Protocol { pe, addr, error } => {
                write!(f, "{pe} protocol misuse at {addr:#x}: {error}")
            }
            SimError::WatchdogExpired { pe, clock, budget } => {
                write!(
                    f,
                    "watchdog expired: {pe} reached cycle {clock} against a budget of {budget}"
                )
            }
            SimError::ReplayStuck { pes } => {
                write!(f, "replay stuck: ")?;
                for (i, pe) in pes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{pe}")?;
                }
                write!(
                    f,
                    " blocked on a lock that no running PE will release \
                     (every other PE idles without touching memory)"
                )
            }
            SimError::WallClockExpired {
                budget_secs,
                cycle,
                steps,
            } => {
                write!(
                    f,
                    "wall-clock timeout: --timeout {budget_secs} expired at simulated \
                     cycle {cycle} ({steps} steps executed; partial stats are valid)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_cache::ProtocolError;

    #[test]
    fn errors_render_readably() {
        let e = SimError::Deadlock {
            cycle: vec![PeId(0), PeId(2)],
            clock: 99,
        };
        assert_eq!(
            e.to_string(),
            "deadlock at cycle 99: lock wait-for cycle PE0 -> PE2 -> PE0"
        );
        let e = SimError::Protocol {
            pe: PeId(1),
            addr: 0x40,
            error: ProtocolError::AlreadyLocked { addr: 0x40 },
        };
        assert!(e.to_string().contains("PE1 protocol misuse at 0x40"));
        let e = SimError::WatchdogExpired {
            pe: PeId(3),
            clock: 1001,
            budget: 1000,
        };
        assert!(e.to_string().contains("budget of 1000"));
        let e = SimError::ReplayStuck {
            pes: vec![PeId(0), PeId(1)],
        };
        assert_eq!(
            e.to_string(),
            "replay stuck: PE0, PE1 blocked on a lock that no running PE will release \
             (every other PE idles without touching memory)"
        );
        let e = SimError::WallClockExpired {
            budget_secs: 30,
            cycle: 12345,
            steps: 99,
        };
        assert!(e.to_string().contains("--timeout 30"), "{e}");
        assert!(e.to_string().contains("cycle 12345"), "{e}");
    }
}
