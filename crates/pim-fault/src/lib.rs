//! Deterministic fault injection for the PIM cache simulator.
//!
//! The paper's machine assumes a fault-free bus, memory, and lock
//! directory; this crate supplies the adversarial stimulus a real
//! multiprocessor would see. A [`FaultPlan`] is a *pure function* from
//! `(seed, cycle, pe, attempt)` to an optional [`FaultKind`], evaluated
//! with a splitmix64 mix — no mutable PRNG state, so a run, a rerun, and
//! a run resumed from a checkpoint draw *identical* faults for identical
//! simulated cycles. Every fault
//! is timing-only: it delays the victim operation (NACK + backoff,
//! parity retry, snoop-ack timeout, stall window) but never corrupts
//! protocol state, so a faulted run reaches the same final machine
//! state as a fault-free run — just later. Recovery is bounded by
//! construction: [`FaultPlan::decide`] refuses to inject beyond
//! `max_retries` attempts of one operation.
//!
//! The crate also hosts the lock-directory deadlock detector
//! ([`find_cycle`]) the engine uses to turn an LWAIT wait-for cycle
//! into a structured error instead of a hang.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pim_bus::{arbitrate, Grant, Nack};
use pim_ckpt::splitmix64;
use pim_trace::PeId;

/// One million — fault rates are expressed in parts per million so the
/// plan never touches floating point (bit-identical across platforms).
pub const PPM: u64 = 1_000_000;

/// The kinds of injectable faults, in stable report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The arbiter grants the bus but NACKs the transaction after a
    /// short occupancy; the requester backs off and re-arbitrates.
    BusNack,
    /// The arbiter inserts extra stall cycles into the grant (the
    /// transaction completes, but holds the bus longer).
    BusStall,
    /// The memory reply fails parity after a full bus transaction; the
    /// requester retries with backoff.
    MemCorrupt,
    /// A snoop acknowledgement is dropped; the requester times out
    /// waiting for it and re-arbitrates.
    SnoopDrop,
    /// The PE itself stalls for a fixed window before reaching the bus
    /// (models a local pipeline upset).
    PeStall,
}

/// All kinds, in report order. Index with `kind as usize`.
pub const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::BusNack,
    FaultKind::BusStall,
    FaultKind::MemCorrupt,
    FaultKind::SnoopDrop,
    FaultKind::PeStall,
];

impl FaultKind {
    /// Dense index into [`ALL_KINDS`]-ordered counters.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether recovery from this kind re-issues the bus request
    /// (counts as a retry) rather than merely delaying it.
    pub fn reissues(self) -> bool {
        matches!(
            self,
            FaultKind::BusNack | FaultKind::MemCorrupt | FaultKind::SnoopDrop
        )
    }

    /// Stable machine-readable label (used as a JSON key).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BusNack => "bus_nack",
            FaultKind::BusStall => "bus_stall",
            FaultKind::MemCorrupt => "mem_corrupt",
            FaultKind::SnoopDrop => "snoop_drop",
            FaultKind::PeStall => "pe_stall",
        }
    }
}

/// Static fault-injection parameters. Everything is an integer so a
/// config (and therefore a whole faulted run) is bit-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// PRNG seed; two runs with equal seeds draw equal fault plans.
    pub seed: u64,
    /// Injection probability per bus operation, in parts per million.
    pub rate_ppm: u32,
    /// Hard cap on injections against one operation — recovery is
    /// bounded because attempt `max_retries` is always fault-free.
    pub max_retries: u32,
    /// Bus cycles a NACKed transaction occupies before the NACK.
    pub nack_cycles: u64,
    /// Cycles a requester waits for a dropped snoop ack before
    /// re-arbitrating.
    pub snoop_timeout: u64,
    /// Length of an injected PE stall window, in cycles.
    pub stall_window: u64,
    /// Base of the linear retry backoff: attempt `n` waits
    /// `backoff_base * (n + 1)` cycles before re-issuing.
    pub backoff_base: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            rate_ppm: 0,
            max_retries: 4,
            nack_cycles: 2,
            snoop_timeout: 16,
            stall_window: 8,
            backoff_base: 4,
        }
    }
}

impl FaultConfig {
    /// A plan seeded with `seed` injecting at `rate_ppm` parts per
    /// million, with default recovery latencies.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        FaultConfig {
            seed,
            rate_ppm,
            ..FaultConfig::default()
        }
    }

    /// Parses a CLI fault spec of the form `seed=N,rate=R` (with `R`
    /// either a fraction like `0.01` or `rate_ppm=N` for exact parts
    /// per million). Unknown keys are errors.
    pub fn parse_spec(spec: &str) -> Result<FaultConfig, String> {
        let mut config = FaultConfig::default();
        for (key, value) in pim_ckpt::spec::parse_kv_spec("faults", spec)? {
            let (key, value) = (key.as_str(), value.as_str());
            match key {
                "seed" => {
                    config.seed = value
                        .parse()
                        .map_err(|e| format!("fault seed `{value}`: {e}"))?;
                }
                "rate" => {
                    let rate: f64 = value
                        .parse()
                        .map_err(|e| format!("fault rate `{value}`: {e}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate `{value}` outside [0, 1]"));
                    }
                    // Rounding a parsed literal is deterministic: the
                    // same spec string always yields the same ppm.
                    config.rate_ppm = (rate * PPM as f64).round() as u32;
                }
                "rate_ppm" => {
                    config.rate_ppm = value
                        .parse()
                        .map_err(|e| format!("fault rate_ppm `{value}`: {e}"))?;
                    if config.rate_ppm as u64 > PPM {
                        return Err(format!("fault rate_ppm `{value}` exceeds {PPM}"));
                    }
                }
                "retries" => {
                    config.max_retries = value
                        .parse()
                        .map_err(|e| format!("fault retries `{value}`: {e}"))?;
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(config)
    }
}

impl FaultConfig {
    /// Checkpoint hook: serializes the full configuration, so a resumed
    /// run can verify its `--faults` spec matches the interrupted one.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.seed);
        w.put_u32(self.rate_ppm);
        w.put_u32(self.max_retries);
        w.put_u64(self.nack_cycles);
        w.put_u64(self.snoop_timeout);
        w.put_u64(self.stall_window);
        w.put_u64(self.backoff_base);
    }

    /// Checkpoint hook: reads a configuration saved by
    /// [`FaultConfig::save_ckpt`].
    pub fn restore_ckpt(r: &mut pim_ckpt::Reader<'_>) -> Result<FaultConfig, pim_ckpt::CkptError> {
        Ok(FaultConfig {
            seed: r.get_u64()?,
            rate_ppm: r.get_u32()?,
            max_retries: r.get_u32()?,
            nack_cycles: r.get_u64()?,
            snoop_timeout: r.get_u64()?,
            stall_window: r.get_u64()?,
            backoff_base: r.get_u64()?,
        })
    }
}

/// A seeded fault plan: a pure decision function over simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Builds the plan for `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether the plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.config.rate_ppm > 0
    }

    /// Decides whether attempt `attempt` of the bus operation issued by
    /// `pe` at simulated cycle `cycle` suffers a fault, and which kind.
    /// Pure: equal arguments give equal answers, in any call order.
    /// Returns `None` from attempt `max_retries` onward, so every
    /// operation completes within a bounded number of retries.
    pub fn decide(&self, cycle: u64, pe: PeId, attempt: u32) -> Option<FaultKind> {
        if self.config.rate_ppm == 0 || attempt >= self.config.max_retries {
            return None;
        }
        let key = splitmix64(
            self.config.seed
                ^ splitmix64(cycle ^ splitmix64(((pe.0 as u64) << 32) | attempt as u64)),
        );
        if key % PPM >= self.config.rate_ppm as u64 {
            return None;
        }
        Some(ALL_KINDS[(splitmix64(key) % ALL_KINDS.len() as u64) as usize])
    }

    /// Linear backoff before re-issuing after a failed attempt.
    fn backoff(&self, attempt: u32) -> u64 {
        self.config.backoff_base * (attempt as u64 + 1)
    }
}

/// One injected fault, for observer reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Which retry attempt it hit (0 = the original issue).
    pub attempt: u32,
    /// The simulated cycle the victim operation was issued at.
    pub cycle: u64,
}

/// Counters for injected faults and their recoveries, indexed by
/// [`FaultKind`] in [`ALL_KINDS`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected, per kind.
    pub injected: [u64; 5],
    /// Faults recovered, per kind. Equal to `injected` after any
    /// completed run — recovery is bounded by construction.
    pub recovered: [u64; 5],
    /// Total retry attempts consumed by recovery.
    pub retries: u64,
    /// Extra completion-delay cycles attributable to faults.
    pub penalty_cycles: u64,
}

impl FaultStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        FaultStats::default()
    }

    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total faults recovered across all kinds.
    pub fn total_recovered(&self) -> u64 {
        self.recovered.iter().sum()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        for i in 0..ALL_KINDS.len() {
            self.injected[i] += other.injected[i];
            self.recovered[i] += other.recovered[i];
        }
        self.retries += other.retries;
        self.penalty_cycles += other.penalty_cycles;
    }

    /// Accounts one fault-aware grant: every injected fault is
    /// recovered by construction (bounded retries), so injection and
    /// recovery are credited together.
    pub fn absorb(&mut self, fg: &FaultyGrant) {
        for ev in &fg.events {
            self.injected[ev.kind.index()] += 1;
            self.recovered[ev.kind.index()] += 1;
            if ev.kind.reissues() {
                self.retries += 1;
            }
        }
        self.penalty_cycles += fg.penalty;
    }

    /// Checkpoint hook: serializes every counter.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        for &v in &self.injected {
            w.put_u64(v);
        }
        for &v in &self.recovered {
            w.put_u64(v);
        }
        w.put_u64(self.retries);
        w.put_u64(self.penalty_cycles);
    }

    /// Checkpoint hook: restores counters saved by
    /// [`FaultStats::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        for v in self.injected.iter_mut() {
            *v = r.get_u64()?;
        }
        for v in self.recovered.iter_mut() {
            *v = r.get_u64()?;
        }
        self.retries = r.get_u64()?;
        self.penalty_cycles = r.get_u64()?;
        Ok(())
    }

    /// `(kind, injected, recovered)` rows in stable order.
    pub fn rows(&self) -> impl Iterator<Item = (FaultKind, u64, u64)> + '_ {
        ALL_KINDS
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.injected[i], self.recovered[i]))
    }
}

/// Result of a fault-aware arbitration: the synthesized grant covering
/// the whole retry chain, plus every fault injected along the way.
#[derive(Debug, Clone)]
pub struct FaultyGrant {
    /// Grant for the *successful* attempt; `wait` spans the entire
    /// chain (`bus_free - issue`), so the caller's accounting works
    /// exactly as in the fault-free case.
    pub grant: Grant,
    /// Faults injected against this operation, in injection order.
    pub events: Vec<FaultEvent>,
    /// Completion delay versus a fault-free arbitration at the same
    /// `(bus_free, issue, hold)`.
    pub penalty: u64,
}

/// Arbitrates a bus operation under `plan`, replaying the bounded
/// NACK/parity/snoop-timeout/stall chain the plan dictates for this
/// `(cycle, pe)`. Pure arithmetic over [`pim_bus::arbitrate`]: the same
/// arguments always produce the same grant. With an inactive plan this
/// is exactly `arbitrate`.
pub fn arbitrate_with_faults(
    plan: &FaultPlan,
    bus_free: u64,
    issue: u64,
    hold: u64,
    pe: PeId,
) -> FaultyGrant {
    let issue0 = issue;
    let baseline = arbitrate(bus_free, issue, hold);
    let mut issue = issue;
    let mut extra_hold = 0;
    let mut events = Vec::new();
    let mut nacks: Vec<Nack> = Vec::new();
    for attempt in 0..=plan.config.max_retries {
        let Some(kind) = plan.decide(issue0, pe, attempt) else {
            break;
        };
        events.push(FaultEvent {
            kind,
            attempt,
            cycle: issue0,
        });
        match kind {
            FaultKind::BusNack => nacks.push(Nack {
                hold: plan.config.nack_cycles,
                backoff: plan.backoff(attempt),
            }),
            FaultKind::MemCorrupt => nacks.push(Nack {
                hold,
                backoff: plan.backoff(attempt),
            }),
            FaultKind::SnoopDrop => nacks.push(Nack {
                hold,
                backoff: plan.config.snoop_timeout,
            }),
            FaultKind::BusStall => extra_hold += plan.config.nack_cycles,
            FaultKind::PeStall => issue += plan.config.stall_window,
        }
    }
    let grant = pim_bus::arbitrate_with_retries(bus_free, issue, &nacks, hold + extra_hold);
    // Re-anchor the grant to the original issue cycle so the caller's
    // invariant (clock advance == wait) covers the stall window too.
    let grant = Grant {
        start: grant.start,
        wait: grant.bus_free - issue0,
        bus_free: grant.bus_free,
    };
    FaultyGrant {
        penalty: grant.bus_free - baseline.bus_free,
        grant,
        events,
    }
}

/// Finds a cycle in the lock wait-for graph, if any. `edges` maps each
/// blocked PE to the PE holding the lock it waits on (at most one
/// outgoing edge per PE — a PE waits on one lock at a time). Returns
/// the cycle as a PE list starting from its smallest member, or `None`
/// if the graph is acyclic (some PE can still make progress).
pub fn find_cycle(edges: &[(PeId, PeId)]) -> Option<Vec<PeId>> {
    use std::collections::BTreeMap;
    let next: BTreeMap<PeId, PeId> = edges.iter().copied().collect();
    for &start in next.keys() {
        // Walk waiter → holder; a repeat within one walk is a cycle.
        let mut path = Vec::new();
        let mut at = start;
        loop {
            if let Some(pos) = path.iter().position(|&p| p == at) {
                let mut cycle: Vec<PeId> = path[pos..].to_vec();
                let min = cycle.iter().copied().min()?;
                let rot = cycle.iter().position(|&p| p == min)?;
                cycle.rotate_left(rot);
                return Some(cycle);
            }
            path.push(at);
            match next.get(&at) {
                Some(&holder) => at = holder,
                None => break,
            }
        }
    }
    None
}

pub mod chaos {
    //! Deterministic chaos injection for the sweep supervisor.
    //!
    //! Where [`FaultPlan`](super::FaultPlan) perturbs the *simulated*
    //! machine, a [`ChaosPlan`] perturbs the *host-side executor*: it
    //! kills or delays sweep workers mid-cell so `sweeprun --chaos` can
    //! prove the supervisor converges to the same results as an
    //! undisturbed run. The plan is the same pure-function shape as the
    //! fault plan — splitmix64 over `(seed, cell digest, attempt)`, no
    //! mutable PRNG state — so two runs with equal seeds (at any worker
    //! thread count) draw identical chaos schedules, and a retried cell
    //! re-draws exactly the event that killed it the first time.

    use super::PPM;
    use pim_ckpt::splitmix64;

    /// One host-side chaos event against a sweep worker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ChaosEvent {
        /// Kill the worker mid-cell (a deliberate panic at a
        /// deterministic point, standing in for an OOM kill or crash).
        Kill,
        /// Delay the worker by this many milliseconds before it starts
        /// the cell (perturbs scheduling without changing results).
        Delay(u64),
    }

    /// Static chaos parameters, parsed from `--chaos seed=N[,...]`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChaosConfig {
        /// PRNG seed; equal seeds draw equal chaos schedules.
        pub seed: u64,
        /// Worker-kill probability per cell attempt, in parts per
        /// million.
        pub kill_ppm: u32,
        /// Worker-delay probability per cell attempt, in ppm.
        pub delay_ppm: u32,
        /// Longest injected delay, in milliseconds.
        pub max_delay_ms: u64,
    }

    impl Default for ChaosConfig {
        fn default() -> Self {
            ChaosConfig {
                seed: 0,
                // Aggressive by default: chaos mode exists to stress the
                // supervisor, so roughly every third attempt is killed
                // and every fifth delayed.
                kill_ppm: 300_000,
                delay_ppm: 200_000,
                max_delay_ms: 20,
            }
        }
    }

    impl ChaosConfig {
        /// Parses `seed=N[,kill=PPM][,delay=PPM][,max_delay_ms=N]`
        /// via the shared kv-spec parser, so `--chaos` emits the same
        /// named-flag diagnostics as every other spec flag.
        pub fn parse_spec(spec: &str) -> Result<ChaosConfig, String> {
            let mut config = ChaosConfig::default();
            for (key, value) in pim_ckpt::spec::parse_kv_spec("chaos", spec)? {
                let parse_ppm = |v: &str, what: &str| -> Result<u32, String> {
                    let n: u32 = v.parse().map_err(|e| format!("chaos {what} `{v}`: {e}"))?;
                    if n as u64 > PPM {
                        return Err(format!("chaos {what} `{v}` exceeds {PPM}"));
                    }
                    Ok(n)
                };
                match key.as_str() {
                    "seed" => {
                        config.seed = value
                            .parse()
                            .map_err(|e| format!("chaos seed `{value}`: {e}"))?;
                    }
                    "kill" => config.kill_ppm = parse_ppm(&value, "kill ppm")?,
                    "delay" => config.delay_ppm = parse_ppm(&value, "delay ppm")?,
                    "max_delay_ms" => {
                        config.max_delay_ms = value
                            .parse()
                            .map_err(|e| format!("chaos max_delay_ms `{value}`: {e}"))?;
                    }
                    other => return Err(format!("unknown chaos spec key `{other}`")),
                }
            }
            Ok(config)
        }
    }

    /// A seeded chaos plan: a pure decision function over cell attempts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChaosPlan {
        config: ChaosConfig,
    }

    impl ChaosPlan {
        /// Builds the plan for `config`.
        pub fn new(config: ChaosConfig) -> ChaosPlan {
            ChaosPlan { config }
        }

        /// The plan's configuration.
        pub fn config(&self) -> &ChaosConfig {
            &self.config
        }

        /// Decides what (if anything) happens to the worker running
        /// attempt `attempt` of the cell identified by `digest`. Pure:
        /// equal arguments give equal answers in any call order, so the
        /// schedule is identical at every worker-thread count. The
        /// *supervisor* bounds recovery by construction: it stops
        /// consulting the plan on a cell's final permitted attempt, so
        /// chaos alone can never quarantine a cell.
        pub fn decide(&self, digest: u64, attempt: u32) -> Option<ChaosEvent> {
            let key = splitmix64(
                self.config.seed ^ splitmix64(digest ^ ((attempt as u64) << 48 | 0xC4A0)),
            );
            if key % PPM < self.config.kill_ppm as u64 {
                return Some(ChaosEvent::Kill);
            }
            let key2 = splitmix64(key);
            if key2 % PPM < self.config.delay_ppm as u64 {
                let ms = splitmix64(key2) % (self.config.max_delay_ms.max(1));
                return Some(ChaosEvent::Delay(ms));
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inactive_plan_is_transparent() {
        let plan = FaultPlan::new(FaultConfig::new(7, 0));
        for cycle in 0..1000 {
            assert_eq!(plan.decide(cycle, PeId(0), 0), None);
        }
        let fg = arbitrate_with_faults(&plan, 10, 4, 6, PeId(1));
        assert_eq!(fg.grant, arbitrate(10, 4, 6));
        assert!(fg.events.is_empty());
        assert_eq!(fg.penalty, 0);
    }

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let a = FaultPlan::new(FaultConfig::new(7, 100_000));
        let b = FaultPlan::new(FaultConfig::new(8, 100_000));
        let mut diverged = false;
        for cycle in 0..4096 {
            for pe in 0..4 {
                let d = a.decide(cycle, PeId(pe), 0);
                assert_eq!(d, a.decide(cycle, PeId(pe), 0));
                if d != b.decide(cycle, PeId(pe), 0) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "seeds 7 and 8 drew identical plans");
    }

    #[test]
    fn chaos_plan_is_pure_seed_sensitive_and_parses() {
        use chaos::{ChaosConfig, ChaosEvent, ChaosPlan};
        let a = ChaosPlan::new(ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        });
        let b = ChaosPlan::new(ChaosConfig {
            seed: 8,
            ..ChaosConfig::default()
        });
        let (mut kills, mut delays, mut diverged) = (0u32, 0u32, false);
        for digest in 0..4096u64 {
            for attempt in 0..3u32 {
                let d = a.decide(digest, attempt);
                assert_eq!(d, a.decide(digest, attempt), "not pure");
                match d {
                    Some(ChaosEvent::Kill) => kills += 1,
                    Some(ChaosEvent::Delay(ms)) => {
                        assert!(ms < a.config().max_delay_ms);
                        delays += 1;
                    }
                    None => {}
                }
                if d != b.decide(digest, attempt) {
                    diverged = true;
                }
            }
        }
        assert!(kills > 0 && delays > 0, "default rates injected nothing");
        assert!(diverged, "seeds 7 and 8 drew identical chaos plans");

        let c = ChaosConfig::parse_spec("seed=42,kill=1000,delay=0,max_delay_ms=5").unwrap();
        assert_eq!(
            (c.seed, c.kill_ppm, c.delay_ppm, c.max_delay_ms),
            (42, 1000, 0, 5)
        );
        assert!(ChaosConfig::parse_spec("kill=2000000").is_err());
        assert!(ChaosConfig::parse_spec("bogus=1").is_err());
        assert!(ChaosConfig::parse_spec("seed").is_err());
    }

    #[test]
    fn injection_rate_tracks_config() {
        let plan = FaultPlan::new(FaultConfig::new(3, 100_000)); // 10%
        let hits = (0..100_000u64)
            .filter(|&c| plan.decide(c, PeId(0), 0).is_some())
            .count();
        // 10% +- 1% over 100k trials.
        assert!((9_000..=11_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn retries_are_bounded() {
        let config = FaultConfig {
            rate_ppm: PPM as u32, // always inject…
            max_retries: 3,       // …but never past attempt 2
            ..FaultConfig::new(9, 0)
        };
        let plan = FaultPlan::new(config);
        for cycle in 0..256 {
            assert!(plan.decide(cycle, PeId(0), 3).is_none());
            assert!(plan.decide(cycle, PeId(0), 0).is_some());
        }
        let fg = arbitrate_with_faults(&plan, 0, 5, 4, PeId(0));
        assert_eq!(fg.events.len(), 3);
        assert!(fg.penalty > 0);
        // The synthesized wait covers the whole chain.
        assert_eq!(fg.grant.wait, fg.grant.bus_free - 5);
    }

    #[test]
    fn faulty_grants_keep_bus_free_monotonic() {
        let plan = FaultPlan::new(FaultConfig::new(11, 300_000));
        let mut bus_free = 0;
        for i in 0..2000u64 {
            let issue = i * 3;
            let fg = arbitrate_with_faults(&plan, bus_free, issue, 5, PeId((i % 4) as u32));
            assert!(fg.grant.bus_free >= bus_free);
            assert!(fg.grant.bus_free >= issue + 5);
            assert_eq!(fg.grant.wait, fg.grant.bus_free - issue);
            bus_free = fg.grant.bus_free;
        }
    }

    #[test]
    fn parse_spec_round_trips() {
        let c = FaultConfig::parse_spec("seed=42,rate=0.01").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.rate_ppm, 10_000);
        let c = FaultConfig::parse_spec("rate_ppm=250,seed=1,retries=6").unwrap();
        assert_eq!((c.seed, c.rate_ppm, c.max_retries), (1, 250, 6));
        assert!(FaultConfig::parse_spec("rate=2.0").is_err());
        assert!(FaultConfig::parse_spec("bogus=1").is_err());
        assert!(FaultConfig::parse_spec("seed").is_err());
    }

    #[test]
    fn wait_for_cycles_are_found() {
        let p = PeId;
        assert_eq!(find_cycle(&[]), None);
        assert_eq!(find_cycle(&[(p(0), p(1))]), None);
        assert_eq!(
            find_cycle(&[(p(0), p(1)), (p(1), p(0))]),
            Some(vec![p(0), p(1)])
        );
        // Chain into a cycle: 3 → 1 → 2 → 1.
        assert_eq!(
            find_cycle(&[(p(3), p(1)), (p(1), p(2)), (p(2), p(1))]),
            Some(vec![p(1), p(2)])
        );
        assert_eq!(find_cycle(&[(p(0), p(1)), (p(1), p(2))]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chains_always_terminate_and_account(
            seed in any::<u64>(),
            rate in 0u32..PPM as u32 + 1,
            issue in 0u64..10_000,
            bus_free in 0u64..10_000,
            hold in 1u64..32,
            pe in 0u32..8,
        ) {
            let plan = FaultPlan::new(FaultConfig::new(seed, rate));
            let fg = arbitrate_with_faults(&plan, bus_free, issue, hold, PeId(pe));
            prop_assert!(fg.events.len() as u32 <= plan.config().max_retries);
            prop_assert!(fg.grant.bus_free >= issue.max(bus_free) + hold);
            prop_assert_eq!(fg.grant.wait, fg.grant.bus_free - issue);
            let baseline = arbitrate(bus_free, issue, hold);
            prop_assert_eq!(fg.penalty, fg.grant.bus_free - baseline.bus_free);
            if fg.events.is_empty() {
                prop_assert_eq!(fg.penalty, 0);
            }
        }
    }
}
