//! Exhaustive protocol model check: breadth-first enumeration of every
//! reachable (cache-state × lock-directory × memory) configuration of a
//! small system driven by all legal operations on a single block,
//! asserting the paper's coherence and lock invariants in each state.
//! Every protocol the simulator runs passes the same check: each test
//! explores both the PIM protocol and the Illinois baseline.
//!
//! The state abstraction is sound for this workload: with one block, one
//! set and one way there is no replacement choice, so two systems with
//! equal [`CoherentSystem::cache_view`]/[`CoherentSystem::lock_view`]/
//! memory views are behaviorally indistinguishable. Statistics counters
//! are excluded from the fingerprint on purpose (they grow without bound
//! and never feed back into protocol decisions).

use std::collections::{HashMap, HashSet, VecDeque};

use pim_cache::{
    BlockState, CacheGeometry, CoherenceProtocol, CoherentSystem, Illinois, LockState, Pim,
    SystemConfig,
};
use pim_trace::{Addr, MemOp, PeId, StorageArea, Word};

/// Fixed write payload: keeps the data component of the state space finite
/// ({initial, WRITTEN, DW poison} per word) without hiding any protocol
/// behavior — the protocol never branches on data values.
const WRITTEN: Word = 7;

fn tiny_system<P: CoherenceProtocol>(pes: u32) -> CoherentSystem<P> {
    CoherentSystem::new(SystemConfig {
        pes,
        geometry: CacheGeometry {
            block_words: 2,
            sets: 1,
            ways: 1,
        },
        ..SystemConfig::default()
    })
}

fn block_words<P: CoherenceProtocol>(sys: &CoherentSystem<P>) -> Vec<Addr> {
    let base = sys.area_map().base(StorageArea::Heap);
    (0..sys.config().geometry.block_words)
        .map(|w| base + w * 4)
        .collect()
}

/// Canonical state key: per-PE block view, per-PE per-word lock view, and
/// the shared-memory words. Everything the protocol can branch on.
fn fingerprint<P: CoherenceProtocol>(sys: &CoherentSystem<P>, words: &[Addr]) -> String {
    let base = words[0];
    let mut key = String::new();
    for pe in 0..sys.config().pes {
        key.push_str(&format!("{:?};", sys.cache_view(PeId(pe), base)));
        for &w in words {
            key.push_str(&format!("{:?};", sys.lock_view(PeId(pe), w)));
        }
    }
    for &w in words {
        key.push_str(&format!("{};", sys.memory_word(w)));
    }
    key
}

/// Every operation a PE may legally attempt in some state. Unlock variants
/// are filtered at expansion time (only the holder may issue them); every
/// other op is always legal — `LockBusy` refusals are transitions too.
const ALL_OPS: [MemOp; 9] = [
    MemOp::Read,
    MemOp::Write,
    MemOp::DirectWrite,
    MemOp::ExclusiveRead,
    MemOp::ReadPurge,
    MemOp::ReadInvalidate,
    MemOp::LockRead,
    MemOp::WriteUnlock,
    MemOp::Unlock,
];

/// The contract-free subset: plain reads/writes and the lock protocol.
/// The optimized commands (`DW`/`ER`/`RP`/`RI`) carry *software contracts*
/// (single-reader, initialize-before-share, …); driven adversarially they
/// may leave memory stale behind a clean copy by design, so under PIM the
/// memory-currency invariant is only asserted over this subset. Illinois
/// downgrades those commands to plain ones, so no contract excuses a stale
/// word there: its memory currency is asserted over [`ALL_OPS`].
const PLAIN_OPS: [MemOp; 5] = [
    MemOp::Read,
    MemOp::Write,
    MemOp::LockRead,
    MemOp::WriteUnlock,
    MemOp::Unlock,
];

/// Invariants checked in every reachable state, on top of
/// [`CoherentSystem::check_coherence_invariants`] (exclusive-copy-alone,
/// at most one dirty copy, shared copies bit-identical). `memory_currency`
/// is only sound when the exploration respects the optimized commands'
/// software contracts (i.e. uses [`PLAIN_OPS`], or a protocol without
/// optimized commands).
fn assert_state_invariants<P: CoherenceProtocol>(
    sys: &CoherentSystem<P>,
    words: &[Addr],
    memory_currency: bool,
    key: &str,
) {
    sys.check_coherence_invariants()
        .unwrap_or_else(|e| panic!("coherence violated: {e}\nstate: {key}"));

    let pes = sys.config().pes;
    let base = words[0];
    let views: Vec<_> = (0..pes)
        .filter_map(|pe| sys.cache_view(PeId(pe), base))
        .collect();

    // Paper invariant: an EM/EC copy is the *only* copy.
    let exclusive = views
        .iter()
        .filter(|(s, _)| matches!(s, BlockState::Em | BlockState::Ec))
        .count();
    assert!(
        exclusive <= 1 && (exclusive == 0 || views.len() == 1),
        "exclusive copy coexists with others\nstate: {key}"
    );

    // A protocol that reflects dirty supply into memory never shares a
    // dirty block, so no copy is ever SM.
    if !P::DIRTY_SUPPLY_MIGRATES {
        assert!(
            views.iter().all(|(s, _)| *s != BlockState::Sm),
            "SM copy under a reflecting protocol\nstate: {key}"
        );
    }

    // Paper invariant: S copies without an SM owner mean memory is current
    // — i.e. "S implies a clean copy exists" (the block's latest data is
    // either in a dirty owner's cache or in memory itself).
    let dirty_owner = views
        .iter()
        .any(|(s, _)| matches!(s, BlockState::Em | BlockState::Sm));
    if memory_currency && !dirty_owner {
        for (_, data) in &views {
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(
                    data[i],
                    sys.memory_word(w),
                    "clean copy diverges from memory\nstate: {key}"
                );
            }
        }
    }

    // Lock invariants: at most one holder per word; LWAIT iff waiters
    // exist; waiters are distinct remote PEs.
    for &w in words {
        let holders: Vec<_> = (0..pes)
            .filter_map(|pe| sys.lock_view(PeId(pe), w).map(|v| (pe, v)))
            .collect();
        assert!(
            holders.len() <= 1,
            "word {w:#x} has {} lock holders\nstate: {key}",
            holders.len()
        );
        if let Some((pe, (state, waiters))) = holders.first() {
            assert_eq!(
                *state == LockState::Lwait,
                !waiters.is_empty(),
                "LWAIT/waiter-list mismatch on {w:#x}\nstate: {key}"
            );
            let mut seen = waiters.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), waiters.len(), "duplicate waiters\nstate: {key}");
            assert!(
                !waiters.contains(&PeId(*pe)),
                "holder waits on itself\nstate: {key}"
            );
        }
    }
}

/// LWAIT chains drain: from any reachable state, releasing every held lock
/// (holder issues `U`) wakes exactly the registered waiters and leaves no
/// lock-directory entries anywhere.
fn assert_lwait_drains<P: CoherenceProtocol>(sys: &CoherentSystem<P>, words: &[Addr], key: &str) {
    let mut sys = sys.clone();
    let pes = sys.config().pes;
    for &w in words {
        let holder = (0..pes).find(|&pe| sys.lock_view(PeId(pe), w).is_some());
        if let Some(pe) = holder {
            let (_, waiters) = sys.lock_view(PeId(pe), w).unwrap();
            let out = sys
                .access(PeId(pe), MemOp::Unlock, w, None)
                .unwrap_or_else(|e| panic!("holder cannot unlock: {e}\nstate: {key}"));
            let woken = match out {
                pim_cache::Outcome::Done { woken, .. } => woken,
                refused => panic!("unlock refused: {refused:?}\nstate: {key}"),
            };
            assert_eq!(woken, waiters, "UL woke wrong set\nstate: {key}");
        }
    }
    for &w in words {
        for pe in 0..pes {
            assert!(
                sys.lock_view(PeId(pe), w).is_none(),
                "lock survived full release\nstate: {key}"
            );
        }
    }
    sys.check_coherence_invariants()
        .unwrap_or_else(|e| panic!("coherence violated after drain: {e}\nstate: {key}"));
}

/// Exhaustive BFS over reachable protocol states. Returns the number of
/// distinct states and transitions explored.
fn explore<P: CoherenceProtocol>(
    pes: u32,
    ops: &[MemOp],
    memory_currency: bool,
    state_cap: usize,
) -> (usize, u64) {
    let root = tiny_system::<P>(pes);
    let words = block_words(&root);
    let root_key = fingerprint(&root, &words);

    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut queue: VecDeque<CoherentSystem<P>> = VecDeque::new();
    seen.insert(root_key, ());
    queue.push_back(root);
    let mut transitions = 0u64;

    while let Some(sys) = queue.pop_front() {
        for pe in 0..pes {
            for &op in ops {
                for &addr in &words {
                    // Only the holder may issue UW/U; everything else is
                    // always legal to *attempt*.
                    if matches!(op, MemOp::WriteUnlock | MemOp::Unlock)
                        && sys.lock_view(PeId(pe), addr).is_none()
                    {
                        continue;
                    }
                    let data = op.is_write().then_some(WRITTEN);
                    let mut next = sys.clone();
                    // Illegal attempts (e.g. re-locking a held word) are
                    // rejected without a transition.
                    if next.access(PeId(pe), op, addr, data).is_err() {
                        continue;
                    }
                    transitions += 1;
                    let key = fingerprint(&next, &words);
                    if seen.contains_key(&key) {
                        continue;
                    }
                    assert_state_invariants(&next, &words, memory_currency, &key);
                    assert_lwait_drains(&next, &words, &key);
                    seen.insert(key, ());
                    assert!(
                        seen.len() <= state_cap,
                        "state space exceeded {state_cap} states — abstraction leak?"
                    );
                    queue.push_back(next);
                }
            }
        }
    }
    (seen.len(), transitions)
}

// Each exploration's (states, transitions) count is pinned beside it.
// PIM's counts were computed before Illinois shared its engine and are
// unchanged by that refactor. Illinois downgrades the optimized commands,
// so all nine ops reach the same states as the plain five, over more
// transitions. A protocol change that alters a reachable state or a
// legal transition must consciously edit a count here.

#[test]
fn two_caches_one_block_exhaustive() {
    for (counts, pinned) in [
        (explore::<Pim>(2, &ALL_OPS, false, 50_000), (1_270, 37_336)),
        // Illinois has no optimized commands: memory stays current over
        // every op.
        (explore::<Illinois>(2, &ALL_OPS, true, 50_000), (192, 5_648)),
    ] {
        let (states, transitions) = counts;
        // The space must be non-trivial (every block state of the
        // protocol reachable in combination with lock entries) yet closed
        // under every operation.
        assert!(states > 100, "suspiciously small space: {states}");
        assert!(transitions > states as u64);
        assert_eq!(counts, pinned, "state space changed");
    }
}

#[test]
fn three_caches_one_block_exhaustive() {
    for (counts, pinned) in [
        (
            explore::<Pim>(3, &ALL_OPS, false, 500_000),
            (15_584, 681_138),
        ),
        (
            explore::<Illinois>(3, &ALL_OPS, true, 500_000),
            (1_858, 81_216),
        ),
    ] {
        let (states, transitions) = counts;
        assert!(states > 1_000, "suspiciously small space: {states}");
        assert!(transitions > states as u64);
        assert_eq!(counts, pinned, "state space changed");
    }
}

#[test]
fn two_caches_plain_ops_memory_current() {
    for (counts, pinned) in [
        (explore::<Pim>(2, &PLAIN_OPS, true, 50_000), (224, 2_984)),
        (
            explore::<Illinois>(2, &PLAIN_OPS, true, 50_000),
            (192, 2_576),
        ),
    ] {
        let (states, _) = counts;
        assert!(states > 50, "suspiciously small space: {states}");
        assert_eq!(counts, pinned, "state space changed");
    }
}

#[test]
fn three_caches_plain_ops_memory_current() {
    for (counts, pinned) in [
        (
            explore::<Pim>(3, &PLAIN_OPS, true, 200_000),
            (2_212, 43_326),
        ),
        (
            explore::<Illinois>(3, &PLAIN_OPS, true, 200_000),
            (1_858, 36_624),
        ),
    ] {
        let (states, _) = counts;
        assert!(states > 200, "suspiciously small space: {states}");
        assert_eq!(counts, pinned, "state space changed");
    }
}

/// NACK/retry fault transitions leave the protocol state space intact.
///
/// Fault injection lives at the bus-arbitration layer: a NACKed or
/// stalled transaction is delayed and reissued, but the protocol access
/// itself runs exactly once, so the reachable (cache × lock × memory)
/// space under a fault plan is *identical* to the fault-free space.
/// This re-runs the exhaustive BFS, and for every accepted transition
/// additionally replays its bus grant through a high-rate fault plan,
/// asserting the retry algebra: bounded chains, non-negative penalty
/// equal to the grant delay, and byte-identical grants when no fault
/// fires.
#[test]
fn nack_retry_transitions_preserve_the_state_space() {
    nack_retry_preserves_the_state_space::<Pim>();
    nack_retry_preserves_the_state_space::<Illinois>();
}

fn nack_retry_preserves_the_state_space<P: CoherenceProtocol>() {
    use pim_fault::{arbitrate_with_faults, FaultConfig, FaultPlan};

    let pes = 2;
    let root = tiny_system::<P>(pes);
    let words = block_words(&root);
    // 20% per-attempt rate: chains of several retries are common.
    let plan = FaultPlan::new(FaultConfig::new(0xC0FFEE, 200_000));
    let max_chain = plan.config().max_retries as usize;

    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut queue: VecDeque<CoherentSystem<P>> = VecDeque::new();
    seen.insert(fingerprint(&root, &words), ());
    queue.push_back(root);
    let mut transitions = 0u64;
    let mut faulted = 0u64;

    while let Some(sys) = queue.pop_front() {
        for pe in 0..pes {
            for op in ALL_OPS {
                for &addr in &words {
                    if matches!(op, MemOp::WriteUnlock | MemOp::Unlock)
                        && sys.lock_view(PeId(pe), addr).is_none()
                    {
                        continue;
                    }
                    let data = op.is_write().then_some(WRITTEN);
                    let mut next = sys.clone();
                    let Ok(outcome) = next.access(PeId(pe), op, addr, data) else {
                        continue;
                    };
                    transitions += 1;
                    if let pim_cache::Outcome::Done { bus_cycles, .. } = outcome {
                        // Sample the plan at a transition-dependent cycle
                        // so many (cycle, pe) points are exercised.
                        let issue = transitions * 3 % 4096;
                        let bus_free = issue.saturating_sub(transitions % 5);
                        let clean = pim_bus::arbitrate(bus_free, issue, bus_cycles);
                        let fg =
                            arbitrate_with_faults(&plan, bus_free, issue, bus_cycles, PeId(pe));
                        assert!(
                            fg.events.len() <= max_chain,
                            "retry chain exceeded max_retries"
                        );
                        assert!(fg.grant.bus_free >= clean.bus_free, "fault sped up the bus");
                        assert_eq!(
                            fg.penalty,
                            fg.grant.bus_free - clean.bus_free,
                            "penalty must equal the completion delay"
                        );
                        if fg.events.is_empty() {
                            assert_eq!(fg.grant, clean, "no-fault grant must be exact");
                        } else {
                            faulted += 1;
                        }
                    }
                    let key = fingerprint(&next, &words);
                    if seen.contains_key(&key) {
                        continue;
                    }
                    assert_state_invariants(&next, &words, false, &key);
                    seen.insert(key, ());
                    queue.push_back(next);
                }
            }
        }
    }

    // Same space as the fault-free exploration, and the plan actually
    // fired (a silent zero-injection run would prove nothing).
    let (clean_states, _) = explore::<P>(pes, &ALL_OPS, false, 50_000);
    assert_eq!(
        seen.len(),
        clean_states,
        "fault layer perturbed the protocol space"
    );
    assert!(faulted > 100, "fault plan barely fired: {faulted}");
}

/// Every block state of each protocol is actually exercised by the
/// exploration driver (guards against a driver that never leaves S/INV):
/// all five paper states under PIM, and exactly `EM`/`EC`/`S`/`INV` under
/// Illinois, which never creates `SM`.
#[test]
fn all_block_states_reachable() {
    use BlockState::{Ec, Em, Inv, Shared, Sm};
    assert_eq!(
        reachable_block_states::<Pim>(),
        HashSet::from([Em, Ec, Sm, Shared, Inv])
    );
    assert_eq!(
        reachable_block_states::<Illinois>(),
        HashSet::from([Em, Ec, Shared, Inv])
    );
}

/// The block states some PE holds in some reachable state of a 2-PE
/// system driven by [`ALL_OPS`].
fn reachable_block_states<P: CoherenceProtocol>() -> HashSet<BlockState> {
    let pes = 2;
    let root = tiny_system::<P>(pes);
    let words = block_words(&root);
    let mut seen_states = HashSet::new();
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut queue: VecDeque<CoherentSystem<P>> = VecDeque::new();
    seen.insert(fingerprint(&root, &words), ());
    queue.push_back(root);
    while let Some(sys) = queue.pop_front() {
        for pe in 0..pes {
            seen_states.insert(
                sys.cache_view(PeId(pe), words[0])
                    .map_or(BlockState::Inv, |(s, _)| s),
            );
        }
        for pe in 0..pes {
            for op in ALL_OPS {
                for &addr in &words {
                    if matches!(op, MemOp::WriteUnlock | MemOp::Unlock)
                        && sys.lock_view(PeId(pe), addr).is_none()
                    {
                        continue;
                    }
                    let data = op.is_write().then_some(WRITTEN);
                    let mut next = sys.clone();
                    if next.access(PeId(pe), op, addr, data).is_err() {
                        continue;
                    }
                    let key = fingerprint(&next, &words);
                    if seen.contains_key(&key) {
                        continue;
                    }
                    seen.insert(key, ());
                    queue.push_back(next);
                }
            }
        }
    }
    seen_states
}
