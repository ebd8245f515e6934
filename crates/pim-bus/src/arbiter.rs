//! Pure bus-arbitration arithmetic.
//!
//! The paper's bus is non-preemptive and grants requests in simulated-time
//! order, ties broken by PE id (Section 4.2: the per-PE cache simulators
//! "artificially synchronize among themselves at each simulated bus
//! request"). The engine steps PEs in exactly that order, so each request
//! reaches [`arbitrate`] already in grant order. The grant is a pure
//! function of `(bus_free, issue, hold)`; [`arbitrate_with_retries`]
//! chains it for the fault layer's NACKed attempts.
//!
//! # Examples
//!
//! ```
//! use pim_bus::arbiter::arbitrate;
//!
//! // A request issued while the bus is busy waits for the bus, then
//! // holds it: wait covers both the queueing delay and the hold time.
//! let g = arbitrate(20, 14, 13);
//! assert_eq!((g.start, g.wait, g.bus_free), (20, 6 + 13, 33));
//! ```

/// One bus grant: the transaction starts at `start`, the requester is
/// stalled for `wait` cycles total (queueing plus the non-preemptive hold
/// itself), and the bus is next free at `bus_free`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Cycle at which the transaction begins.
    pub start: u64,
    /// Cycles the requester spends stalled: queueing delay + hold.
    pub wait: u64,
    /// Cycle at which the bus becomes free again.
    pub bus_free: u64,
}

/// Grants one request on a bus that is free at `bus_free`, issued at the
/// requester's local `issue` cycle, holding the bus for `hold` cycles.
///
/// The requester's clock after the grant is `start + hold == bus_free`
/// of the returned [`Grant`]; its stall account grows by `wait`.
pub fn arbitrate(bus_free: u64, issue: u64, hold: u64) -> Grant {
    let start = issue.max(bus_free);
    Grant {
        start,
        wait: start - issue + hold,
        bus_free: start + hold,
    }
}

/// One denied bus attempt in a retry chain: the arbiter grants the bus
/// and the transaction occupies it for `hold` cycles before being
/// NACKed (or timing out), after which the requester may not re-issue
/// for another `backoff` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nack {
    /// Bus cycles the failed attempt occupies.
    pub hold: u64,
    /// Cycles the requester waits before re-arbitrating.
    pub backoff: u64,
}

/// Grants a request whose first `nacks.len()` attempts are denied: each
/// denied attempt arbitrates normally, occupies the bus for its
/// [`Nack::hold`], then forces the requester to back off before
/// re-issuing; the final attempt holds the bus for `hold` and succeeds.
///
/// The returned [`Grant`] describes the *successful* attempt, with
/// `wait` re-anchored to the original `issue` cycle so the requester's
/// clock/stall accounting covers the whole chain, exactly as a single
/// [`arbitrate`] call would. With an empty `nacks` this *is*
/// [`arbitrate`].
pub fn arbitrate_with_retries(mut bus_free: u64, issue: u64, nacks: &[Nack], hold: u64) -> Grant {
    let mut reissue = issue;
    for nack in nacks {
        let denied = arbitrate(bus_free, reissue, nack.hold);
        bus_free = denied.bus_free;
        reissue = denied.bus_free + nack.backoff;
    }
    let granted = arbitrate(bus_free, reissue, hold);
    Grant {
        start: granted.start,
        wait: granted.bus_free - issue,
        bus_free: granted.bus_free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_bus_grants_immediately() {
        let g = arbitrate(0, 5, 13);
        assert_eq!(g.start, 5);
        assert_eq!(g.wait, 13); // no queueing, only the hold
        assert_eq!(g.bus_free, 18);
    }

    #[test]
    fn busy_bus_queues_the_request() {
        let g = arbitrate(18, 6, 7);
        assert_eq!(g.start, 18);
        assert_eq!(g.wait, 12 + 7);
        assert_eq!(g.bus_free, 25);
    }

    #[test]
    fn zero_hold_is_a_no_op_grant() {
        let g = arbitrate(4, 9, 0);
        assert_eq!((g.start, g.wait, g.bus_free), (9, 0, 9));
    }

    #[test]
    fn no_nacks_is_plain_arbitration() {
        assert_eq!(arbitrate_with_retries(18, 6, &[], 7), arbitrate(18, 6, 7));
    }

    #[test]
    fn nack_chain_replays_by_hand() {
        let nacks = [
            Nack {
                hold: 2,
                backoff: 4,
            },
            Nack {
                hold: 7,
                backoff: 16,
            },
        ];
        let g = arbitrate_with_retries(1, 3, &nacks, 7);
        let first = arbitrate(1, 3, 2); // denied: bus busy until 5
        let second = arbitrate(first.bus_free, first.bus_free + 4, 7); // denied
        let third = arbitrate(second.bus_free, second.bus_free + 16, 7);
        assert_eq!(g.start, third.start);
        assert_eq!(g.bus_free, third.bus_free);
        // wait is re-anchored to the original issue cycle 3.
        assert_eq!(g.wait, third.bus_free - 3);
    }

    #[test]
    fn retry_chains_keep_the_bus_monotonic() {
        let mut bus_free = 0;
        for i in 0..100u64 {
            let nacks = [Nack {
                hold: 1 + i % 3,
                backoff: i % 5,
            }];
            let g = arbitrate_with_retries(bus_free, i * 2, &nacks, 5);
            assert!(g.bus_free > bus_free);
            assert_eq!(g.wait, g.bus_free - i * 2);
            bus_free = g.bus_free;
        }
    }
}
