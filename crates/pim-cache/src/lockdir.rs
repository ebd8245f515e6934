//! The separate lock directory (paper Section 3.1).
//!
//! Lock information is held apart from the cache directory so that
//! word-by-word locks survive the swap-out of their block, multiple locked
//! words in one block stay distinguishable, and cache tags need no extra
//! lock states. Each PE owns one small directory (the paper estimates one
//! or two entries suffice) that registers the words *this* PE has locked
//! and snoops the bus to refuse remote access to them.

use crate::ProtocolError;
use pim_trace::{Addr, PeId};
use std::fmt;

/// State of one lock-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockState {
    /// `LCK` — locked by the owning PE; nobody is waiting.
    Lck,
    /// `LWAIT` — locked, and at least one other PE is busy-waiting for the
    /// unlock broadcast.
    Lwait,
}

impl fmt::Display for LockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LockState::Lck => "LCK",
            LockState::Lwait => "LWAIT",
        })
    }
}

#[derive(Debug, Clone)]
struct Entry {
    addr: Addr,
    state: LockState,
    waiters: Vec<PeId>,
}

/// One PE's lock directory.
///
/// # Examples
///
/// ```
/// use pim_cache::{LockDirectory, LockState};
/// use pim_trace::PeId;
///
/// let mut dir = LockDirectory::new(2);
/// dir.lock(100).unwrap();
/// assert_eq!(dir.state_of(100), Some(LockState::Lck));
/// dir.register_waiter(100, PeId(1));
/// assert_eq!(dir.state_of(100), Some(LockState::Lwait));
/// let woken = dir.unlock(100).unwrap();
/// assert_eq!(woken, vec![PeId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct LockDirectory {
    entries: Vec<Entry>,
    capacity: usize,
}

impl LockDirectory {
    /// Creates an empty directory with room for `capacity` simultaneous
    /// locks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LockDirectory {
        assert!(capacity > 0, "lock directory needs at least one entry");
        LockDirectory {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Registers a lock on `addr` in the `LCK` state.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyLocked`] if this PE already holds `addr`;
    /// [`ProtocolError::LockDirectoryFull`] if all entries are in use.
    #[inline]
    pub fn lock(&mut self, addr: Addr) -> Result<(), ProtocolError> {
        if self.holds(addr) {
            return Err(ProtocolError::AlreadyLocked { addr });
        }
        if self.entries.len() >= self.capacity {
            return Err(ProtocolError::LockDirectoryFull { addr });
        }
        self.entries.push(Entry {
            addr,
            state: LockState::Lck,
            waiters: Vec::new(),
        });
        Ok(())
    }

    /// Releases the lock on `addr`, returning the PEs that were waiting
    /// (empty when the entry was still `LCK` — the common, bus-free case).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotLocked`] if this PE does not hold `addr`.
    #[inline]
    pub fn unlock(&mut self, addr: Addr) -> Result<Vec<PeId>, ProtocolError> {
        match self.entries.iter().position(|e| e.addr == addr) {
            Some(i) => Ok(self.entries.swap_remove(i).waiters),
            None => Err(ProtocolError::NotLocked { addr }),
        }
    }

    /// Whether this PE holds a lock on exactly `addr`.
    #[inline]
    pub fn holds(&self, addr: Addr) -> bool {
        self.entries.iter().any(|e| e.addr == addr)
    }

    /// The state of the entry for `addr`, if held.
    #[inline]
    pub fn state_of(&self, addr: Addr) -> Option<LockState> {
        self.entries
            .iter()
            .find(|e| e.addr == addr)
            .map(|e| e.state)
    }

    /// Snoop check: does this directory hold a lock on any word of the
    /// block `[base, base + block_words)`?
    ///
    /// The snooper refuses (responds `LH` to) remote bus commands that
    /// would grant another PE access to a block containing a locked word;
    /// see `protocol` module docs for why the check is block-granular.
    #[inline]
    pub fn locked_word_in_block(&self, base: Addr, block_words: u64) -> Option<Addr> {
        self.entries
            .iter()
            .map(|e| e.addr)
            .find(|&a| a >= base && a < base + block_words)
    }

    /// Records that `waiter` received an `LH` response for `addr` and is
    /// busy-waiting; moves the entry to `LWAIT`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not held — the snooper only routes waiters to
    /// the directory that refused them.
    #[inline]
    pub fn register_waiter(&mut self, addr: Addr, waiter: PeId) {
        let Some(e) = self.entries.iter_mut().find(|e| e.addr == addr) else {
            panic!("waiter registered on unheld lock {addr:#x}")
        };
        e.state = LockState::Lwait;
        if !e.waiters.contains(&waiter) {
            e.waiters.push(waiter);
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over held addresses.
    pub fn held_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.entries.iter().map(|e| e.addr)
    }

    /// The PEs registered as busy-waiters on `addr` (empty if the word is
    /// unheld or uncontended) — inspection hook for invariant checks.
    pub fn waiters(&self, addr: Addr) -> Vec<PeId> {
        self.entries
            .iter()
            .find(|e| e.addr == addr)
            .map(|e| e.waiters.clone())
            .unwrap_or_default()
    }

    /// Checkpoint hook: serializes the capacity and every live entry with
    /// its waiter queue in order.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.capacity);
        w.put_len(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.addr);
            w.put_u8(match e.state {
                LockState::Lck => 0,
                LockState::Lwait => 1,
            });
            w.put_len(e.waiters.len());
            for &pe in &e.waiters {
                w.put_u64(pe.0 as u64);
            }
        }
    }

    /// Checkpoint hook: restores a directory saved by
    /// [`LockDirectory::save_ckpt`].
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the capacity disagrees;
    /// [`pim_ckpt::CkptError::Corrupt`] on an unknown lock-state tag or
    /// more entries than the capacity admits.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let capacity = r.get_len()?;
        if capacity != self.capacity {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "lock directory capacity {} vs checkpoint {capacity}",
                    self.capacity
                ),
            });
        }
        let n = r.get_len()?;
        if n > capacity {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: format!("lock directory holds {n} entries but capacity is {capacity}"),
            });
        }
        self.entries.clear();
        for _ in 0..n {
            let addr = r.get_u64()?;
            let state = match r.get_u8()? {
                0 => LockState::Lck,
                1 => LockState::Lwait,
                other => {
                    return Err(pim_ckpt::CkptError::Corrupt {
                        detail: format!("unknown lock state tag {other}"),
                    })
                }
            };
            let waiters = (0..r.get_len()?)
                .map(|_| r.get_u64().map(|v| PeId(v as u32)))
                .collect::<Result<Vec<_>, _>>()?;
            self.entries.push(Entry {
                addr,
                state,
                waiters,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_cycle() {
        let mut d = LockDirectory::new(2);
        d.lock(10).unwrap();
        assert!(d.holds(10));
        assert_eq!(d.state_of(10), Some(LockState::Lck));
        assert_eq!(d.unlock(10).unwrap(), vec![]);
        assert!(d.is_empty());
    }

    #[test]
    fn relock_rejected() {
        let mut d = LockDirectory::new(2);
        d.lock(10).unwrap();
        assert!(matches!(
            d.lock(10),
            Err(ProtocolError::AlreadyLocked { addr: 10 })
        ));
    }

    #[test]
    fn capacity_enforced() {
        let mut d = LockDirectory::new(1);
        d.lock(10).unwrap();
        assert!(matches!(
            d.lock(11),
            Err(ProtocolError::LockDirectoryFull { .. })
        ));
        d.unlock(10).unwrap();
        d.lock(11).unwrap();
    }

    #[test]
    fn unlock_unheld_rejected() {
        let mut d = LockDirectory::new(1);
        assert!(matches!(
            d.unlock(3),
            Err(ProtocolError::NotLocked { addr: 3 })
        ));
    }

    #[test]
    fn waiters_move_entry_to_lwait_and_drain() {
        let mut d = LockDirectory::new(1);
        d.lock(10).unwrap();
        d.register_waiter(10, PeId(2));
        d.register_waiter(10, PeId(3));
        d.register_waiter(10, PeId(2)); // duplicate ignored
        assert_eq!(d.state_of(10), Some(LockState::Lwait));
        assert_eq!(d.unlock(10).unwrap(), vec![PeId(2), PeId(3)]);
    }

    #[test]
    fn block_granular_snoop() {
        let mut d = LockDirectory::new(2);
        d.lock(6).unwrap();
        assert_eq!(d.locked_word_in_block(4, 4), Some(6));
        assert_eq!(d.locked_word_in_block(8, 4), None);
        assert_eq!(d.locked_word_in_block(0, 4), None);
    }

    #[test]
    fn two_locks_same_block_distinguished() {
        let mut d = LockDirectory::new(2);
        d.lock(4).unwrap();
        d.lock(5).unwrap();
        d.unlock(4).unwrap();
        assert!(!d.holds(4));
        assert!(d.holds(5));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        LockDirectory::new(0);
    }
}
