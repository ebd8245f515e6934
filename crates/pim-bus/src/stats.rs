//! Bus traffic statistics, attributed by storage area and command.

use crate::{BusTiming, Transaction};
use pim_trace::StorageArea;
use std::fmt;

/// The snooping bus commands of Section 3.3 (plus the lock-related
/// broadcasts), counted for the optimization-effect analyses of Section 4.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusCommand {
    /// `F` — fetch a block from another PE or shared memory.
    Fetch,
    /// `FI` — fetch and invalidate all other copies.
    FetchInvalidate,
    /// `I` — invalidate all other copies.
    Invalidate,
    /// `LK` — lock broadcast (always rides with `F`/`FI`/`I`).
    Lock,
    /// `UL` — unlock broadcast (only when a PE waits).
    Unlock,
}

impl BusCommand {
    /// All commands in display order.
    pub const ALL: [BusCommand; 5] = [
        BusCommand::Fetch,
        BusCommand::FetchInvalidate,
        BusCommand::Invalidate,
        BusCommand::Lock,
        BusCommand::Unlock,
    ];

    /// The paper mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BusCommand::Fetch => "F",
            BusCommand::FetchInvalidate => "FI",
            BusCommand::Invalidate => "I",
            BusCommand::Lock => "LK",
            BusCommand::Unlock => "UL",
        }
    }

    fn index(self) -> usize {
        match self {
            BusCommand::Fetch => 0,
            BusCommand::FetchInvalidate => 1,
            BusCommand::Invalidate => 2,
            BusCommand::Lock => 3,
            BusCommand::Unlock => 4,
        }
    }
}

impl fmt::Display for BusCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Accumulated bus traffic: raw cycles by storage area (the paper's primary
/// figure of merit), transaction-pattern counts, bus-command counts, and the
/// memory-module busy cycles that motivate the `SM` state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    cycles_by_area: [u64; 5],
    tx_counts: [u64; 7],
    cmd_counts: [u64; 5],
    memory_busy_cycles: u64,
    // Per-area swap-in-from-memory and swap-out counts, for the Section 4.6
    // per-command effectiveness claims (DW cuts heap swap-ins, ER/RP/DW cut
    // goal swap-outs).
    swap_ins_by_area: [u64; 5],
    swap_outs_by_area: [u64; 5],
    c2c_by_area: [u64; 5],
    refusals: u64,
}

impl BusStats {
    /// Creates an empty accumulator.
    pub fn new() -> BusStats {
        BusStats::default()
    }

    /// Records one completed transaction attributed to `area`, with its
    /// cycle cost computed from `timing` for `block_words`-word blocks,
    /// and returns that cost: the cycles charged here and the cycles a
    /// caller hands on are one number.
    pub fn record_tx(
        &mut self,
        tx: Transaction,
        area: StorageArea,
        timing: &BusTiming,
        block_words: u64,
    ) -> u64 {
        let cycles = timing.cycles(tx, block_words);
        self.cycles_by_area[area.index()] += cycles;
        self.tx_counts[tx.index()] += 1;
        match tx {
            Transaction::MemoryFetch { swap_out } => {
                self.swap_ins_by_area[area.index()] += 1;
                if swap_out {
                    self.swap_outs_by_area[area.index()] += 1;
                }
                self.memory_busy_cycles += timing.memory_cycles;
                if swap_out {
                    self.memory_busy_cycles += timing.memory_cycles;
                }
            }
            Transaction::CacheToCache { swap_out } => {
                self.c2c_by_area[area.index()] += 1;
                if swap_out {
                    self.swap_outs_by_area[area.index()] += 1;
                    self.memory_busy_cycles += timing.memory_cycles;
                }
            }
            Transaction::SwapOutOnly => {
                self.swap_outs_by_area[area.index()] += 1;
                self.memory_busy_cycles += timing.memory_cycles;
            }
            Transaction::Invalidate | Transaction::Unlock => {}
        }
        cycles
    }

    /// Records a bus command broadcast (for command-mix statistics; the
    /// cycle cost is carried by the owning transaction).
    pub fn record_cmd(&mut self, cmd: BusCommand) {
        self.cmd_counts[cmd.index()] += 1;
    }

    /// Checkpoint hook: serializes every accumulator field.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        for arr in [
            &self.cycles_by_area,
            &self.cmd_counts,
            &self.swap_ins_by_area,
            &self.swap_outs_by_area,
            &self.c2c_by_area,
        ] {
            for &v in arr {
                w.put_u64(v);
            }
        }
        for &v in &self.tx_counts {
            w.put_u64(v);
        }
        w.put_u64(self.memory_busy_cycles);
        w.put_u64(self.refusals);
    }

    /// Checkpoint hook: restores counters saved by [`BusStats::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        for arr in [
            &mut self.cycles_by_area,
            &mut self.cmd_counts,
            &mut self.swap_ins_by_area,
            &mut self.swap_outs_by_area,
            &mut self.c2c_by_area,
        ] {
            for v in arr.iter_mut() {
                *v = r.get_u64()?;
            }
        }
        for v in self.tx_counts.iter_mut() {
            *v = r.get_u64()?;
        }
        self.memory_busy_cycles = r.get_u64()?;
        self.refusals = r.get_u64()?;
        Ok(())
    }

    /// Records a bus request that was refused with an `LH` (lock hit)
    /// response: the command and its snoop resolution occupied the bus
    /// briefly, then the requester entered a bus-free busy wait.
    pub fn record_refusal(&mut self, area: StorageArea) {
        self.cycles_by_area[area.index()] += BusTiming::SNOOP_CYCLES;
        self.refusals += 1;
    }

    /// Number of `LH`-refused bus requests.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Records a *reflective* copy-back: in Illinois-style protocols a
    /// dirty block supplied cache-to-cache is captured by the memory
    /// controller in the same bus transaction, costing no extra bus cycles
    /// but occupying a memory module. The PIM protocol's `SM` state exists
    /// to avoid exactly this.
    pub fn record_reflective_copyback(&mut self, area: StorageArea, timing: &BusTiming) {
        self.memory_busy_cycles += timing.memory_cycles;
        self.swap_outs_by_area[area.index()] += 1;
    }

    /// Total bus cycles across all areas — the paper's figure of merit.
    pub fn total_cycles(&self) -> u64 {
        self.cycles_by_area.iter().sum()
    }

    /// Bus cycles attributed to `area`.
    pub fn area_cycles(&self, area: StorageArea) -> u64 {
        self.cycles_by_area[area.index()]
    }

    /// Percentage of bus cycles attributed to `area`.
    pub fn area_cycle_pct(&self, area: StorageArea) -> f64 {
        pct(self.area_cycles(area), self.total_cycles())
    }

    /// Number of transactions of kind `tx`.
    pub fn tx_count(&self, tx: Transaction) -> u64 {
        self.tx_counts[tx.index()]
    }

    /// Number of broadcasts of `cmd`.
    pub fn cmd_count(&self, cmd: BusCommand) -> u64 {
        self.cmd_counts[cmd.index()]
    }

    /// Cycles during which a shared-memory module is busy (reads and
    /// writes), including hidden swap-out writes. The `SM` state exists to
    /// keep this low when cache-to-cache transfer rates are high.
    pub fn memory_busy_cycles(&self) -> u64 {
        self.memory_busy_cycles
    }

    /// Swap-ins from shared memory attributed to `area` (Section 4.6: `DW`
    /// reduces heap swap-ins to 10–55 % of the unoptimized count).
    pub fn swap_ins(&self, area: StorageArea) -> u64 {
        self.swap_ins_by_area[area.index()]
    }

    /// Block write-backs to shared memory attributed to `area`.
    pub fn swap_outs(&self, area: StorageArea) -> u64 {
        self.swap_outs_by_area[area.index()]
    }

    /// Cache-to-cache transfers attributed to `area`.
    pub fn cache_to_cache(&self, area: StorageArea) -> u64 {
        self.c2c_by_area[area.index()]
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &BusStats) {
        for i in 0..5 {
            self.cycles_by_area[i] += other.cycles_by_area[i];
            self.cmd_counts[i] += other.cmd_counts[i];
            self.swap_ins_by_area[i] += other.swap_ins_by_area[i];
            self.swap_outs_by_area[i] += other.swap_outs_by_area[i];
            self.c2c_by_area[i] += other.c2c_by_area[i];
        }
        for i in 0..7 {
            self.tx_counts[i] += other.tx_counts[i];
        }
        self.memory_busy_cycles += other.memory_busy_cycles;
        self.refusals += other.refusals;
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_accumulate_by_area() {
        let timing = BusTiming::paper_default();
        let mut s = BusStats::new();
        s.record_tx(
            Transaction::MemoryFetch { swap_out: false },
            StorageArea::Heap,
            &timing,
            4,
        );
        s.record_tx(
            Transaction::Invalidate,
            StorageArea::Communication,
            &timing,
            4,
        );
        assert_eq!(s.area_cycles(StorageArea::Heap), 13);
        assert_eq!(s.area_cycles(StorageArea::Communication), 2);
        assert_eq!(s.total_cycles(), 15);
        assert!((s.area_cycle_pct(StorageArea::Heap) - 100.0 * 13.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn record_tx_returns_the_cycles_it_charged() {
        let timing = BusTiming::paper_default();
        let mut s = BusStats::new();
        for (k, tx) in Transaction::ALL.into_iter().enumerate() {
            let before = s.area_cycles(StorageArea::Heap);
            let charged = s.record_tx(tx, StorageArea::Heap, &timing, 1 << k);
            assert_eq!(charged, timing.cycles(tx, 1 << k), "{tx:?}");
            assert_eq!(s.area_cycles(StorageArea::Heap) - before, charged, "{tx:?}");
        }
    }

    #[test]
    fn swap_counters_track_patterns() {
        let timing = BusTiming::paper_default();
        let mut s = BusStats::new();
        s.record_tx(
            Transaction::MemoryFetch { swap_out: true },
            StorageArea::Heap,
            &timing,
            4,
        );
        s.record_tx(
            Transaction::CacheToCache { swap_out: false },
            StorageArea::Goal,
            &timing,
            4,
        );
        s.record_tx(Transaction::SwapOutOnly, StorageArea::Heap, &timing, 4);
        assert_eq!(s.swap_ins(StorageArea::Heap), 1);
        assert_eq!(s.swap_outs(StorageArea::Heap), 2);
        assert_eq!(s.cache_to_cache(StorageArea::Goal), 1);
        // fetch (8) + hidden swap-out write (8) + bare swap-out write (8)
        assert_eq!(s.memory_busy_cycles(), 24);
    }

    #[test]
    fn command_counts() {
        let mut s = BusStats::new();
        s.record_cmd(BusCommand::Invalidate);
        s.record_cmd(BusCommand::Invalidate);
        s.record_cmd(BusCommand::Fetch);
        assert_eq!(s.cmd_count(BusCommand::Invalidate), 2);
        assert_eq!(s.cmd_count(BusCommand::Fetch), 1);
        assert_eq!(s.cmd_count(BusCommand::Unlock), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let timing = BusTiming::paper_default();
        let mut a = BusStats::new();
        let mut b = BusStats::new();
        a.record_tx(Transaction::Invalidate, StorageArea::Heap, &timing, 4);
        b.record_tx(Transaction::Invalidate, StorageArea::Heap, &timing, 4);
        b.record_cmd(BusCommand::Unlock);
        a.merge(&b);
        assert_eq!(a.area_cycles(StorageArea::Heap), 4);
        assert_eq!(a.tx_count(Transaction::Invalidate), 2);
        assert_eq!(a.cmd_count(BusCommand::Unlock), 1);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = BusStats::new();
        assert_eq!(s.total_cycles(), 0);
        assert_eq!(s.area_cycle_pct(StorageArea::Heap), 0.0);
    }
}
