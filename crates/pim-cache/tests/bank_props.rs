//! Pins the set-major `CacheBank` to the semantics of separate per-PE
//! cache arrays.
//!
//! The oracle below is one naive array per PE, as the caches were kept
//! before the bank: a linear way scan finds a block, and an install
//! fills the first way with the smallest (valid, LRU stamp). Random
//! sequences of lookups, reads, writes, installs, invalidations,
//! state changes and snoops run against both, over shapes that
//! `CacheGeometry::try_with_shape` accepts — one-word blocks in one set
//! (tags using all 64 bits), 1 to 16 ways including 3, rows longer than
//! 64 lines — and 1 to 9 PEs. Every result must agree, and so must each
//! PE's checkpoint bytes (tags, states, LRU stamps and words of every
//! line in place), which pins every victim choice.

use pim_cache::array::Eviction;
use pim_cache::{BlockState, CacheBank, CacheGeometry};
use pim_ckpt::Writer;
use pim_trace::{Addr, PeId, Word};
use proptest::prelude::*;

/// `(capacity, block, ways)` shapes, all accepted by `try_with_shape`.
const SHAPES: [(u64, u64, u64); 10] = [
    (1, 1, 1),
    (2, 1, 2),
    (4, 1, 4),
    (8, 1, 3),
    (16, 4, 3),
    (16, 2, 2),
    (32, 4, 2),
    (64, 2, 1),
    (128, 4, 8),
    (64, 1, 16),
];

/// One PE's cache as a separate array (the oracle).
struct Naive {
    g: CacheGeometry,
    tags: Vec<u64>,
    states: Vec<BlockState>,
    lru: Vec<u64>,
    data: Vec<Vec<Word>>,
    clock: u64,
}

impl Naive {
    fn new(g: CacheGeometry) -> Naive {
        let lines = (g.sets * g.ways) as usize;
        Naive {
            g,
            tags: vec![0; lines],
            states: vec![BlockState::Inv; lines],
            lru: vec![0; lines],
            data: vec![vec![0; g.block_words as usize]; lines],
            clock: 0,
        }
    }

    fn set_lines(&self, addr: Addr) -> (u64, std::ops::Range<usize>) {
        let (tag, set, _) = self.g.decompose(addr);
        let start = (set * self.g.ways) as usize;
        (tag, start..start + self.g.ways as usize)
    }

    fn find(&self, addr: Addr) -> Option<usize> {
        let (tag, range) = self.set_lines(addr);
        range
            .into_iter()
            .find(|&i| self.tags[i] == tag && self.states[i] != BlockState::Inv)
    }

    fn state(&self, addr: Addr) -> BlockState {
        self.find(addr).map_or(BlockState::Inv, |i| self.states[i])
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.lru[i] = self.clock;
    }

    fn install(
        &mut self,
        base: Addr,
        words: &[Word],
        state: BlockState,
    ) -> Option<(Eviction, Vec<Word>)> {
        let (tag, range) = self.set_lines(base);
        let set = (base / self.g.block_words) % self.g.sets;
        let mut victim = range.start;
        for i in range {
            if (self.states[i].is_valid(), self.lru[i])
                < (self.states[victim].is_valid(), self.lru[victim])
            {
                victim = i;
            }
        }
        let evicted = self.states[victim].is_valid().then(|| {
            (
                Eviction {
                    base: self.g.recompose(self.tags[victim], set),
                    state: self.states[victim],
                },
                self.data[victim].clone(),
            )
        });
        self.tags[victim] = tag;
        self.states[victim] = state;
        self.data[victim] = words.to_vec();
        self.touch(victim);
        evicted
    }

    fn ckpt(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.clock);
        w.put_len(self.tags.len());
        for i in 0..self.tags.len() {
            w.put_u64(self.tags[i]);
            w.put_u8(match self.states[i] {
                BlockState::Em => 0,
                BlockState::Ec => 1,
                BlockState::Sm => 2,
                BlockState::Shared => 3,
                BlockState::Inv => 4,
            });
            w.put_u64(self.lru[i]);
            for &word in &self.data[i] {
                w.put_u64(word);
            }
        }
        w.payload().to_vec()
    }
}

const VALID: [BlockState; 4] = [
    BlockState::Em,
    BlockState::Ec,
    BlockState::Sm,
    BlockState::Shared,
];

/// An address from a small pool of blocks (so sets conflict), near the
/// top of the address space for one draw in four.
fn address(g: &CacheGeometry, sel: u64) -> Addr {
    let blocks = g.sets * g.ways * 3 + 1;
    let block = (sel >> 2) % blocks;
    let offset = (sel >> 32) % g.block_words;
    let word = block * g.block_words + offset;
    if sel & 3 == 0 {
        u64::MAX - word
    } else {
        word
    }
}

fn run(shape: usize, pes: usize, steps: &[(u8, u32, u64, u64)]) -> Result<(), TestCaseError> {
    let (capacity, block, ways) = SHAPES[shape];
    let g = CacheGeometry::try_with_shape(capacity, block, ways).expect("a legal shape");
    let mut bank = CacheBank::new(g, pes);
    let mut naive: Vec<Naive> = (0..pes).map(|_| Naive::new(g)).collect();
    let mut holders = Vec::with_capacity(pes);
    let bw = g.block_words as usize;
    for &(kind, pe, sel, value) in steps {
        let p = pe as usize % pes;
        let pe = PeId(p as u32);
        let addr = address(&g, sel);
        let base = g.block_base(addr);
        let state = VALID[(value % 4) as usize];
        let line = bank.find(pe, addr);
        let resident = naive[p].find(addr);
        prop_assert_eq!(line.is_some(), resident.is_some(), "hit at {:#x}", addr);
        prop_assert_eq!(
            line.map_or(BlockState::Inv, |l| bank.state(l)),
            naive[p].state(addr)
        );
        match (kind % 6, line, resident) {
            (0, Some(line), Some(i)) => {
                naive[p].touch(i);
                let expect = naive[p].data[i][(addr % g.block_words) as usize];
                prop_assert_eq!(bank.read(line, addr), expect, "read {:#x}", addr);
            }
            (1, Some(line), Some(i)) => {
                bank.write(line, addr, value, state);
                naive[p].touch(i);
                naive[p].data[i][(addr % g.block_words) as usize] = value;
                naive[p].states[i] = state;
            }
            (2, Some(line), Some(i)) => {
                prop_assert_eq!(bank.set_state(line, BlockState::Inv), naive[p].states[i]);
                naive[p].states[i] = BlockState::Inv;
            }
            (3, Some(line), Some(i)) => {
                prop_assert_eq!(bank.set_state(line, state), naive[p].states[i]);
                naive[p].states[i] = state;
            }
            (4, _, _) => {
                // The snoop of a bus command by `pe`.
                let supplier = bank.snoop(pe, base, &mut holders);
                let got: Vec<_> = holders.iter().map(|&l| (l.pe(), bank.state(l))).collect();
                let expect: Vec<_> = (0..pes)
                    .filter(|&q| q != p)
                    .map(|q| (PeId(q as u32), naive[q].state(base)))
                    .filter(|&(_, s)| s.is_valid())
                    .collect();
                prop_assert_eq!(&got, &expect, "snoop of {:#x} by {}", base, pe);
                let dirty = expect.iter().find(|(_, s)| s.is_dirty());
                let want = dirty.or(expect.first()).map(|&(q, _)| q);
                prop_assert_eq!(supplier.map(|l| l.pe()), want);
                let all: Vec<_> = bank.copies(addr).map(|l| l.pe()).collect();
                let every: Vec<_> = (0..pes)
                    .filter(|&q| naive[q].find(addr).is_some())
                    .map(|q| PeId(q as u32))
                    .collect();
                prop_assert_eq!(all, every);
            }
            (_, None, None) => {
                let words: Vec<Word> = (0..bw as u64).map(|k| value ^ k).collect();
                let mut evicted = vec![0; bw];
                let (line, ev) = bank.install(pe, base, &words, state, &mut evicted);
                let expect = naive[p].install(base, &words, state);
                prop_assert_eq!(line.pe(), pe);
                prop_assert_eq!(
                    ev,
                    expect.as_ref().map(|(e, _)| *e),
                    "victim in {:#x}",
                    base
                );
                if let Some((_, old)) = expect {
                    prop_assert_eq!(evicted, old);
                }
                prop_assert_eq!(bank.block(line), &words[..]);
            }
            _ => {}
        }
        let mut w = Writer::new();
        bank.save_ckpt(pe, &mut w);
        prop_assert_eq!(w.payload(), &naive[p].ckpt()[..], "PE {} lines", p);
    }
    for (p, cache) in naive.iter().enumerate() {
        let mut w = Writer::new();
        bank.save_ckpt(PeId(p as u32), &mut w);
        prop_assert_eq!(w.payload(), &cache.ckpt()[..], "PE {} lines", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn the_bank_behaves_as_separate_per_pe_arrays(
        shape in 0..SHAPES.len(),
        pes in 1..10usize,
        steps in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()),
            1..300,
        ),
    ) {
        run(shape, pes, &steps)?;
    }
}

#[test]
fn every_shape_and_pe_count_is_covered() {
    // A fixed sweep beside the random one: each shape with 1, 3 and 9 PEs.
    for shape in 0..SHAPES.len() {
        for pes in [1, 3, 9] {
            let steps: Vec<_> = (0..400u64)
                .map(|k| {
                    let x = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    ((x >> 8) as u8, (x >> 16) as u32, x.rotate_left(17), x)
                })
                .collect();
            run(shape, pes, &steps).unwrap_or_else(|e| panic!("shape {shape}, {pes} PEs: {e:?}"));
        }
    }
}
