//! Trace replay: drives recorded or synthetic access streams through the
//! engine, one per PE.

use crate::{Process, StepOutcome};
use pim_trace::{Access, Addr, MemOp, MemoryPort, PeId, PortValue, Word};

/// A [`Process`] that replays per-PE access streams in order.
///
/// Useful for cache-only experiments (no abstract machine) and for
/// re-running traces captured with [`pim_trace::VecSink`]. Write values
/// are synthesized deterministically from the stream position, so replays
/// are functionally self-consistent.
#[derive(Debug, Clone)]
pub struct Replayer {
    streams: Vec<Stream>,
    cursors: Vec<usize>,
}

/// One PE's accesses as two columns, 9 bytes an access: replay reads
/// only the operation and the address, never the PE or the area.
#[derive(Debug, Clone)]
struct Stream {
    ops: Vec<MemOp>,
    addrs: Vec<Addr>,
}

impl Stream {
    fn with_capacity(n: usize) -> Stream {
        Stream {
            ops: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, a: &Access) {
        self.ops.push(a.op);
        self.addrs.push(a.addr);
    }

    fn len(&self) -> usize {
        self.ops.len()
    }
}

impl Replayer {
    /// Builds a replayer from one access stream per PE.
    pub fn new(streams: Vec<Vec<Access>>) -> Replayer {
        let streams: Vec<Stream> = streams
            .iter()
            .map(|s| {
                let mut stream = Stream::with_capacity(s.len());
                s.iter().for_each(|a| stream.push(a));
                stream
            })
            .collect();
        let cursors = vec![0; streams.len()];
        Replayer { streams, cursors }
    }

    /// Splits a merged trace by issuing PE. `pes` fixes the PE count (PEs
    /// with no accesses get empty streams).
    ///
    /// # Panics
    ///
    /// Panics if the trace references a PE at or beyond `pes`.
    pub fn from_merged(trace: &[Access], pes: u32) -> Replayer {
        // Count first, so every stream is allocated once at its size.
        let mut lens = vec![0usize; pes as usize];
        for a in trace {
            let Some(len) = lens.get_mut(a.pe.index()) else {
                panic!("trace references {} beyond {pes} PEs", a.pe);
            };
            *len += 1;
        }
        let mut streams: Vec<Stream> = lens.into_iter().map(Stream::with_capacity).collect();
        for a in trace {
            streams[a.pe.index()].push(a);
        }
        let cursors = vec![0; streams.len()];
        Replayer { streams, cursors }
    }

    /// Checkpoint hook: serializes the replay cursors. The streams
    /// themselves are rebuilt from the trace file on resume, so only the
    /// positions travel.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.cursors.len());
        for (stream, &cursor) in self.streams.iter().zip(&self.cursors) {
            w.put_u64(cursor as u64);
            // Stream length rides along so a resume against a different
            // trace file is caught instead of silently replaying garbage.
            w.put_u64(stream.len() as u64);
        }
    }

    /// Checkpoint hook: restores cursors saved by [`Replayer::save_ckpt`]
    /// into a replayer rebuilt from the same trace.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count or any stream
    /// length disagrees with the checkpoint.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let n = r.get_len()?;
        if n != self.streams.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "checkpoint has {n} PE streams, trace has {}",
                    self.streams.len()
                ),
            });
        }
        for (i, stream) in self.streams.iter().enumerate() {
            let cursor = r.get_u64()? as usize;
            let len = r.get_u64()? as usize;
            if len != stream.len() {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: format!(
                        "PE {i} stream has {} accesses, checkpoint recorded {len}",
                        stream.len()
                    ),
                });
            }
            if cursor > len {
                return Err(pim_ckpt::CkptError::Corrupt {
                    detail: format!("PE {i} cursor {cursor} beyond stream length {len}"),
                });
            }
            self.cursors[i] = cursor;
        }
        Ok(())
    }

    /// Accesses remaining to replay.
    pub fn remaining(&self) -> usize {
        self.streams
            .iter()
            .zip(&self.cursors)
            .map(|(s, &c)| s.len() - c)
            .sum()
    }
}

impl Process for Replayer {
    fn pe_count(&self) -> u32 {
        self.streams.len() as u32
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let i = pe.index();
        let cursor = self.cursors[i];
        let stream = &self.streams[i];
        match stream.ops.get(cursor) {
            None => {
                if self.remaining() == 0 {
                    StepOutcome::Finished
                } else {
                    StepOutcome::Idle
                }
            }
            Some(&op) => {
                let data = if op.is_write() {
                    // Deterministic, position-derived payload.
                    Some((i as Word) << 32 | cursor as Word)
                } else {
                    None
                };
                match port.op(op, stream.addrs[cursor], data) {
                    PortValue::Stall => StepOutcome::Stalled,
                    PortValue::Value(_) => {
                        self.cursors[i] = cursor + 1;
                        StepOutcome::Ran
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use pim_cache::{PimSystem, SystemConfig};
    use pim_trace::{AreaMap, StorageArea};

    fn heap_access(pe: u32, op: MemOp, off: u64) -> Access {
        let map = AreaMap::standard();
        Access::new(
            PeId(pe),
            op,
            map.base(StorageArea::Heap) + off,
            StorageArea::Heap,
        )
    }

    #[test]
    fn replays_everything_and_finishes() {
        let trace = vec![
            heap_access(0, MemOp::Write, 0),
            heap_access(1, MemOp::Read, 0),
            heap_access(0, MemOp::Read, 4),
            heap_access(1, MemOp::Write, 4),
        ];
        let mut replayer = Replayer::from_merged(&trace, 2);
        assert_eq!(replayer.remaining(), 4);
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let mut engine = Engine::new(system, 2);
        let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
        assert!(stats.finished);
        assert_eq!(replayer.remaining(), 0);
        assert_eq!(engine.system().ref_stats().total(), 4);
    }

    #[test]
    fn uneven_streams_idle_the_empty_pe() {
        let trace = vec![
            heap_access(0, MemOp::Write, 0),
            heap_access(0, MemOp::Write, 8),
            heap_access(0, MemOp::Write, 16),
        ];
        let mut replayer = Replayer::from_merged(&trace, 2);
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let mut engine = Engine::new(system, 2);
        let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
        assert!(stats.finished);
        assert_eq!(engine.system().ref_stats().total(), 3);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_pe_rejected() {
        let trace = vec![heap_access(5, MemOp::Read, 0)];
        let _ = Replayer::from_merged(&trace, 2);
    }
}
