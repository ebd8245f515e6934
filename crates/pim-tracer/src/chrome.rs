//! Chrome `trace_event` export, loadable in Perfetto / `chrome://tracing`.
//!
//! Layout: one process (`pid` 1), the bus on `tid` 0, PE *i* on
//! `tid` *i + 1*. Bus holds are `B`/`E` pairs on the bus track (the bus
//! is serial, so they balance); PE-side spans (full bus transactions
//! including queueing, and lock waits) are `X` complete events; points
//! are `i` instants; goal-queue depth is a `C` counter per PE.
//!
//! The file is **byte-deterministic**: every event renders to one
//! compact JSON line and the lines are sorted by
//! `(ts, tid, phase rank, text)`, so the arrival order of the events
//! never reaches the output. Phase rank puts `M` metadata first and `E`
//! before `B` so that back-to-back bus holds stay balanced at equal
//! timestamps.

use crate::event::{Event, EventKind, SharedTracer};
use pim_ckpt::vfs::PathClass;
use pim_obs::Json;
use std::io;
use std::path::Path;

/// Envelope counters written to `otherData` and read back by `pimtrace`.
#[derive(Debug, Clone, Copy)]
pub struct TraceMeta {
    /// The run's makespan in cycles (max PE clock).
    pub makespan: u64,
    /// Number of PEs simulated (fixes the track set even if some PEs
    /// emitted nothing).
    pub pes: usize,
    /// Events offered to the ring.
    pub emitted: u64,
    /// Events retained and exported.
    pub recorded: u64,
    /// Events discarded at the ring cap (`emitted - recorded`).
    pub dropped: u64,
}

/// Version tag in `otherData.schema`.
pub const SCHEMA: &str = "pim-trace/v1";

fn phase_rank(ph: &str) -> u8 {
    match ph {
        "M" => 0,
        "E" => 1,
        "B" => 2,
        "X" => 3,
        "i" => 4,
        _ => 5, // "C" and anything future
    }
}

struct Line {
    ts: u64,
    tid: u64,
    rank: u8,
    text: String,
}

fn line(ph: &str, ts: u64, tid: u64, name: &str, extra: Vec<(&str, Json)>) -> Line {
    let mut j = Json::obj([
        ("ph", Json::from(ph)),
        ("pid", Json::from(1u64)),
        ("tid", Json::from(tid)),
        ("ts", Json::from(ts)),
        ("name", Json::from(name)),
    ]);
    for (k, v) in extra {
        j.push(k, v);
    }
    Line {
        ts,
        tid,
        rank: phase_rank(ph),
        text: j.to_string_compact(),
    }
}

fn args(pairs: Vec<(&str, Json)>) -> (&'static str, Json) {
    ("args", Json::obj(pairs))
}

fn render(ev: &Event, out: &mut Vec<Line>) {
    let tid = u64::from(ev.pe.0) + 1;
    match &ev.kind {
        EventKind::Transition { area, from, to } => {
            let name = format!("{}->{} {}", from.label(), to.label(), area.label());
            out.push(line(
                "i",
                ev.ts,
                tid,
                &name,
                vec![
                    ("s", Json::from("t")),
                    args(vec![
                        ("area", Json::from(area.label())),
                        ("from", Json::from(from.label())),
                        ("to", Json::from(to.label())),
                    ]),
                ],
            ));
        }
        EventKind::Bus {
            op,
            area,
            wait,
            hold,
        } => {
            let name = format!("bus {} {}", op.mnemonic(), area.label());
            out.push(line(
                "X",
                ev.ts,
                tid,
                &name,
                vec![
                    ("dur", Json::from(wait + hold)),
                    args(vec![
                        ("op", Json::from(op.mnemonic())),
                        ("area", Json::from(area.label())),
                        ("wait", Json::from(*wait)),
                        ("hold", Json::from(*hold)),
                    ]),
                ],
            ));
            let hold_name = format!("{} {}", op.mnemonic(), area.label());
            let pe_args = || {
                args(vec![
                    ("pe", Json::from(u64::from(ev.pe.0))),
                    ("op", Json::from(op.mnemonic())),
                    ("area", Json::from(area.label())),
                ])
            };
            out.push(line("B", ev.ts + wait, 0, &hold_name, vec![pe_args()]));
            out.push(line(
                "E",
                ev.ts + wait + hold,
                0,
                &hold_name,
                vec![pe_args()],
            ));
        }
        EventKind::LockWait { addr, area, dur } => {
            let name = format!("lock wait {}", area.label());
            out.push(line(
                "X",
                ev.ts,
                tid,
                &name,
                vec![
                    ("dur", Json::from(*dur)),
                    args(vec![
                        ("addr", Json::from(*addr)),
                        ("area", Json::from(area.label())),
                        ("until", Json::from(ev.ts + dur)),
                    ]),
                ],
            ));
        }
        EventKind::LockAcquired { addr, area } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "lock acquire",
                vec![
                    ("s", Json::from("t")),
                    args(vec![
                        ("addr", Json::from(*addr)),
                        ("area", Json::from(area.label())),
                    ]),
                ],
            ));
        }
        EventKind::LockReleased { addr, area, woken } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "lock release",
                vec![
                    ("s", Json::from("t")),
                    args(vec![
                        ("addr", Json::from(*addr)),
                        ("area", Json::from(area.label())),
                        ("woken", Json::from(u64::from(*woken))),
                    ]),
                ],
            ));
        }
        EventKind::Reduction => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "reduce",
                vec![("s", Json::from("t"))],
            ));
        }
        EventKind::Suspension { goal } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "suspend",
                vec![
                    ("s", Json::from("t")),
                    args(vec![("goal", Json::from(*goal))]),
                ],
            ));
        }
        EventKind::Resumption { goal } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "resume",
                vec![
                    ("s", Json::from("t")),
                    args(vec![("goal", Json::from(*goal))]),
                ],
            ));
        }
        EventKind::Gc { words } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "gc",
                vec![
                    ("s", Json::from("t")),
                    args(vec![("words", Json::from(*words))]),
                ],
            ));
        }
        EventKind::GoalDepth { depth } => {
            let name = format!("goals pe{}", ev.pe.0);
            out.push(line(
                "C",
                ev.ts,
                tid,
                &name,
                vec![args(vec![("depth", Json::from(*depth))])],
            ));
        }
        EventKind::FaultInjected { kind } => {
            let name = format!("fault {kind}");
            out.push(line(
                "i",
                ev.ts,
                tid,
                &name,
                vec![
                    ("s", Json::from("t")),
                    args(vec![("kind", Json::from(*kind))]),
                ],
            ));
        }
        EventKind::FaultRecovered { faults, penalty } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "fault recovery",
                vec![
                    ("s", Json::from("t")),
                    args(vec![
                        ("faults", Json::from(u64::from(*faults))),
                        ("penalty", Json::from(*penalty)),
                    ]),
                ],
            ));
        }
        EventKind::Watchdog { budget } => {
            out.push(line(
                "i",
                ev.ts,
                tid,
                "watchdog",
                vec![
                    ("s", Json::from("t")),
                    args(vec![("budget", Json::from(*budget))]),
                ],
            ));
        }
        EventKind::Deadlock { pes } => {
            let list = Json::arr(pes.iter().map(|p| Json::from(u64::from(p.0))));
            out.push(line(
                "i",
                ev.ts,
                tid,
                "deadlock",
                vec![("s", Json::from("t")), args(vec![("pes", list)])],
            ));
        }
    }
}

/// Renders events plus track metadata to the full trace-file text.
pub fn export_chrome(events: &[Event], meta: &TraceMeta) -> String {
    let mut lines: Vec<Line> = Vec::with_capacity(events.len() + meta.pes + 2);
    lines.push(line(
        "M",
        0,
        0,
        "process_name",
        vec![args(vec![("name", Json::from("pim-sim"))])],
    ));
    lines.push(line(
        "M",
        0,
        0,
        "thread_name",
        vec![args(vec![("name", Json::from("bus"))])],
    ));
    for pe in 0..meta.pes {
        let name = format!("PE {pe}");
        lines.push(line(
            "M",
            0,
            pe as u64 + 1,
            "thread_name",
            vec![args(vec![("name", Json::from(name.as_str()))])],
        ));
    }
    for ev in events {
        render(ev, &mut lines);
    }
    lines.sort_by(|a, b| (a.ts, a.tid, a.rank, &a.text).cmp(&(b.ts, b.tid, b.rank, &b.text)));

    let other = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("makespan", Json::from(meta.makespan)),
        ("pes", Json::from(meta.pes)),
        ("emitted", Json::from(meta.emitted)),
        ("recorded", Json::from(meta.recorded)),
        ("dropped", Json::from(meta.dropped)),
    ]);

    let mut out = String::new();
    out.push_str("{\n\"traceEvents\": [\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str(&l.text);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": ");
    out.push_str(&other.to_string_compact());
    out.push_str("\n}\n");
    out
}

impl SharedTracer {
    /// Drains the ring, renders it with [`export_chrome`] and writes the
    /// file atomically (I/O class `Trace`, so `--io-chaos` schedules and
    /// recovers it like every other durable write). Returns the
    /// envelope written, whose counters say what the ring kept.
    ///
    /// # Errors
    ///
    /// The failed write, after the I/O layer's retries.
    pub fn write_chrome(&self, path: &Path, makespan: u64, pes: usize) -> io::Result<TraceMeta> {
        let meta = TraceMeta {
            makespan,
            pes,
            emitted: self.emitted(),
            recorded: self.recorded() as u64,
            dropped: self.dropped(),
        };
        let text = export_chrome(&self.take_sorted(), &meta);
        pim_ckpt::atomic_write_class(PathClass::Trace, path, text.as_bytes())?;
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::{MemOp, PeId, StorageArea};

    fn meta(pes: usize, n: u64) -> TraceMeta {
        TraceMeta {
            makespan: 100,
            pes,
            emitted: n,
            recorded: n,
            dropped: 0,
        }
    }

    #[test]
    fn export_is_arrival_order_independent() {
        let a = Event {
            ts: 5,
            pe: PeId(0),
            kind: EventKind::Reduction,
        };
        let b = Event {
            ts: 3,
            pe: PeId(1),
            kind: EventKind::Bus {
                op: MemOp::Read,
                area: StorageArea::Heap,
                wait: 2,
                hold: 7,
            },
        };
        let fwd = export_chrome(&[a.clone(), b.clone()], &meta(2, 2));
        let rev = export_chrome(&[b, a], &meta(2, 2));
        assert_eq!(fwd, rev);
    }

    #[test]
    fn bus_holds_balance_even_back_to_back() {
        // Hold [7,10) followed by hold [10,12): at ts 10 the E line must
        // sort before the B line or the bus track nests wrongly.
        let first = Event {
            ts: 5,
            pe: PeId(0),
            kind: EventKind::Bus {
                op: MemOp::Read,
                area: StorageArea::Heap,
                wait: 2,
                hold: 3,
            },
        };
        let second = Event {
            ts: 10,
            pe: PeId(1),
            kind: EventKind::Bus {
                op: MemOp::Write,
                area: StorageArea::Goal,
                wait: 0,
                hold: 2,
            },
        };
        let text = export_chrome(&[second, first], &meta(2, 2));
        let e_at_10 = text
            .lines()
            .position(|l| l.contains("\"ph\":\"E\"") && l.contains("\"ts\":10"))
            .expect("E line");
        let b_at_10 = text
            .lines()
            .position(|l| l.contains("\"ph\":\"B\"") && l.contains("\"ts\":10"))
            .expect("B line");
        assert!(e_at_10 < b_at_10, "E must precede B at equal ts");
    }

    #[test]
    fn export_names_every_track() {
        let text = export_chrome(&[], &meta(3, 0));
        assert!(text.contains("\"name\":\"bus\""));
        for pe in 0..3 {
            assert!(text.contains(&format!("\"name\":\"PE {pe}\"")));
        }
        assert!(text.contains("\"schema\":\"pim-trace/v1\""));
    }
}
