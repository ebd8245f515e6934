//! Simulated digests: every simulated statistic of one cell as named
//! integers, so units can be compared with each other and with the
//! committed golden digests (`golden.rs`), naming the first field that
//! differs.

use fghc::Term;
use kl1_machine::MachineStats;
use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats};
use pim_obs::{Metrics, PeCycles};
use pim_trace::{MemOp, RefStats, StorageArea};

/// What one simulation produced, gathered after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The KL1 answer bound to `R` (none for trace replays).
    pub answer: Option<Term>,
    /// KL1 machine counters (none for trace replays).
    pub machine: Option<MachineStats>,
    /// Simulated completion time in cycles.
    pub makespan: u64,
    /// Per-PE busy / bus-wait / lock-wait / idle cycles.
    pub pe_cycles: Vec<PeCycles>,
    /// Bus statistics.
    pub bus: BusStats,
    /// References by area and operation.
    pub refs: RefStats,
    /// Cache hit and miss statistics.
    pub access: AccessStats,
    /// Lock-protocol statistics.
    pub locks: LockStats,
    /// The observers' aggregate, for profiled cells.
    pub metrics: Option<Metrics>,
}

/// One cell's digest: a label such as `Semi/illinois` and its fields in
/// a fixed order, zeros included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDigest {
    /// Which simulation of the unit this is.
    pub cell: String,
    /// `(field, value)` pairs.
    pub fields: Vec<(String, u64)>,
}

impl CellDigest {
    /// The value of `field`, 0 when absent.
    pub fn get(&self, field: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| k == field)
            .map_or(0, |&(_, v)| v)
    }
}

impl SimResult {
    /// The digest of this result under `cell`.
    pub fn digest(&self, cell: &str) -> CellDigest {
        let mut f: Vec<(String, u64)> = Vec::new();
        let mut put = |k: &str, v: u64| f.push((k.to_string(), v));
        if let Some(answer) = &self.answer {
            put(
                "answer_fnv",
                pim_ckpt::fnv1a64(answer.to_string().as_bytes()),
            );
        }
        put("makespan", self.makespan);
        put("bus_cycles", self.bus.total_cycles());
        put("memory_busy_cycles", self.bus.memory_busy_cycles());
        let mut pe = PeCycles::default();
        for c in &self.pe_cycles {
            pe.merge(c);
        }
        put("pe.busy", pe.busy);
        put("pe.bus_wait", pe.bus_wait);
        put("pe.lock_wait", pe.lock_wait);
        put("pe.idle", pe.idle);
        if let Some(m) = &self.machine {
            put("machine.reductions", m.reductions);
            put("machine.suspensions", m.suspensions);
            put("machine.instructions", m.instructions);
            put("machine.goals_migrated", m.goals_migrated);
        }
        let a = &self.access;
        put("access.lookups", a.lookups);
        put("access.hits", a.hits);
        put("access.dw_allocations", a.dw_allocations);
        put("access.dw_contract_violations", a.dw_contract_violations);
        put("access.purges", a.purges);
        put("access.dirty_purges", a.dirty_purges);
        let l = &self.locks;
        put("locks.lr_total", l.lr_total);
        put("locks.lr_hits", l.lr_hits);
        put("locks.lr_hits_exclusive", l.lr_hits_exclusive);
        put("locks.unlock_total", l.unlock_total);
        put("locks.unlock_no_waiter", l.unlock_no_waiter);
        put("locks.lr_refused", l.lr_refused);
        put("locks.max_simultaneous_locks", l.max_simultaneous_locks);
        for area in StorageArea::ALL {
            for op in MemOp::ALL {
                let k = format!("refs.{}.{}", area.label(), op.mnemonic());
                put(&k, self.refs.count(area, op));
            }
        }
        if let Some(m) = &self.metrics {
            put("obs.transitions", m.transitions_total().total());
            put("obs.bus_grants", m.bus_wait.count());
            put("obs.lock_waits", m.lock_wait.count());
            put("obs.reductions", m.reductions_by_pe.iter().sum());
            put("obs.suspensions", m.suspensions_by_pe.iter().sum());
            put("obs.resumptions", m.resumptions_by_pe.iter().sum());
        }
        CellDigest {
            cell: cell.to_string(),
            fields: f,
        }
    }
}

/// The first difference between two units' digests, naming the cell and
/// field, or `None` when they agree.
pub fn first_difference(got: &[CellDigest], want: &[CellDigest]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "cell count: got {}, want {}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        if g.cell != w.cell {
            return Some(format!("cell: got {}, want {}", g.cell, w.cell));
        }
        for (k, v) in &g.fields {
            let wv = w.get(k);
            if *v != wv {
                return Some(format!("{} {k}: got {v}, want {wv}", g.cell));
            }
        }
        if let Some((k, wv)) = w
            .fields
            .iter()
            .find(|(k, _)| !g.fields.iter().any(|(gk, _)| gk == k))
        {
            return Some(format!("{} {k}: got nothing, want {wv}", g.cell));
        }
    }
    None
}

/// The text form kept in `golden.rs`: each cell's label on a line of its
/// own, then its non-zero fields as indented `field=value` tokens.
pub fn render(cells: &[CellDigest]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&c.cell);
        // Width of the current field line; 88 forces a fresh one.
        let mut width = 88;
        for (k, v) in c.fields.iter().filter(|(_, v)| *v != 0) {
            let token = format!("{k}={v}");
            if width + 1 + token.len() > 88 {
                out.push_str("\n   ");
                width = 3;
            }
            out.push(' ');
            out.push_str(&token);
            width += 1 + token.len();
        }
        out.push('\n');
    }
    out
}

/// Parses [`render`]'s text form: a token without `=` starts a cell, and
/// `field=value` tokens belong to the cell before them.
///
/// # Errors
///
/// A message naming the malformed token.
pub fn parse(text: &str) -> Result<Vec<CellDigest>, String> {
    let mut cells: Vec<CellDigest> = Vec::new();
    for token in text.split_whitespace() {
        let Some((k, v)) = token.split_once('=') else {
            cells.push(CellDigest {
                cell: token.to_string(),
                fields: Vec::new(),
            });
            continue;
        };
        let cell = cells
            .last_mut()
            .ok_or_else(|| format!("field {token:?} before any cell label"))?;
        let v = v
            .parse()
            .map_err(|_| format!("{}: {k} has a bad value {v:?}", cell.cell))?;
        cell.fields.push((k.to_string(), v));
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, fields: &[(&str, u64)]) -> CellDigest {
        CellDigest {
            cell: name.into(),
            fields: fields.iter().map(|&(k, v)| (k.into(), v)).collect(),
        }
    }

    #[test]
    fn render_and_parse_round_trip_modulo_zeros() {
        let cells = vec![
            cell("Tri/pim", &[("makespan", 7), ("bus_cycles", 0)]),
            cell("replay/pim", &[("refs.heap.R", 3)]),
        ];
        let text = render(&cells);
        assert_eq!(
            text,
            "Tri/pim\n    makespan=7\nreplay/pim\n    refs.heap.R=3\n"
        );
        let back = parse(&text).expect("rendered text parses");
        assert_eq!(first_difference(&cells, &back), None);
        let long: Vec<(String, u64)> = (0..40).map(|i| (format!("field{i}"), i + 1)).collect();
        let long = vec![CellDigest {
            cell: "x".into(),
            fields: long,
        }];
        let text = render(&long);
        assert!(text.lines().all(|l| l.len() <= 88), "{text}");
        assert_eq!(parse(&text).as_ref(), Ok(&long));
        assert!(parse("makespan=7").is_err());
        assert!(parse("Tri/pim makespan=x").is_err());
    }

    #[test]
    fn first_difference_names_the_cell_and_field() {
        let a = vec![cell("Semi/pim", &[("makespan", 7), ("bus_cycles", 9)])];
        let b = vec![cell("Semi/pim", &[("makespan", 7), ("bus_cycles", 8)])];
        assert_eq!(
            first_difference(&a, &b).as_deref(),
            Some("Semi/pim bus_cycles: got 9, want 8")
        );
        let c = vec![cell("Semi/pim", &[("makespan", 7), ("extra", 1)])];
        assert_eq!(
            first_difference(&a, &c).as_deref(),
            Some("Semi/pim bus_cycles: got 9, want 0")
        );
        let d = vec![cell(
            "Semi/pim",
            &[("makespan", 7), ("bus_cycles", 9), ("x", 1)],
        )];
        assert_eq!(
            first_difference(&a, &d).as_deref(),
            Some("Semi/pim x: got nothing, want 1")
        );
        assert!(first_difference(&a, &[]).is_some());
        assert_eq!(first_difference(&a, &a), None);
    }
}
