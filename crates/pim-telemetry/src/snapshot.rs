//! Reading `pim-status/v1` snapshots back: the typed [`Snapshot`]
//! view over the workspace's strict JSON reader
//! ([`pim_obs::parse_json`]), and the one-screen render `sweepwatch`
//! draws.
//!
//! Strictness is the point: any truncation, trailing bytes, or
//! malformed token is an error, never a best-effort partial value,
//! because this reader's whole job is to distinguish "a complete
//! snapshot the atomic writer published" from "garbage". Integers
//! parse exactly, so `u64::MAX` round-trips instead of sagging through
//! an `f64`.

use pim_obs::{parse_json, Json, JsonExt};

/// One quarantined cell as recorded in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// The cell's grid key.
    pub cell: String,
    /// Attempts consumed before quarantine.
    pub attempts: u64,
    /// The final attempt's error.
    pub error: String,
}

/// A parsed `pim-status/v1` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The producing binary ("sweeprun", "tracesim", ...).
    pub tool: String,
    /// Whether the run had completed when this was written.
    pub finished: bool,
    /// Wall milliseconds since the run started.
    pub elapsed_ms: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Cells in the grid.
    pub total: u64,
    /// Cells not yet claimed.
    pub pending: u64,
    /// Cells currently held by workers.
    pub running: u64,
    /// Cells completed and validated.
    pub done: u64,
    /// Cells that failed every permitted attempt.
    pub quarantined: u64,
    /// Cells skipped by a raised cancel flag.
    pub skipped: u64,
    /// Cells served from a journal or checkpoint.
    pub reused: u64,
    /// Attempts started.
    pub attempts: u64,
    /// Extra attempts beyond each cell's first.
    pub retries: u64,
    /// Chaos-injected worker kills.
    pub chaos_kills: u64,
    /// Chaos-injected delays.
    pub chaos_delays: u64,
    /// Engine micro-steps executed.
    pub engine_steps: u64,
    /// Engine chunks completed.
    pub engine_chunks: u64,
    /// Executed-cell throughput.
    pub cells_per_sec: f64,
    /// Projected milliseconds to completion, when computable.
    pub eta_ms: Option<u64>,
    /// Keys of cells currently held by workers.
    pub running_cells: Vec<String>,
    /// Quarantined cells with their errors.
    pub quarantined_cells: Vec<QuarantinedCell>,
}

fn field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

impl Snapshot {
    /// Parses a snapshot document, rejecting anything that is not a
    /// complete `pim-status/v1` object — a truncated prefix, trailing
    /// garbage, or a wrong/missing schema all fail.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = parse_json(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `schema`".to_string())?;
        if schema != crate::STATUS_SCHEMA {
            return Err(format!(
                "schema `{schema}` is not `{}`",
                crate::STATUS_SCHEMA
            ));
        }
        let cells = doc
            .get("cells")
            .ok_or_else(|| "missing `cells`".to_string())?;
        let chaos = doc
            .get("chaos")
            .ok_or_else(|| "missing `chaos`".to_string())?;
        let engine = doc
            .get("engine")
            .ok_or_else(|| "missing `engine`".to_string())?;
        let running_cells = match doc.get("running_cells") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "non-string running cell".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `running_cells`".to_string()),
        };
        let quarantined_cells = match doc.get("quarantined_cells") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| {
                    Ok(QuarantinedCell {
                        cell: v
                            .get("cell")
                            .and_then(Json::as_str)
                            .ok_or_else(|| "quarantined cell missing `cell`".to_string())?
                            .to_string(),
                        attempts: field(v, "attempts")?,
                        error: v
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing `quarantined_cells`".to_string()),
        };
        Ok(Snapshot {
            tool: doc
                .get("tool")
                .and_then(Json::as_str)
                .ok_or_else(|| "missing `tool`".to_string())?
                .to_string(),
            finished: doc
                .get("finished")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing `finished`".to_string())?,
            elapsed_ms: field(&doc, "elapsed_ms")?,
            workers: field(&doc, "workers")?,
            total: field(cells, "total")?,
            pending: field(cells, "pending")?,
            running: field(cells, "running")?,
            done: field(cells, "done")?,
            quarantined: field(cells, "quarantined")?,
            skipped: field(cells, "skipped")?,
            reused: field(cells, "reused")?,
            attempts: field(&doc, "attempts")?,
            retries: field(&doc, "retries")?,
            chaos_kills: field(chaos, "kills")?,
            chaos_delays: field(chaos, "delays")?,
            engine_steps: field(engine, "steps")?,
            engine_chunks: field(engine, "chunks")?,
            cells_per_sec: doc
                .get("cells_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            eta_ms: doc.get("eta_ms").and_then(Json::as_u64),
            running_cells,
            quarantined_cells,
        })
    }

    /// Whether the run lost cells: anything quarantined or skipped.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || self.skipped > 0
    }

    /// The one-screen progress view `sweepwatch` draws.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let settled = self.done + self.quarantined + self.skipped;
        let state = if self.finished {
            if self.degraded() {
                "finished (degraded)"
            } else {
                "finished"
            }
        } else {
            "running"
        };
        out.push_str(&format!(
            "{} — {} — {}/{} cells settled\n",
            self.tool, state, settled, self.total
        ));
        out.push_str(&format!("  [{}]\n", progress_bar(settled, self.total, 50)));
        out.push_str(&format!(
            "  done {}  quarantined {}  skipped {}  running {}  pending {}  (reused {})\n",
            self.done, self.quarantined, self.skipped, self.running, self.pending, self.reused
        ));
        out.push_str(&format!(
            "  attempts {}  retries {}  chaos kills {}  chaos delays {}\n",
            self.attempts, self.retries, self.chaos_kills, self.chaos_delays
        ));
        out.push_str(&format!(
            "  engine {} steps in {} chunks\n",
            self.engine_steps, self.engine_chunks
        ));
        out.push_str(&format!(
            "  workers {}  elapsed {}  {:.2} cells/sec  eta {}\n",
            self.workers,
            fmt_duration_ms(self.elapsed_ms),
            self.cells_per_sec,
            self.eta_ms.map_or("-".to_string(), fmt_duration_ms),
        ));
        if !self.running_cells.is_empty() {
            out.push_str("  in flight:\n");
            for cell in &self.running_cells {
                out.push_str(&format!("    {cell}\n"));
            }
        }
        if !self.quarantined_cells.is_empty() {
            out.push_str("  quarantined:\n");
            for q in &self.quarantined_cells {
                out.push_str(&format!(
                    "    {} ({} attempts): {}\n",
                    q.cell, q.attempts, q.error
                ));
            }
        }
        out
    }
}

fn progress_bar(numer: u64, denom: u64, width: u64) -> String {
    let filled = (numer.min(denom) * width).checked_div(denom).unwrap_or(0);
    let mut bar = String::new();
    for i in 0..width {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar
}

fn fmt_duration_ms(ms: u64) -> String {
    let secs = ms / 1_000;
    if secs >= 3_600 {
        format!("{}h{:02}m", secs / 3_600, (secs % 3_600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}.{}s", secs, (ms % 1_000) / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        let s = crate::RunStatus::new("t");
        s.register_cell("a");
        s.snapshot_json().to_string_pretty()
    }

    #[test]
    fn truncated_prefixes_never_parse() {
        let text = minimal();
        // Prefixes shorter than the closing `}` must fail; only
        // trailing whitespace may be lost without detection (the
        // document is still complete then, not torn).
        for cut in 0..text.trim_end().len() {
            assert!(
                Snapshot::parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        assert!(Snapshot::parse(&text).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let text = minimal();
        assert!(Snapshot::parse(&format!("{text}x")).is_err());
        assert!(Snapshot::parse(&format!("{text} {{}}")).is_err());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = minimal().replace("pim-status/v1", "pim-status/v0");
        assert!(Snapshot::parse(&text).is_err());
    }

    #[test]
    fn exact_u64_values_survive() {
        let text = minimal().replace(
            "\"elapsed_ms\": 0",
            &format!("\"elapsed_ms\": {}", u64::MAX),
        );
        let snap = Snapshot::parse(&text).unwrap();
        assert_eq!(snap.elapsed_ms, u64::MAX);
    }

    #[test]
    fn render_is_one_screen_and_names_quarantined_cells() {
        let s = crate::RunStatus::new("sweeprun");
        for key in ["a", "b"] {
            s.register_cell(key);
        }
        s.cell_running("a");
        s.cell_quarantined("a", 3, "panicked: poison");
        s.cell_running("b");
        s.cell_done("b");
        s.finish();
        let snap = Snapshot::parse(&s.snapshot_json().to_string_pretty()).unwrap();
        let view = snap.render();
        assert!(view.contains("finished (degraded)"), "{view}");
        assert!(view.contains("a (3 attempts): panicked: poison"), "{view}");
        assert!(view.lines().count() < 25, "{view}");
    }

    #[test]
    fn escapes_roundtrip() {
        let s = crate::RunStatus::new("t");
        s.register_cell("weird \"cell\"\nname\tend");
        s.cell_running("weird \"cell\"\nname\tend");
        s.cell_quarantined("weird \"cell\"\nname\tend", 1, "err \\ \"quote\"");
        let snap = Snapshot::parse(&s.snapshot_json().to_string_pretty()).unwrap();
        assert_eq!(snap.quarantined_cells[0].cell, "weird \"cell\"\nname\tend");
        assert_eq!(snap.quarantined_cells[0].error, "err \\ \"quote\"");
    }
}
