//! Plain-text trace serialization.
//!
//! One access per line: `PE OP ADDR AREA`, e.g. `3 DW 0x11000000 goal`.
//! The format is diff-friendly and stable, so captured traces can be
//! checked into a repository, replayed with [`crate::Process`]
//! implementations, or inspected with ordinary text tools.
//!
//! # Examples
//!
//! ```
//! use pim_trace::{read_trace, write_trace, Access, MemOp, PeId, StorageArea};
//!
//! let trace = vec![Access::new(PeId(0), MemOp::DirectWrite, 64, StorageArea::Goal)];
//! let mut text = Vec::new();
//! write_trace(&mut text, &trace)?;
//! assert_eq!(std::str::from_utf8(&text).unwrap(), "0 DW 0x40 goal\n");
//! assert_eq!(read_trace(std::io::Cursor::new(text)).unwrap(), trace);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::{Access, Addr, MemOp, PeId, StorageArea};
use std::fmt::Write as _;
use std::io::{BufRead, ErrorKind, Write};

/// An error while parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// The trace file, when parsing came from [`read_trace_file`].
    pub file: Option<String>,
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseTraceError {
    /// Attaches the source file name to the diagnostic.
    #[must_use]
    pub fn in_file(mut self, file: &str) -> Self {
        self.file = Some(file.to_string());
        self
    }
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.file {
            Some(file) => write!(f, "{file}:{}: {}", self.line, self.message),
            None => write!(f, "trace line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes accesses, one per line.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(out: &mut W, trace: &[Access]) -> std::io::Result<()> {
    let mut buf = String::new();
    for a in trace {
        buf.clear();
        let _ = writeln!(buf, "{} {} {:#x} {}", a.pe.0, a.op, a.addr, a.area);
        out.write_all(buf.as_bytes())?;
    }
    Ok(())
}

fn parse_op(s: &[u8]) -> Option<MemOp> {
    MemOp::ALL
        .into_iter()
        .find(|op| op.mnemonic().as_bytes() == s)
}

fn parse_area(s: &[u8]) -> Option<StorageArea> {
    StorageArea::ALL
        .into_iter()
        .find(|a| a.label().as_bytes() == s)
}

/// Parses a trace written by [`write_trace`]. Empty lines and lines
/// starting with `#` are skipped.
///
/// The reader parses the input's buffered bytes in place and allocates
/// nothing per line. A line in exactly the form [`write_trace`] emits is
/// decoded in one pass; every other line (comments, other whitespace,
/// CRLF, signs, decimal or upper-case addresses, malformed lines) goes
/// to [`parse_line`], the one definition of the grammar and of every
/// diagnostic. Each buffer's lines are reserved before it is parsed, so
/// an in-memory trace is read into an exactly sized vector.
///
/// # Errors
///
/// Returns a positioned [`ParseTraceError`] on malformed lines, and wraps
/// I/O errors in the same type.
pub fn read_trace<R: BufRead>(mut input: R) -> Result<Vec<Access>, ParseTraceError> {
    let mut out = Vec::new();
    // The start of a line the previous buffer ended in.
    let mut partial = Vec::new();
    let mut lineno = 0;
    loop {
        let chunk = match input.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(error_at(lineno + 1, e.to_string())),
        };
        out.reserve(count_newlines(chunk) + usize::from(!chunk.ends_with(b"\n")));
        let mut rest = chunk;
        if !partial.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    partial.extend_from_slice(&rest[..nl]);
                    rest = &rest[nl + 1..];
                    lineno += 1;
                    out.extend(parse_line(&partial, lineno)?);
                    partial.clear();
                }
                None => {
                    partial.extend_from_slice(rest);
                    rest = &[];
                }
            }
        }
        while !rest.is_empty() {
            if let Some((access, len)) = canonical_line(rest) {
                lineno += 1;
                out.push(access);
                rest = &rest[len..];
            } else if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
                lineno += 1;
                out.extend(parse_line(&rest[..nl], lineno)?);
                rest = &rest[nl + 1..];
            } else {
                partial.extend_from_slice(rest);
                break;
            }
        }
        let n = chunk.len();
        input.consume(n);
    }
    if !partial.is_empty() {
        out.extend(parse_line(&partial, lineno + 1)?);
    }
    Ok(out)
}

/// Decodes a line in exactly the form [`write_trace`] emits: `PE OP
/// 0xHEX AREA\n` with single spaces, lower-case hex, at most 10 PE
/// digits and at most 16 hex digits. Returns the access and the bytes
/// the line takes, or `None` for any other line. It accepts only lines
/// that [`parse_line`] reads to the same access, so it is a pure
/// shortcut.
#[inline]
fn canonical_line(s: &[u8]) -> Option<(Access, usize)> {
    let mut i = 0;
    // Ten digits can exceed a u32: accumulate wider, check below.
    let mut pe = 0u64;
    while let Some(&d @ b'0'..=b'9') = s.get(i) {
        if i == 10 {
            return None;
        }
        pe = pe * 10 + u64::from(d - b'0');
        i += 1;
    }
    let pe = u32::try_from(pe).ok().filter(|_| i > 0)?;
    if s.get(i) != Some(&b' ') {
        return None;
    }
    i += 1;
    let op_len = s.get(i..)?.iter().take(4).position(|&b| b == b' ')?;
    let op = parse_op(&s[i..i + op_len])?;
    i += op_len + 1;
    if s.get(i..i + 2)? != b"0x" {
        return None;
    }
    i += 2;
    let digits = i;
    let mut addr: Addr = 0;
    loop {
        let d = match s.get(i) {
            Some(&b @ b'0'..=b'9') => b - b'0',
            Some(&b @ b'a'..=b'f') => b - b'a' + 10,
            _ => break,
        };
        if i - digits == 16 {
            return None;
        }
        addr = addr << 4 | Addr::from(d);
        i += 1;
    }
    if i == digits || s.get(i) != Some(&b' ') {
        return None;
    }
    i += 1;
    let area_len = s.get(i..)?.iter().take(5).position(|&b| b == b'\n')?;
    let area = parse_area(&s[i..i + area_len])?;
    Some((Access::new(PeId(pe), op, addr, area), i + area_len + 1))
}

/// `\n` bytes in `s`, counted in byte-wide lanes the compiler can
/// vectorize: a plain `filter().count()` is several times slower.
fn count_newlines(s: &[u8]) -> usize {
    s.chunks(usize::from(u8::MAX))
        .map(|c| usize::from(c.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

fn error_at(line: usize, message: impl Into<String>) -> ParseTraceError {
    ParseTraceError {
        file: None,
        line,
        message: message.into(),
    }
}

/// Parses line `lineno` of a trace, without its `\n`: `None` for a
/// blank line or a comment. The trace grammar: fields separated by any
/// Unicode whitespace, a decimal PE id, an operation mnemonic, a decimal
/// or `0x`-prefixed hex address (a `+` sign allowed) and a storage-area
/// label.
fn parse_line(bytes: &[u8], lineno: usize) -> Result<Option<Access>, ParseTraceError> {
    let err = |message: &str| error_at(lineno, message);
    // The message `BufRead::lines` gives for the same bytes.
    let line = std::str::from_utf8(bytes).map_err(|_| err("stream did not contain valid UTF-8"))?;
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let pe: u32 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err("bad PE id"))?;
    let op = parts
        .next()
        .and_then(|s| parse_op(s.as_bytes()))
        .ok_or_else(|| err("bad operation mnemonic"))?;
    let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
    let addr: Addr = if let Some(hex) = addr_str.strip_prefix("0x") {
        Addr::from_str_radix(hex, 16).map_err(|_| err("bad hex address"))?
    } else {
        addr_str.parse().map_err(|_| err("bad address"))?
    };
    let area = parts
        .next()
        .and_then(|s| parse_area(s.as_bytes()))
        .ok_or_else(|| err("bad storage area"))?;
    if parts.next().is_some() {
        return Err(err("trailing fields"));
    }
    Ok(Some(Access::new(PeId(pe), op, addr, area)))
}

/// Opens and parses a trace file, attaching the file name to every
/// diagnostic (`path:line: message`). I/O errors (including failure to
/// open the file) are wrapped the same way with line 0.
///
/// # Errors
///
/// A [`ParseTraceError`] naming the file and the offending line.
pub fn read_trace_file(path: &str) -> Result<Vec<Access>, ParseTraceError> {
    let f = std::fs::File::open(path).map_err(|e| ParseTraceError {
        file: Some(path.to_string()),
        line: 0,
        message: format!("cannot open: {e}"),
    })?;
    read_trace(std::io::BufReader::new(f)).map_err(|e| e.in_file(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Vec<Access> {
        vec![
            Access::new(PeId(0), MemOp::DirectWrite, 0x11000000, StorageArea::Goal),
            Access::new(PeId(3), MemOp::ExclusiveRead, 0x1000000, StorageArea::Heap),
            Access::new(PeId(7), MemOp::WriteUnlock, 42, StorageArea::Heap),
            Access::new(PeId(1), MemOp::DirectWriteDown, 7, StorageArea::Instruction),
        ]
    }

    #[test]
    fn round_trips() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(Cursor::new(buf)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 R 0x10 heap\n  # indented comment\n1 W 17 goal\n";
        let back = read_trace(Cursor::new(text)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].addr, 17);
        assert_eq!(back[1].op, MemOp::Write);
    }

    #[test]
    fn every_op_and_area_round_trips() {
        let mut trace = Vec::new();
        for op in MemOp::ALL {
            for area in StorageArea::ALL {
                trace.push(Access::new(PeId(2), op, 0x100, area));
            }
        }
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(Cursor::new(buf)).unwrap(), trace);
    }

    #[test]
    fn truncated_traces_name_the_file_and_line() {
        // A trace cut off mid-line (e.g. a partial download or an
        // interrupted capture) must fail with the file and line, not
        // silently drop the tail or panic.
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let cut = text.len() - 8; // chops the last line's address + area
        let truncated = &text[..cut];
        let err = read_trace(Cursor::new(truncated)).unwrap_err();
        assert_eq!(err.line, sample().len());
        let named = err.clone().in_file("capture.trace");
        assert_eq!(
            named.to_string(),
            format!("capture.trace:{}: {}", err.line, err.message)
        );

        let dir = std::env::temp_dir().join("pim-trace-textio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.trace");
        std::fs::write(&path, truncated).unwrap();
        let err = read_trace_file(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.file.as_deref(), path.to_str());
        assert_eq!(err.line, sample().len());
        assert!(read_trace_file("/nonexistent/x.trace").is_err());
    }

    #[test]
    fn malformed_lines_are_positioned_errors() {
        for (text, needle) in [
            ("x R 0x10 heap", "bad PE id"),
            ("0 ZZ 0x10 heap", "bad operation"),
            ("0 R zz heap", "bad address"),
            ("0 R 0xzz heap", "bad hex address"),
            ("0 R 0x10 nowhere", "bad storage area"),
            ("0 R 0x10 heap extra", "trailing"),
            ("0 R", "missing address"),
        ] {
            let err = read_trace(Cursor::new(format!("# one\n{text}\n"))).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(err.message.contains(needle), "{text}: {err}");
        }
    }
}
