//! Round-trip property tests of the plain-text trace format:
//! `read_trace ∘ write_trace` is the identity on arbitrary traces, and
//! the written form itself is a fixed point (format ∘ parse ∘ format =
//! format ∘ parse). A differential test holds `read_trace` to a
//! line-at-a-time reference reader on canonical and mutated traces,
//! whole and cut into buffers of 1 to 7 bytes.

use pim_trace::{read_trace, write_trace, Access, Addr, MemOp, ParseTraceError, PeId, StorageArea};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor};

fn access_strategy() -> impl Strategy<Value = Access> {
    (
        0u32..64,
        proptest::sample::select(MemOp::ALL.to_vec()),
        any::<u64>(),
        proptest::sample::select(StorageArea::ALL.to_vec()),
    )
        .prop_map(|(pe, op, addr, area)| Access::new(PeId(pe), op, addr, area))
}

proptest! {
    #[test]
    fn parse_inverts_format(trace in proptest::collection::vec(access_strategy(), 0..200)) {
        let mut text = Vec::new();
        write_trace(&mut text, &trace).expect("write to Vec");
        let parsed = read_trace(Cursor::new(&text)).expect("parse own output");
        prop_assert_eq!(parsed, trace);
    }

    #[test]
    fn formatting_is_a_fixed_point(trace in proptest::collection::vec(access_strategy(), 0..50)) {
        let mut once = Vec::new();
        write_trace(&mut once, &trace).expect("write to Vec");
        let parsed = read_trace(Cursor::new(&once)).expect("parse own output");
        let mut twice = Vec::new();
        write_trace(&mut twice, &parsed).expect("write to Vec");
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped(trace in proptest::collection::vec(access_strategy(), 1..20)) {
        let mut text = Vec::new();
        write_trace(&mut text, &trace).expect("write to Vec");
        let mut noisy = String::from("# header comment\n\n");
        for line in std::str::from_utf8(&text).unwrap().lines() {
            noisy.push_str(line);
            noisy.push_str("\n\n# trailing comment\n");
        }
        let parsed = read_trace(Cursor::new(noisy.as_bytes())).expect("parse noisy trace");
        prop_assert_eq!(parsed, trace);
    }
}

/// The reference reader: one `String` per line from `BufRead::lines`,
/// then the same grammar `read_trace` documents.
fn oracle_read_trace<R: BufRead>(input: R) -> Result<Vec<Access>, ParseTraceError> {
    fn parse_op(s: &str) -> Option<MemOp> {
        MemOp::ALL.into_iter().find(|op| op.mnemonic() == s)
    }
    fn parse_area(s: &str) -> Option<StorageArea> {
        StorageArea::ALL.into_iter().find(|a| a.label() == s)
    }
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| ParseTraceError {
            file: None,
            line: lineno,
            message: e.to_string(),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |message: &str| ParseTraceError {
            file: None,
            line: lineno,
            message: message.to_string(),
        };
        let pe: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad PE id"))?;
        let op = parts
            .next()
            .and_then(parse_op)
            .ok_or_else(|| err("bad operation mnemonic"))?;
        let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
        let addr: Addr = if let Some(hex) = addr_str.strip_prefix("0x") {
            Addr::from_str_radix(hex, 16).map_err(|_| err("bad hex address"))?
        } else {
            addr_str.parse().map_err(|_| err("bad address"))?
        };
        let area = parts
            .next()
            .and_then(parse_area)
            .ok_or_else(|| err("bad storage area"))?;
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        out.push(Access::new(PeId(pe), op, addr, area));
    }
    Ok(out)
}

/// Reads `text` with both readers, whole and through 1- to 7-byte
/// buffers so that lines and UTF-8 sequences straddle refills, and
/// requires the same accesses or the same positioned error.
fn same_as_oracle(text: &[u8]) -> Result<(), TestCaseError> {
    let want = oracle_read_trace(text);
    prop_assert_eq!(read_trace(text), want.clone(), "whole input");
    for k in 1..=7 {
        let got = read_trace(BufReader::with_capacity(k, text));
        prop_assert_eq!(got, want.clone(), "{}-byte buffers", k);
    }
    Ok(())
}

fn wide_access_strategy() -> impl Strategy<Value = Access> {
    (
        prop_oneof![0u32..16, any::<u32>()],
        proptest::sample::select(MemOp::ALL.to_vec()),
        prop_oneof![0u64..0x1000, any::<u64>()],
        proptest::sample::select(StorageArea::ALL.to_vec()),
    )
        .prop_map(|(pe, op, addr, area)| Access::new(PeId(pe), op, addr, area))
}

/// Whitespace a field separator, a line's start or its end may carry:
/// ASCII space, tab, vertical tab, form feed, and U+00A0 and U+3000,
/// which `char::is_whitespace` also counts.
const SPACES: [&str; 8] = [
    " ", "\t", "\x0b", "\x0c", "  ", " \t ", "\u{a0}", "\u{3000}",
];

/// Renders `a` as one trace line, or a line standing in for it,
/// spelled per `kind`; `p` picks the details. Kinds 0 to 7 are
/// canonical, 8 to 19 are other spellings of a valid line (or a comment
/// or blank line), and 20 and up are malformed, which ends the read.
fn render(a: &Access, kind: u8, p: u64, out: &mut Vec<u8>) {
    let space = |shift: u32| SPACES[(p >> shift) as usize % SPACES.len()];
    let mut pe = a.pe.0.to_string();
    let mut op = a.op.mnemonic().to_string();
    let mut addr = format!("{:#x}", a.addr);
    let mut area = a.area.label().to_string();
    let mut seps = [" "; 3];
    let (mut lead, mut trail, mut end) = ("", "", "\n");
    match kind {
        0..=7 => {}
        8 => seps = [space(0), space(4), space(8)],
        9 => lead = space(0),
        10 => trail = space(0),
        11 => end = "\r\n",
        12 => {
            let indent = space(0).repeat((p >> 8) as usize % 2);
            let comment = format!("{indent}# {pe} {op} {addr} {area}\n");
            out.extend_from_slice(comment.as_bytes());
            return;
        }
        13 => {
            out.extend_from_slice(space(0).repeat((p >> 8) as usize % 3).as_bytes());
            out.push(b'\n');
            return;
        }
        14 => pe.insert(0, '+'),
        15 => addr.insert(2, '+'),
        16 => addr = format!("+{}", a.addr),
        17 => addr = format!("0x{:X}", a.addr),
        18 => addr = a.addr.to_string(),
        // Ten digits up to u32::MAX, eleven with a leading zero, and 17
        // hex digits with a leading zero: all still fit.
        19 => match p % 3 {
            0 => pe = (u32::MAX - (p >> 8) as u32 % 2).to_string(),
            1 => pe = format!("0{:010}", a.pe.0),
            _ => addr = format!("0x0{:016x}", a.addr),
        },
        20 => addr = format!("0X{:x}", a.addr),
        // One past u32::MAX, eleven digits and 17 hex digits: overflow.
        21 => match p % 3 {
            0 => pe = (u64::from(u32::MAX) + 1).to_string(),
            1 => pe = format!("1{:010}", a.pe.0),
            _ => addr = format!("0x1{:016x}", a.addr),
        },
        22 => {
            // Invalid UTF-8 inside a field, or in a comment.
            let bad: &[u8] = [&b"\xff"[..], b"\xc3", b"\xe3\x80", b"\xc3("][(p % 4) as usize];
            if p & 4 == 0 {
                out.extend_from_slice(b"# ");
            }
            out.extend_from_slice(pe.as_bytes());
            out.extend_from_slice(bad);
            out.extend_from_slice(format!(" {op} {addr} {area}\n").as_bytes());
            return;
        }
        23 => op = ["X", "DWDW", "", "r"][(p % 4) as usize].to_string(),
        24 => area = ["hea", "heapx", "HEAP", ""][(p % 4) as usize].to_string(),
        25 => addr = ["0x", "0xg1", "-1", "0x-1"][(p % 4) as usize].to_string(),
        _ => area.push_str(" extra"),
    }
    let line = format!(
        "{lead}{pe}{}{op}{}{addr}{}{area}{trail}{end}",
        seps[0], seps[1], seps[2]
    );
    out.extend_from_slice(line.as_bytes());
}

proptest! {
    #[test]
    fn reader_matches_the_reference_on_written_traces(
        trace in proptest::collection::vec(wide_access_strategy(), 0..60),
        cut_last_newline in any::<bool>(),
    ) {
        let mut text = Vec::new();
        write_trace(&mut text, &trace).expect("write to Vec");
        if cut_last_newline {
            text.pop();
        }
        same_as_oracle(&text)?;
    }

    #[test]
    fn reader_matches_the_reference_on_mutated_lines(
        lines in proptest::collection::vec(
            (wide_access_strategy(), prop_oneof![12 => 0u8..20, 1 => 20u8..27], any::<u64>()),
            0..40,
        ),
        cut_last_newline in any::<bool>(),
    ) {
        let mut text = Vec::new();
        for (access, kind, p) in &lines {
            render(access, *kind, *p, &mut text);
        }
        if cut_last_newline && text.last() == Some(&b'\n') {
            text.pop();
        }
        same_as_oracle(&text)?;
    }
}
