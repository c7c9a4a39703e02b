//! Human-readable text format for traces.
//!
//! ```text
//! # comments start with '#'
//! init 0 = 5          # d_I[0] = 5
//! final 0 = 7         # d_F[0] = 7
//! P0: W(0,1) R(0,1) RW(0,1,2)
//! P1: R(0,2)
//! ```
//!
//! Process lines must appear in order `P0`, `P1`, ... Addresses and values
//! are unsigned decimal integers.

use crate::history::ProcessHistory;
use crate::op::Op;
use crate::trace::Trace;
use std::fmt::Write as _;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Render a trace in the text format. Inverse of [`parse_trace`].
pub fn format_trace(trace: &Trace) -> String {
    let mut out = String::new();
    for (&addr, &value) in trace.initial_values() {
        let _ = writeln!(out, "init {} = {}", addr.0, value.0);
    }
    for (&addr, &value) in trace.final_values() {
        let _ = writeln!(out, "final {} = {}", addr.0, value.0);
    }
    for (p, h) in trace.histories().iter().enumerate() {
        let _ = write!(out, "P{p}:");
        for op in h.iter() {
            let _ = write!(out, " {op}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Parse a trace from the text format. Inverse of [`format_trace`].
pub fn parse_trace(input: &str) -> Result<Trace, ParseError> {
    let mut trace = Trace::new();
    let mut next_proc = 0usize;
    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("init ") {
            let (addr, value) = parse_assignment(rest, lineno)?;
            trace.set_initial(addr, value);
        } else if let Some(rest) = line.strip_prefix("final ") {
            let (addr, value) = parse_assignment(rest, lineno)?;
            trace.set_final(addr, value);
        } else if let Some(rest) = line.strip_prefix('P') {
            let (id_str, ops_str) = rest
                .split_once(':')
                .ok_or_else(|| err(lineno, "expected ':' after process id"))?;
            let id: usize = id_str
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("invalid process id 'P{id_str}'")))?;
            if id != next_proc {
                return Err(err(
                    lineno,
                    format!("process lines must be in order; expected P{next_proc}, got P{id}"),
                ));
            }
            next_proc += 1;
            let mut history = ProcessHistory::new();
            for token in ops_str.split_whitespace() {
                history.push(parse_op(token, lineno)?);
            }
            trace.push_history(history);
        } else {
            return Err(err(lineno, format!("unrecognized line: '{line}'")));
        }
    }
    Ok(trace)
}

fn parse_assignment(rest: &str, lineno: usize) -> Result<(u32, u64), ParseError> {
    let (a, v) = rest
        .split_once('=')
        .ok_or_else(|| err(lineno, "expected 'addr = value'"))?;
    let addr = a
        .trim()
        .parse::<u32>()
        .map_err(|_| err(lineno, format!("invalid address '{}'", a.trim())))?;
    let value = v
        .trim()
        .parse::<u64>()
        .map_err(|_| err(lineno, format!("invalid value '{}'", v.trim())))?;
    Ok((addr, value))
}

fn parse_op(token: &str, lineno: usize) -> Result<Op, ParseError> {
    let (kind, args) = token
        .split_once('(')
        .ok_or_else(|| err(lineno, format!("malformed operation '{token}'")))?;
    let args = args
        .strip_suffix(')')
        .ok_or_else(|| err(lineno, format!("missing ')' in '{token}'")))?;
    let parts: Vec<&str> = args.split(',').map(str::trim).collect();
    let num = |s: &str| -> Result<u64, ParseError> {
        s.parse::<u64>()
            .map_err(|_| err(lineno, format!("invalid number '{s}' in '{token}'")))
    };
    let addr = |s: &str| -> Result<u32, ParseError> {
        s.parse::<u32>()
            .map_err(|_| err(lineno, format!("invalid address '{s}' in '{token}'")))
    };
    match (kind, parts.as_slice()) {
        ("R", [a, v]) => Ok(Op::read(addr(a)?, num(v)?)),
        ("W", [a, v]) => Ok(Op::write(addr(a)?, num(v)?)),
        ("RW", [a, r, w]) => Ok(Op::rmw(addr(a)?, num(r)?, num(w)?)),
        // Single-address shorthand from the paper: R(d), W(d), RW(dr,dw).
        ("R", [v]) => Ok(Op::r(num(v)?)),
        ("W", [v]) => Ok(Op::w(num(v)?)),
        ("RW", [r, w]) => Ok(Op::rw(num(r)?, num(w)?)),
        _ => Err(err(lineno, format!("unrecognized operation '{token}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Addr, Value};
    use crate::trace::TraceBuilder;

    #[test]
    fn round_trip() {
        let t = TraceBuilder::new()
            .proc([
                Op::write(0u32, 1u64),
                Op::read(0u32, 1u64),
                Op::rmw(0u32, 1u64, 2u64),
            ])
            .proc([Op::read(0u32, 2u64)])
            .initial(0u32, 0u64)
            .final_value(0u32, 2u64)
            .build();
        let text = format_trace(&t);
        let parsed = parse_trace(&text).expect("round trip parses");
        assert_eq!(parsed, t);
    }

    #[test]
    fn parses_shorthand_and_comments() {
        let t =
            parse_trace("# single-address example\nP0: W(1) R(1)  # inline comment\nP1: RW(1,2)\n")
                .unwrap();
        assert_eq!(t.num_procs(), 2);
        assert_eq!(
            t.op(crate::op::OpRef::new(1u16, 0)),
            Some(Op::rw(1u64, 2u64))
        );
    }

    #[test]
    fn parses_init_and_final() {
        let t = parse_trace("init 3 = 9\nfinal 3 = 11\nP0: W(3,11)\n").unwrap();
        assert_eq!(t.initial(Addr(3)), Value(9));
        assert_eq!(t.final_value(Addr(3)), Some(Value(11)));
    }

    #[test]
    fn rejects_out_of_order_process_ids() {
        let e = parse_trace("P1: W(1)\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected P0"));
    }

    #[test]
    fn rejects_malformed_op() {
        assert!(parse_trace("P0: W(1\n").is_err());
        assert!(parse_trace("P0: X(1)\n").is_err());
        assert!(parse_trace("P0: W(a)\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_address() {
        // 2^32 must not wrap to address 0 and alias R(0,1).
        for text in [
            "P0: W(4294967296,1)\nP1: R(0,1)\n",
            "P0: RW(4294967296,0,1)\n",
        ] {
            let e = parse_trace(text).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("invalid address '4294967296'"), "{e}");
        }
        let max = parse_trace("P0: R(4294967295,1)\n").unwrap();
        assert_eq!(max.addresses(), vec![Addr(u32::MAX)]);
    }

    #[test]
    fn rejects_unknown_line() {
        let e = parse_trace("hello\n").unwrap_err();
        assert!(e.message.contains("unrecognized"));
    }

    #[test]
    fn empty_input_is_empty_trace() {
        let t = parse_trace("").unwrap();
        assert_eq!(t.num_procs(), 0);
    }
}
