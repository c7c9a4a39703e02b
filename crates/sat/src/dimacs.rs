//! DIMACS CNF reading and writing.

use crate::cnf::Cnf;
use crate::lit::Lit;
use std::fmt::Write as _;

/// A DIMACS parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DimacsError {}

/// Parse a DIMACS CNF file. The `p cnf <vars> <clauses>` header is required;
/// comment lines (`c ...`) are skipped; clauses may span lines and are
/// terminated by `0`.
///
/// The header's variable count may not exceed the input's length in bytes.
/// Solvers and reductions size their tables by the declared count, so this
/// keeps what a formula can make them allocate proportional to the text
/// that declares it. The bound never rejects a formula whose clauses
/// mention every variable, since each mention takes at least two bytes
/// (a digit and a separator).
pub fn parse_dimacs(input: &str) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::new();
    let mut header: Option<(u32, usize)> = None;
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if header.is_some() {
                return Err(DimacsError {
                    line: lineno,
                    message: "duplicate header".into(),
                });
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(DimacsError {
                    line: lineno,
                    message: format!("malformed header 'p{rest}'"),
                });
            }
            // A `Lit` packs the variable index above a sign bit, so at most
            // 2^31 - 1 variables fit; a larger count would alias literals.
            let vars = parts[1]
                .parse::<u32>()
                .ok()
                .filter(|&v| v <= i32::MAX as u32)
                .ok_or_else(|| DimacsError {
                    line: lineno,
                    message: format!("invalid variable count '{}'", parts[1]),
                })?;
            if vars as usize > input.len() {
                return Err(DimacsError {
                    line: lineno,
                    message: format!(
                        "variable count {vars} exceeds the input's {} bytes",
                        input.len()
                    ),
                });
            }
            let clauses = parts[2].parse::<usize>().map_err(|_| DimacsError {
                line: lineno,
                message: format!("invalid clause count '{}'", parts[2]),
            })?;
            header = Some((vars, clauses));
            cnf.reserve_vars(vars);
            continue;
        }
        let Some((vars, _)) = header else {
            return Err(DimacsError {
                line: lineno,
                message: "clause before header".into(),
            });
        };
        for token in line.split_whitespace() {
            let code = token.parse::<i64>().map_err(|_| DimacsError {
                line: lineno,
                message: format!("invalid literal '{token}'"),
            })?;
            if code.unsigned_abs() > u64::from(vars) {
                return Err(DimacsError {
                    line: lineno,
                    message: format!("literal '{token}' exceeds the header's {vars} variables"),
                });
            }
            if code == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                current.push(Lit::from_dimacs(code));
            }
        }
    }
    if !current.is_empty() {
        return Err(DimacsError {
            line: input.lines().count(),
            message: "unterminated clause (missing trailing 0)".into(),
        });
    }
    if let Some((_, expected)) = header {
        if cnf.num_clauses() != expected {
            return Err(DimacsError {
                line: input.lines().count(),
                message: format!(
                    "header declared {expected} clauses, found {}",
                    cnf.num_clauses()
                ),
            });
        }
    }
    Ok(cnf)
}

/// Render a formula in DIMACS CNF format. Inverse of [`parse_dimacs`].
pub fn write_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for &lit in clause {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(
            cnf.clauses()[0],
            vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]
        );
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 4 3\n1 2 0\n-3 4 0\n-1 -2 -4 0\n";
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(write_dimacs(&cnf), text);
    }

    #[test]
    fn clause_spanning_lines() {
        let cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n").unwrap();
        assert_eq!(cnf.clauses()[0].len(), 3);
    }

    #[test]
    fn errors() {
        assert!(parse_dimacs("1 2 0\n").is_err()); // clause before header
        assert!(parse_dimacs("p cnf 2\n").is_err()); // malformed header
        assert!(parse_dimacs("p cnf 2 1\n1 2\n").is_err()); // unterminated
        assert!(parse_dimacs("p cnf 2 2\n1 0\n").is_err()); // count mismatch
        assert!(parse_dimacs("p cnf 2 1\n1 x 0\n").is_err()); // bad literal
        assert!(parse_dimacs("p cnf 1 0\np cnf 1 0\n").is_err()); // dup header

        // Literals past the header's count (the last two alias ¬x0 if
        // truncated to a `Lit`) and a variable count no `Lit` can encode.
        for lit in ["2", "-2147483649", "-4294967297"] {
            let e = parse_dimacs(&format!("p cnf 1 2\n1 0\n{lit} 0\n")).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
        }
        let e = parse_dimacs("p cnf 2147483648 0\n").unwrap_err();
        assert!(e.message.contains("invalid variable count"), "{e}");
    }

    /// A count the text cannot back is rejected before anything is sized
    /// by it: a 19-byte header must not make a solver allocate tables for
    /// 2^31 - 1 variables.
    #[test]
    fn variable_count_is_bounded_by_input_length() {
        let e = parse_dimacs("p cnf 2147483647 0\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.message.contains("exceeds the input's 19 bytes"), "{e}");
        // Exactly one variable per byte is the largest count accepted.
        let text = "p cnf 11 0\n";
        assert_eq!(parse_dimacs(text).unwrap().num_vars(), 11);
        assert!(parse_dimacs("p cnf 12 0\n").is_err());
    }

    #[test]
    fn empty_clause_parses() {
        let cnf = parse_dimacs("p cnf 1 1\n0\n").unwrap();
        assert_eq!(cnf.clauses()[0].len(), 0);
    }
}
