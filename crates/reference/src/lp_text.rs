//! Model export and re-import in the CPLEX LP text format.
//!
//! Nothing the controller runs reads or writes model text: the text is for
//! a person debugging a model, for cross-checking against an external
//! solver, and for the goldens that pin a formulation byte for byte
//! (`crates/core/tests/model_text_golden.rs`). [`to_lp_format`] produces a
//! file any of Gurobi/CPLEX/HiGHS/glpsol can read, and [`from_lp_format`]
//! parses the same dialect back into a [`Problem`]. Both go through
//! `Problem`'s read-only accessors and its public builder. The parser
//! accepts exactly the dialect the writer emits (one row per line,
//! `Bounds` listing every variable in index order); on malformed input it
//! returns a typed [`LpParseError`] — it never panics, which the fuzz
//! harness in `crates/reference/tests/export_roundtrip.rs` exercises byte
//! by byte.
//!
//! Round-trip caveat: variable names are sanitized on export (characters
//! outside `[A-Za-z0-9_]` become `_`), and a name that an earlier variable
//! already took gets an `x{index}_` prefix, so every written name is
//! unique. The reparsed problem carries the written names, which the writer
//! leaves as they are, hence `export → parse → export` is a fixed point
//! after one trip.

use bate_lp::{Problem, Relation, Sense, VarId, VarKind};
use std::collections::HashSet;
use std::fmt::Write as _;

/// The written name of every variable: its name with each character
/// outside `[A-Za-z0-9_]` mapped to `_`, prefixed with `x{index}_` when
/// that is empty or starts with a digit, and again while an earlier
/// variable holds it.
fn written_names(p: &Problem) -> Vec<String> {
    let mut taken = HashSet::new();
    let mut names = Vec::with_capacity(p.num_vars());
    for (i, v) in p.vars().iter().enumerate() {
        let mut name: String = (v.name().chars())
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            name = format!("x{i}_{name}");
        }
        while !taken.insert(name.clone()) {
            name = format!("x{i}_{name}");
        }
        names.push(name);
    }
    names
}

fn write_terms(buf: &mut String, terms: &[(usize, f64)], names: &[String]) {
    let mut first = true;
    for &(j, c) in terms {
        if c == 0.0 {
            continue;
        }
        if first {
            if c < 0.0 {
                let _ = write!(buf, "- ");
            }
            first = false;
        } else if c < 0.0 {
            let _ = write!(buf, " - ");
        } else {
            let _ = write!(buf, " + ");
        }
        let a = c.abs();
        if (a - 1.0).abs() < 1e-15 {
            let _ = write!(buf, "{}", names[j]);
        } else {
            let _ = write!(buf, "{a} {}", names[j]);
        }
    }
    if first {
        let _ = write!(buf, "0");
    }
}

/// Render the model in CPLEX LP format.
pub fn to_lp_format(p: &Problem) -> String {
    let names = written_names(p);

    let mut out = String::new();
    out.push_str(match p.sense() {
        Sense::Minimize => "Minimize\n obj: ",
        Sense::Maximize => "Maximize\n obj: ",
    });
    let obj_terms: Vec<(usize, f64)> = p
        .objective()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0.0)
        .map(|(j, &c)| (j, c))
        .collect();
    write_terms(&mut out, &obj_terms, &names);
    out.push_str("\nSubject To\n");
    for (i, c) in p.constraints().iter().enumerate() {
        let _ = write!(out, " c{i}: ");
        write_terms(&mut out, &c.terms, &names);
        let op = match c.relation {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        };
        let _ = writeln!(out, " {op} {}", c.rhs);
    }
    out.push_str("Bounds\n");
    for (j, v) in p.vars().iter().enumerate() {
        if v.upper.is_finite() {
            let _ = writeln!(out, " 0 <= {} <= {}", names[j], v.upper);
        } else {
            let _ = writeln!(out, " 0 <= {}", names[j]);
        }
    }
    let integers: Vec<&String> = p
        .vars()
        .iter()
        .zip(&names)
        .filter(|(v, _)| v.kind == VarKind::Integer)
        .map(|(_, n)| n)
        .collect();
    if !integers.is_empty() {
        out.push_str("General\n");
        for n in integers {
            let _ = writeln!(out, " {n}");
        }
    }
    out.push_str("End\n");
    out
}

/// Typed parse failure from [`from_lp_format`].
///
/// Every variant carries the 1-based line number where parsing stopped,
/// so fuzz findings point straight at the offending byte's line.
#[derive(Debug, Clone, PartialEq)]
pub enum LpParseError {
    /// The first non-blank line was not `Minimize` or `Maximize`.
    BadHeader { line: usize, text: String },
    /// A required section header never appeared.
    MissingSection { expected: &'static str, line: usize },
    /// A token that should be a numeric literal failed to parse.
    BadNumber { line: usize, token: String },
    /// A term or `General` entry referenced a name absent from `Bounds`.
    UnknownVariable { line: usize, name: String },
    /// The same name appeared twice in the `Bounds` section.
    DuplicateVariable { line: usize, name: String },
    /// A `Bounds` line had the wrong shape, a nonzero lower bound, or a
    /// negative/NaN upper bound.
    BadBound { line: usize, reason: &'static str },
    /// An objective or constraint row had the wrong shape.
    BadRow { line: usize, reason: &'static str },
    /// Non-blank content after the `End` marker.
    TrailingContent { line: usize },
    /// The input ended before the `End` marker.
    UnexpectedEof,
}

impl std::fmt::Display for LpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpParseError::BadHeader { line, text } => {
                write!(f, "line {line}: expected Minimize/Maximize, found {text:?}")
            }
            LpParseError::MissingSection { expected, line } => {
                write!(f, "line {line}: expected {expected:?} section header")
            }
            LpParseError::BadNumber { line, token } => {
                write!(f, "line {line}: bad numeric literal {token:?}")
            }
            LpParseError::UnknownVariable { line, name } => {
                write!(f, "line {line}: unknown variable {name:?}")
            }
            LpParseError::DuplicateVariable { line, name } => {
                write!(f, "line {line}: duplicate variable {name:?}")
            }
            LpParseError::BadBound { line, reason } => {
                write!(f, "line {line}: bad bound ({reason})")
            }
            LpParseError::BadRow { line, reason } => {
                write!(f, "line {line}: bad row ({reason})")
            }
            LpParseError::TrailingContent { line } => {
                write!(f, "line {line}: content after End")
            }
            LpParseError::UnexpectedEof => write!(f, "input ended before End marker"),
        }
    }
}

impl std::error::Error for LpParseError {}

/// One lexed token of an LP-format line.
#[derive(Debug, Clone)]
enum Tok {
    Num(f64),
    Name(String),
    Plus,
    Minus,
    Rel(Relation),
}

fn lex_line(line: &str, line_no: usize) -> Result<Vec<Tok>, LpParseError> {
    line.split_whitespace()
        .map(|t| match t {
            "+" => Ok(Tok::Plus),
            "-" => Ok(Tok::Minus),
            "<=" => Ok(Tok::Rel(Relation::Le)),
            ">=" => Ok(Tok::Rel(Relation::Ge)),
            "=" => Ok(Tok::Rel(Relation::Eq)),
            _ => {
                let head = t.as_bytes()[0];
                let numeric = head.is_ascii_digit()
                    || head == b'.'
                    || ((head == b'-' || head == b'+') && t.len() > 1);
                if numeric {
                    t.parse::<f64>()
                        .map(Tok::Num)
                        .map_err(|_| LpParseError::BadNumber {
                            line: line_no,
                            token: t.to_string(),
                        })
                } else {
                    Ok(Tok::Name(t.to_string()))
                }
            }
        })
        .collect()
}

/// Parse a `±c name ± c name …` term list (the exporter's `write_terms`
/// output, where a lone `0` means "no terms").
fn parse_terms(
    toks: &[Tok],
    lookup: &dyn Fn(&str) -> Option<usize>,
    line_no: usize,
) -> Result<Vec<(usize, f64)>, LpParseError> {
    if let [Tok::Num(v)] = toks {
        if *v == 0.0 {
            return Ok(Vec::new());
        }
        return Err(LpParseError::BadRow {
            line: line_no,
            reason: "dangling coefficient",
        });
    }
    let mut terms = Vec::new();
    let mut i = 0;
    let mut first = true;
    while i < toks.len() {
        let mut sign = 1.0;
        match toks[i] {
            Tok::Plus => {
                i += 1;
            }
            Tok::Minus => {
                sign = -1.0;
                i += 1;
            }
            _ if first => {}
            _ => {
                return Err(LpParseError::BadRow {
                    line: line_no,
                    reason: "missing +/- between terms",
                })
            }
        }
        first = false;
        let mut mag = 1.0;
        if let Some(Tok::Num(v)) = toks.get(i) {
            mag = *v;
            i += 1;
        }
        match toks.get(i) {
            Some(Tok::Name(n)) => {
                let idx = lookup(n).ok_or_else(|| LpParseError::UnknownVariable {
                    line: line_no,
                    name: n.clone(),
                })?;
                terms.push((idx, sign * mag));
                i += 1;
            }
            _ => {
                return Err(LpParseError::BadRow {
                    line: line_no,
                    reason: "expected variable name",
                })
            }
        }
    }
    Ok(terms)
}

/// Strip a leading `label:` token (`obj:` / `c3:`) if present.
fn strip_label(toks: &mut Vec<Tok>) {
    if let Some(Tok::Name(n)) = toks.first() {
        if n.ends_with(':') {
            toks.remove(0);
        }
    }
}

/// Parse LP-format text produced by [`to_lp_format`] back into a
/// [`Problem`].
///
/// Variables are created in `Bounds`-section order, which is variable
/// index order on export, so indices round-trip. Malformed input
/// yields a typed [`LpParseError`]; this function never panics.
pub fn from_lp_format(text: &str) -> Result<Problem, LpParseError> {
    #[derive(PartialEq)]
    enum Section {
        Header,
        Objective,
        Rows,
        Bounds,
        General,
        Done,
    }

    let mut sense = Sense::Minimize;
    let mut section = Section::Header;
    // Deferred bodies: term parsing needs the name table, which the
    // Bounds section defines *after* the rows appear in the file.
    let mut obj_lines: Vec<(usize, String)> = Vec::new();
    let mut row_lines: Vec<(usize, String)> = Vec::new();
    let mut bounds: Vec<(String, f64)> = Vec::new();
    let mut integers: Vec<String> = Vec::new();
    let mut last_line = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        last_line = line_no;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        match section {
            Section::Header => match line {
                "Minimize" => {
                    sense = Sense::Minimize;
                    section = Section::Objective;
                }
                "Maximize" => {
                    sense = Sense::Maximize;
                    section = Section::Objective;
                }
                _ => {
                    return Err(LpParseError::BadHeader {
                        line: line_no,
                        text: line.to_string(),
                    })
                }
            },
            Section::Objective => match line {
                "Subject To" => section = Section::Rows,
                "Bounds" | "General" | "End" => {
                    return Err(LpParseError::MissingSection {
                        expected: "Subject To",
                        line: line_no,
                    })
                }
                _ => obj_lines.push((line_no, line.to_string())),
            },
            Section::Rows => match line {
                "Bounds" => section = Section::Bounds,
                "General" | "End" => {
                    return Err(LpParseError::MissingSection {
                        expected: "Bounds",
                        line: line_no,
                    })
                }
                _ => row_lines.push((line_no, line.to_string())),
            },
            Section::Bounds => match line {
                "General" => section = Section::General,
                "End" => section = Section::Done,
                _ => {
                    let toks = lex_line(line, line_no)?;
                    let (name, upper) = match toks.as_slice() {
                        [Tok::Num(lo), Tok::Rel(Relation::Le), Tok::Name(n)] => {
                            if *lo != 0.0 {
                                return Err(LpParseError::BadBound {
                                    line: line_no,
                                    reason: "lower bound must be 0",
                                });
                            }
                            (n.clone(), f64::INFINITY)
                        }
                        [Tok::Num(lo), Tok::Rel(Relation::Le), Tok::Name(n), Tok::Rel(Relation::Le), Tok::Num(up)] =>
                        {
                            if *lo != 0.0 {
                                return Err(LpParseError::BadBound {
                                    line: line_no,
                                    reason: "lower bound must be 0",
                                });
                            }
                            if up.is_nan() || *up < 0.0 {
                                return Err(LpParseError::BadBound {
                                    line: line_no,
                                    reason: "upper bound must be non-negative",
                                });
                            }
                            (n.clone(), *up)
                        }
                        _ => {
                            return Err(LpParseError::BadBound {
                                line: line_no,
                                reason: "expected `0 <= name [<= upper]`",
                            })
                        }
                    };
                    if bounds.iter().any(|(n, _)| *n == name) {
                        return Err(LpParseError::DuplicateVariable {
                            line: line_no,
                            name,
                        });
                    }
                    bounds.push((name, upper));
                }
            },
            Section::General => match line {
                "End" => section = Section::Done,
                _ => {
                    let toks = lex_line(line, line_no)?;
                    match toks.as_slice() {
                        [Tok::Name(n)] => integers.push(n.clone()),
                        _ => {
                            return Err(LpParseError::BadRow {
                                line: line_no,
                                reason: "expected a single variable name",
                            })
                        }
                    }
                }
            },
            Section::Done => return Err(LpParseError::TrailingContent { line: line_no }),
        }
    }
    if section != Section::Done {
        return Err(LpParseError::UnexpectedEof);
    }

    // Every General entry must name a declared variable.
    for n in &integers {
        if !bounds.iter().any(|(b, _)| b == n) {
            return Err(LpParseError::UnknownVariable {
                line: last_line,
                name: n.clone(),
            });
        }
    }

    let mut problem = Problem::new(sense);
    let mut ids = Vec::with_capacity(bounds.len());
    for (name, upper) in &bounds {
        let id = if integers.iter().any(|n| n == name) {
            problem.add_integer_var(name, *upper)
        } else {
            problem.add_bounded_var(name, *upper)
        };
        ids.push(id);
    }
    let lookup = |n: &str| bounds.iter().position(|(b, _)| b == n);

    // Objective: all lines between the sense header and Subject To
    // form one term list (the exporter emits exactly one line).
    let obj_line_no = obj_lines.first().map(|(l, _)| *l).unwrap_or(last_line);
    let obj_text: String = obj_lines
        .iter()
        .map(|(_, s)| s.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let mut obj_toks = lex_line(&obj_text, obj_line_no)?;
    strip_label(&mut obj_toks);
    // A name listed twice adds up, as a row's terms do.
    let mut objective = vec![0.0; ids.len()];
    for (j, c) in parse_terms(&obj_toks, &lookup, obj_line_no)? {
        objective[j] += c;
    }
    for (&id, c) in ids.iter().zip(objective) {
        problem.set_objective(id, c);
    }

    for (line_no, row) in &row_lines {
        let mut toks = lex_line(row, *line_no)?;
        strip_label(&mut toks);
        if toks.len() < 2 {
            return Err(LpParseError::BadRow {
                line: *line_no,
                reason: "expected `terms <op> rhs`",
            });
        }
        let rhs = match toks[toks.len() - 1] {
            Tok::Num(v) => v,
            _ => {
                return Err(LpParseError::BadRow {
                    line: *line_no,
                    reason: "expected numeric rhs",
                })
            }
        };
        let rel = match toks[toks.len() - 2] {
            Tok::Rel(r) => r,
            _ => {
                return Err(LpParseError::BadRow {
                    line: *line_no,
                    reason: "expected <=, >= or = before rhs",
                })
            }
        };
        let terms = parse_terms(&toks[..toks.len() - 2], &lookup, *line_no)?;
        let id_terms: Vec<(VarId, f64)> = terms.into_iter().map(|(j, c)| (ids[j], c)).collect();
        problem.add_constraint(&id_terms, rel, rhs);
    }

    Ok(problem)
}

#[cfg(test)]
mod tests {
    use super::{from_lp_format, to_lp_format, LpParseError};
    use bate_lp::{Problem, Relation, Sense};

    #[test]
    fn renders_and_round_trips_a_mixed_model() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_bounded_var("f[1][2]", 5.0);
        let z = p.add_binary_var("q");
        p.set_objective(x, 3.0);
        p.set_objective(y, -2.0);
        p.set_objective(z, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, -1.0), (z, 2.5)], Relation::Ge, -1.0);
        p.add_constraint(&[(y, 1.0)], Relation::Eq, 2.0);
        let text = to_lp_format(&p);
        assert!(text.starts_with("Maximize"));
        assert!(text.contains("3 x - 2 f_1__2_ + q"));
        assert!(text.contains("c0: x + f_1__2_ <= 4"));
        assert!(text.contains("c1: - x + 2.5 q >= -1"));
        assert!(text.contains("c2: f_1__2_ = 2"));
        assert!(text.contains("0 <= f_1__2_ <= 5"));
        assert!(text.contains("General\n q"));
        assert!(text.ends_with("End\n"));
        let q = from_lp_format(&text).unwrap();
        // Exporting the reparse reproduces the text byte for byte: the
        // whole structure (sense, var order, kinds, bounds, rows) made
        // the round trip.
        assert_eq!(to_lp_format(&q), text);
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_constraints(), 3);
        assert!(q.has_integers());
        let s1 = p.solve().unwrap();
        let s2 = q.solve().unwrap();
        assert!((s1.objective - s2.objective).abs() < 1e-9);
    }

    #[test]
    fn empty_objective_and_empty_rows_round_trip() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        p.add_constraint(&[(x, 0.0)], Relation::Le, 1.0); // renders as `0 <= 1`
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let text = to_lp_format(&p);
        assert!(text.contains("obj: 0"));
        let q = from_lp_format(&text).unwrap();
        assert_eq!(to_lp_format(&q), text);
    }

    #[test]
    fn numeric_leading_names_are_fixed() {
        let mut p = Problem::new(Sense::Minimize);
        let v = p.add_var("1bad");
        p.set_objective(v, 1.0);
        let text = to_lp_format(&p);
        assert!(!text.contains(" 1bad"), "{text}");
        assert!(text.contains("x0_1bad"));
    }

    #[test]
    fn parse_rejects_malformed_input_with_typed_errors() {
        let cases: Vec<(&str, LpParseError)> = vec![
            (
                "Maximize\n obj: x\nSubject To\nBounds\n 0 <= x\nEnd\nextra\n",
                LpParseError::TrailingContent { line: 7 },
            ),
            (
                "Minimiz\n obj: 0\nSubject To\nBounds\nEnd\n",
                LpParseError::BadHeader {
                    line: 1,
                    text: "Minimiz".into(),
                },
            ),
            (
                "Minimize\n obj: 0\nBounds\nEnd\n",
                LpParseError::MissingSection {
                    expected: "Subject To",
                    line: 3,
                },
            ),
            (
                "Minimize\n obj: y\nSubject To\nBounds\n 0 <= x\nEnd\n",
                LpParseError::UnknownVariable {
                    line: 2,
                    name: "y".into(),
                },
            ),
            (
                "Minimize\n obj: 2..5 x\nSubject To\nBounds\n 0 <= x\nEnd\n",
                LpParseError::BadNumber {
                    line: 2,
                    token: "2..5".into(),
                },
            ),
            (
                "Minimize\n obj: 0\nSubject To\nBounds\n 0 <= x\n 0 <= x\nEnd\n",
                LpParseError::DuplicateVariable {
                    line: 6,
                    name: "x".into(),
                },
            ),
            (
                "Minimize\n obj: 0\nSubject To\nBounds\n 0 <= x <= -3\nEnd\n",
                LpParseError::BadBound {
                    line: 5,
                    reason: "upper bound must be non-negative",
                },
            ),
            (
                "Minimize\n obj: 0\nSubject To\n c0: x + <= 1\nBounds\n 0 <= x\nEnd\n",
                LpParseError::BadRow {
                    line: 4,
                    reason: "expected variable name",
                },
            ),
            (
                "Minimize\n obj: 0\nSubject To\nBounds\n",
                LpParseError::UnexpectedEof,
            ),
        ];
        for (text, want) in cases {
            let got = from_lp_format(text).expect_err("parse should fail");
            assert_eq!(got, want, "input: {text:?}");
        }
    }
}
