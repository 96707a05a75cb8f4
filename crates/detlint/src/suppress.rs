//! The inline suppression syntax:
//!
//! ```text
//! // detlint::allow(D003, "progress ETA only; never feeds results")
//! ```
//!
//! A trailing comment suppresses findings on its own line; a standalone
//! comment suppresses the next code line (standalone allows stack — each
//! one's target is the next *code* line, so two allows above one line both
//! land on it). A bare `detlint::allow(D003)` without a justification
//! string, an unknown rule code, or an allow that suppresses nothing are
//! all D000 findings: annotations must stay justified and live.

use crate::lexer::Lexed;
use crate::report::{Diagnostic, Rule};

/// One parsed, well-formed allow.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: Rule,
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line whose findings this allow suppresses.
    pub target: u32,
}

/// Parse result for one file: valid allows plus D000 findings for the
/// malformed ones.
#[derive(Debug, Default)]
pub struct Suppressions {
    pub allows: Vec<Allow>,
    pub malformed: Vec<Diagnostic>,
}

const MARKER: &str = "detlint::allow";

/// Extracts every suppression in `lexed`, resolving standalone comments to
/// the next code line.
pub fn parse(file: &str, lexed: &Lexed) -> Suppressions {
    let mut out = Suppressions::default();
    for c in &lexed.comments {
        // A suppression comment is exactly `// detlint::allow(…)`: the
        // marker must open the comment. Doc comments (`///`, `//!`) lex
        // with a leading `/` or `!`, so prose *about* the syntax — like
        // this module's — never parses as a suppression.
        let Some(rest) = c.text.trim().strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        match parse_args(rest) {
            Ok((code, justification)) => match Rule::from_code(&code) {
                Some(Rule::D000) => out.malformed.push(Diagnostic::new(
                    Rule::D000,
                    file,
                    c.line,
                    "rule D000 cannot be inline-suppressed".to_string(),
                )),
                Some(rule) => {
                    let target = if c.standalone {
                        lexed.next_code_line(c.line + 1).unwrap_or(c.line)
                    } else {
                        c.line
                    };
                    out.allows.push(Allow {
                        rule,
                        justification,
                        line: c.line,
                        target,
                    });
                }
                None => out.malformed.push(Diagnostic::new(
                    Rule::D000,
                    file,
                    c.line,
                    format!("unknown rule code `{code}` in detlint::allow"),
                )),
            },
            Err(why) => out.malformed.push(Diagnostic::new(
                Rule::D000,
                file,
                c.line,
                format!("malformed detlint::allow: {why}"),
            )),
        }
    }
    out
}

/// Parses `(RULE, "justification")`. The justification is mandatory, a
/// non-empty double-quoted string, and nothing may follow the `)`.
fn parse_args(s: &str) -> Result<(String, String), &'static str> {
    let s = s
        .strip_prefix('(')
        .ok_or("expected `(` after detlint::allow")?;
    let code_end = s.find([',', ')']).ok_or("missing closing `)`")?;
    let code = s[..code_end].trim();
    if code.is_empty() {
        return Err("missing rule code");
    }
    if s.as_bytes()[code_end] == b')' {
        return Err("a justification string is required: detlint::allow(RULE, \"why\")");
    }
    let rest = s[code_end + 1..].trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or("justification must be a double-quoted string")?;
    let quote_end = rest.find('"').ok_or("unterminated justification string")?;
    let justification = &rest[..quote_end];
    if justification.trim().is_empty() {
        return Err("justification must not be empty");
    }
    let tail = rest[quote_end + 1..].trim_start();
    let tail = tail
        .strip_prefix(')')
        .ok_or("expected `)` after the justification")?;
    if !tail.trim().is_empty() {
        return Err("nothing may follow the closing `)`");
    }
    Ok((code.to_string(), justification.to_string()))
}

/// Applies `sup` to `diags`: suppressed findings are dropped, and every
/// allow that suppressed nothing becomes a D000 finding (dead annotations
/// are removed, not accumulated). Returns the surviving diagnostics.
pub fn apply(file: &str, diags: Vec<Diagnostic>, sup: &Suppressions) -> Vec<Diagnostic> {
    let mut used = vec![false; sup.allows.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in diags {
        let hit = sup
            .allows
            .iter()
            .position(|a| a.rule == d.rule && a.target == d.line);
        match hit {
            Some(i) => used[i] = true,
            None => out.push(d),
        }
    }
    for (a, used) in sup.allows.iter().zip(used) {
        if !used {
            out.push(Diagnostic::new(
                Rule::D000,
                file,
                a.line,
                format!(
                    "unused suppression: no {} finding on line {} (remove the allow)",
                    a.rule, a.target
                ),
            ));
        }
    }
    out.extend(sup.malformed.iter().cloned());
    out
}
