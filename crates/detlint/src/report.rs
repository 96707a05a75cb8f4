//! Diagnostics and their text / JSON renderings.

use std::fmt;

/// The determinism rules. `D000` is detlint's own meta-rule: malformed,
/// unjustified, or unused suppressions are themselves findings, so an
/// annotation can never silently rot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Suppression hygiene (bare allow, unknown rule code, unused allow).
    D000,
    /// Hash container named in a state-bearing crate.
    D001,
    /// Iteration over a hash-typed binding anywhere in the workspace.
    D002,
    /// Wall-clock / OS entropy outside the `[allow-paths]` allowlist.
    D003,
    /// Process environment read outside the `[allow-paths]` allowlist.
    D004,
    /// `unwrap`/`expect`/`panic!` in a hot path (`[hot-paths]`).
    D005,
}

impl Rule {
    pub const ALL: [Rule; 6] = [
        Rule::D000,
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::D005,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Rule::D000 => "D000",
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
        }
    }

    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// One-line description, shown by `detlint rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D000 => "suppression hygiene: bare/unknown/unused detlint::allow",
            Rule::D001 => "HashMap/HashSet in a state-bearing crate (use ordered containers)",
            Rule::D002 => "iteration over a hash container (order leaks into fingerprints)",
            Rule::D003 => "wall-clock or OS entropy outside the [allow-paths] allowlist",
            Rule::D004 => "std::env read outside the [allow-paths] allowlist",
            Rule::D005 => "unwrap/expect/panic! in a hot path",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding at a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl Diagnostic {
    pub fn new(rule: Rule, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (stable field order, sorted input
/// expected). Hand-emitted: the vendored serde_json has no parser and
/// detlint stays dependency-free anyway.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                d.rule,
                escape(&d.file),
                d.line,
                escape(&d.message),
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
