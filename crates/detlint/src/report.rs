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
    /// Wall-clock / OS entropy outside the timing allowlist.
    D003,
    /// Process environment read outside the CLI intake allowlist.
    D004,
    /// `unwrap`/`expect`/`panic!` in a hot path (`[hot-paths]`).
    D005,
    /// Registry ⟷ goldens cross-check (orphan or missing golden).
    D006,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::D000,
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::D005,
        Rule::D006,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Rule::D000 => "D000",
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
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
            Rule::D003 => "wall-clock or OS entropy outside the timing allowlist",
            Rule::D004 => "std::env read outside the CLI intake allowlist",
            Rule::D005 => "unwrap/expect/panic! in a hot path",
            Rule::D006 => "experiment registry and goldens set out of sync",
        }
    }

    /// Whether `// detlint::allow(rule, "…")` may suppress this rule.
    /// D000 and the cross-file D006 cannot be inline-suppressed.
    pub fn suppressible(self) -> bool {
        !matches!(self, Rule::D000 | Rule::D006)
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
    /// Workspace-relative path (or the goldens dir for D006).
    pub file: String,
    /// 1-based line; 0 for findings that are about a file set, not a line.
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
        if self.line == 0 {
            write!(f, "{}: {} {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: {} {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Renders diagnostics as a JSON array (stable field order, sorted input
/// expected). Hand-emitted: the vendored serde_json has no parser and
/// detlint stays dependency-free anyway.
pub fn to_json(fresh: &[Diagnostic], baselined: &[Diagnostic]) -> String {
    let mut s = String::from("[\n");
    let mut first = true;
    for (d, base) in fresh
        .iter()
        .map(|d| (d, false))
        .chain(baselined.iter().map(|d| (d, true)))
    {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"baselined\": {}, \"message\": \"{}\"}}",
            d.rule,
            escape(&d.file),
            d.line,
            base,
            escape(&d.message),
        ));
    }
    s.push_str("\n]\n");
    s
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
