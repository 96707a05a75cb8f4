//! `detlint.toml`: the reviewed rule path configuration. The
//! `[allow-paths]` table names where wall-clock and env reads are
//! legitimate (D003/D004), the `[hot-paths]` table which files constitute
//! the D005 hot path.
//!
//! The parser handles exactly the TOML subset this file uses — `[table]`,
//! `key = ["array", …]` on one line, `#` comments — hand-rolled like the
//! rest of detlint (the workspace has no TOML crate and vendoring one for
//! one key shape would be noise).

use std::collections::BTreeMap;

#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Rule code → exact file paths where the rule does not apply
    /// (D003/D004 allowlists).
    pub allow_paths: BTreeMap<String, Vec<String>>,
    /// Rule code → exact file paths where the rule *does* apply
    /// (D005's hot-path scope).
    pub hot_paths: BTreeMap<String, Vec<String>>,
}

impl Config {
    pub fn allow_for(&self, rule: &str) -> &[String] {
        self.allow_paths.get(rule).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn hot_for(&self, rule: &str) -> &[String] {
        self.hot_paths.get(rule).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Parses `detlint.toml`. Unknown tables/keys are ignored (forward
/// compatibility); malformed lines are hard errors.
pub fn parse(src: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();

    for (n, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |why: &str| format!("detlint.toml:{}: {}", n + 1, why);
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        let table = match section.as_str() {
            "allow-paths" => &mut cfg.allow_paths,
            "hot-paths" => &mut cfg.hot_paths,
            _ => continue, // unknown section: ignore
        };
        let paths = parse_string_array(value.trim()).ok_or_else(|| err("expected [\"…\"]"))?;
        table.insert(key.trim().to_string(), paths);
    }
    Ok(cfg)
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Option<String> {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
}

fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item.trim()))
        .collect()
}
