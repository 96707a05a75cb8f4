//! The determinism rules (D001–D005) over one file's token stream, plus
//! the lightweight path/scope resolution they need.
//!
//! The resolver is deliberately approximate — per-file, no type inference
//! — and errs on the side of flagging: a false positive costs one
//! justified `detlint::allow`, a false negative costs a nondeterministic
//! golden three PRs later. It tracks three things:
//!
//! 1. hash type *names* visible in the file (`HashMap`, `HashSet`, plus
//!    any `type X = HashMap<…>` alias declared in the file),
//! 2. hash-typed *bindings* (`let`, params, struct fields whose leading
//!    type path resolves to a hash type, or `let x = HashMap::new()`),
//! 3. `#[cfg(test)] mod` spans, exempt from D003–D005 (a panic or
//!    wall-clock read inside a unit test cannot corrupt simulation
//!    output; hash iteration still fires everywhere because flaky test
//!    assertions are exactly as expensive to debug).

use std::collections::BTreeSet;

use crate::lexer::{cfg_test_ranges, Token, TokenKind};
use crate::report::{Diagnostic, Rule};

/// Crates whose directory names mark them state-bearing for D001: a hash
/// container *existing* there is a finding even before anyone iterates.
pub const STATE_BEARING: [&str; 6] = [
    "core",
    "cluster",
    "baselines",
    "engine",
    "simcore",
    "workload",
];

/// Hash container type names rule D001/D002 recognize out of the box.
const HASH_TYPES: [&str; 6] = [
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

/// Methods whose results depend on hash-iteration order.
const ORDER_LEAKING_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Wall-clock / entropy identifiers for D003. `Instant` and `SystemTime`
/// are flagged on any use; `thread_rng`/`from_entropy`/`OsRng` are the
/// rand-crate entropy taps.
const CLOCK_ENTROPY: [&str; 5] = [
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "random",
];

/// `std::env` accessors for D004.
const ENV_READS: [&str; 9] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
    "set_var",
];

/// Static per-file context a rule pass needs.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Crate directory name under `crates/`, if any (`core`, `bench`, …).
    pub krate: Option<&'a str>,
    /// True for integration tests / benches / fixtures, exempt from
    /// D003–D005 like `#[cfg(test)]` modules are.
    pub test_file: bool,
    /// Paths (exact match) where D003 is permitted (`[allow-paths]`).
    pub d003_allow: &'a [String],
    /// Paths (exact match) where D004 is permitted (`[allow-paths]`).
    pub d004_allow: &'a [String],
    /// Paths D005 applies to (the `[hot-paths]` list).
    pub d005_paths: &'a [String],
}

impl FileCtx<'_> {
    fn state_bearing(&self) -> bool {
        self.krate
            .map(|k| STATE_BEARING.contains(&k))
            .unwrap_or(false)
    }
}

/// Runs D001–D005 on one lexed file. Suppressions are applied by the
/// caller; this returns every raw finding.
pub fn check_tokens(ctx: &FileCtx<'_>, tokens: &[Token]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let test_ranges = cfg_test_ranges(tokens);
    let in_test = |i: usize| ctx.test_file || test_ranges.iter().any(|&(a, b)| i >= a && i < b);
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let is_ident = |i: usize| {
        tokens
            .get(i)
            .map(|t| t.kind == TokenKind::Ident)
            .unwrap_or(false)
    };

    // ---- resolver pass 1: hash type names (builtin + file-local aliases).
    let mut hash_types: BTreeSet<&str> = HASH_TYPES.into_iter().collect();
    for i in 0..tokens.len() {
        if t(i) == "type" && is_ident(i + 1) && t(i + 2) == "=" {
            let mut j = i + 3;
            while !t(j).is_empty() && t(j) != ";" {
                if hash_types.contains(t(j)) {
                    hash_types.insert(t(i + 1));
                    break;
                }
                j += 1;
            }
        }
    }

    // ---- resolver pass 2: hash-typed bindings.
    let mut hash_bindings: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        // `NAME : <type…>` — let bindings with annotations, fn params,
        // struct fields. The leading type path's head (after `&`/`mut`/
        // lifetimes, before `<`) must be a hash type.
        if is_ident(i) && t(i + 1) == ":" && t(i + 2) != ":" && (i == 0 || t(i - 1) != ":") {
            if let Some(head) = type_head(tokens, i + 2) {
                if hash_types.contains(head) {
                    hash_bindings.insert(t(i));
                }
            }
        }
        // `let [mut] NAME = HashType::…` — inferred constructor bindings.
        if t(i) == "let" {
            let name_i = if t(i + 1) == "mut" { i + 2 } else { i + 1 };
            if is_ident(name_i) && t(name_i + 1) == "=" {
                let mut j = name_i + 2;
                // Walk the constructor path: Ident (:: Ident)* — stop at
                // the first non-path token.
                while is_ident(j) || t(j) == ":" {
                    if is_ident(j) && hash_types.contains(t(j)) {
                        hash_bindings.insert(t(name_i));
                        break;
                    }
                    j += 1;
                }
            }
        }
    }

    // ---- rule passes.
    let mut last_d001_line = 0u32;
    for i in 0..tokens.len() {
        let line = tokens[i].line;

        // D001 — hash container named in a state-bearing crate (one
        // finding per line; a `use` and its type mention both count).
        if ctx.state_bearing()
            && is_ident(i)
            && HASH_TYPES.contains(&t(i))
            && line != last_d001_line
        {
            last_d001_line = line;
            diags.push(Diagnostic::new(
                Rule::D001,
                ctx.path,
                line,
                format!(
                    "`{}` in state-bearing crate `{}` — use BTreeMap/BTreeSet/IndexMap, \
                     or justify with detlint::allow",
                    t(i),
                    ctx.krate.unwrap_or("?"),
                ),
            ));
        }

        // D002 — order-leaking method on a hash-typed binding.
        if is_ident(i)
            && (hash_bindings.contains(t(i)) || hash_types.contains(t(i)))
            && t(i + 1) == "."
            && ORDER_LEAKING_METHODS.contains(&t(i + 2))
            && t(i + 3) == "("
        {
            diags.push(Diagnostic::new(
                Rule::D002,
                ctx.path,
                line,
                format!(
                    "iteration over hash container `{}` (`.{}()`) — iteration order is \
                     nondeterministic across processes",
                    t(i),
                    t(i + 2),
                ),
            ));
        }

        // D002 — `for pat in [&][mut] binding {`.
        if t(i) == "for" {
            if let Some(in_i) = find_for_in(tokens, i) {
                let mut j = in_i + 1;
                while t(j) == "&" || t(j) == "mut" {
                    j += 1;
                }
                if is_ident(j) && hash_bindings.contains(t(j)) && t(j + 1) == "{" {
                    diags.push(Diagnostic::new(
                        Rule::D002,
                        ctx.path,
                        tokens[j].line,
                        format!(
                            "`for … in {}` iterates a hash container — order is \
                             nondeterministic across processes",
                            t(j),
                        ),
                    ));
                }
            }
        }

        // D003 — wall-clock / entropy outside the allowlist.
        if !in_test(i) && !ctx.d003_allow.iter().any(|p| p == ctx.path) && is_ident(i) {
            let hit =
                if t(i) == "Instant" && t(i + 1) == ":" && t(i + 2) == ":" && t(i + 3) == "now" {
                    Some("Instant::now")
                } else if CLOCK_ENTROPY.contains(&t(i)) && t(i) != "random" {
                    Some(t(i))
                } else if t(i) == "random" && i > 0 && t(i - 1) == ":" {
                    // `rand::random` style path call; bare `.random()` methods
                    // on our deterministic Rng are fine.
                    Some("random")
                } else {
                    None
                };
            if let Some(what) = hit {
                diags.push(Diagnostic::new(
                    Rule::D003,
                    ctx.path,
                    line,
                    format!(
                        "wall-clock/entropy source `{what}` — simulation code must use the \
                         virtual clock and seeded RNG"
                    ),
                ));
            }
        }

        // D004 — std::env reads outside the allowlist.
        if !in_test(i)
            && !ctx.d004_allow.iter().any(|p| p == ctx.path)
            && t(i) == "env"
            && t(i + 1) == ":"
            && t(i + 2) == ":"
            && is_ident(i + 3)
            && ENV_READS.contains(&t(i + 3))
        {
            diags.push(Diagnostic::new(
                Rule::D004,
                ctx.path,
                line,
                format!(
                    "process environment read `env::{}` — results must be a function of \
                     CLI-parsed inputs only",
                    t(i + 3),
                ),
            ));
        }

        // D005 — unwrap/expect/panic! in the hot path.
        if !in_test(i) && ctx.d005_paths.iter().any(|p| p == ctx.path) {
            let hit = if t(i) == "." && t(i + 1) == "unwrap" && t(i + 2) == "(" {
                Some("unwrap")
            } else if t(i) == "." && t(i + 1) == "expect" && t(i + 2) == "(" {
                Some("expect")
            } else if t(i) == "panic" && t(i + 1) == "!" {
                Some("panic!")
            } else {
                None
            };
            if let Some(what) = hit {
                diags.push(Diagnostic::new(
                    Rule::D005,
                    ctx.path,
                    line,
                    format!(
                        "`{what}` in a hot path — handle the failure or \
                         justify the invariant with detlint::allow"
                    ),
                ));
            }
        }
    }
    diags
}

/// The head identifier of a type expression starting at `start`: skips
/// `&`, `mut`, lifetimes, and leading path segments, returning the last
/// identifier before `<`, end-of-type, or a non-path token. `Mutex<…>`
/// resolves to `Mutex` (wrappers are not directly iterable, so a
/// `Mutex<HashMap<…>>` binding is not itself hash-typed).
fn type_head(tokens: &[Token], start: usize) -> Option<&str> {
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut i = start;
    while t(i) == "&"
        || t(i) == "mut"
        || tokens
            .get(i)
            .map(|tok| tok.kind == TokenKind::Lifetime)
            .unwrap_or(false)
    {
        i += 1;
    }
    let mut head: Option<&str> = None;
    loop {
        match tokens.get(i) {
            Some(tok) if tok.kind == TokenKind::Ident => {
                head = Some(&tok.text);
                i += 1;
            }
            _ => return head,
        }
        if t(i) == ":" && t(i + 1) == ":" {
            i += 2;
        } else {
            return head;
        }
    }
}

/// For `for pat in expr {`: the index of the `in` token at pattern depth
/// zero, if the loop header is well-formed.
fn find_for_in(tokens: &[Token], for_i: usize) -> Option<usize> {
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut depth = 0i32;
    let mut i = for_i + 1;
    while i < tokens.len() && i < for_i + 64 {
        match t(i) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => return None, // hit the body without an `in`
            "in" if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}
