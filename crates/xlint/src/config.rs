//! `xlint.toml` — the workspace's lint policy, hand-parsed.
//!
//! The config file keeps policy out of the lint code: which crates may
//! contain `unsafe`, which files form the panic-free serving path, the
//! canonical lock order, and which paths get narrowing-cast scrutiny.
//! Only the tiny TOML subset the file actually uses is supported:
//! `[section]` headers and `key = "string"` / `key = ["a", "b"]` pairs
//! (arrays may span lines), with `#` comments. Anything else is a parse
//! error — better to reject a config than to silently ignore policy.

/// The workspace lint policy. See `xlint.toml` at the repository root for
/// the canonical, commented instance.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-relative path prefixes to skip entirely (vendored shims,
    /// seeded-violation fixtures).
    pub exclude: Vec<String>,
    /// Crates (package names) allowed to contain `unsafe` at all.
    pub unsafe_allow: Vec<String>,
    /// Single files allowed to contain `unsafe` although their crate is
    /// not — a test's `#[global_allocator]` is no reason to open a whole
    /// crate. Every site still needs its `SAFETY:` comment.
    pub unsafe_files: Vec<String>,
    /// Files the lock-order lint analyzes.
    pub lock_order_files: Vec<String>,
    /// The canonical lock-domain order: a later domain may be acquired
    /// while an earlier one is held, never the reverse.
    pub lock_order: Vec<String>,
    /// Helper functions that acquire a lock (e.g. `lock_unpoisoned`), in
    /// addition to the built-in `<domain>.lock()` pattern.
    pub lock_fns: Vec<String>,
    /// Identifiers treated as condition variables by `condvar-wait`
    /// (receivers containing `cond` or `cvar` are recognized without
    /// configuration).
    pub condvar_names: Vec<String>,
    /// Files that must stay panic-free (request-handling path).
    pub panic_path_files: Vec<String>,
    /// Path prefixes where narrowing `as` casts on len/count expressions
    /// are flagged.
    pub cast_paths: Vec<String>,
    /// Files the blocking-under-lock lint (L6) analyzes; guard liveness
    /// is tracked over the `[lock-order]` domains.
    pub blocking_files: Vec<String>,
    /// Method/function names L6 treats as blocking (`read`, `write`,
    /// `flush`, `connect`, `accept`, `sleep`, …).
    pub blocking_methods: Vec<String>,
    /// Files the swallowed-result lint (L7) analyzes.
    pub swallowed_files: Vec<String>,
    /// Path prefixes the detached-thread lint (L8) analyzes.
    pub detached_paths: Vec<String>,
    /// Function names allowed to detach threads without a waiver.
    pub detached_allow: Vec<String>,
    /// Path prefixes the wire-sized-allocation lint (L9) analyzes.
    pub wire_paths: Vec<String>,
    /// Identifiers treated as wire-parsed size fields by L9
    /// (`content_length`, `k`, `offset`, …).
    pub wire_fields: Vec<String>,
    /// Path prefixes outside the workspace read as callers only by the
    /// unreferenced-pub lint (L10): their non-test code keeps a workspace
    /// item alive, but they are never linted themselves.
    pub pub_callers: Vec<String>,
}

impl Config {
    /// Parse the `xlint.toml` subset; errors carry the offending line.
    pub fn from_toml(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("xlint.toml:{}: expected `key = value`", n + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming until brackets balance.
            while value.starts_with('[') && !brackets_balance(&value) {
                match lines.next() {
                    Some((_, more)) => {
                        value.push(' ');
                        value.push_str(strip_comment(more).trim());
                    }
                    None => return Err(format!("xlint.toml:{}: unterminated array", n + 1)),
                }
            }
            let values = parse_value(&value)
                .map_err(|e| format!("xlint.toml:{}: {e}", n + 1))?;
            cfg.assign(&section, key, values)
                .map_err(|e| format!("xlint.toml:{}: {e}", n + 1))?;
        }
        Ok(cfg)
    }

    fn assign(&mut self, section: &str, key: &str, values: Vec<String>) -> Result<(), String> {
        let slot = match (section, key) {
            ("workspace", "exclude") => &mut self.exclude,
            ("unsafe", "allow") => &mut self.unsafe_allow,
            ("unsafe", "files") => &mut self.unsafe_files,
            ("lock-order", "files") => &mut self.lock_order_files,
            ("lock-order", "order") => &mut self.lock_order,
            ("lock-order", "lock-fns") => &mut self.lock_fns,
            ("condvar", "names") => &mut self.condvar_names,
            ("panic-path", "files") => &mut self.panic_path_files,
            ("cast-truncation", "paths") => &mut self.cast_paths,
            ("blocking-under-lock", "files") => &mut self.blocking_files,
            ("blocking-under-lock", "methods") => &mut self.blocking_methods,
            ("swallowed-result", "files") => &mut self.swallowed_files,
            ("detached-thread", "paths") => &mut self.detached_paths,
            ("detached-thread", "allow") => &mut self.detached_allow,
            ("wire-alloc", "paths") => &mut self.wire_paths,
            ("wire-alloc", "fields") => &mut self.wire_fields,
            ("unreferenced-pub", "callers") => &mut self.pub_callers,
            _ => return Err(format!("unknown key `{key}` in section `[{section}]`")),
        };
        *slot = values;
        Ok(())
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balance(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// A value is `"string"` or `["a", "b", …]`; both come back as a list.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for item in split_top_level(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_string(item)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

/// Split an array body on commas that sit outside string quotes.
fn split_top_level(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => out.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    out.push(current);
    out
}

fn parse_string(item: &str) -> Result<String, String> {
    item.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a double-quoted string, got `{item}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_arrays() {
        let cfg = Config::from_toml(
            r#"
            # policy
            [workspace]
            exclude = ["vendor"]  # shims
            [unsafe]
            allow = ["extract-serve"]
            files = ["tests/alloc_budget.rs"]
            [lock-order]
            files = ["crates/serve/src/server.rs"]
            order = [
                "queue",   # admission
                "inflight",
                "parked",
            ]
            lock-fns = ["lock_unpoisoned"]
            [condvar]
            names = ["available"]
            [panic-path]
            files = ["a.rs", "b.rs"]
            [cast-truncation]
            paths = ["crates/xmlindex"]
            [blocking-under-lock]
            files = ["crates/serve/src/server.rs"]
            methods = ["read", "flush", "sleep"]
            [swallowed-result]
            files = ["crates/serve/src/server.rs"]
            [detached-thread]
            paths = ["crates/serve/src"]
            allow = ["shed"]
            [wire-alloc]
            paths = ["crates/serve"]
            fields = ["content_length", "k"]
            [unreferenced-pub]
            callers = ["benchmark/src"]
            "#,
        )
        .unwrap();
        assert_eq!(cfg.exclude, ["vendor"]);
        assert_eq!(cfg.unsafe_allow, ["extract-serve"]);
        assert_eq!(cfg.unsafe_files, ["tests/alloc_budget.rs"]);
        assert_eq!(cfg.lock_order, ["queue", "inflight", "parked"]);
        assert_eq!(cfg.lock_fns, ["lock_unpoisoned"]);
        assert_eq!(cfg.condvar_names, ["available"]);
        assert_eq!(cfg.panic_path_files, ["a.rs", "b.rs"]);
        assert_eq!(cfg.cast_paths, ["crates/xmlindex"]);
        assert_eq!(cfg.blocking_files, ["crates/serve/src/server.rs"]);
        assert_eq!(cfg.blocking_methods, ["read", "flush", "sleep"]);
        assert_eq!(cfg.swallowed_files, ["crates/serve/src/server.rs"]);
        assert_eq!(cfg.detached_paths, ["crates/serve/src"]);
        assert_eq!(cfg.detached_allow, ["shed"]);
        assert_eq!(cfg.wire_paths, ["crates/serve"]);
        assert_eq!(cfg.wire_fields, ["content_length", "k"]);
        assert_eq!(cfg.pub_callers, ["benchmark/src"]);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_syntax() {
        assert!(Config::from_toml("[workspace]\nsurprise = \"x\"").is_err());
        assert!(Config::from_toml("[workspace]\nexclude [\"x\"]").is_err());
        assert!(Config::from_toml("[workspace]\nexclude = [unquoted]").is_err());
        assert!(Config::from_toml("[workspace]\nexclude = [\"open\"").is_err());
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let cfg = Config::from_toml("[workspace]\nexclude = [\"a#b\"]").unwrap();
        assert_eq!(cfg.exclude, ["a#b"]);
    }
}
