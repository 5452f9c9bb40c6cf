//! extract-xlint: workspace-native static analysis for the eXtract tree.
//!
//! The serving tier is a hand-rolled `Mutex`+`Condvar` queue with three
//! lock domains, raw epoll FFI, and a request path that must never
//! panic. Those invariants are easy to state and easy to silently break
//! in review; this crate machine-checks them on every CI run. It is
//! deliberately dependency-free (no syn, no proc-macro2 — consistent
//! with the offline vendor policy): a hand-rolled lexer in
//! [`lexer`], a policy file parser in [`config`], a brace-matched item
//! tree and guard-liveness pass in [`syntax`], the analyses in
//! [`lints`], and output rendering in [`report`].
//!
//! Run it as `cargo xlint` (an alias for `cargo run -p extract-xlint --
//! --deny-warnings`) from the workspace root, or see the README's
//! "Static analysis" section. `--list` prints the lint catalog.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod syntax;

use std::fs;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use lints::{analyze_source, analyze_workspace, Diagnostic, LintInfo, Severity, Source, CATALOG};

/// One Rust source file scheduled for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Package name of the owning crate (e.g. `extract-serve`).
    pub crate_name: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
}

/// Locate the workspace root by walking upward from `start` until a
/// directory containing both `Cargo.toml` and `xlint.toml` is found.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("xlint.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(
                "no workspace root found: expected a directory with both Cargo.toml \
                 and xlint.toml above the current directory"
                    .to_string(),
            );
        }
    }
}

/// Enumerate every `.rs` file of every workspace member (plus the root
/// package's `src/`, `tests/` and `examples/`), honoring the config's
/// exclude prefixes. Paths come back sorted for deterministic output.
fn collect_sources(root: &Path, cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("read Cargo.toml: {e}"))?;
    let members = parse_members(&manifest);
    let mut out = Vec::new();

    // The root package itself (`extract`).
    if manifest.contains("[package]") {
        let name = package_name(&manifest).unwrap_or_else(|| "extract".to_string());
        for sub in ["src", "tests", "examples"] {
            collect_rs(root, &root.join(sub), &name, cfg, &mut out)?;
        }
    }
    for member in members {
        let member_dir = root.join(&member);
        let member_manifest = match fs::read_to_string(member_dir.join("Cargo.toml")) {
            Ok(m) => m,
            Err(_) => continue, // not a package (e.g. glob leftovers)
        };
        let name = package_name(&member_manifest).unwrap_or_else(|| member.clone());
        collect_rs(root, &member_dir, &name, cfg, &mut out)?;
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    out.dedup_by(|a, b| a.rel_path == b.rel_path);
    Ok(out)
}

/// Analyze every collected source file against the workspace policy,
/// reading the `[unreferenced-pub] callers` prefixes as callers only.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg_text = fs::read_to_string(root.join("xlint.toml"))
        .map_err(|e| format!("read xlint.toml: {e}"))?;
    let cfg = Config::from_toml(&cfg_text)?;
    let files = collect_sources(root, &cfg)?;
    let mut callers = Vec::new();
    for prefix in &cfg.pub_callers {
        collect_rs(root, &root.join(prefix), "", &cfg, &mut callers)?;
    }
    let file_texts = read_all(&files)?;
    let caller_texts = read_all(&callers)?;
    let mut diags = analyze_workspace(
        &as_sources(&files, &file_texts),
        &as_sources(&callers, &caller_texts),
        &cfg,
    );
    diags.sort_by(|a, b| (a.path.clone(), a.line, a.code).cmp(&(b.path.clone(), b.line, b.code)));
    Ok(diags)
}

fn read_all(files: &[SourceFile]) -> Result<Vec<String>, String> {
    files
        .iter()
        .map(|f| fs::read_to_string(&f.abs_path).map_err(|e| format!("read {}: {e}", f.rel_path)))
        .collect()
}

fn as_sources<'a>(files: &'a [SourceFile], texts: &'a [String]) -> Vec<Source<'a>> {
    files
        .iter()
        .zip(texts)
        .map(|(f, text)| Source { path: &f.rel_path, crate_name: &f.crate_name, text })
        .collect()
}

/// Pull the `members = [...]` array out of the workspace manifest.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if in_workspace && line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split(['[', ']', ',', '=']) {
                let piece = piece.trim();
                if let Some(p) = piece.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
                    out.push(p.to_string());
                }
            }
            if line.contains(']') {
                in_members = false;
            }
        }
    }
    out
}

/// Pull `name = "…"` from a `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().strip_prefix('=')?.trim();
                return value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .map(str::to_string);
            }
        }
    }
    None
}

/// Recursively gather `.rs` files under `dir`, skipping excluded
/// prefixes and build artifacts.
fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    cfg: &Config,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // optional dirs (tests/, examples/) may not exist
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if cfg
            .exclude
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, crate_name, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(SourceFile {
                rel_path: rel,
                crate_name: crate_name.to_string(),
                abs_path: path,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_members() {
        let members = parse_members(
            r#"
            [workspace]
            members = [
                "crates/core", # comment
                "crates/serve",
            ]
            [workspace.dependencies]
            "#,
        );
        assert_eq!(members, ["crates/core", "crates/serve"]);
    }

    #[test]
    fn parses_package_name() {
        let manifest = "[package]\nname = \"extract-serve\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("extract-serve"));
        assert_eq!(package_name("[workspace]\nmembers = []"), None);
    }
}
