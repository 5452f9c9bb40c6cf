//! The lint registry: ten domain-specific analyses over the token
//! stream (plus two waiver meta-lints), each motivated by a real hazard
//! in the serving tier or a real cost in the tree.
//!
//! | id | name | hazard |
//! |----|------|--------|
//! | L1 | `lock-order` | lock-acquisition cycles / canonical-order inversions → deadlock |
//! | L2 | `condvar-wait` | `Condvar::wait` outside a predicate loop → lost wakeup |
//! | L3 | `panic-path` | `unwrap`/`expect`/`panic!`/indexing on the request path → daemon death |
//! | L4 | `unsafe-hygiene` | `unsafe` without a `SAFETY:` comment, or outside allowlisted crates |
//! | L5 | `cast-truncation` | `as u8/u16/u32` narrowing of len/count expressions → silent corruption |
//! | L6 | `blocking-under-lock` | socket/file I/O or sleeps while a lock guard is live → convoy |
//! | L7 | `swallowed-result` | `let _ =` / trailing `.ok()` dropping a `Result` → lost failure |
//! | L8 | `detached-thread` | a `JoinHandle` dropped on the spot → thread outlives shutdown |
//! | L9 | `wire-sized-allocation` | allocation sized by a wire field, unclamped → hostile sizing |
//! | L10 | `unreferenced-pub` | a `pub` item only its own file or tests name → dead surface |
//! | X0 | `bad-waiver` | a waiver without a justification |
//! | X1 | `stale-waiver` | a justified waiver that no longer suppresses anything |
//!
//! The canonical machine-readable form of this table is [`CATALOG`]
//! (`xlint --list`); CI diffs the README's copy against it.
//!
//! All lints are waivable inline with
//! `// xlint: allow(<lint>, "<reason>")` — `<lint>` is the name or the
//! code, and the reason is mandatory; an empty one is itself an error
//! (`bad-waiver`), and a justified waiver that stops matching anything
//! is flagged as stale (`stale-waiver`) so dead waivers cannot
//! accumulate. The analyses are deliberately heuristic (token-shaped,
//! not type-checked): they are tuned to have zero false positives on
//! this workspace, and anything they cannot prove safe must be either
//! rewritten or waived with a justification a reviewer can audit.
//!
//! L1 and L6 share the [`GuardScan`] guard-liveness pass and all lints
//! share the [`ItemTree`] function index; both live in [`crate::syntax`].
//! L1–L9 judge one file at a time ([`analyze_source`]); L10 needs every
//! file's references, so a workspace run goes through
//! [`analyze_workspace`].

use std::collections::{HashMap, HashSet};

use crate::config::Config;
use crate::lexer::{lex, Token, TokenKind};
use crate::syntax::{code_indices, GuardScan, ItemTree, Step};

/// How bad a finding is. Warnings only fail the run under
/// `--deny-warnings` (which CI always passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; fails only under `--deny-warnings`.
    Warning,
    /// A policy violation; always fails the run.
    Error,
}

/// One entry of the lint catalog (`xlint --list`).
pub struct LintInfo {
    /// Short lint id (`L1`…`L10`, `X0`/`X1`).
    pub code: &'static str,
    /// Lint name as used in waivers and `xlint.toml` sections.
    pub name: &'static str,
    /// Severity every finding of this lint carries.
    pub severity: Severity,
    /// One-line description (kept free of `|` and backticks so the
    /// README table can carry the same text verbatim).
    pub summary: &'static str,
}

/// Every lint xlint can emit, in catalog order. This is the single
/// source of truth for `--list`; the README's catalog table is diffed
/// against it in CI.
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        code: "L1",
        name: "lock-order",
        severity: Severity::Error,
        summary: "lock acquisitions must follow the canonical domain order; \
                  inversion or self-nesting deadlocks",
    },
    LintInfo {
        code: "L2",
        name: "condvar-wait",
        severity: Severity::Error,
        summary: "Condvar::wait must sit inside a while/loop re-checking its \
                  predicate, or wakeups are lost",
    },
    LintInfo {
        code: "L3",
        name: "panic-path",
        severity: Severity::Error,
        summary: "no unwrap/expect/panic!/indexing on the request path outside tests",
    },
    LintInfo {
        code: "L4",
        name: "unsafe-hygiene",
        severity: Severity::Error,
        summary: "unsafe only in allowlisted crates, and every site carries a \
                  SAFETY: comment",
    },
    LintInfo {
        code: "L5",
        name: "cast-truncation",
        severity: Severity::Warning,
        summary: "as u8/u16/u32 narrowing of a len/count expression silently truncates",
    },
    LintInfo {
        code: "L6",
        name: "blocking-under-lock",
        severity: Severity::Error,
        summary: "blocking I/O or sleeps while a lock guard is live stall every \
                  contender of that lock",
    },
    LintInfo {
        code: "L7",
        name: "swallowed-result",
        severity: Severity::Warning,
        summary: "let _ = or a trailing .ok() discards a Result on the serving path",
    },
    LintInfo {
        code: "L8",
        name: "detached-thread",
        severity: Severity::Error,
        summary: "a thread spawn whose JoinHandle is dropped on the spot, outside \
                  the allowlist",
    },
    LintInfo {
        code: "L9",
        name: "wire-sized-allocation",
        severity: Severity::Warning,
        summary: "an allocation sized by a wire-parsed field without a \
                  statement-local min/clamp bound",
    },
    LintInfo {
        code: "L10",
        name: "unreferenced-pub",
        severity: Severity::Warning,
        summary: "a pub fn, mod, const or static that no non-test code outside \
                  its own file names",
    },
    LintInfo {
        code: "X0",
        name: "bad-waiver",
        severity: Severity::Error,
        summary: "a waiver without a justification suppresses nothing and is \
                  itself an error",
    },
    LintInfo {
        code: "X1",
        name: "stale-waiver",
        severity: Severity::Warning,
        summary: "a justified waiver that no longer suppresses any finding must \
                  be removed",
    },
];

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Short lint id (`L1`…`L10`, `X0`/`X1` for waiver problems).
    pub code: &'static str,
    /// Lint name as used in waivers (`lock-order`, …).
    pub lint: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Render as `path:line: error[L1 lock-order]: message`.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        format!(
            "{}:{}: {}[{} {}]: {}",
            self.path, self.line, sev, self.code, self.lint, self.message
        )
    }
}

/// Everything the lints need to know about one file.
struct FileCtx<'a> {
    path: &'a str,
    crate_name: &'a str,
    tokens: Vec<Token>,
    /// Code-token indices into `tokens` (comments dropped) — the view
    /// every lint walks.
    code: Vec<usize>,
    /// Brace-matched index of every `fn` item.
    tree: ItemTree,
    /// Lines that contain at least one non-comment token.
    code_lines: HashSet<u32>,
    /// `(line, text)` for every comment line (block comments contribute
    /// one entry per covered line).
    comment_lines: Vec<(u32, String)>,
    /// Token-index ranges that belong to `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, crate_name: &'a str, src: &str) -> FileCtx<'a> {
        let tokens = lex(src);
        let mut code_lines = HashSet::new();
        let mut comment_lines = Vec::new();
        for t in &tokens {
            if t.kind == TokenKind::Comment {
                for (i, part) in t.text.split('\n').enumerate() {
                    comment_lines.push((t.line + i as u32, part.to_string()));
                }
            } else {
                code_lines.insert(t.line);
            }
        }
        let test_ranges = find_test_ranges(&tokens);
        let code = code_indices(&tokens);
        let tree = ItemTree::build(&tokens, &code);
        FileCtx { path, crate_name, tokens, code, tree, code_lines, comment_lines, test_ranges }
    }

    fn in_tests(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx < hi)
    }

    /// All comment text on `line` (a line can hold several comments only
    /// via block comments; concatenation is fine for substring scans).
    fn comments_on(&self, line: u32) -> impl Iterator<Item = &str> {
        self.comment_lines.iter().filter(move |(l, _)| *l == line).map(|(_, t)| t.as_str())
    }

    /// The line numbers whose comments cover `line`: the same line
    /// (trailing comment) plus the contiguous comment-only block
    /// directly above — the zone a waiver for `line` may sit in.
    fn comment_block_lines(&self, line: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if self.comments_on(line).next().is_some() {
            out.push(line);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.code_lines.contains(&l) {
                break;
            }
            if self.comments_on(l).next().is_none() {
                break; // blank line: the comment block ended
            }
            out.push(l);
        }
        out
    }

    /// Walk upward from `line - 1` over contiguous comment-only lines,
    /// yielding their text — the zone where a waiver or `SAFETY:` comment
    /// for `line` may sit. The same-line comment (trailing) is included.
    fn comment_block_for(&self, line: u32) -> Vec<&str> {
        let mut out: Vec<&str> = self.comments_on(line).collect();
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.code_lines.contains(&l) {
                break;
            }
            let before = out.len();
            out.extend(self.comments_on(l));
            if out.len() == before {
                break; // blank line: the comment block ended
            }
        }
        out
    }
}

/// Token ranges covered by `#[cfg(test)]` or `#[test]` items: from the
/// attribute to the end of the item's braced body (or its `;`).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut is_test_attr = false;
            while j < tokens.len() && depth > 0 {
                match tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => depth -= 1,
                    // `#[test]`, `#[cfg(test)]` and `#[cfg_attr(test, …)]`
                    // all mention `test` somewhere inside the attribute.
                    TokenKind::Ident if tokens[j].text == "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                // Skip to the end of the annotated item: the matching `}`
                // of its first brace, or a `;` before any brace opens.
                let start = i;
                let mut k = j;
                let mut body_depth = 0usize;
                let mut entered = false;
                while k < tokens.len() {
                    match tokens[k].kind {
                        TokenKind::Punct('{') => {
                            body_depth += 1;
                            entered = true;
                        }
                        TokenKind::Punct('}') => {
                            body_depth = body_depth.saturating_sub(1);
                            if entered && body_depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        TokenKind::Punct(';') if !entered => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push((start, k));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Run every per-file lint (L1–L9) on one file and apply waivers.
/// `path` is workspace-relative with forward slashes.
// xlint: allow(L10, "crates/xlint/tests/xlint.rs runs each fixture through it")
pub fn analyze_source(
    path: &str,
    crate_name: &str,
    src: &str,
    cfg: &Config,
) -> Vec<Diagnostic> {
    analyze_file(&FileCtx::new(path, crate_name, src), cfg, Vec::new())
}

/// One source file handed to [`analyze_workspace`].
pub struct Source<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Package name of the owning crate (empty for a caller).
    pub crate_name: &'a str,
    /// The file's text.
    pub text: &'a str,
}

/// Run every lint over a whole tree: L1–L9 on each of `files`, and L10,
/// whose verdict on an item reads every other file. `callers` are read
/// only for the names their non-test code mentions (code outside the
/// workspace that calls into it); they are never linted.
pub fn analyze_workspace(
    files: &[Source<'_>],
    callers: &[Source<'_>],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx> =
        files.iter().map(|f| FileCtx::new(f.path, f.crate_name, f.text)).collect();
    let caller_ctxs: Vec<FileCtx> =
        callers.iter().map(|f| FileCtx::new(f.path, f.crate_name, f.text)).collect();
    let names = NamedBy::build(ctxs.iter().chain(&caller_ctxs));
    let mut out = Vec::new();
    for (file, ctx) in ctxs.iter().enumerate() {
        let mut raw = Vec::new();
        unreferenced_pub(ctx, file, &names, &mut raw);
        out.extend(analyze_file(ctx, cfg, raw));
    }
    out
}

/// The per-file lints over `ctx`, then waivers over their findings and
/// `raw` (findings of the workspace-level lints in this file).
fn analyze_file(ctx: &FileCtx, cfg: &Config, mut raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    lock_order(ctx, cfg, &mut raw);
    condvar_wait(ctx, cfg, &mut raw);
    panic_path(ctx, cfg, &mut raw);
    unsafe_hygiene(ctx, cfg, &mut raw);
    cast_truncation(ctx, cfg, &mut raw);
    blocking_under_lock(ctx, cfg, &mut raw);
    swallowed_result(ctx, cfg, &mut raw);
    detached_thread(ctx, cfg, &mut raw);
    wire_sized_alloc(ctx, cfg, &mut raw);
    let mut out = apply_waivers(ctx, raw);
    out.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    out
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// A parsed `xlint: allow(<lint>, "<reason>")` marker.
struct Waiver {
    lint: String,
    reason: String,
    line: u32,
    /// Set when the waiver suppressed at least one finding; a justified
    /// waiver that stays unused is reported as stale (X1).
    used: bool,
}

fn parse_waivers(text: &str, line: u32) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("xlint: allow(") {
        rest = &rest[pos + "xlint: allow(".len()..];
        // The closing paren is the first one *outside* the quoted
        // reason — justifications are prose and may contain `(…)`.
        let mut close = None;
        let mut in_str = false;
        for (i, c) in rest.char_indices() {
            match c {
                '"' => in_str = !in_str,
                ')' if !in_str => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = close else { break };
        let inside = &rest[..end];
        rest = &rest[end + 1..];
        let (lint, reason_raw) = match inside.split_once(',') {
            Some((l, r)) => (l.trim(), r.trim()),
            None => (inside.trim(), ""),
        };
        // Only name/code-shaped tokens are waivers; docs describing the
        // syntax itself (`allow(<lint>, …)`) are not. A *misspelled*
        // real name still lands here and is caught as stale (X1).
        let name_shaped = !lint.is_empty()
            && lint.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        if !name_shaped {
            continue;
        }
        let reason = reason_raw
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .unwrap_or("")
            .trim()
            .to_string();
        out.push(Waiver { lint: lint.to_string(), reason, line, used: false });
    }
    out
}

/// The waiver lifecycle: suppress diagnostics covered by a justified
/// waiver (matched by lint name *or* code) on the same line or in the
/// contiguous comment block above; flag unjustified waivers (X0, which
/// also suppress nothing); and flag justified waivers that no longer
/// suppress anything as stale (X1), so dead waivers cannot accumulate
/// after the code they excused is removed.
fn apply_waivers(ctx: &FileCtx, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut waivers: Vec<Waiver> = Vec::new();
    for (line, text) in &ctx.comment_lines {
        waivers.extend(parse_waivers(text, *line));
    }
    let mut out = Vec::new();
    for w in &waivers {
        if w.reason.is_empty() {
            out.push(Diagnostic {
                code: "X0",
                lint: "bad-waiver",
                severity: Severity::Error,
                path: ctx.path.to_string(),
                line: w.line,
                message: format!(
                    "waiver for `{}` has no justification — write \
                     `xlint: allow({}, \"why this is sound\")`",
                    w.lint, w.lint
                ),
            });
        }
    }
    'diags: for d in raw {
        let covered = ctx.comment_block_lines(d.line);
        for w in waivers.iter_mut() {
            if covered.contains(&w.line)
                && !w.reason.is_empty()
                && (w.lint == d.lint || w.lint == d.code)
            {
                w.used = true;
                continue 'diags; // justified waiver: suppressed
            }
        }
        out.push(d);
    }
    for w in &waivers {
        if !w.reason.is_empty() && !w.used {
            out.push(Diagnostic {
                code: "X1",
                lint: "stale-waiver",
                severity: Severity::Warning,
                path: ctx.path.to_string(),
                line: w.line,
                message: format!(
                    "stale waiver for `{}` — it no longer suppresses any \
                     finding here; remove it (or fix the waived lint name)",
                    w.lint
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L1 lock-order
// ---------------------------------------------------------------------------

/// L1: build the per-function acquisition graph over the configured lock
/// domains and reject self-nesting and canonical-order inversions.
///
/// The guard model (named guards, temporaries, `drop()`) lives in
/// [`GuardScan`]; L1 consumes the [`Step::Acquire`] events and checks
/// the new domain against every guard already held.
fn lock_order(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.lock_order_files.iter().any(|f| f == ctx.path) || cfg.lock_order.is_empty() {
        return;
    }
    let order = &cfg.lock_order;
    let scan = GuardScan { domains: order, lock_fns: &cfg.lock_fns };
    for f in &ctx.tree.fns {
        let Some((open, _)) = f.body else { continue };
        if ctx.in_tests(ctx.code[f.fn_ci]) {
            continue;
        }
        let fn_name = &f.name;
        scan.walk(&ctx.tokens, &ctx.code, open, &mut |step, guards| {
            let Step::Acquire { domain, line } = step else { return };
            for g in guards {
                let held = &order[g.domain];
                let acquired = &order[domain];
                if g.domain == domain {
                    push_l1(out, ctx, line, format!(
                        "`{fn_name}` acquires `{acquired}` while already holding \
                         it (guard taken on line {}) — self-deadlock",
                        g.line
                    ));
                } else if g.domain > domain {
                    push_l1(out, ctx, line, format!(
                        "`{fn_name}` acquires `{acquired}` while holding `{held}` \
                         (taken on line {}) — inverts the canonical lock order \
                         `{}`",
                        g.line,
                        order.join(" → ")
                    ));
                }
            }
        });
    }
}

fn push_l1(out: &mut Vec<Diagnostic>, ctx: &FileCtx, line: u32, message: String) {
    out.push(Diagnostic {
        code: "L1",
        lint: "lock-order",
        severity: Severity::Error,
        path: ctx.path.to_string(),
        line,
        message,
    });
}

// ---------------------------------------------------------------------------
// L2 condvar-wait
// ---------------------------------------------------------------------------

/// L2: `Condvar::wait`/`wait_timeout` must sit inside a `while`/`loop`
/// that re-checks the predicate — an `if` is a lost-wakeup bug (spurious
/// wakeups are allowed, and a notify between test and wait vanishes).
/// `wait_while`/`wait_timeout_while` re-check internally and pass.
fn condvar_wait(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let is_condvar = |name: &str| {
        cfg.condvar_names.iter().any(|n| n == name)
            || name.contains("cond")
            || name.contains("cvar")
    };
    let toks = &ctx.tokens;
    let code = &ctx.code;
    // Block-kind stack: what construct each `{` belongs to.
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Fn,
        Loop,
        Other,
    }
    let mut stack: Vec<Kind> = Vec::new();
    let mut pending = Kind::Other;
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        match t.kind {
            TokenKind::Ident => match t.text.as_str() {
                "fn" => pending = Kind::Fn,
                "loop" | "while" => pending = Kind::Loop,
                "if" | "else" | "match" => pending = Kind::Other,
                _ => {
                    // `<condvar>.wait(` / `<condvar>.wait_timeout(`
                    if is_condvar(&t.text)
                        && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('.'))
                        && code.get(ci + 2).is_some_and(|&j| {
                            toks[j].is_ident("wait") || toks[j].is_ident("wait_timeout")
                        })
                        && code.get(ci + 3).is_some_and(|&j| toks[j].is_punct('('))
                    {
                        let in_loop = stack
                            .iter()
                            .rev()
                            .take_while(|k| **k != Kind::Fn)
                            .any(|k| *k == Kind::Loop);
                        if !in_loop {
                            out.push(Diagnostic {
                                code: "L2",
                                lint: "condvar-wait",
                                severity: Severity::Error,
                                path: ctx.path.to_string(),
                                line: t.line,
                                message: format!(
                                    "`{}.{}` is not inside a `while`/`loop` re-checking its \
                                     predicate — spurious wakeups and notify races will be \
                                     lost (use a loop, or `wait_while`)",
                                    t.text, toks[code[ci + 2]].text
                                ),
                            });
                        }
                    }
                }
            },
            TokenKind::Punct('{') => {
                stack.push(pending);
                pending = Kind::Other;
            }
            TokenKind::Punct('}') => {
                stack.pop();
            }
            TokenKind::Punct(';') => pending = Kind::Other,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// L3 panic-path
// ---------------------------------------------------------------------------

/// L3: no `unwrap`/`expect`/`panic!`-family macros/index expressions in
/// request-handling files, outside `#[cfg(test)]`/`#[test]` code. A
/// panicking worker poisons every lock it holds and can take the whole
/// daemon down; the serving path must degrade, not die.
fn panic_path(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.panic_path_files.iter().any(|f| f == ctx.path) {
        return;
    }
    let toks = &ctx.tokens;
    let code = &ctx.code;
    let mut push = |line: u32, message: String| {
        out.push(Diagnostic {
            code: "L3",
            lint: "panic-path",
            severity: Severity::Error,
            path: ctx.path.to_string(),
            line,
            message,
        });
    };
    for (ci, &i) in code.iter().enumerate() {
        if ctx.in_tests(i) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokenKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let dotted = ci > 0 && toks[code[ci - 1]].is_punct('.');
                let called = code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('('));
                if dotted && called {
                    push(
                        t.line,
                        format!(
                            "`.{}()` on the serving path — a panic here kills the worker \
                             and poisons its locks; handle the failure or waive with a \
                             documented policy",
                            t.text
                        ),
                    );
                }
            }
            TokenKind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unimplemented" | "todo" | "unreachable"
                ) && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('!')) =>
            {
                push(
                    t.line,
                    format!(
                        "`{}!` on the serving path — requests must be answered, not aborted",
                        t.text
                    ),
                );
            }
            TokenKind::Punct('[') => {
                // Index expressions: `expr[…]` where expr ends in an
                // identifier, `)` or `]`. Array/slice literals and types
                // follow `=`, `(`, `&`, `:` … and macro brackets follow
                // `!`; none of those match. A keyword before `[` (as in
                // `&mut [u8]` or `return [a, b]`) is a type or literal,
                // not an indexable expression.
                let keyword = |t: &Token| {
                    matches!(
                        t.text.as_str(),
                        "mut" | "dyn" | "in" | "as" | "return" | "break" | "if" | "else"
                            | "match" | "move" | "ref" | "where" | "const" | "static"
                    )
                };
                let indexable = ci > 0
                    && match toks[code[ci - 1]].kind {
                        TokenKind::Ident => !keyword(&toks[code[ci - 1]]),
                        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                        _ => false,
                    };
                if indexable {
                    push(
                        t.line,
                        "index expression on the serving path can panic on a bad bound — \
                         use `.get()`/iterators, or waive with the bound's invariant"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// L4 unsafe-hygiene
// ---------------------------------------------------------------------------

/// L4: `unsafe` is allowed only in allowlisted crates (or single
/// allowlisted files), and every site needs a `SAFETY:` comment on the
/// same line or the contiguous comment block directly above its statement.
fn unsafe_hygiene(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let allowlisted = cfg.unsafe_allow.iter().any(|c| c == ctx.crate_name)
        || cfg.unsafe_files.iter().any(|f| f == ctx.path);
    for t in &ctx.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !allowlisted {
            out.push(Diagnostic {
                code: "L4",
                lint: "unsafe-hygiene",
                severity: Severity::Error,
                path: ctx.path.to_string(),
                line: t.line,
                message: format!(
                    "`unsafe` in crate `{}`, which is not allowlisted in xlint.toml \
                     ([unsafe] allow / files) — keep unsafe confined to the audited crates",
                    ctx.crate_name
                ),
            });
            continue;
        }
        let documented = ctx
            .comment_block_for(t.line)
            .iter()
            .any(|c| c.contains("SAFETY:"));
        if !documented {
            out.push(Diagnostic {
                code: "L4",
                lint: "unsafe-hygiene",
                severity: Severity::Error,
                path: ctx.path.to_string(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment directly above — \
                          state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L5 cast-truncation
// ---------------------------------------------------------------------------

/// L5: `as u8`/`as u16`/`as u32` narrowing applied to an expression that
/// mentions a length/count/index — in index and stats code a silently
/// wrapped cast corrupts postings offsets or counters. Use `try_from`
/// (loud) or waive with the bound that makes the cast safe.
fn cast_truncation(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.cast_paths.iter().any(|p| {
        ctx.path == *p || ctx.path.starts_with(&format!("{p}/"))
    }) {
        return;
    }
    let toks = &ctx.tokens;
    let code = &ctx.code;
    for (ci, &i) in code.iter().enumerate() {
        if ctx.in_tests(i) {
            continue;
        }
        let t = &toks[i];
        if !t.is_ident("as") {
            continue;
        }
        let Some(&tj) = code.get(ci + 1) else { continue };
        let target = &toks[tj];
        if !(target.is_ident("u8") || target.is_ident("u16") || target.is_ident("u32")) {
            continue;
        }
        if let Some(name) = suspicious_source(toks, code, ci) {
            out.push(Diagnostic {
                code: "L5",
                lint: "cast-truncation",
                severity: Severity::Warning,
                path: ctx.path.to_string(),
                line: t.line,
                message: format!(
                    "`… {} as {}` silently truncates when the value exceeds \
                     {}::MAX — use `{}::try_from` or waive with the proven bound",
                    name, target.text, target.text, target.text
                ),
            });
        }
    }
}

/// Walk the postfix expression backwards from the `as` at code-index `ci`
/// and return the first length/count-flavored identifier in it, if any.
fn suspicious_source(toks: &[Token], code: &[usize], ci: usize) -> Option<String> {
    let suspicious = |name: &str| {
        matches!(
            name,
            "len" | "count" | "index" | "total" | "size" | "capacity" | "sum" | "offset"
        ) || ["_len", "_count", "_index", "_size", "_total", "_offset", "_capacity"]
            .iter()
            .any(|s| name.ends_with(s))
    };
    let mut depth = 0i32; // grows as we pass `)` walking backwards
    let mut found = None;
    let mut steps = 0;
    let mut p = ci;
    while p > 0 && steps < 24 {
        p -= 1;
        steps += 1;
        let t = &toks[code[p]];
        match t.kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth += 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') => {
                depth -= 1;
                if depth < 0 {
                    break; // left the enclosing expression
                }
            }
            TokenKind::Ident => {
                if suspicious(&t.text) {
                    found = Some(t.text.clone());
                }
            }
            TokenKind::Num | TokenKind::Punct('.') | TokenKind::Punct('?') => {}
            // Inside a balanced group anything goes; at the top level an
            // operator/comma/`=` ends the postfix chain.
            _ if depth > 0 => {}
            _ => break,
        }
    }
    found
}

// ---------------------------------------------------------------------------
// L6 blocking-under-lock
// ---------------------------------------------------------------------------

/// L6: a configured blocking call (socket/file I/O, `thread::sleep`,
/// pooled request exchanges) while any lock-domain guard is live. One
/// socket write under the queue mutex convoys every worker behind a
/// slow peer; the fix is always the same — finish the lock-protected
/// bookkeeping, drop the guard, *then* do the I/O.
///
/// Guard liveness comes from the same [`GuardScan`] pass as L1, so the
/// two lints agree on what "holding a lock" means.
fn blocking_under_lock(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.blocking_files.iter().any(|f| f == ctx.path)
        || cfg.lock_order.is_empty()
        || cfg.blocking_methods.is_empty()
    {
        return;
    }
    let scan = GuardScan { domains: &cfg.lock_order, lock_fns: &cfg.lock_fns };
    let toks = &ctx.tokens;
    let code = &ctx.code;
    for f in &ctx.tree.fns {
        let Some((open, _)) = f.body else { continue };
        if ctx.in_tests(code[f.fn_ci]) {
            continue;
        }
        scan.walk(toks, code, open, &mut |step, guards| {
            let Step::Token { ci } = step else { return };
            if guards.is_empty() {
                return;
            }
            let t = &toks[code[ci]];
            if t.kind != TokenKind::Ident || !cfg.blocking_methods.contains(&t.text) {
                return;
            }
            // Only method/path calls: `stream.read(`, `thread::sleep(` —
            // a bare local named `read` is not a blocking call.
            let called = code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('('));
            let qualified = ci > 0
                && matches!(
                    toks[code[ci - 1]].kind,
                    TokenKind::Punct('.') | TokenKind::Punct(':')
                );
            if !(called && qualified) {
                return;
            }
            let g = &guards[0]; // oldest guard: the widest stall
            out.push(Diagnostic {
                code: "L6",
                lint: "blocking-under-lock",
                severity: Severity::Error,
                path: ctx.path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` calls `{}()` while holding lock `{}` (taken on line {}) — \
                     blocking under a guard stalls every thread contending for it; \
                     drop the guard before the I/O",
                    f.name, t.text, cfg.lock_order[g.domain], g.line
                ),
            });
        });
    }
}

// ---------------------------------------------------------------------------
// L7 swallowed-result
// ---------------------------------------------------------------------------

/// L7: a discarded `Result` in serving/router code — `let _ = call(…);`
/// or a trailing `.ok();` whose value binds nothing. On the serving
/// path a silently dropped `io::Result` is a lost failure signal (a
/// refusal the client never saw, a timeout that silently never armed).
/// Handle the failure, or waive with why best-effort is sound.
///
/// `let _ = x;` without a call is a plain unused-binding silencer and
/// passes; so do `let r = …ok();` / `x = ….ok();` (the value is used).
fn swallowed_result(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.swallowed_files.iter().any(|f| f == ctx.path) {
        return;
    }
    let toks = &ctx.tokens;
    let code = &ctx.code;
    let mut push = |line: u32, message: &str| {
        out.push(Diagnostic {
            code: "L7",
            lint: "swallowed-result",
            severity: Severity::Warning,
            path: ctx.path.to_string(),
            line,
            message: message.to_string(),
        });
    };
    // Shape A: `let _ = …;` where the discarded expression contains a
    // call.
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if !t.is_ident("let") || ctx.in_tests(i) {
            continue;
        }
        if !(code.get(ci + 1).is_some_and(|&j| toks[j].is_ident("_"))
            && code.get(ci + 2).is_some_and(|&j| toks[j].is_punct('=')))
        {
            continue;
        }
        let mut depth = 0i32;
        let mut k = ci + 3;
        let mut has_call = false;
        while k < code.len() {
            match toks[code[k]].kind {
                TokenKind::Punct('(') => {
                    has_call = true;
                    depth += 1;
                }
                TokenKind::Punct('{') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct('}') | TokenKind::Punct(']') => {
                    depth -= 1
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if has_call {
            push(
                t.line,
                "`let _ =` discards this call's `Result` — a dropped failure \
                 signal on the serving path; handle it, or waive with why \
                 best-effort is sound",
            );
        }
    }
    // Shape B: an expression statement ending `.ok();` that binds
    // nothing (no `let`, no `return`, no assignment in the statement).
    let mut stmt_head: Option<usize> = None;
    let mut has_eq = false;
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => {
                stmt_head = None;
                has_eq = false;
                continue;
            }
            TokenKind::Punct('=') => has_eq = true,
            _ => {}
        }
        if stmt_head.is_none() {
            stmt_head = Some(ci);
        }
        if t.is_ident("ok")
            && ci > 0
            && toks[code[ci - 1]].is_punct('.')
            && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('('))
            && code.get(ci + 2).is_some_and(|&j| toks[j].is_punct(')'))
            && code.get(ci + 3).is_some_and(|&j| toks[j].is_punct(';'))
            && !has_eq
            && stmt_head.is_some_and(|h| {
                !toks[code[h]].is_ident("let") && !toks[code[h]].is_ident("return")
            })
            && !ctx.in_tests(i)
        {
            push(
                t.line,
                "trailing `.ok()` discards this `Result` — handle the failure, \
                 or waive with why best-effort is sound",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L8 detached-thread
// ---------------------------------------------------------------------------

/// L8: a `std::thread::spawn` / `thread::Builder…spawn` whose
/// `JoinHandle` is dropped on the spot. A detached thread outlives
/// shutdown invisibly — it can touch freed listeners, keep ports bound,
/// and hide panics. Keep the handle and join it, put the enclosing
/// function on the allowlist (for deliberately detached designs with a
/// documented population/lifetime bound), or waive with the bound.
///
/// `scope.spawn` (joined at scope end) and `Command::spawn` (a child
/// process) do not qualify: the statement must mention `thread` or
/// `Builder` before the `spawn`.
fn detached_thread(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !path_matches(&cfg.detached_paths, ctx.path) {
        return;
    }
    let toks = &ctx.tokens;
    let code = &ctx.code;
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if !t.is_ident("spawn")
            || !code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('('))
            || ctx.in_tests(i)
        {
            continue;
        }
        // Back-scan to the statement boundary: thread spawns only.
        let mut head = 0usize;
        let mut from_thread = false;
        let mut b = ci;
        while b > 0 {
            b -= 1;
            match toks[code[b]].kind {
                TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => {
                    head = b + 1;
                    break;
                }
                TokenKind::Ident
                    if toks[code[b]].text == "thread" || toks[code[b]].text == "Builder" =>
                {
                    from_thread = true;
                }
                _ => {}
            }
        }
        if !from_thread {
            continue;
        }
        // `let name = …spawn(…)…;` keeps the handle.
        let mut p = head;
        if toks[code[p]].is_ident("let") {
            p += 1;
            if code.get(p).is_some_and(|&j| toks[j].is_ident("mut")) {
                p += 1;
            }
            let named = code.get(p).is_some_and(|&j| {
                toks[j].kind == TokenKind::Ident && toks[j].text != "_"
            }) && code.get(p + 1).is_some_and(|&j| toks[j].is_punct('='));
            if named {
                continue;
            }
        }
        // Walk past the call's matching `)` and see what receives the
        // `JoinHandle`.
        let mut depth = 1usize;
        let mut k = ci + 2;
        while k < code.len() && depth > 0 {
            match toks[code[k]].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let detached = match code.get(k).map(|&j| &toks[j]) {
            // `…spawn(…);` — dropped on the spot.
            Some(nt) if nt.is_punct(';') => true,
            // `…spawn(…).is_err()` — the handle is consumed by the
            // success check and dropped. `.join()`/`.expect()` keep it.
            Some(nt) if nt.is_punct('.') => code.get(k + 1).is_some_and(|&j| {
                toks[j].is_ident("is_err") || toks[j].is_ident("is_ok")
            }),
            // Anything else (`)`, `}`, `,`) flows the handle onward.
            _ => false,
        };
        if !detached {
            continue;
        }
        let enclosing = ctx.tree.enclosing_fn(ci);
        if enclosing.is_some_and(|f| cfg.detached_allow.contains(&f.name)) {
            continue;
        }
        let fn_name =
            enclosing.map_or_else(|| "<file scope>".to_string(), |f| format!("`{}`", f.name));
        out.push(Diagnostic {
            code: "L8",
            lint: "detached-thread",
            severity: Severity::Error,
            path: ctx.path.to_string(),
            line: t.line,
            message: format!(
                "{fn_name} drops this thread's `JoinHandle` on the spot — a \
                 detached thread outlives shutdown invisibly; keep and join the \
                 handle, or waive with its population/lifetime bound",
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// L9 wire-sized-allocation
// ---------------------------------------------------------------------------

/// L9: `with_capacity(…)`/`reserve(…)`/`vec![…; …]` whose size
/// expression mentions a wire-parsed request field (`content_length`,
/// `k`, …) with no statement-local `min`/`clamp`. A hostile peer picks
/// the allocation size; even when an earlier guard bounds the value,
/// the clamp belongs on the allocation itself so the bound survives
/// refactors.
fn wire_sized_alloc(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !path_matches(&cfg.wire_paths, ctx.path) || cfg.wire_fields.is_empty() {
        return;
    }
    let toks = &ctx.tokens;
    let code = &ctx.code;
    let mut check_span = |lo: usize, hi: usize, line: u32| {
        let mut field: Option<String> = None;
        let mut clamped = false;
        for &j in &code[lo..hi] {
            let t = &toks[j];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if field.is_none() && cfg.wire_fields.contains(&t.text) {
                field = Some(t.text.clone());
            }
            if t.text == "min" || t.text == "clamp" {
                clamped = true;
            }
        }
        if let Some(field) = field {
            if !clamped {
                out.push(Diagnostic {
                    code: "L9",
                    lint: "wire-sized-allocation",
                    severity: Severity::Warning,
                    path: ctx.path.to_string(),
                    line,
                    message: format!(
                        "allocation sized by wire field `{field}` with no \
                         statement-local clamp — a hostile peer picks the size; \
                         bound it with `.min(…)`/`.clamp(…)` right here",
                    ),
                });
            }
        }
    };
    for (ci, &i) in code.iter().enumerate() {
        if ctx.in_tests(i) {
            continue;
        }
        let t = &toks[i];
        // `Vec::with_capacity(…)` / `buf.reserve(…)`
        if (t.is_ident("with_capacity") || t.is_ident("reserve"))
            && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('('))
        {
            let mut depth = 1usize;
            let mut k = ci + 2;
            while k < code.len() && depth > 0 {
                match toks[code[k]].kind {
                    TokenKind::Punct('(') => depth += 1,
                    TokenKind::Punct(')') => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            check_span(ci + 2, k - 1, t.line);
        }
        // `vec![elem; size]`
        if t.is_ident("vec")
            && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('!'))
            && code.get(ci + 2).is_some_and(|&j| toks[j].is_punct('['))
        {
            let mut depth = 1usize;
            let mut k = ci + 3;
            while k < code.len() && depth > 0 {
                match toks[code[k]].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            check_span(ci + 3, k - 1, t.line);
        }
    }
}

// ---------------------------------------------------------------------------
// L10 unreferenced-pub
// ---------------------------------------------------------------------------

/// Whether a whole file is test code: an integration test, a bench, or a
/// helper module under either.
fn is_test_file(path: &str) -> bool {
    path.split('/').any(|part| part == "tests" || part == "benches")
}

/// Which files' non-test code names each identifier: the reference side
/// of L10. Only the first file and whether a second one exists are kept,
/// which is all "named outside its own file" needs.
struct NamedBy<'a> {
    names: HashMap<&'a str, (usize, bool)>,
}

impl<'a> NamedBy<'a> {
    /// Index the identifiers of every non-test token in `files`, in
    /// order; a file's position is its id. Re-exports (`pub use …;`) are
    /// skipped: a re-export calls nothing, and counting it would keep
    /// alive every item a crate root re-exports.
    fn build(files: impl Iterator<Item = &'a FileCtx<'a>>) -> NamedBy<'a> {
        let mut names: HashMap<&'a str, (usize, bool)> = HashMap::new();
        for (file, ctx) in files.enumerate() {
            if is_test_file(ctx.path) {
                continue;
            }
            let mut in_reexport = false;
            for (ci, &i) in ctx.code.iter().enumerate() {
                let t = &ctx.tokens[i];
                if in_reexport {
                    in_reexport = !t.is_punct(';');
                    continue;
                }
                if t.kind != TokenKind::Ident || ctx.in_tests(i) {
                    continue;
                }
                let visibility = t.text == "pub";
                if visibility && ctx.next_after_visibility(ci).is_some_and(|t| t.is_ident("use")) {
                    in_reexport = true;
                    continue;
                }
                names
                    .entry(t.text.as_str())
                    .and_modify(|(first, elsewhere)| *elsewhere |= *first != file)
                    .or_insert((file, false));
            }
        }
        NamedBy { names }
    }

    /// Whether non-test code in a file other than `file` names `name`.
    fn outside(&self, name: &str, file: usize) -> bool {
        self.names.get(name).is_some_and(|&(first, elsewhere)| elsewhere || first != file)
    }
}

impl FileCtx<'_> {
    /// The code token after the visibility starting at code-index `ci`
    /// (`pub` or `pub(…)`).
    fn next_after_visibility(&self, ci: usize) -> Option<&Token> {
        let mut k = ci + 1;
        if self.code_tok(k)?.is_punct('(') {
            while !self.code_tok(k)?.is_punct(')') {
                k += 1;
            }
            k += 1;
        }
        self.code_tok(k)
    }

    fn code_tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }
}

/// L10: a `pub fn`, `pub mod`, `pub const` or `pub static` outside test
/// code whose name no non-test code in any other file mentions — in the
/// workspace, its bins and examples, or the `[unreferenced-pub] callers`
/// outside it. Such an item is either dead (only tests reach it) or
/// needlessly public (only its own file does). Delete it or drop `pub`;
/// an item that integration tests elsewhere share is waived with the
/// files that need it.
///
/// Matching is by identifier token, so a name collision keeps an item and
/// never flags one. Restricted visibility (`pub(crate)`) is left to
/// rustc's dead-code lint, and types are out of scope: a public signature
/// can force a type to be `pub`. Trait-impl methods carry no `pub` and so
/// are never candidates.
fn unreferenced_pub(ctx: &FileCtx, file: usize, names: &NamedBy, out: &mut Vec<Diagnostic>) {
    if is_test_file(ctx.path) {
        return;
    }
    for (ci, &i) in ctx.code.iter().enumerate() {
        if !ctx.tokens[i].is_ident("pub") || ctx.in_tests(i) {
            continue;
        }
        if ctx.code_tok(ci + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Qualifiers between `pub` and the item keyword: `const fn`,
        // `unsafe fn`, `async fn`, `extern "C" fn`.
        let mut k = ci + 1;
        while let Some(t) = ctx.code_tok(k) {
            let qualifier = t.is_ident("unsafe")
                || t.is_ident("async")
                || t.is_ident("extern")
                || t.kind == TokenKind::Literal
                || (t.is_ident("const")
                    && ctx.code_tok(k + 1).is_some_and(|n| {
                        ["fn", "unsafe", "async", "extern"].iter().any(|q| n.is_ident(q))
                    }));
            if !qualifier {
                break;
            }
            k += 1;
        }
        let Some(kind) = ctx
            .code_tok(k)
            .and_then(|t| ["fn", "mod", "const", "static"].into_iter().find(|kw| t.is_ident(kw)))
        else {
            continue;
        };
        if kind == "static" && ctx.code_tok(k + 1).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name) = ctx.code_tok(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if name.text == "_" || names.outside(&name.text, file) {
            continue;
        }
        out.push(Diagnostic {
            code: "L10",
            lint: "unreferenced-pub",
            severity: Severity::Warning,
            path: ctx.path.to_string(),
            line: name.line,
            message: format!(
                "`pub {kind} {}` is named by no non-test code outside this file — \
                 delete it, drop `pub`, or waive with the files that need it",
                name.text
            ),
        });
    }
}

/// Prefix match for path-scoped lints (`p` matches itself and `p/…`).
fn path_matches(prefixes: &[String], path: &str) -> bool {
    prefixes.iter().any(|p| path == *p || path.starts_with(&format!("{p}/")))
}
