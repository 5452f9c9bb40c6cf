//! Output rendering: machine-readable JSON with a pinned schema, and
//! the `--list` lint catalog for docs/CI drift checks.

use crate::lints::{Diagnostic, Severity, CATALOG};

/// Version of the `--json` object shape. Consumers match on it; bump it
/// whenever a field is added, removed, renamed, or retyped.
// xlint: allow(L10, "crates/xlint/tests/xlint.rs pins the schema against it")
pub const JSON_SCHEMA_VERSION: u32 = 1;

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// Minimal JSON string escaping (the only strings we emit are paths and
/// diagnostic messages).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Render diagnostics as `{"schema_version":N,"findings":[…]}`. The
/// shape is pinned by an integration test; see [`JSON_SCHEMA_VERSION`].
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = format!("{{\"schema_version\":{JSON_SCHEMA_VERSION},\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"code\":\"{}\",\"lint\":\"{}\",\"severity\":\"{}\",\
             \"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            d.code,
            d.lint,
            severity_str(d.severity),
            json_escape(&d.path),
            d.line,
            json_escape(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]}");
    out
}

/// Render the lint catalog as one tab-separated line per lint:
/// `code\tname\tseverity\tsummary`. CI diffs this against the README's
/// catalog table so the docs cannot drift.
pub fn render_list() -> String {
    CATALOG
        .iter()
        .map(|l| {
            format!("{}\t{}\t{}\t{}", l.code, l.name, severity_str(l.severity), l.summary)
        })
        .collect::<Vec<_>>()
        .join("\n")
}
