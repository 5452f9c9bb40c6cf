//! Fixture-driven coverage: every lint must fire on its seeded
//! violation (exact lint ID and line), stay quiet on clean and waived
//! code, reject unjustified waivers — and the real workspace must pass.

use std::path::Path;

use extract_xlint::report::{render_json, render_list, JSON_SCHEMA_VERSION};
use extract_xlint::{analyze_source, analyze_workspace, Config, Diagnostic, Severity, Source, CATALOG};

/// The policy used for the fixture corpus (mirrors the real xlint.toml
/// shape, but scoped to the fixture files).
fn cfg() -> Config {
    Config {
        exclude: vec![],
        unsafe_allow: vec!["fixture-ffi".into()],
        unsafe_files: vec![],
        lock_order_files: vec![
            "tests/fixtures/l1_lock_order.rs".into(),
            "tests/fixtures/clean.rs".into(),
        ],
        lock_order: vec!["queue".into(), "inflight".into(), "parked".into()],
        lock_fns: vec!["lock_unpoisoned".into()],
        condvar_names: vec!["available".into()],
        panic_path_files: vec![
            "tests/fixtures/l3_panic.rs".into(),
            "tests/fixtures/waived.rs".into(),
            "tests/fixtures/clean.rs".into(),
        ],
        cast_paths: vec!["tests/fixtures".into()],
        blocking_files: vec![
            "tests/fixtures/l6_blocking.rs".into(),
            "tests/fixtures/clean.rs".into(),
        ],
        blocking_methods: [
            "read", "read_exact", "read_to_end", "read_line", "fill_buf", "peek", "write",
            "write_all", "flush", "connect", "connect_timeout", "accept", "recv",
            "recv_timeout", "request", "sleep",
        ]
        .map(String::from)
        .to_vec(),
        swallowed_files: vec![
            "tests/fixtures/l7_swallowed.rs".into(),
            "tests/fixtures/clean.rs".into(),
        ],
        detached_paths: vec!["tests/fixtures".into()],
        detached_allow: vec!["reaper".into()],
        wire_paths: vec!["tests/fixtures".into()],
        wire_fields: vec!["content_length".into(), "k".into(), "offset".into()],
        pub_callers: vec![],
    }
}

fn findings(path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
    analyze_source(path, crate_name, src, &cfg())
}

fn codes(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.code, d.line)).collect()
}

#[test]
fn l1_fires_on_inversion_and_self_nesting_only() {
    let diags = findings(
        "tests/fixtures/l1_lock_order.rs",
        "fixture",
        include_str!("fixtures/l1_lock_order.rs"),
    );
    assert_eq!(codes(&diags), [("L1", 16), ("L1", 23), ("L1", 30)], "{diags:#?}");
    assert!(diags[0].message.contains("inverts the canonical lock order"));
    assert!(diags[1].message.contains("self-deadlock"));
    assert!(diags[2].message.contains("inverts the canonical lock order"));
}

#[test]
fn l2_fires_on_if_guarded_wait_only() {
    let diags = findings(
        "tests/fixtures/l2_condvar.rs",
        "fixture",
        include_str!("fixtures/l2_condvar.rs"),
    );
    assert_eq!(codes(&diags), [("L2", 8)], "{diags:#?}");
}

#[test]
fn l3_fires_on_each_panic_shape_outside_tests() {
    let diags = findings(
        "tests/fixtures/l3_panic.rs",
        "fixture",
        include_str!("fixtures/l3_panic.rs"),
    );
    assert_eq!(
        codes(&diags),
        [("L3", 3), ("L3", 4), ("L3", 5), ("L3", 7)],
        "{diags:#?}"
    );
}

#[test]
fn l4_fires_on_undocumented_unsafe_in_an_allowlisted_crate() {
    let diags = findings(
        "tests/fixtures/l4_unsafe.rs",
        "fixture-ffi",
        include_str!("fixtures/l4_unsafe.rs"),
    );
    assert_eq!(codes(&diags), [("L4", 4)], "{diags:#?}");
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn l4_fires_on_every_unsafe_outside_the_allowlist() {
    let diags = findings(
        "tests/fixtures/l4_unsafe.rs",
        "extract-core",
        include_str!("fixtures/l4_unsafe.rs"),
    );
    assert_eq!(codes(&diags), [("L4", 4), ("L4", 10)], "{diags:#?}");
    assert!(diags[0].message.contains("not allowlisted"));
}

#[test]
fn l4_file_entry_admits_one_file_but_still_wants_safety_comments() {
    let path = "tests/fixtures/l4_unsafe.rs";
    let policy = Config { unsafe_files: vec![path.into()], ..cfg() };
    let src = include_str!("fixtures/l4_unsafe.rs");
    let diags = analyze_source(path, "extract-core", src, &policy);
    assert_eq!(codes(&diags), [("L4", 4)], "{diags:#?}");
    assert!(diags[0].message.contains("SAFETY"));
    // The entry names a file, not its crate: a sibling stays closed.
    let sibling = analyze_source("tests/fixtures/other.rs", "extract-core", src, &policy);
    assert_eq!(codes(&sibling), [("L4", 4), ("L4", 10)], "{sibling:#?}");
}

#[test]
fn l5_fires_on_narrowing_len_casts_only() {
    let diags = findings(
        "tests/fixtures/l5_cast.rs",
        "fixture",
        include_str!("fixtures/l5_cast.rs"),
    );
    assert_eq!(codes(&diags), [("L5", 3)], "{diags:#?}");
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn l6_fires_on_blocking_calls_under_live_guards_only() {
    let diags = findings(
        "tests/fixtures/l6_blocking.rs",
        "fixture",
        include_str!("fixtures/l6_blocking.rs"),
    );
    assert_eq!(codes(&diags), [("L6", 8), ("L6", 15), ("L6", 28)], "{diags:#?}");
    assert!(diags[0].message.contains("holding lock `queue`"));
    assert!(diags[1].message.contains("`sleep()`"));
    assert!(diags[2].message.contains("holding lock `parked`"));
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn l7_fires_on_discarded_results_only() {
    let diags = findings(
        "tests/fixtures/l7_swallowed.rs",
        "fixture",
        include_str!("fixtures/l7_swallowed.rs"),
    );
    assert_eq!(codes(&diags), [("L7", 5), ("L7", 6)], "{diags:#?}");
    assert!(diags[0].message.contains("`let _ =`"));
    assert!(diags[1].message.contains("trailing `.ok()`"));
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn l8_fires_on_dropped_join_handles_only() {
    let diags = findings(
        "tests/fixtures/l8_detached.rs",
        "fixture",
        include_str!("fixtures/l8_detached.rs"),
    );
    assert_eq!(codes(&diags), [("L8", 4), ("L8", 8)], "{diags:#?}");
    assert!(diags[0].message.contains("`fire_and_forget`"));
    assert!(diags[1].message.contains("`checked_but_detached`"));
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn l9_fires_on_unclamped_wire_sized_allocations_only() {
    let diags = findings(
        "tests/fixtures/l9_wire_alloc.rs",
        "fixture",
        include_str!("fixtures/l9_wire_alloc.rs"),
    );
    assert_eq!(codes(&diags), [("L9", 4), ("L9", 5), ("L9", 10)], "{diags:#?}");
    assert!(diags[0].message.contains("`content_length`"));
    assert!(diags[2].message.contains("`k`"));
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

/// The L10 fixture pair as a two-file tree, beside an integration test
/// that names items (which keeps none alive) and the given callers from
/// outside the tree.
fn l10_findings(callers: &[Source<'_>]) -> Vec<Diagnostic> {
    let source = |path, text| Source { path, crate_name: "fixture", text };
    let files = [
        source("src/l10_unreferenced.rs", include_str!("fixtures/l10_unreferenced.rs")),
        source("src/l10_clean.rs", include_str!("fixtures/l10_clean.rs")),
        source("tests/it.rs", "#[test]\nfn t() { only_tests_call(); reexported(); }\n"),
    ];
    analyze_workspace(&files, callers, &cfg())
}

#[test]
fn l10_fires_on_pub_items_nothing_outside_their_file_names() {
    let caller = Source { path: "benchmark/src/main.rs", crate_name: "", text: "fn main() { named_by_a_caller(); }\n" };
    let diags = l10_findings(&[caller]);
    assert_eq!(
        codes(&diags),
        [("L10", 5), ("L10", 7), ("L10", 9), ("L10", 11), ("L10", 17), ("L10", 30)],
        "{diags:#?}"
    );
    assert!(diags.iter().all(|d| d.path == "src/l10_unreferenced.rs"), "the clean twin passes");
    assert!(diags[0].message.contains("`pub mod orphaned`"), "{}", diags[0].message);
    assert!(diags[3].message.contains("`pub fn only_tests_call`"), "{}", diags[3].message);
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn l10_reads_callers_outside_the_tree() {
    let diags = l10_findings(&[]);
    let flagged: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert!(flagged.contains(&23), "without its caller `named_by_a_caller` is flagged: {diags:#?}");
}

#[test]
fn clean_code_passes_every_lint() {
    let diags = findings(
        "tests/fixtures/clean.rs",
        "fixture",
        include_str!("fixtures/clean.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn justified_waivers_suppress_findings() {
    let diags = findings(
        "tests/fixtures/waived.rs",
        "fixture",
        include_str!("fixtures/waived.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn an_unjustified_waiver_is_rejected_and_suppresses_nothing() {
    let diags = findings(
        "tests/fixtures/bad_waiver.rs",
        "fixture",
        include_str!("fixtures/bad_waiver.rs"),
    );
    assert_eq!(codes(&diags), [("X0", 4), ("L5", 5)], "{diags:#?}");
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("no justification"));
}

/// A miniature hedge racer, the detached-thread shape the router's
/// `exchange_hedged` must waive: `WAIVER` is spliced in front of the
/// spawn line by the lifecycle tests below.
const HEDGE_RACER: &str = "fn launch(tx: Sender<u8>) {\nWAIVER\
                           \n    std::thread::spawn(move || {\n        \
                           let _ = tx.send(1);\n    });\n}\n";

#[test]
fn a_justified_waiver_by_lint_code_suppresses_the_finding() {
    // `allow(L8, …)` — the code, not the name — covers the spawn.
    let src = HEDGE_RACER.replace(
        "WAIVER",
        "    // xlint: allow(L8, \"racer is bounded by the request deadline\")",
    );
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", &src);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn a_reason_containing_parentheses_still_parses_as_justified() {
    // The close paren the parser wants is the one *outside* the quoted
    // reason; prose like "(two per exchange)" must not truncate it.
    let src = HEDGE_RACER.replace(
        "WAIVER",
        "    // xlint: allow(L8, \"bounded racer (two per exchange) joins via the gather loop\")",
    );
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", &src);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn an_empty_reason_on_the_same_spawn_still_yields_x0() {
    let src = HEDGE_RACER.replace("WAIVER", "    // xlint: allow(L8, \"\")");
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", &src);
    // The bad waiver is flagged AND the finding it failed to cover stays.
    assert_eq!(codes(&diags), [("X0", 2), ("L8", 3)], "{diags:#?}");
}

#[test]
fn removing_the_waived_code_makes_the_waiver_stale() {
    // Same justified waiver, but the spawn beneath it is gone: X1.
    let src = "fn launch() {\n    // xlint: allow(L8, \"racer is bounded by the \
               request deadline\")\n    let queued = 1;\n    drop(queued);\n}\n";
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", src);
    assert_eq!(codes(&diags), [("X1", 2)], "{diags:#?}");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("stale waiver for `L8`"));
}

#[test]
fn a_stale_waiver_fixture_reports_x1_at_the_waiver_line() {
    let diags = findings(
        "tests/fixtures/x1_stale.rs",
        "fixture",
        include_str!("fixtures/x1_stale.rs"),
    );
    assert_eq!(codes(&diags), [("X1", 3)], "{diags:#?}");
}

#[test]
fn json_output_has_a_pinned_schema() {
    assert_eq!(JSON_SCHEMA_VERSION, 1);
    assert_eq!(render_json(&[]), "{\"schema_version\":1,\"findings\":[]}");
    // One finding: the shape of every field is pinned byte-for-byte.
    let src = "fn f(items: &[u8]) -> u32 {\n    items.len() as u32\n}\n";
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", src);
    assert_eq!(codes(&diags), [("L5", 2)], "{diags:#?}");
    let json = render_json(&diags);
    let expected = format!(
        "{{\"schema_version\":1,\"findings\":[\n  {{\"code\":\"L5\",\
         \"lint\":\"cast-truncation\",\"severity\":\"warning\",\
         \"path\":\"tests/fixtures/synthetic.rs\",\"line\":2,\
         \"message\":\"{}\"}}\n]}}",
        diags[0].message.replace('"', "\\\"")
    );
    assert_eq!(json, expected);
}

#[test]
fn the_lint_catalog_lists_every_lint_tab_separated() {
    let list = render_list();
    let lines: Vec<&str> = list.lines().collect();
    assert_eq!(lines.len(), CATALOG.len());
    assert_eq!(
        lines[5],
        "L6\tblocking-under-lock\terror\tblocking I/O or sleeps while a lock \
         guard is live stall every contender of that lock"
    );
    for (line, info) in lines.iter().zip(CATALOG) {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 4, "4 tab-separated columns: {line}");
        assert_eq!(cols[0], info.code);
        assert_eq!(cols[1], info.name);
    }
    // Codes are unique and every diagnostic-producing lint is cataloged.
    let codes: Vec<&str> = CATALOG.iter().map(|l| l.code).collect();
    let mut deduped = codes.clone();
    deduped.dedup();
    assert_eq!(codes, deduped);
}

#[test]
fn waivers_inside_string_literals_are_inert() {
    // The waiver text appears in a *string*, not a comment: the cast
    // must still be flagged.
    let src = "fn f(items: &[u8]) -> u32 {\n    let _note = \"xlint: allow(cast-truncation, \\\"nope\\\")\";\n    items.len() as u32\n}\n";
    let diags = findings("tests/fixtures/synthetic.rs", "fixture", src);
    assert_eq!(codes(&diags), [("L5", 3)], "{diags:#?}");
}

#[test]
fn the_real_workspace_passes_clean() {
    let root = extract_xlint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the xlint crate");
    let diags = extract_xlint::run(&root).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "the workspace must pass its own lints:\n{}",
        diags.iter().map(Diagnostic::render).collect::<Vec<_>>().join("\n")
    );
}
