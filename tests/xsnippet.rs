//! The `xsnippet` command line, run as a user runs it: the paper's
//! Figure-1 snippet on the built-in retailer data, the `--stats` path,
//! every `--algo` on the stores demo, `--help` (usage on stdout, exit 0),
//! and the exit codes of a missing file (1) and of a bad option (2, usage
//! on stderr).

use std::process::{Command, Output};

fn xsnippet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xsnippet")).args(args).output().expect("xsnippet runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

#[test]
fn the_retailer_demo_prints_the_figure_1_snippet() {
    let out = xsnippet(&["--demo", "retailer", "texas", "apparel", "retailer", "--bound", "13"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.starts_with("1 result(s) for \"texas apparel retailer\""), "{text}");
    // The tree runs from the line after the result header to the blank
    // line closing the result: one line per node.
    let tree: Vec<&str> = text
        .lines()
        .skip_while(|line| !line.starts_with("── result 1"))
        .skip(1)
        .take_while(|line| !line.is_empty())
        .collect();
    assert_eq!(tree.first(), Some(&"retailer"), "{text}");
    assert!(tree.iter().any(|line| line.ends_with("name: Brook Brothers")), "{text}");
    assert!(tree.iter().any(|line| line.ends_with("city: Houston")), "{text}");
    assert_eq!(tree.len() - 1, 13, "edges of the snippet tree:\n{text}");
}

#[test]
fn stats_and_every_algorithm_answer() {
    let stats = xsnippet(&["--demo", "retailer", "texas", "apparel", "retailer", "--stats"]);
    assert!(stats.status.success(), "{stats:?}");
    assert!(stdout(&stats).contains("(store, city): N=10 D=5"), "{}", stdout(&stats));
    for (algo, name) in
        [("xseek", "XSeek"), ("slca", "SlcaIndexedLookup"), ("scan", "SlcaScanEager"), ("elca", "Elca")]
    {
        let out = xsnippet(&["--demo", "stores", "store", "texas", "--algo", algo]);
        assert!(out.status.success(), "{algo}: {out:?}");
        let text = stdout(&out);
        assert!(
            text.starts_with(&format!("2 result(s) for \"store texas\" (bound 10, {name})")),
            "{algo}: {text}"
        );
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let help = xsnippet(&[flag]);
        assert_eq!(help.status.code(), Some(0), "{flag}: {help:?}");
        assert!(stdout(&help).starts_with("usage: xsnippet"), "{flag}: {help:?}");
        assert!(help.stderr.is_empty(), "{flag}: {help:?}");
    }
}

#[test]
fn a_missing_file_exits_1_and_a_bad_option_exits_2() {
    let missing = xsnippet(&["no/such/file.xml", "texas"]);
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");
    assert!(String::from_utf8_lossy(&missing.stderr).starts_with("error: cannot read"));
    let bad = xsnippet(&["--demo", "stores", "store", "--algo", "bogus"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("usage: xsnippet"));
    assert!(bad.stdout.is_empty(), "{bad:?}");
}
