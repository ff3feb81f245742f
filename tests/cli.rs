//! Integration tests for the `ssxdb` command-line tool: the full
//! keygen → genmap → encode → info/query/serve/remote workflow.

mod common;

use common::Hosts;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ssxdb")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ssxdb_cli_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], cwd: &Path) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn ssxdb");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_ok(args: &[&str], cwd: &Path) -> String {
    let (ok, stdout, stderr) = run(args, cwd);
    assert!(
        ok,
        "ssxdb {args:?} failed:\nstdout: {stdout}\nstderr: {stderr}"
    );
    stdout
}

/// Builds the standard fixture: seed, doc, map, encoded db. Returns cwd.
fn fixture(name: &str) -> PathBuf {
    let dir = workdir(name);
    assert_ok(&["keygen", "seed.hex"], &dir);
    assert_ok(
        &["xmark", "--bytes", "6000", "--seed", "5", "doc.xml"],
        &dir,
    );
    assert_ok(
        &["genmap", "--p", "83", "--doc", "doc.xml", "map.properties"],
        &dir,
    );
    assert_ok(
        &[
            "encode",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "doc.xml",
            "db.ssxdb",
        ],
        &dir,
    );
    dir
}

#[test]
fn full_workflow_and_query() {
    let dir = fixture("workflow");
    let info = assert_ok(&["info", "db.ssxdb"], &dir);
    assert!(info.contains("rows (elements)"), "{info}");

    let out = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--engine",
            "advanced",
            "--rule",
            "equality",
            "--stats",
            "db.ssxdb",
            "/site/regions/europe/item",
        ],
        &dir,
    );
    assert!(out.contains("match(es)"), "{out}");
    assert!(out.contains("round trips"), "{out}");
    // The generator guarantees at least one europe item.
    let first = out.lines().next().unwrap();
    let n: usize = first
        .split(':')
        .nth(1)
        .and_then(|s| s.trim().split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(n >= 1, "expected matches, got {first}");
}

#[test]
fn engines_agree_via_cli() {
    let dir = fixture("engines");
    let base = [
        "query",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--rule",
        "equality",
    ];
    let q = "//bidder/date";
    let simple = {
        let mut a = base.to_vec();
        a.extend(["--engine", "simple", "db.ssxdb", q]);
        assert_ok(&a, &dir)
    };
    let advanced = {
        let mut a = base.to_vec();
        a.extend(["--engine", "advanced", "db.ssxdb", q]);
        assert_ok(&a, &dir)
    };
    let nodes = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("node pre="))
            .map(String::from)
            .collect()
    };
    assert_eq!(nodes(&simple), nodes(&advanced));
    assert!(!nodes(&simple).is_empty());
}

#[test]
fn trie_encode_and_contains_query() {
    let dir = workdir("trie");
    std::fs::write(
        dir.join("doc.xml"),
        "<people><person><name>Joan Johnson</name></person></people>",
    )
    .unwrap();
    assert_ok(&["keygen", "seed.hex"], &dir);
    assert_ok(
        &[
            "genmap",
            "--p",
            "131",
            "--doc",
            "doc.xml",
            "--trie-alphabet",
            "map.properties",
        ],
        &dir,
    );
    assert_ok(
        &[
            "encode",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--trie",
            "compressed",
            "doc.xml",
            "db.ssxdb",
        ],
        &dir,
    );
    let out = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            r#"//name[contains(text(), "Joan")]"#,
        ],
        &dir,
    );
    assert!(out.contains("1 match(es)"), "{out}");
    let miss = assert_ok(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            r#"//name[contains(text(), "zebra")]"#,
        ],
        &dir,
    );
    assert!(miss.contains("0 match(es)"), "{miss}");
}

/// `remote` (extra flags before the query) and local `query` on the same
/// fixture; returns both outputs' match listings.
fn remote_and_local(dir: &Path, addr: &str, extra: &[&str], query: &str) -> (String, String) {
    let secrets = ["--map", "map.properties", "--seed", "seed.hex"];
    let mut args = vec!["remote", "--addr", addr];
    args.extend_from_slice(&secrets);
    args.extend_from_slice(extra);
    args.push(query);
    let remote = assert_ok(&args, dir);
    let mut args = vec!["query"];
    args.extend_from_slice(&secrets);
    args.extend(["db.ssxdb", query]);
    let local = assert_ok(&args, dir);
    let listing = |s: &str| {
        s.lines()
            .filter(|l| l.contains("match(es)") || l.contains("node pre="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    (listing(&remote), listing(&local))
}

/// `serve` then `remote` with neither a transport flag nor a shard count
/// answers exactly what local `query` answers (S = 1).
#[test]
fn serve_and_remote_query() {
    let dir = fixture("serve");
    let mut hosts = Hosts::default();
    let addr = hosts.serve(&dir, &["db.ssxdb"]);
    let (remote, local) = remote_and_local(&dir, &addr, &["--stats"], "/site/regions/europe/item");
    assert!(remote.contains("match(es)"), "{remote}");
    assert_eq!(remote, local, "remote must answer exactly like query");
    hosts.stop(0);
}

/// The multiplexed host over the CLI at S = 2: `remote` learns the shard
/// count from the handshake, and with or without speculation answers
/// exactly what local `query` answers.
#[test]
fn mux_serve_and_remote_via_cli() {
    let dir = fixture("mux_serve");
    let mut hosts = Hosts::default();
    let addr = hosts.serve(&dir, &["--shards", "2", "--workers", "2", "db.ssxdb"]);
    for extra in [&[][..], &["--speculate", "--stats"][..]] {
        let (remote, local) = remote_and_local(&dir, &addr, extra, "/site/regions/europe/item");
        assert!(remote.contains("match(es)"), "{remote}");
        assert_eq!(
            remote, local,
            "remote {extra:?} must answer exactly like query"
        );
    }
    hosts.stop(0);
}

/// The online re-sharding workflow over the CLI: a sharded host comes up
/// with S = 2, `ssxdb reshard` repartitions it to 3 while it runs, and a
/// speculative `remote` client adopts the new count and gets the same
/// answer. Client commands refuse `--shards` against a host.
#[test]
fn reshard_and_speculative_remote_via_cli() {
    let dir = fixture("reshard");
    let mut hosts = Hosts::default();
    let addr = hosts.serve(&dir, &["--shards", "2", "db.ssxdb"]);
    let query = "/site/regions/europe/item";
    let (before, local) = remote_and_local(&dir, &addr, &[], query);
    assert_eq!(before, local);

    let out = assert_ok(&["reshard", "--addr", &addr, "--shards", "3"], &dir);
    assert!(out.contains("3 shard(s)"), "{out}");

    // A shard count is the host's to report, not the client's to claim.
    let (ok, _, err) = run(
        &[
            "remote",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--addr",
            &addr,
            "--shards",
            "2",
            query,
        ],
        &dir,
    );
    assert!(!ok, "--shards must be refused with --addr");
    assert!(err.contains("--shards"), "{err}");
    let (after, _) = remote_and_local(&dir, &addr, &["--speculate", "--stats"], query);
    assert_eq!(before, after, "answers must survive");
    hosts.stop(0);
}

/// A mistyped flag fails, names the flag, and does no work: no output file.
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let dir = workdir("unknown_flags");
    let (ok, _, err) = run(
        &["xmark", "--bytes", "2000", "--sede", "5", "out.xml"],
        &dir,
    );
    assert!(!ok, "a typo must not pass silently");
    assert!(err.contains("--sede"), "{err}");
    assert!(!dir.join("out.xml").exists(), "refused before any work");
    // The same command with the right spelling works.
    assert_ok(
        &["xmark", "--bytes", "2000", "--seed", "5", "out.xml"],
        &dir,
    );
    assert!(dir.join("out.xml").exists());
}

/// The retired `--mux` flag is refused by name — it would otherwise
/// swallow the query as its value — before any connection is attempted.
#[test]
fn stale_mux_flag_is_refused() {
    let dir = workdir("stale_mux");
    for args in [
        &[
            "remote",
            "--map",
            "m",
            "--seed",
            "s",
            "--addr",
            "127.0.0.1:9",
            "--mux",
            "/site",
        ][..],
        &[
            "serve",
            "--p",
            "83",
            "--addr",
            "127.0.0.1:9",
            "--mux",
            "db.ssxdb",
        ][..],
    ] {
        let (ok, _, err) = run(args, &dir);
        assert!(!ok, "{args:?}");
        assert!(err.contains("--mux"), "{args:?}: {err}");
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = workdir("errors");
    // Unknown command.
    let (ok, _, err) = run(&["frobnicate"], &dir);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    // Missing file.
    let (ok, _, err) = run(&["info", "nope.ssxdb"], &dir);
    assert!(!ok);
    assert!(err.contains("error"), "{err}");
    // Bad query on a real db.
    let dir = fixture("badquery");
    let (ok, _, err) = run(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "db.ssxdb",
            "site",
        ],
        &dir,
    );
    assert!(!ok);
    assert!(err.contains("error"), "{err}");
    // Wrong rule keyword.
    let (ok, _, err) = run(
        &[
            "query",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--rule",
            "bogus",
            "db.ssxdb",
            "/site",
        ],
        &dir,
    );
    assert!(!ok);
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn help_prints_usage() {
    let dir = workdir("help");
    let out = assert_ok(&["help"], &dir);
    assert!(out.contains("keygen"));
    assert!(out.contains("serve"));
}
