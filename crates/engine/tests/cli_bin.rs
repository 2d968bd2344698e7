//! End-to-end tests of the `eproc` binary: exit-code contract, per-
//! subcommand flag rejection, the artifact cache round trip, and the
//! cache/list subcommands. Everything runs the real binary via
//! `CARGO_BIN_EXE_eproc`, so these pin exactly what scripts and CI see.

use std::path::PathBuf;
use std::process::{Command, Output};

fn eproc(args: &[&str]) -> Output {
    eproc_env(args, &[])
}

/// Runs the binary with `args` and extra environment `envs`, with
/// `EPROC_CACHE`/`EPROC_FAULTS` scrubbed so an outer environment never
/// bleeds into the tests.
fn eproc_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eproc"));
    cmd.args(args)
        .env_remove("EPROC_CACHE")
        .env_remove("EPROC_FAULTS");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eproc_cli_bin_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn usage_errors_exit_2_and_help_exits_0() {
    // The full exit-code contract: 0 for help, 2 for every usage shape.
    assert_eq!(eproc(&["--help"]).status.code(), Some(0));
    assert_eq!(eproc(&["run", "--help"]).status.code(), Some(0));
    for args in [
        &[][..],                                   // missing command
        &["frobnicate"][..],                       // unknown command
        &["run"][..],                              // missing spec
        &["run", "nosuch"][..],                    // unknown spec
        &["run", "a", "b"][..],                    // too many positionals
        &["run", "comparison", "--seed"][..],      // missing value
        &["run", "comparison", "--seed", "x"][..], // bad value
        &["run", "comparison", "--bogus"][..],     // unknown flag
        &["compare", "--process", "srw"][..],      // no graphs
        &["scale"][..],                            // no spec and no graphs
        &["merge"][..],                            // no shard paths
        &["cache"][..],                            // no action
        &["cache", "ls"][..],                      // no cache root
        &["list", "extra"][..],                    // positional on list
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn foreign_flags_are_rejected_by_name_per_subcommand() {
    // Each case: a flag that exists in the table but does not belong to
    // the subcommand. The error must name both.
    for (args, flag) in [
        (&["run", "comparison", "--graph", "cycle:8"][..], "--graph"),
        (&["run", "comparison", "--sweep", "1..4,x2"][..], "--sweep"),
        (
            &[
                "compare",
                "--graph",
                "cycle:8",
                "--process",
                "srw",
                "--scale",
                "quick",
            ][..],
            "--scale",
        ),
        (
            &[
                "compare",
                "--graph",
                "cycle:8",
                "--process",
                "srw",
                "--sweep",
                "1..4,x2",
            ][..],
            "--sweep",
        ),
        (&["merge", "a.json", "--seed", "1"][..], "--seed"),
        (&["merge", "a.json", "--shard", "0/2"][..], "--shard"),
        (&["merge", "a.json", "--cache", "/tmp"][..], "--cache"),
        (&["list", "--json", "x.json"][..], "--json"),
        (&["list", "--trials", "3"][..], "--trials"),
        (&["cache", "ls", "--json", "x.json"][..], "--json"),
        (&["cache", "ls", "--threads", "2"][..], "--threads"),
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        let cmd = args[0];
        assert!(
            err.contains(&format!("flag `{flag}` does not apply to `{cmd}`")),
            "{args:?} stderr: {err}"
        );
    }
    // `scale` accepts `--shard` at the table level (it shares the
    // executing-command set) but rejects the combination semantically —
    // still exit 2, with the growth-law-specific message.
    let out = eproc(&[
        "scale",
        "--graph",
        "cycle:8",
        "--process",
        "srw",
        "--shard",
        "0/2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--shard does not apply to scale"),
        "{}",
        stderr(&out)
    );
    // Alias spelling reports the canonical flag name.
    let out = eproc(&["merge", "a.json", "--processes", "srw"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("flag `--process` does not apply to `merge`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn flag_value_errors_name_the_flag_and_the_token() {
    for (args, needle) in [
        (
            &["run", "comparison", "--trials", "0"][..],
            "flag `--trials` expects an integer of at least 1, got \"0\"",
        ),
        (
            &["run", "comparison", "--seed"][..],
            "flag `--seed` expects an unsigned integer",
        ),
        (
            &["run", "comparison", "--seed", "--trials"][..],
            "flag `--seed` expects an unsigned integer",
        ),
        (
            &[
                "compare",
                "--graph",
                "cycle:8",
                "--process",
                "srw",
                "--cap",
                "fast",
            ][..],
            "--cap",
        ),
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn cache_round_trip_is_byte_exact_across_thread_counts() {
    let dir = temp_dir("roundtrip");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let a1 = dir.join("a1.json");
    let a2 = dir.join("a2.json");
    let spec = &[
        "compare",
        "--graph",
        "cycle:32",
        "--process",
        "srw,eprocess",
        "--trials",
        "3",
    ][..];
    let mut run1: Vec<&str> = spec.to_vec();
    run1.extend([
        "--threads",
        "1",
        "--cache",
        cache_s,
        "--json",
        a1.to_str().unwrap(),
    ]);
    let out = eproc(&run1);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    let mut run2: Vec<&str> = spec.to_vec();
    run2.extend([
        "--threads",
        "5",
        "--cache",
        cache_s,
        "--json",
        a2.to_str().unwrap(),
    ]);
    let out = eproc(&run2);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    let b1 = std::fs::read(&a1).unwrap();
    let b2 = std::fs::read(&a2).unwrap();
    assert!(!b1.is_empty());
    assert_eq!(b1, b2, "cache hit must be byte-identical to the stored run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entry_is_evicted_and_rerun_not_served() {
    let dir = temp_dir("corrupt");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let json = dir.join("a.json");
    let run = [
        "compare",
        "--graph",
        "cycle:32",
        "--process",
        "srw",
        "--trials",
        "2",
        "--cache",
        cache_s,
        "--json",
        json.to_str().unwrap(),
    ];
    let out = eproc(&run);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stored = stdout(&out);
    let short = stored
        .lines()
        .find_map(|l| l.strip_prefix("cache: stored "))
        .expect("first run stores")
        .to_string();
    let clean = std::fs::read(&json).unwrap();
    let out = eproc(&["cache", "path", &short, "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let entry = PathBuf::from(stdout(&out).trim());
    // Truncate the stored artifact, as a crash or a full disk might.
    std::fs::write(&entry, "{\"trunc").unwrap();
    let out = eproc(&run);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains(&format!("warning: cache: evicted corrupted entry {short}")),
        "{}",
        stderr(&out)
    );
    assert_eq!(std::fs::read(&json).unwrap(), clean, "re-run artifact");
    // The re-stored entry is whole again and serves hits.
    let out = eproc(&run);
    assert!(stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    assert_eq!(std::fs::read(&json).unwrap(), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_serves_resampled_builtins_and_env_var_activates_it() {
    let dir = temp_dir("resampled");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let a1 = dir.join("a1.json");
    let a2 = dir.join("a2.json");
    // A resampled builtin through the EPROC_CACHE env var, different
    // thread counts on the two runs.
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--threads",
            "2",
            "--json",
            a1.to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--threads",
            "7",
            "--json",
            a2.to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    assert_eq!(std::fs::read(&a1).unwrap(), std::fs::read(&a2).unwrap());
    // Env-var activation with a conflicting flag skips caching instead
    // of erroring; the explicit flag is strict.
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--shard",
            "0/2",
            "--json",
            dir.join("s.json").to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("cache: disabled"), "{}", stderr(&out));
    let out = eproc(&[
        "run",
        "cubicensemble",
        "--shard",
        "0/2",
        "--cache",
        cache_s,
        "--json",
        dir.join("s2.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommand_lists_resolves_and_prunes() {
    let dir = temp_dir("cachecmd");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let out = eproc(&[
        "compare",
        "--graph",
        "cycle:16",
        "--process",
        "srw",
        "--trials",
        "2",
        "--cache",
        cache_s,
        "--json",
        dir.join("a.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let short = stdout(&out)
        .lines()
        .find_map(|l| l.strip_prefix("cache: stored ").map(String::from))
        .expect("stored line");
    // ls shows the canonical spec line for the entry.
    let out = eproc(&["cache", "ls", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    let ls = stdout(&out);
    assert!(ls.contains(&short), "{ls}");
    assert!(
        ls.contains("--graph cycle:16 --process srw --trials 2"),
        "{ls}"
    );
    assert!(ls.contains("1 entry"), "{ls}");
    // path with no argument prints the root; with a prefix, the artifact.
    let out = eproc(&["cache", "path", "--cache", cache_s]);
    assert_eq!(stdout(&out).trim(), cache_s);
    let out = eproc(&["cache", "path", &short, "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    let artifact = PathBuf::from(stdout(&out).trim());
    assert!(artifact.is_file(), "{}", artifact.display());
    // An unmatched prefix is a runtime error (1), not a usage error.
    let out = eproc(&["cache", "path", "ffffffffffff", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(1));
    // gc with the default budget clears the store.
    let out = eproc(&["cache", "gc", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("removed 1 entry"), "{}", stdout(&out));
    let out = eproc(&["cache", "ls", "--cache", cache_s]);
    assert!(stdout(&out).contains("0 entries"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_canonical_prints_digest_and_normal_form_per_builtin() {
    let out = eproc(&["list", "--canonical"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let digests: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("digest: "))
        .collect();
    let specs: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("spec:"))
        .collect();
    assert_eq!(digests.len(), specs.len());
    assert!(text.lines().any(|l| l == "comparison"), "{text}");
    assert!(digests.len() >= 14, "all builtins listed: {text}");
    for d in &digests {
        assert_eq!(d.len(), 64, "full hex digest: {d}");
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()), "{d}");
    }
    for s in &specs {
        assert!(s.trim().starts_with("--graph "), "canonical line: {s}");
    }
    // Deterministic: a second invocation prints identical bytes.
    let again = eproc(&["list", "--canonical"]);
    assert_eq!(out.stdout, again.stdout);
    // A different seed changes every digest but no spec line.
    let other = stdout(&eproc(&["list", "--canonical", "--seed", "99"]));
    let other_digests: Vec<&str> = other
        .lines()
        .filter_map(|l| l.trim().strip_prefix("digest: "))
        .collect();
    assert_eq!(digests.len(), other_digests.len());
    assert!(digests.iter().zip(&other_digests).all(|(a, b)| a != b));
}

#[test]
fn tampered_block_counts_in_shards_and_checkpoints_fail_by_name() {
    // A shard or checkpoint that still parses but whose counts no run
    // could produce must not merge or resume: editing a block's
    // `"completed": 2` to 7, or its raw steps Welford count from 2 to 9,
    // exits 1 naming the file, the block and the field — no panic.
    let dir = temp_dir("tamper");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = ["run", "cubicensemble", "--scale", "quick", "--trials", "4"];
    let with = |extra: &[&str]| -> Output {
        let args: Vec<&str> = run.iter().chain(extra).copied().collect();
        eproc(&args)
    };
    let (s0, s1, ckpt) = (path("s0.json"), path("s1.json"), path("ckpt.json"));
    for (i, shard) in [&s0, &s1].into_iter().enumerate() {
        let out = with(&["--shard", &format!("{i}/2"), "--json", shard]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    }
    let out = with(&["--checkpoint", &ckpt, "--json", &path("full.json")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // The untouched files merge and resume.
    let out = eproc(&["merge", &s0, &s1, "--json", &path("merged.json")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = with(&["--resume", &ckpt, "--json", &path("resumed.json")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    for (from, to, field) in [
        (
            "\"completed\": 2",
            "\"completed\": 7",
            "\"completed\" counts 7",
        ),
        ("\"steps\": [2,", "\"steps\": [9,", "\"steps\" counts 9"),
    ] {
        let bad = path("bad.json");
        let tamper = |src: &str| {
            let text = std::fs::read_to_string(src).unwrap();
            assert!(text.contains(from), "{from} not in {src}");
            std::fs::write(&bad, text.replacen(from, to, 1)).unwrap();
        };
        let check = |out: &Output| {
            let err = stderr(out);
            assert_eq!(out.status.code(), Some(1), "{from} -> {to}: {err}");
            assert!(err.contains(&bad), "names the file: {err}");
            assert!(err.contains("block "), "names the block: {err}");
            assert!(err.contains(field), "names the field: {err}");
            assert!(!err.contains("panicked"), "{err}");
        };
        tamper(&s1);
        check(&eproc(&["merge", &s0, &bad, "--json", &path("m.json")]));
        tamper(&ckpt);
        check(&with(&["--resume", &bad, "--json", &path("r.json")]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
