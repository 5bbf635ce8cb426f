//! The `bench` driver's argument handling, run through the real binary:
//! usage errors exit 2 with the usage text and write nothing, a failed
//! artifact write exits 1 with a message instead of a panic.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory, so a default `BENCH_<suite>.json`
/// written by mistake shows up.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn argument_errors_exit_with_the_stated_code() {
    // (args, exit code, stderr needle)
    let cases: &[(&[&str], i32, &str)] = &[
        (&[], 2, "usage: bench"),
        (&["nosuch"], 2, "unknown suite `nosuch`"),
        (&["figures", "fig99"], 2, "unknown figure id `fig99`"),
        (
            &["figures", "fig10", "--quick"],
            2,
            "unknown figure id `--quick`",
        ),
        (&["intern", "--qiuck"], 2, "unknown argument `--qiuck`"),
        (&["prov", "--quick", "--out"], 2, "--out needs a path"),
        (&["prov", "--out", "--quick"], 2, "--out needs a path"),
        (&["sched", "--list"], 2, "usage: bench"),
        (
            &["smoke", "--quick", "--out", "/nonexistent/x.json"],
            1,
            "smoke: cannot write /nonexistent/x.json",
        ),
    ];
    for (i, &(args, code, needle)) in cases.iter().enumerate() {
        let dir = scratch_dir(&i.to_string());
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "bench {args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "bench {args:?}: stderr lacks `{needle}`:\n{stderr}"
        );
        if code == 2 {
            assert!(stderr.contains("usage: bench"), "bench {args:?}: {stderr}");
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            left.is_empty(),
            "bench {args:?} wrote into the working directory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn figures_list_and_default_out_path() {
    let dir = scratch_dir("ok");
    let list = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["figures", "--list"])
        .output()
        .expect("bench runs");
    assert!(list.status.success());
    assert!(String::from_utf8_lossy(&list.stdout).starts_with("fig4\nfig5\n"));

    let smoke = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["smoke", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    assert!(
        smoke.status.success(),
        "{}",
        String::from_utf8_lossy(&smoke.stderr)
    );
    assert!(dir.join("BENCH_smoke.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
