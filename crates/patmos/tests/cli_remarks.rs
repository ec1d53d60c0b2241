//! `patmos-cli compile --remarks` prints the optimization remarks on
//! stderr whether or not a `--dump-*` flag asks for intermediate
//! artefacts too: the remarks must be the library's, and the same with
//! and without dumps. `run` prints the same run with and without dumps
//! and remarks, from its one compile.

use std::process::Command;

use patmos::compiler::{compile_with_artifacts, CompileOptions};

/// Writes dotprod64 to a fresh temporary directory (`tag` names it).
fn dotprod64(tag: &str) -> (String, std::path::PathBuf) {
    let kernel = (patmos::workloads::all().into_iter())
        .find(|w| w.name == "dotprod64")
        .expect("dotprod64 is a suite kernel");
    let dir = std::env::temp_dir().join(format!("patmos-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dotprod64.patc");
    std::fs::write(&path, &kernel.source).expect("write source");
    (kernel.source, path)
}

/// Runs `patmos-cli <command> <path> <extra>`, which must succeed, for
/// its stdout and stderr.
fn cli(command: &str, path: &std::path::Path, extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
        .arg(command)
        .arg(path)
        .args(extra)
        .output()
        .expect("patmos-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// The library's remarks for `source`, as `--remarks` prints them.
fn remarks(source: &str) -> String {
    let artifacts = compile_with_artifacts(source, &CompileOptions::default()).expect("compiles");
    let opt = &artifacts.opt.as_ref().expect("the mid-end runs").remarks;
    let sched = &artifacts.sched.remarks;
    assert!(
        !opt.is_empty() && !sched.is_empty(),
        "dotprod64 has remarks"
    );
    let mut want = format!(
        "=== optimization remarks ({} mid-end, {} scheduler) ===\n",
        opt.len(),
        sched.len()
    );
    for r in opt.iter().chain(sched) {
        want.push_str(&format!("{r}\n"));
    }
    want
}

#[test]
fn remarks_print_with_and_without_dumps() {
    let (source, path) = dotprod64("remarks");
    let cli = |extra: &[&str]| cli("compile", &path, extra);
    let want = remarks(&source);
    let asm = compile_with_artifacts(&source, &CompileOptions::default())
        .expect("compiles")
        .asm
        .to_string();

    let (stdout, stderr) = cli(&["--dump-sched", "--remarks"]);
    assert!(stdout.starts_with("=== scheduler: "), "{stdout}");
    assert_eq!(stderr, want);

    let (stdout, stderr) = cli(&["--remarks"]);
    assert_eq!(stdout, asm);
    assert_eq!(stderr, want);
    let _ = std::fs::remove_dir_all(path.parent().expect("temp dir"));
}

/// `run --stats` with dumps and remarks simulates the image of its one
/// compile: the result, cycle and counter lines equal a plain `run
/// --stats`, after the same dump `compile` prints, with the library's
/// remarks.
#[test]
fn run_with_dumps_and_remarks_runs_the_same_image() {
    let (source, path) = dotprod64("run");
    let (plain, plain_err) = cli("run", &path, &["--stats"]);
    assert!(plain_err.is_empty(), "{plain_err}");
    assert!(plain.starts_with("result (r1)      = "), "{plain}");
    assert!(plain.contains("\nloops pipelined  = "), "{plain}");

    let (stdout, stderr) = cli("run", &path, &["--stats", "--dump-sched", "--remarks"]);
    let (dump, _) = cli("compile", &path, &["--dump-sched"]);
    assert_eq!(stdout, format!("{dump}{plain}"));
    assert_eq!(stderr, remarks(&source));
    let _ = std::fs::remove_dir_all(path.parent().expect("temp dir"));
}
