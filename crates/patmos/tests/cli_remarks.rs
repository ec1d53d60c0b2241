//! `patmos-cli compile --remarks` prints the optimization remarks on
//! stderr whether or not a `--dump-*` flag asks for intermediate
//! artefacts too: the remarks must be the library's, and the same with
//! and without dumps.

use std::process::Command;

use patmos::compiler::{compile_with_artifacts, CompileOptions};

#[test]
fn remarks_print_with_and_without_dumps() {
    let kernel = (patmos::workloads::all().into_iter())
        .find(|w| w.name == "dotprod64")
        .expect("dotprod64 is a suite kernel");
    let dir = std::env::temp_dir().join(format!("patmos-cli-remarks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dotprod64.patc");
    std::fs::write(&path, &kernel.source).expect("write source");
    let cli = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
            .arg("compile")
            .arg(&path)
            .args(extra)
            .output()
            .expect("patmos-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };

    let artifacts =
        compile_with_artifacts(&kernel.source, &CompileOptions::default()).expect("compiles");
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

    let (stdout, stderr) = cli(&["--dump-sched", "--remarks"]);
    assert!(stdout.starts_with("=== scheduler: "), "{stdout}");
    assert_eq!(stderr, want);

    let (stdout, stderr) = cli(&["--remarks"]);
    assert_eq!(stdout, artifacts.asm);
    assert_eq!(stderr, want);
    let _ = std::fs::remove_dir_all(&dir);
}
