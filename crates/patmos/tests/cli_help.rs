//! `patmos-cli --help` (or `-h`, also after a command) prints the usage
//! line on stdout and succeeds; a bad command line prints it on stderr
//! and exits 2.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
        .args(args)
        .output()
        .expect("patmos-cli runs")
}

#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["faults", "--help"],
        &["run", "kernel.patc", "-h", "--stats"],
    ] {
        let out = cli(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            stdout.starts_with("usage: patmos-cli "),
            "{args:?}: {stdout}"
        );
        assert!(stdout.contains("[--campaign N]"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn a_bad_command_line_prints_the_usage_on_stderr() {
    for args in [&[][..], &["--bogus"], &["faults"]] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.contains("usage: patmos-cli "), "{args:?}: {stderr}");
    }
}
