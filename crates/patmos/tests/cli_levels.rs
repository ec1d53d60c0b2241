//! `patmos-cli` rejects scheduler and mid-end levels that no longer
//! exist, or never did, instead of silently running another pipeline:
//! the compile error goes to stderr and the exit status is non-zero.

use std::process::Command;

#[test]
fn removed_and_unknown_levels_fail_with_the_compile_error() {
    let dir = std::env::temp_dir().join(format!("patmos-cli-levels-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("answer.patc");
    std::fs::write(&path, "int main() { return 42; }").expect("write source");
    let cli = |command: &str, flag: &str, level: &str| {
        Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
            .arg(command)
            .arg(&path)
            .args([flag, level])
            .output()
            .expect("patmos-cli runs")
    };
    for command in ["run", "compile"] {
        for (flag, level, needle) in [
            ("--sched-level", "0", "sched_cycles.json"),
            ("--sched-level", "3", "sched_level 3"),
            ("--opt-level", "4", "opt_level 4"),
        ] {
            let out = cli(command, flag, level);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{command} {flag} {level} must fail");
            assert!(
                stderr.contains("invalid options") && stderr.contains(needle),
                "{command} {flag} {level}: {stderr}"
            );
        }
        let out = cli(command, "--sched-level", "1");
        assert!(
            out.status.success(),
            "{command} --sched-level 1: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
