//! Every `patmos-cli` command that simulates runs the machine its flags
//! select: a program that reads a load's target one bundle early fails
//! under the default strict checks and runs under `--non-strict`, in
//! `run`, `profile`, `wcet` (with `--pessimism`) and `faults` alike.

use std::process::Command;

/// `lwc r1` is read by the very next bundle, inside its visible delay.
const EARLY_READ: &str = "        .data d 0x10000
        .word 6
        .func main
        lil r2 = d
        lwc r1 = [r2 + 0]
        add r1 = r1, r0
        halt
";

#[test]
fn every_simulating_command_honours_non_strict() {
    let dir = std::env::temp_dir().join(format!("patmos-cli-machine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("early_read.pasm");
    std::fs::write(&path, EARLY_READ).expect("write program");
    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
            .arg(args[0])
            .arg(&path)
            .args(&args[1..])
            .output()
            .expect("patmos-cli runs")
    };
    for (command, expect) in [
        (&["run"][..], "result (r1)      = 6"),
        (&["profile"][..], "cycles 42 = issue 4 + stall 38"),
        (&["wcet", "--pessimism"][..], "observed cycles  = 42"),
        (&["faults"][..], "golden run       = r1 6, 42 cycles"),
    ] {
        let strict = cli(command);
        let stderr = String::from_utf8_lossy(&strict.stderr);
        assert!(
            !strict.status.success(),
            "{command:?} ran the early read strictly"
        );
        assert!(
            stderr.contains("reads r1 1 bundle(s) before its visible delay elapsed"),
            "{command:?}: {stderr}"
        );
        let relaxed = cli(&[command, &["--non-strict"]].concat());
        let stdout = String::from_utf8_lossy(&relaxed.stdout);
        assert!(
            relaxed.status.success(),
            "{command:?} --non-strict: {}",
            String::from_utf8_lossy(&relaxed.stderr)
        );
        assert!(
            stdout.contains(expect),
            "{command:?} --non-strict: {stdout}"
        );
    }
}
