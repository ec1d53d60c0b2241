//! `patmos-cli profile --cores N` rejects a TDMA slot too short for a
//! cache line fill with an error naming both lengths and a non-zero exit
//! status, instead of panicking.

use std::process::Command;

#[test]
fn short_tdma_slot_fails_with_the_sim_error() {
    let dir = std::env::temp_dir().join(format!("patmos-cli-tdma-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("answer.patc");
    std::fs::write(&path, "int main() { return 42; }").expect("write source");
    let profile = |slot_cycles: &str| {
        Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
            .arg("profile")
            .arg(&path)
            .args(["--cores", "2", "--slot-cycles", slot_cycles])
            .output()
            .expect("patmos-cli runs")
    };

    let out = profile("4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("a 22-cycle line fill does not fit in a 4-cycle TDMA slot"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    let out = profile("64");
    assert!(
        out.status.success(),
        "--slot-cycles 64: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
