//! `patmos-cli faults` says how each injected run was answered: pruned
//! from the golden run's access index, forked from a golden checkpoint,
//! or simulated from reset. `--slow-path` answers every run from reset,
//! the oracle, and must report the same outcomes.

use std::path::PathBuf;
use std::process::Command;

/// The fixed-seed campaign program of the CI smoke test.
const SMOKE: &str = "int a[8]; int main() { int i; int s = 0; for (i = 0; i < 8; i = i + 1) bound(8) { a[i] = i * 3; s = s + a[i]; } return s; }\n";

fn smoke_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("patmos-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("smoke.patc");
    std::fs::write(&path, SMOKE).expect("write source");
    path
}

fn faults(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
        .arg("faults")
        .arg(smoke_file())
        .args(["--campaign", "10"])
        .args(extra)
        .output()
        .expect("patmos-cli runs");
    assert!(
        out.status.success(),
        "faults {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `"paths"` counts of a JSON report: pruned, forked, from reset.
fn paths(json: &str) -> [u64; 3] {
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"paths\""))
        .expect("a paths line");
    let count = |key: &str| -> u64 {
        let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a count")
    };
    [count("pruned"), count("forked"), count("from_reset")]
}

#[test]
fn campaign_reports_how_every_run_was_answered() {
    let fast = faults(&["--json"]);
    let [pruned, forked, from_reset] = paths(&fast);
    assert_eq!(pruned + forked + from_reset, 20, "10 injections x 2 arms");
    assert!(pruned > 0, "{fast}");
    assert_eq!(from_reset, 0, "{fast}");

    // The oracle answers every run from reset, with the same outcomes.
    let slow = faults(&["--json", "--slow-path"]);
    assert_eq!(paths(&slow), [0, 0, 20]);
    let outcomes = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|l| !l.trim_start().starts_with("\"paths\""))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(outcomes(&fast), outcomes(&slow));

    let text = faults(&[]);
    assert!(
        text.contains(&format!(
            "runs answered    = {pruned} pruned, {forked} forked, {from_reset} from reset"
        )),
        "{text}"
    );
}
