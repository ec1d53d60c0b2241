//! `patmos-cli compile --time-passes` prints the mid-end's own work to
//! stderr: one row per pass and then how many analyses the
//! per-function cache built and kept across an edit, then one row each
//! for the list and the modulo scheduler. The rows and counts must agree with the library's
//! `OptReport` and `SchedReport` for the same compile; the times are
//! host dependent and not checked.

use std::process::Command;

use patmos::compiler::{compile_with_artifacts, CompileOptions};
use patmos::sched::SchedReport;

const SOURCE: &str = "int a[8]; int main() { int i; int s = 0; \
    for (i = 0; i < 8; i = i + 1) bound(8) { a[i] = i * 3; s = s + a[i]; } return s; }";

/// The `(pass, applications, changes)` rows of a `--time-passes`
/// table.
fn rows(stderr: &str) -> Vec<(String, u32, u32)> {
    stderr
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                [pass, applications, changes, _micros, share] if share.ends_with('%') => Some((
                    pass.to_string(),
                    applications.parse().ok()?,
                    changes.parse().ok()?,
                )),
                _ => None,
            }
        })
        .collect()
}

/// The two scheduler rows `report` must produce, up to their host
/// times.
fn scheduler_rows(report: &SchedReport) -> [String; 2] {
    [
        format!(
            "list scheduler: {} block(s), {} op(s), {} edge(s), ",
            report.dags, report.dag_ops, report.dag_edges
        ),
        format!(
            "modulo scheduler: {} loop(s) tried, {} pipelined, {} II(s) tried, {} placement(s), ",
            report.loops_tried(),
            report.pipelined_loops().count(),
            report.ii_tried,
            report.placements
        ),
    ]
}

/// Whether `stderr` has a line of `prefix` and a host time in µs.
fn has_row(stderr: &str, prefix: &str) -> bool {
    stderr.lines().any(|line| {
        line.strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(" µs"))
            .is_some_and(|micros| micros.parse::<f64>().is_ok())
    })
}

#[test]
fn time_passes_prints_every_pass_and_the_cache_builds() {
    let dir = std::env::temp_dir().join(format!("patmos-cli-time-passes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("smoke.patc");
    std::fs::write(&path, SOURCE).expect("write source");
    let cli = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_patmos-cli"))
            .arg("compile")
            .arg(&path)
            .args(extra)
            .output()
            .expect("patmos-cli runs")
    };

    let out = cli(&["--time-passes"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains(".func main"),
        "the assembly still goes to stdout"
    );

    let artifacts = compile_with_artifacts(SOURCE, &CompileOptions::default()).expect("compiles");
    let report = artifacts.opt.expect("the default options run the mid-end");
    let want: Vec<(String, u32, u32)> = (report.passes.iter())
        .map(|p| (p.pass.to_string(), p.applications, p.changes))
        .collect();
    let got = rows(&stderr);
    assert_eq!(got, want, "{stderr}");
    let names: Vec<&str> = got.iter().map(|(pass, ..)| pass.as_str()).collect();
    assert_eq!(
        names,
        [
            "inline",
            "const-prop",
            "strength-reduce",
            "cse",
            "licm",
            "copy-prop",
            "copy-prop-global",
            "dce",
            "unroll",
        ],
        "every pass of the default pipeline has a row, in the order it first ran"
    );
    let b = report.builds;
    assert!(b.cfgs > 0 && b.loop_forests > 0 && b.liveness > 0, "{b:?}");
    assert!(b.cfgs_kept > 0 && b.loop_forests_kept > 0, "{b:?}");
    let builds = format!(
        "analyses built: {} CFG(s), {} dominator tree / loop forest(s), {} liveness solve(s); \
         kept across an edit: {} CFG(s), {} dominator tree / loop forest(s)",
        b.cfgs, b.loop_forests, b.liveness, b.cfgs_kept, b.loop_forests_kept
    );
    assert!(stderr.lines().any(|l| l == builds), "{stderr}");

    // The scheduler rows follow the mid-end's, with the library's
    // counts; the modulo scheduler tries the loop at the default levels.
    let sched = &artifacts.sched;
    assert!(sched.dags > 0 && sched.dag_edges > 0, "{sched:?}");
    assert_eq!(sched.loops_tried(), 1, "{sched:?}");
    for row in scheduler_rows(sched) {
        assert!(has_row(&stderr, &row), "no `{row}` row in {stderr}");
    }
    let at = |prefix: &str| stderr.lines().position(|l| l.starts_with(prefix));
    assert!(at("analyses built:") < at("list scheduler:"), "{stderr}");
    assert!(at("list scheduler:") < at("modulo scheduler:"), "{stderr}");

    // Without the mid-end there is nothing to time.
    let out = cli(&["--time-passes", "--opt-level", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(rows(&stderr).is_empty(), "{stderr}");
    assert!(
        stderr.contains("mid-end disabled (opt-level 0)"),
        "{stderr}"
    );
    // The schedulers still run, and report.
    let options = CompileOptions {
        opt_level: 0,
        ..CompileOptions::default()
    };
    let sched = compile_with_artifacts(SOURCE, &options)
        .expect("compiles")
        .sched;
    for row in scheduler_rows(&sched) {
        assert!(has_row(&stderr, &row), "no `{row}` row in {stderr}");
    }
}
