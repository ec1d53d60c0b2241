//! E16 and the observability artifacts: the per-cause stall table,
//! the suite-wide profile/remarks/pessimism JSON documents CI uploads,
//! and the NullSink overhead measurement behind the perf gate.

use std::fmt::Write as _;
use std::time::Instant;

use patmos::compiler::{compile, compile_with_artifacts, CompileOptions};
use patmos::sim::{SimConfig, Simulator};
use patmos::trace::{cycles_by_pc, NullSink, Profile, StallCause, VecSink};
use patmos::wcet::{pessimism, Machine};
use patmos::workloads;

/// The options the observability artifacts are generated at: the full
/// loop-throughput pipeline, matching `opt3_cycles.json`.
fn opt3() -> CompileOptions {
    CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// E16 — cycle attribution: every kernel's cycles split into issue
/// cycles and the per-cause stall breakdown, with the reconciliation
/// check (`cycles == issue + stalls`) printed per row. The table runs
/// at the default pipeline, like the E2/E10 cycle tables.
pub fn exp_e16_observability() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E16: cycle attribution (issue + per-cause stalls; default pipeline)"
    )
    .ok();
    writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5}",
        "kernel", "cycles", "issue", "meth$", "data$", "stat$", "stack$", "split", "wbuf", "ok"
    )
    .ok();
    for w in workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("kernel compiles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        sim.run().expect("kernel runs");
        let s = sim.stats();
        let ok = s.cycles == s.issue_cycles + s.stalls.total();
        writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5}",
            w.name,
            s.cycles,
            s.issue_cycles,
            s.stalls.method_cache,
            s.stalls.data_cache,
            s.stalls.static_cache,
            s.stalls.stack_cache,
            s.stalls.split_load,
            s.stalls.write_buffer,
            ok
        )
        .ok();
    }
    out
}

/// Runs one kernel traced at `opt3/sched2` and folds the profile.
fn kernel_profile(source: &str) -> (Profile, patmos::asm::ObjectImage, VecSink) {
    let image = compile(source, &opt3()).expect("kernel compiles");
    let mut sim = Simulator::new(&image, SimConfig::default());
    let mut sink = VecSink::new();
    sim.run_traced(&mut sink).expect("kernel runs");
    let profile = Profile::build(&sink.events, &image);
    (profile, image, sink)
}

/// The suite-wide cycle-attribution profile as JSON: per kernel, the
/// issue/stall totals, the per-cause breakdown, and the per-loop rows
/// (source line, word span, cycles).
pub fn suite_profile_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/suite-profile/v1\",\n");
    out.push_str(
        "  \"description\": \"Per-kernel cycle attribution at opt_level 3 / sched_level 2: traced \
         simulation folded onto functions and source-mapped loops. Regenerate with: cargo run -p \
         patmos-bench --bin exp_e16_observability -- --profile-json\",\n",
    );
    out.push_str("  \"kernels\": {\n");
    let entries: Vec<String> = workloads::all()
        .iter()
        .map(|w| {
            let (p, _, _) = kernel_profile(&w.source);
            let mut e = format!(
                "    \"{}\": {{\n      \"cycles\": {},\n      \"issue_cycles\": {},\n      \
                 \"stall_cycles\": {},\n      \"stalls\": {{",
                w.name,
                p.total.total_cycles(),
                p.total.issue_cycles,
                p.total.stall_cycles()
            );
            for (i, cause) in StallCause::ALL.iter().enumerate() {
                if i > 0 {
                    e.push_str(", ");
                }
                let _ = write!(e, "\"{cause}\": {}", p.total.stall(*cause));
            }
            e.push_str("},\n      \"loops\": [");
            for (i, l) in p.loops.iter().enumerate() {
                if i > 0 {
                    e.push_str(", ");
                }
                let _ = write!(
                    e,
                    "{{\"line\": {}, \"start_word\": {}, \"end_word\": {}, \"cycles\": {}, \
                     \"issue\": {}, \"stall\": {}}}",
                    l.line,
                    l.start_word,
                    l.end_word,
                    l.cycles.total_cycles(),
                    l.cycles.issue_cycles,
                    l.cycles.stall_cycles()
                );
            }
            e.push_str("]\n    }");
            e
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Every kernel's optimization remarks at `opt3/sched2` as JSON: pass,
/// site, applied/missed, and the cost-model message.
pub fn suite_remarks_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/suite-remarks/v1\",\n");
    out.push_str(
        "  \"description\": \"Structured optimization remarks (inliner, LICM, unroller, modulo \
         scheduler) per kernel at opt_level 3 / sched_level 2. Regenerate with: cargo run -p \
         patmos-bench --bin exp_e16_observability -- --remarks-json\",\n",
    );
    out.push_str("  \"kernels\": {\n");
    let entries: Vec<String> = workloads::all()
        .iter()
        .map(|w| {
            let artifacts = compile_with_artifacts(&w.source, &opt3()).expect("kernel compiles");
            let opt_remarks = artifacts.opt.as_ref().map_or(&[][..], |r| &r.remarks);
            let rows: Vec<String> = opt_remarks
                .iter()
                .chain(&artifacts.sched.remarks)
                .map(|r| {
                    format!(
                        "      {{\"pass\": \"{}\", \"function\": \"{}\", \"site\": {}, \
                         \"applied\": {}, \"message\": \"{}\"}}",
                        escape(r.pass),
                        escape(&r.function),
                        r.site
                            .as_ref()
                            .map(|s| format!("\"{}\"", escape(s)))
                            .unwrap_or_else(|| "null".into()),
                        r.applied,
                        escape(&r.message)
                    )
                })
                .collect();
            format!("    \"{}\": [\n{}\n    ]", w.name, rows.join(",\n"))
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// The suite-wide WCET pessimism summary as JSON: per kernel, the
/// bound, the traced run's measured cycles, and the three loosest
/// blocks with their charges. Kernels the analysis rejects record the
/// error instead.
pub fn suite_pessimism_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/suite-pessimism/v1\",\n");
    out.push_str(
        "  \"description\": \"Per-kernel WCET pessimism at opt_level 3 / sched_level 2: the IPET \
         bound's per-block charges joined against a traced run, loosest blocks first. Regenerate \
         with: cargo run -p patmos-bench --bin exp_e16_observability -- --pessimism-json\",\n",
    );
    out.push_str("  \"kernels\": {\n");
    let entries: Vec<String> = workloads::all()
        .iter()
        .map(|w| {
            let (_, image, sink) = kernel_profile(&w.source);
            let measured = cycles_by_pc(&sink.events);
            match pessimism(&image, &Machine::Patmos(SimConfig::default()), &measured) {
                Ok(rep) => {
                    let top: Vec<String> = rep
                        .blocks
                        .iter()
                        .take(3)
                        .map(|b| {
                            format!(
                                "{{\"function\": \"{}\", \"start_word\": {}, \"charged\": {}, \
                                 \"measured\": {}, \"slack\": {}}}",
                                escape(&b.function),
                                b.start_word,
                                b.contribution,
                                b.measured,
                                b.slack
                            )
                        })
                        .collect();
                    format!(
                        "    \"{}\": {{\"bound\": {}, \"measured\": {}, \"loosest\": [{}]}}",
                        w.name,
                        rep.bound_cycles,
                        rep.measured_cycles,
                        top.join(", ")
                    )
                }
                Err(e) => format!(
                    "    \"{}\": {{\"error\": \"{}\"}}",
                    w.name,
                    escape(&e.to_string())
                ),
            }
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Measures the suite's wall-clock time untraced (`run`) and traced
/// through the compiled-out [`NullSink`], taking the best of `reps`
/// sweeps of all kernels each. Returns `(untraced_secs, nullsink_secs,
/// overhead_fraction)`; the fraction is the gate's subject — NullSink
/// instrumentation must monomorphize away (< 1% in release builds).
pub fn trace_overhead(reps: u32) -> (f64, f64, f64) {
    let images: Vec<patmos::asm::ObjectImage> = workloads::all()
        .iter()
        .map(|w| compile(&w.source, &CompileOptions::default()).expect("kernel compiles"))
        .collect();

    // One suite pass is a millisecond or two — enough above timer
    // resolution to time individually. The passes of the two engines
    // are *interleaved* (plain, null, plain, null, …) and each side
    // keeps its minimum: on a host whose clock wobbles over the
    // process lifetime (thermal throttling, noisy shared runners),
    // interleaving makes both sides sample the same slow and fast
    // epochs, so the minima stay comparable where two long
    // back-to-back blocks would not be.
    const INNER: u32 = 25;
    let pass_plain = || {
        let start = Instant::now();
        for image in &images {
            let mut sim = Simulator::new(image, SimConfig::default());
            sim.run().expect("kernel runs");
        }
        start.elapsed().as_secs_f64()
    };
    let pass_null = || {
        let start = Instant::now();
        for image in &images {
            let mut sim = Simulator::new(image, SimConfig::default());
            sim.run_traced(&mut NullSink).expect("kernel runs");
        }
        start.elapsed().as_secs_f64()
    };

    // Warm up once, then take the minimum — the least-noisy estimator
    // for a deterministic workload.
    pass_plain();
    pass_null();
    let mut plain = f64::INFINITY;
    let mut null = f64::INFINITY;
    for _ in 0..reps.max(1) * INNER {
        plain = plain.min(pass_plain());
        null = null.min(pass_null());
    }
    // Scale the per-pass minima back up to suite-sweep magnitudes so
    // the gate's printed numbers stay comparable across history.
    (
        plain * INNER as f64,
        null * INNER as f64,
        null / plain - 1.0,
    )
}

/// Measures the cost of the unarmed fault-injection hook: the suite
/// with `fast_path: false` and `faults: None` against the same runs
/// with an armed-but-empty [`patmos::sim::FaultPlan`]. Both sides step
/// every bundle (an armed plan rules out bursts), so the delta isolates
/// the per-bundle fault checks on the one general step. Returns
/// `(unarmed_secs, armed_empty_secs, overhead_fraction)`.
///
/// Bursts are untouched by construction: with `faults: None` the hook
/// is a single `Option` test on a field the engine choice already
/// reads, and unarmed runs never enter the fault-servicing code at all.
pub fn faults_overhead(reps: u32) -> (f64, f64, f64) {
    let images: Vec<patmos::asm::ObjectImage> = workloads::all()
        .iter()
        .map(|w| compile(&w.source, &CompileOptions::default()).expect("kernel compiles"))
        .collect();

    let reference = SimConfig {
        fast_path: false,
        ..SimConfig::default()
    };
    let armed = SimConfig {
        faults: Some(patmos::sim::FaultPlan { injections: vec![] }),
        ..reference.clone()
    };

    const INNER: u32 = 25;
    let pass = |config: &SimConfig| {
        let start = Instant::now();
        for image in &images {
            let mut sim = Simulator::new(image, config.clone());
            sim.run().expect("kernel runs");
        }
        start.elapsed().as_secs_f64()
    };

    // Same interleaved-minimum protocol as [`trace_overhead`].
    pass(&reference);
    pass(&armed);
    let mut unarmed = f64::INFINITY;
    let mut hooked = f64::INFINITY;
    for _ in 0..reps.max(1) * INNER {
        unarmed = unarmed.min(pass(&reference));
        hooked = hooked.min(pass(&armed));
    }
    (
        unarmed * INNER as f64,
        hooked * INNER as f64,
        hooked / unarmed - 1.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_reconciles_every_kernel() {
        let report = exp_e16_observability();
        assert!(
            !report.contains("false"),
            "a kernel's stall breakdown does not pin to its cycle count:\n{report}"
        );
    }

    #[test]
    fn artifacts_are_valid_json_shapes() {
        // Cheap structural checks; the full documents are exercised by
        // the CI artifact step.
        let remarks = suite_remarks_json();
        assert!(remarks.contains("\"schema\": \"patmos-bench/suite-remarks/v1\""));
        assert!(remarks.contains("\"pass\": \"unroll\""));
        assert!(remarks.contains("\"pass\": \"modulo-sched\""));
        assert_eq!(remarks.matches('{').count(), remarks.matches('}').count());
    }
}
