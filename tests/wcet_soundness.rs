//! The headline invariant of the whole system, checked across a sweep of
//! machine configurations: **the static WCET bound covers every observed
//! execution**. This ties together the compiler, the assembler, the
//! cycle-accurate simulator, the cache models, the TDMA arbiter, and the
//! IPET solver.

use std::collections::HashMap;

use patmos::compiler::{compile, CompileOptions};
use patmos::mem::{MemConfig, MethodCacheConfig, ReplacementPolicy, TdmaArbiter};
use patmos::sim::{CacheParams, SimConfig, Simulator};
use patmos::wcet::{analyze, pessimism, Machine};
use patmos::Policy;
use proptest::prelude::*;

fn config_variants() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::default();
    let mut tiny_caches = base.clone();
    tiny_caches.method_cache = MethodCacheConfig::new(2, 32, ReplacementPolicy::Fifo);
    tiny_caches.stack_cache_words = 8;
    tiny_caches.data_cache = CacheParams::new(1, 2, 4, ReplacementPolicy::Lru);
    tiny_caches.static_cache = CacheParams::new(2, 1, 4, ReplacementPolicy::Lru);

    let mut slow_mem = base.clone();
    slow_mem.mem = MemConfig::new(20, 4);

    let mut single_issue = base.clone();
    single_issue.dual_issue = false;

    let mut tdma4 = base.clone();
    tdma4.tdma = Some((TdmaArbiter::new(4, 64), 2));

    vec![
        ("default", base),
        ("tiny-caches", tiny_caches),
        ("slow-memory", slow_mem),
        ("single-issue", single_issue),
        ("tdma-4-cores", tdma4),
    ]
}

#[test]
fn bound_covers_observed_across_configs_and_kernels() {
    for (cfg_name, config) in config_variants() {
        for w in patmos::workloads::all() {
            let compile_opts = CompileOptions {
                dual_issue: config.dual_issue,
                ..CompileOptions::default()
            };
            let image = compile(&w.source, &compile_opts).expect("compiles");
            let report = analyze(&image, &Machine::Patmos(config.clone()))
                .unwrap_or_else(|e| panic!("{cfg_name}/{}: analysis failed: {e}", w.name));
            let mut sim = Simulator::new(&image, config.clone());
            let observed = sim
                .run()
                .unwrap_or_else(|e| panic!("{cfg_name}/{}: run failed: {e}", w.name))
                .stats
                .cycles;
            assert!(
                report.bound_cycles >= observed,
                "{cfg_name}/{}: bound {} < observed {}",
                w.name,
                report.bound_cycles,
                observed
            );
        }
    }
}

#[test]
fn bound_covers_observed_at_every_opt_level() {
    // The mid-end rewrites the code the IPET analysis sees; soundness
    // must survive it — including level 2, where inlining copies
    // `.loopbound` annotations into callers and unrolling removes
    // loops outright, and level 3, where partial unrolling tightens
    // bounds on surviving loops and splits runtime-trip loops into a
    // main/remainder pair. Sweep the whole suite at every optimization
    // level, in both branching and single-path mode.
    for opt_level in [0u8, 1, 2, 3] {
        for single_path in [false, true] {
            for w in patmos::workloads::all() {
                let options = CompileOptions {
                    opt_level,
                    single_path,
                    ..CompileOptions::default()
                };
                let image = match compile(&w.source, &options) {
                    Ok(image) => image,
                    // Some kernels legitimately reject single-path
                    // conversion (calls inside converted regions).
                    Err(_) if single_path => continue,
                    Err(e) => panic!("O{opt_level}/{}: compile failed: {e}", w.name),
                };
                let report = analyze(&image, &Machine::Patmos(SimConfig::default()))
                    .unwrap_or_else(|e| panic!("O{opt_level}/{}: analysis failed: {e}", w.name));
                let mut sim = Simulator::new(&image, SimConfig::default());
                let run = sim
                    .run()
                    .unwrap_or_else(|e| panic!("O{opt_level}/{}: run failed: {e}", w.name));
                assert_eq!(
                    sim.reg(patmos::isa::Reg::R1),
                    w.expected,
                    "O{opt_level}/single_path={single_path}/{}: wrong result",
                    w.name
                );
                assert!(
                    report.bound_cycles >= run.stats.cycles,
                    "O{opt_level}/single_path={single_path}/{}: bound {} < observed {}",
                    w.name,
                    report.bound_cycles,
                    run.stats.cycles
                );
            }
        }
    }
}

#[test]
fn bound_covers_observed_at_every_sched_level() {
    // The DAG scheduler reorders code and fills delay slots with real
    // work, and the modulo scheduler (level 2) restructures whole
    // loops into guard/prologue/kernel/epilogue/fallback chains with
    // fresh `.loopbound` annotations; the IPET analysis sees whatever
    // was emitted, and soundness must survive it — in branching and
    // single-path mode, at every scheduler level, with the results
    // staying correct.
    for sched_level in [1u8, 2] {
        for single_path in [false, true] {
            for w in patmos::workloads::all() {
                let options = CompileOptions {
                    sched_level,
                    single_path,
                    ..CompileOptions::default()
                };
                let image = match compile(&w.source, &options) {
                    Ok(image) => image,
                    // Some kernels legitimately reject single-path
                    // conversion (calls inside converted regions).
                    Err(_) if single_path => continue,
                    Err(e) => panic!("S{sched_level}/{}: compile failed: {e}", w.name),
                };
                let report = analyze(&image, &Machine::Patmos(SimConfig::default()))
                    .unwrap_or_else(|e| panic!("S{sched_level}/{}: analysis failed: {e}", w.name));
                let mut sim = Simulator::new(&image, SimConfig::default());
                let run = sim
                    .run()
                    .unwrap_or_else(|e| panic!("S{sched_level}/{}: run failed: {e}", w.name));
                assert_eq!(
                    sim.reg(patmos::isa::Reg::R1),
                    w.expected,
                    "S{sched_level}/single_path={single_path}/{}: wrong result",
                    w.name
                );
                assert!(
                    report.bound_cycles >= run.stats.cycles,
                    "S{sched_level}/single_path={single_path}/{}: bound {} < observed {}",
                    w.name,
                    report.bound_cycles,
                    run.stats.cycles
                );
            }
        }
    }
}

#[test]
fn loop_aware_mid_end_keeps_wcet_pessimism_pinned() {
    // The historical opt2 flip characterisation, pinned at its own
    // levels (`sched_level` 1 — the default when the flip landed).
    // Inlining, LICM and unrolling may not make the bound/observed
    // ratio of any kernel more than 25% worse than the scalar
    // mid-end's, and at most 5% worse across the suite (measured:
    // worst +11% on `dotprod`, geomean +1%).
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for w in patmos::workloads::all() {
        let mut pessimism = Vec::new();
        for opt_level in [1u8, 2] {
            let options = CompileOptions {
                opt_level,
                sched_level: 1,
                ..CompileOptions::default()
            };
            let image = compile(&w.source, &options).expect("compiles");
            let report = analyze(&image, &Machine::Patmos(SimConfig::default())).expect("analyses");
            let mut sim = Simulator::new(&image, SimConfig::default());
            let observed = sim.run().expect("runs").stats.cycles;
            pessimism.push(report.pessimism(observed));
        }
        let delta = pessimism[1] / pessimism[0];
        assert!(
            delta <= 1.25,
            "{}: level 2 pessimism {:.2}x is more than 25% above level 1's {:.2}x",
            w.name,
            pessimism[1],
            pessimism[0]
        );
        log_sum += delta.ln();
        n += 1;
    }
    let geomean = (log_sum / n as f64).exp();
    assert!(
        geomean <= 1.05,
        "suite geomean pessimism delta {geomean:.3} exceeds the 5% pin"
    );
}

#[test]
fn default_flip_keeps_wcet_pessimism_pinned() {
    // The opt3/sched2 default flip, characterised the same way the
    // opt2 flip was: against the previous default (opt2/sched1), the
    // bound/observed ratio of any kernel may grow at most 40% — the
    // software-pipelined fallback still costs guard-threshold trips
    // of slack on runtime-trip loops — and at most 5% across the
    // suite (measured: geomean +1.1%): the `.pipeloop` cost model
    // pays for nearly all of the flip.
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for w in patmos::workloads::all() {
        let mut pessimism = Vec::new();
        for (opt_level, sched_level) in [(2u8, 1u8), (3, 2)] {
            let options = CompileOptions {
                opt_level,
                sched_level,
                ..CompileOptions::default()
            };
            let image = compile(&w.source, &options).expect("compiles");
            let report = analyze(&image, &Machine::Patmos(SimConfig::default())).expect("analyses");
            let mut sim = Simulator::new(&image, SimConfig::default());
            let observed = sim.run().expect("runs").stats.cycles;
            pessimism.push(report.pessimism(observed));
        }
        let delta = pessimism[1] / pessimism[0];
        assert!(
            delta <= 1.40,
            "{}: opt3/sched2 pessimism {:.2}x is more than 40% above opt2/sched1's {:.2}x",
            w.name,
            pessimism[1],
            pessimism[0]
        );
        log_sum += delta.ln();
        n += 1;
    }
    let geomean = (log_sum / n as f64).exp();
    assert!(
        geomean <= 1.05,
        "suite geomean pessimism delta {geomean:.3} exceeds the 5% pin"
    );
}

#[test]
fn patmos_bounds_are_reasonably_tight_on_default_config() {
    // Tightness is the paper's selling point; enforce a global sanity
    // ceiling on the pessimism ratio for the default machine.
    let mut worst: (f64, &str) = (0.0, "");
    for w in patmos::workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let report = analyze(&image, &Machine::Patmos(SimConfig::default())).expect("analyses");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let observed = sim.run().expect("runs").stats.cycles;
        let ratio = report.pessimism(observed);
        if ratio > worst.0 {
            worst = (ratio, w.name);
        }
    }
    assert!(
        worst.0 < 4.0,
        "worst pessimism {:.2} on `{}` exceeds the sanity ceiling",
        worst.0,
        worst.1
    );
}

/// Renders a small PatC program with a doubly nested bounded loop, a
/// data-dependent branch, and arithmetic whose shape the generated
/// parameters vary — enough surface for the mid-end (unrolling both
/// loops or neither), the modulo scheduler (pipelining the inner
/// loop), and if-conversion to all make different decisions.
fn generated_program(outer: u32, inner: u32, k: i32, pivot: i32, accumulate: bool) -> String {
    let body = if accumulate {
        "a = a + b * c;"
    } else {
        "a = (a << 1) ^ i;"
    };
    format!(
        "int main() {{\n\
         \tint a = 1;\n\
         \tint b = {k};\n\
         \tint c = 0;\n\
         \tint i;\n\
         \tint j;\n\
         \tfor (i = 0; i < {outer}; i = i + 1) bound({outer}) {{\n\
         \t\t{body}\n\
         \t\tif (a < {pivot}) {{\n\
         \t\t\tb = b + 1;\n\
         \t\t}} else {{\n\
         \t\t\tc = c + a;\n\
         \t\t}}\n\
         \t\tfor (j = 0; j < {inner}; j = j + 1) bound({inner}) {{\n\
         \t\t\tc = c + b;\n\
         \t\t}}\n\
         \t}}\n\
         \treturn (a ^ b) ^ c;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The headline invariant and the pessimism report's accounting
    /// identity, swept over *generated* programs across every compiler
    /// configuration axis: opt 0–3 × sched 1–2 × both register
    /// policies × branching/single-path. `measured ≤ bound` must hold
    /// everywhere, and the per-block self-cost charges plus warm-up
    /// must reconstruct the bound exactly on every config — not just
    /// on the hand-picked kernel suite.
    #[test]
    fn generated_programs_stay_sound_and_accounted_on_every_config(
        outer in 1u32..10,
        inner in 1u32..8,
        k in -20i32..20,
        pivot in -50i32..50,
        accumulate in any::<bool>(),
    ) {
        let source = generated_program(outer, inner, k, pivot, accumulate);
        for opt_level in [0u8, 1, 2, 3] {
            for sched_level in [1u8, 2] {
                for reg_policy in [Policy::Linear, Policy::Loop] {
                    for single_path in [false, true] {
                        let options = CompileOptions {
                            opt_level,
                            sched_level,
                            reg_policy,
                            single_path,
                            ..CompileOptions::default()
                        };
                        let image = match compile(&source, &options) {
                            Ok(image) => image,
                            // Some shapes legitimately reject
                            // single-path conversion.
                            Err(_) if single_path => continue,
                            Err(e) => panic!(
                                "O{opt_level}/S{sched_level}: compile failed: {e}\n{source}"
                            ),
                        };
                        let label = format!(
                            "O{opt_level}/S{sched_level}/{reg_policy:?}/single_path={single_path}"
                        );
                        let report = analyze(&image, &Machine::Patmos(SimConfig::default()))
                            .unwrap_or_else(|e| panic!("{label}: analysis failed: {e}\n{source}"));
                        let mut sim = Simulator::new(&image, SimConfig::default());
                        let observed = sim
                            .run()
                            .unwrap_or_else(|e| panic!("{label}: run failed: {e}\n{source}"))
                            .stats
                            .cycles;
                        prop_assert!(
                            report.bound_cycles >= observed,
                            "{}: bound {} < observed {}\n{}",
                            label, report.bound_cycles, observed, source
                        );
                        let breakdown =
                            pessimism(&image, &Machine::Patmos(SimConfig::default()), &HashMap::new())
                                .unwrap_or_else(|e| panic!("{label}: pessimism failed: {e}"));
                        prop_assert_eq!(breakdown.bound_cycles, report.bound_cycles);
                        let charged: u64 = breakdown.blocks.iter().map(|b| b.contribution).sum();
                        prop_assert_eq!(
                            charged + breakdown.warmup_cycles,
                            breakdown.bound_cycles,
                            "{}: self-cost sum + warm-up must equal the bound\n{}",
                            label, source
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Soundness holds for random memory timings and TDMA shapes.
    #[test]
    fn bound_covers_observed_for_random_machines(
        latency in 1u32..24,
        per_word in 1u32..5,
        cores in 1u32..5,
        kernel_idx in 0usize..4,
    ) {
        let kernels = ["fibcall", "crc", "binsearch", "statemach"];
        let w = patmos::workloads::by_name(kernels[kernel_idx]).expect("exists");
        let mut config = SimConfig { mem: MemConfig::new(latency, per_word), ..SimConfig::default() };
        // Slot must fit a full line burst.
        let slot = config.mem.burst_cycles(8).max(config.mem.burst_cycles(1)) + 4;
        config.tdma = Some((TdmaArbiter::new(cores, slot), cores - 1));
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let report = analyze(&image, &Machine::Patmos(config.clone())).expect("analyses");
        let mut sim = Simulator::new(&image, config);
        let observed = sim.run().expect("runs").stats.cycles;
        prop_assert!(
            report.bound_cycles >= observed,
            "bound {} < observed {}", report.bound_cycles, observed
        );
    }
}
