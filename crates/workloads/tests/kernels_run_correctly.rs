//! Every kernel compiles, runs to completion on the strict simulator,
//! matches its Rust reference result — under every compiler mode — and
//! respects the WCET soundness invariant.

use patmos_compiler::{compile, CompileOptions};
use patmos_isa::Reg;
use patmos_sim::{SimConfig, Simulator};
use patmos_wcet::{analyze, Machine};

fn run_with(source: &str, options: &CompileOptions) -> (u32, u64) {
    let image = compile(source, options).expect("kernel compiles");
    let mut sim = Simulator::new(&image, SimConfig::default());
    let result = sim.run().expect("kernel runs under strict timing checks");
    (sim.reg(Reg::R1), result.stats.cycles)
}

#[test]
fn kernels_match_reference_default_options() {
    for w in patmos_workloads::all() {
        let (got, _) = run_with(&w.source, &CompileOptions::default());
        assert_eq!(got, w.expected, "{} produced a wrong result", w.name);
    }
}

#[test]
fn kernels_match_reference_without_if_conversion() {
    let options = CompileOptions {
        if_convert: false,
        ..CompileOptions::default()
    };
    for w in patmos_workloads::all() {
        let (got, _) = run_with(&w.source, &options);
        assert_eq!(got, w.expected, "{} (no if-conversion)", w.name);
    }
}

#[test]
fn kernels_match_reference_single_issue() {
    let options = CompileOptions {
        dual_issue: false,
        ..CompileOptions::default()
    };
    for w in patmos_workloads::all() {
        let (got, cycles_single) = run_with(&w.source, &options);
        assert_eq!(got, w.expected, "{} (single issue)", w.name);
        let (_, cycles_dual) = run_with(&w.source, &CompileOptions::default());
        // Dual issue must not be dramatically slower anywhere.
        assert!(
            cycles_dual <= cycles_single + cycles_single / 10 + 8,
            "{}: dual {} vs single {}",
            w.name,
            cycles_dual,
            cycles_single
        );
    }
}

#[test]
fn stencil_kernel_is_correct_and_profits_from_the_mid_end() {
    // The 2-D stencil re-spells `i * 8 + j` five times per iteration;
    // it must be correct in strict mode at both optimization levels,
    // and the mid-end must visibly pay for itself on it.
    let w = patmos_workloads::stencil2d();
    let (got_o0, cycles_o0) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 0,
            ..CompileOptions::default()
        },
    );
    let (got_o1, cycles_o1) = run_with(&w.source, &CompileOptions::default());
    assert_eq!(got_o0, w.expected, "stencil2d wrong at opt-level 0");
    assert_eq!(got_o1, w.expected, "stencil2d wrong at opt-level 1");
    assert!(
        cycles_o1 * 10 <= cycles_o0 * 9,
        "mid-end must cut at least 10% off the stencil: {cycles_o0} -> {cycles_o1}"
    );
}

#[test]
fn sort8_is_correct_in_strict_mode_and_profits_from_delay_filling() {
    // The branch-heavy insertion sort spends most of its cycles within
    // two bundles of a conditional branch; it must stay correct under
    // strict timing checks, and the DAG scheduler's delay-slot filling
    // must visibly pay for itself against the run scheduler it
    // replaced, whose cycle count is frozen as `sched0_cycles` in
    // crates/bench/baselines/sched_cycles.json. Pinned to `opt_level`
    // 1 — the pipeline this gate was introduced against (the
    // loop-aware mid-end reshapes the loops).
    const SORT8_SCHED0_CYCLES: u64 = 983;
    let w = patmos_workloads::sort8();
    let (got_s1, cycles_s1) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 1,
            sched_level: 1,
            ..CompileOptions::default()
        },
    );
    assert_eq!(got_s1, w.expected, "sort8 wrong at sched-level 1");
    assert!(
        cycles_s1 * 10 <= SORT8_SCHED0_CYCLES * 9,
        "delay-slot filling must cut at least 10% off sort8: \
         {SORT8_SCHED0_CYCLES} -> {cycles_s1}"
    );
}

#[test]
fn kernels_match_reference_at_the_loop_aware_opt_level() {
    // Inlining, LICM and unrolling rewrite control flow; every kernel
    // must still be correct under strict timing checks at opt_level 2.
    let options = CompileOptions {
        opt_level: 2,
        ..CompileOptions::default()
    };
    for w in patmos_workloads::all() {
        let (got, _) = run_with(&w.source, &options);
        assert_eq!(got, w.expected, "{} (opt_level 2)", w.name);
    }
}

#[test]
fn matvec_kernel_is_correct_and_profits_from_the_loop_aware_mid_end() {
    // The matrix–vector nest is the loop-aware mid-end's showcase: the
    // inner product unrolls fully and the row bases hoist. It must be
    // correct in strict mode at both levels, and LICM + unrolling must
    // cut at least 10% of its cycles.
    let w = patmos_workloads::matvec8();
    let (got_o1, cycles_o1) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 1,
            ..CompileOptions::default()
        },
    );
    let (got_o2, cycles_o2) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 2,
            ..CompileOptions::default()
        },
    );
    assert_eq!(got_o1, w.expected, "matvec8 wrong at opt-level 1");
    assert_eq!(got_o2, w.expected, "matvec8 wrong at opt-level 2");
    assert!(
        cycles_o2 * 10 <= cycles_o1 * 9,
        "LICM + unrolling must cut at least 10% off matvec8: {cycles_o1} -> {cycles_o2}"
    );
}

#[test]
fn kernels_match_reference_at_the_loop_throughput_level() {
    // Partial unrolling rewrites loop structure and the modulo
    // scheduler overlaps iterations; every kernel must still be
    // correct under strict timing checks at `opt_level` 3 /
    // `sched_level` 2 — the strict simulator doubles as the timing
    // oracle for the pipelined kernels.
    let options = CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    };
    for w in patmos_workloads::all() {
        let (got, _) = run_with(&w.source, &options);
        assert_eq!(got, w.expected, "{} (opt3/sched2)", w.name);
    }
}

#[test]
fn dotprod64_profits_from_the_loop_throughput_pipeline() {
    // The runtime-trip dot product is the remainder partial unroller's
    // showcase: no compile-time pass can count its loop, so `opt_level`
    // 2 leaves it rolled. Factor-4 unrolling with a scalar remainder
    // must cut at least 10% of its cycles at `opt3/sched2`.
    let w = patmos_workloads::dotprod64();
    let (got_base, cycles_base) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 2,
            sched_level: 1,
            ..CompileOptions::default()
        },
    );
    let (got_pipe, cycles_pipe) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 3,
            sched_level: 2,
            ..CompileOptions::default()
        },
    );
    assert_eq!(got_base, w.expected, "dotprod64 wrong at opt2/sched1");
    assert_eq!(got_pipe, w.expected, "dotprod64 wrong at opt3/sched2");
    assert!(
        cycles_pipe * 10 <= cycles_base * 9,
        "partial unrolling must cut at least 10% off dotprod64: {cycles_base} -> {cycles_pipe}"
    );
}

#[test]
fn cnt2d_profits_from_the_loop_throughput_pipeline() {
    // The 16×32 grid count's inner loop blows the full-unroll budget;
    // the divisor scheme replicates its body 16-fold and must cut at
    // least 10% of the kernel's cycles at `opt3/sched2`.
    let w = patmos_workloads::cnt2d();
    let (got_base, cycles_base) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 2,
            sched_level: 1,
            ..CompileOptions::default()
        },
    );
    let (got_pipe, cycles_pipe) = run_with(
        &w.source,
        &CompileOptions {
            opt_level: 3,
            sched_level: 2,
            ..CompileOptions::default()
        },
    );
    assert_eq!(got_base, w.expected, "cnt2d wrong at opt2/sched1");
    assert_eq!(got_pipe, w.expected, "cnt2d wrong at opt3/sched2");
    assert!(
        cycles_pipe * 10 <= cycles_base * 9,
        "divisor unrolling must cut at least 10% off cnt2d: {cycles_base} -> {cycles_pipe}"
    );
}

#[test]
fn register_pressure_kernel_stays_in_registers() {
    // The unrolled FIR-8 keeps >10 values live at once; the allocator
    // must still fit the window in registers: correct result, strict
    // timing, and zero stack-cache traffic (no spills, no calls).
    let w = patmos_workloads::pressure_fir8();
    let image = compile(&w.source, &CompileOptions::default()).expect("fir8 compiles");
    let mut sim = Simulator::new(&image, SimConfig::default());
    sim.run().expect("fir8 runs under strict timing checks");
    assert_eq!(sim.reg(Reg::R1), w.expected, "fir8 produced a wrong result");
    assert_eq!(
        sim.stats().stack_ops,
        0,
        "fir8's register window must not spill to the stack cache"
    );
}

#[test]
fn wcet_bound_covers_every_kernel() {
    for w in patmos_workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let report = analyze(&image, &Machine::Patmos(SimConfig::default()))
            .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", w.name));
        let mut sim = Simulator::new(&image, SimConfig::default());
        let observed = sim.run().expect("runs").stats.cycles;
        assert!(
            report.bound_cycles >= observed,
            "{}: bound {} < observed {}",
            w.name,
            report.bound_cycles,
            observed
        );
    }
}
