//! Suite-wide observability invariants: the trace stream reconciles
//! exactly with the simulator's counters on every kernel, tracing never
//! perturbs execution, and the profiler/pessimism acceptance numbers of
//! the cycle-attribution layer hold against the pinned baselines.

use patmos::compiler::{compile, compile_with_artifacts, CompileOptions};
use patmos::sim::{SimConfig, Simulator};
use patmos::trace::{cycles_by_pc, EventTotals, Profile, VecSink};
use patmos::wcet::{pessimism, Machine};
use patmos::workloads;
use patmos_bench::opt3_baseline;

fn opt3() -> CompileOptions {
    CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    }
}

/// Every kernel in the suite: the traced event stream must reproduce
/// the simulator's counter set exactly — cycles, issue cycles, the
/// per-cause stall breakdown, execution counters, and the per-cache
/// hit/miss/traffic numbers.
#[test]
fn trace_reconciles_with_stats_on_every_kernel() {
    for w in workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("kernel compiles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let mut sink = VecSink::new();
        sim.run_traced(&mut sink).expect("kernel runs");
        let s = sim.stats();
        let t = EventTotals::from_events(&sink.events);

        assert_eq!(t.cycles, s.cycles, "{}: cycles", w.name);
        assert_eq!(t.issue_cycles, s.issue_cycles, "{}: issue", w.name);
        assert_eq!(t.bundles, s.bundles, "{}: bundles", w.name);
        assert_eq!(t.insts_executed, s.insts_executed, "{}: executed", w.name);
        assert_eq!(t.insts_annulled, s.insts_annulled, "{}: annulled", w.name);
        assert_eq!(t.nops, s.nops, "{}: nops", w.name);
        assert_eq!(t.second_slots_used, s.second_slots_used, "{}", w.name);
        assert_eq!(t.nop_bundles, s.nop_bundles, "{}: nop bundles", w.name);
        assert_eq!(t.taken_branches, s.taken_branches, "{}: taken", w.name);
        assert_eq!(t.untaken_branches, s.untaken_branches, "{}", w.name);
        assert_eq!(t.calls, s.calls, "{}: calls", w.name);
        assert_eq!(t.returns, s.returns, "{}: returns", w.name);
        assert_eq!(t.stack_ops, s.stack_ops, "{}: stack ops", w.name);
        assert_eq!(t.stall_method_cache, s.stalls.method_cache, "{}", w.name);
        assert_eq!(t.stall_data_cache, s.stalls.data_cache, "{}", w.name);
        assert_eq!(t.stall_static_cache, s.stalls.static_cache, "{}", w.name);
        assert_eq!(t.stall_stack_cache, s.stalls.stack_cache, "{}", w.name);
        assert_eq!(t.stall_split_load, s.stalls.split_load, "{}", w.name);
        assert_eq!(t.stall_write_buffer, s.stalls.write_buffer, "{}", w.name);
        assert_eq!(t.tdma_wait, s.stalls.tdma_wait, "{}: tdma", w.name);
        assert_eq!(t.method_accesses, s.method_cache.accesses, "{}", w.name);
        assert_eq!(t.method_hits, s.method_cache.hits, "{}", w.name);
        assert_eq!(t.method_misses, s.method_cache.misses, "{}", w.name);
        assert_eq!(t.data_accesses, s.data_cache.accesses, "{}", w.name);
        assert_eq!(t.data_hits, s.data_cache.hits, "{}", w.name);
        assert_eq!(t.data_misses, s.data_cache.misses, "{}", w.name);
        assert_eq!(t.static_accesses, s.static_cache.accesses, "{}", w.name);
        assert_eq!(t.static_hits, s.static_cache.hits, "{}", w.name);
        assert_eq!(t.static_misses, s.static_cache.misses, "{}", w.name);
        assert_eq!(t.stack_accesses, s.stack_cache.accesses, "{}", w.name);
        assert_eq!(t.stack_hits, s.stack_cache.hits, "{}", w.name);
        assert_eq!(t.stack_misses, s.stack_cache.misses, "{}", w.name);

        // The "no hidden state" invariant, per kernel.
        assert_eq!(
            s.cycles,
            s.issue_cycles + s.stalls.total(),
            "{}: cycles must equal issue + stalls",
            w.name
        );
    }
}

/// Tracing must be invisible: an untraced run and two traced runs of
/// the same kernel produce the same result register, the same counter
/// set, and bit-identical event streams.
#[test]
fn traced_runs_are_bit_identical() {
    for w in workloads::all() {
        let image = compile(&w.source, &opt3()).expect("kernel compiles");

        let mut plain = Simulator::new(&image, SimConfig::default());
        plain.run().expect("kernel runs");

        let mut t1 = Simulator::new(&image, SimConfig::default());
        let mut s1 = VecSink::new();
        t1.run_traced(&mut s1).expect("kernel runs");

        let mut t2 = Simulator::new(&image, SimConfig::default());
        let mut s2 = VecSink::new();
        t2.run_traced(&mut s2).expect("kernel runs");

        assert_eq!(plain.stats(), t1.stats(), "{}: tracing perturbed", w.name);
        assert_eq!(
            plain.reg(patmos::isa::Reg::R1),
            t1.reg(patmos::isa::Reg::R1),
            "{}: tracing changed the result",
            w.name
        );
        assert_eq!(s1.events, s2.events, "{}: trace not deterministic", w.name);
        assert_eq!(w.expected, plain.reg(patmos::isa::Reg::R1), "{}", w.name);
    }
}

/// The acceptance number: profiling dotprod64 at `opt3/sched2` must
/// attribute exactly the pinned baseline cycle count, the function rows
/// must sum to the total, and the per-loop breakdown must carry both
/// compute (issue) and stall cycles for the hot inner loop.
#[test]
fn dotprod64_profile_sums_to_pinned_baseline() {
    let pinned = opt3_baseline()
        .into_iter()
        .find(|b| b.name == "dotprod64")
        .expect("dotprod64 is in the baseline")
        .opt3_cycles;
    let w = workloads::by_name("dotprod64").expect("dotprod64 exists");
    let image = compile(&w.source, &opt3()).expect("compiles");
    let mut sim = Simulator::new(&image, SimConfig::default());
    let mut sink = VecSink::new();
    sim.run_traced(&mut sink).expect("runs");
    let p = Profile::build(&sink.events, &image);

    assert_eq!(
        p.total.total_cycles(),
        pinned,
        "profile total must equal the pinned opt3 baseline"
    );
    assert_eq!(p.total.total_cycles(), sim.stats().cycles);

    // Function rows plus unattributed cycles reconstruct the total.
    let func_sum: u64 = p.funcs.iter().map(|f| f.cycles.total_cycles()).sum();
    assert_eq!(func_sum + p.unattributed, p.total.total_cycles());
    assert_eq!(p.unattributed, 0, "all cycles land inside functions");

    // The source map survived unrolling: both loops are reported, the
    // inner one hottest with both compute and stall cycles on it.
    assert!(p.loops.len() >= 2, "outer and inner loop rows expected");
    let hot = &p.loops[0];
    assert!(hot.cycles.issue_cycles > 0, "inner loop has compute cycles");
    assert!(hot.cycles.stall_cycles() > 0, "inner loop has stall cycles");
    assert!(
        hot.cycles.total_cycles() > p.total.total_cycles() / 2,
        "the inner loop dominates the run"
    );
}

/// The pessimism acceptance, inverted from the pre-`.pipeloop` era:
/// a software-pipelined kernel's fallback loop used to be the
/// canonical loosest block — charged its full `.loopbound` trips by
/// the analysis but never executed. Now the `.pipeloop` records teach
/// IPET the guard's trip-count threshold: a constant-trip loop's
/// fallback is excluded outright (the `.loopbound` min proves the
/// guard passes), a runtime-trip loop's is capped at the threshold —
/// either way the worst-case path stays on the kernel, the fallback's
/// execution count in the IPET solution drops to zero, and it no
/// longer tops the pessimism ranking.
#[test]
fn pipelined_fallback_is_dead_in_the_ipet_solution() {
    for name in patmos_bench::PIPELINED_KERNELS {
        let w = workloads::by_name(name).expect("pipelined kernel exists");
        let image = compile(&w.source, &opt3()).expect("compiles");
        let fallbacks: Vec<(String, u32)> = image
            .symbols()
            .iter()
            .filter(|(sym, _)| sym.ends_with("_mf"))
            .map(|(sym, &addr)| (sym.clone(), addr))
            .collect();
        assert!(!fallbacks.is_empty(), "{name}: no pipelined loop emitted");

        let mut sim = Simulator::new(&image, SimConfig::default());
        let mut sink = VecSink::new();
        sim.run_traced(&mut sink).expect("runs");
        let measured = cycles_by_pc(&sink.events);
        let report = pessimism(&image, &Machine::Patmos(SimConfig::default()), &measured)
            .expect("kernel is analysable");

        let top = report.blocks.first().expect("report has blocks");
        for (sym, addr) in &fallbacks {
            // A fully dead block (no charge, no measured cycles) is
            // omitted from the report — exactly the expected outcome.
            // If a row survives, it must carry zero everything.
            if let Some(block) = report.blocks.iter().find(|b| b.start_word == *addr) {
                assert_eq!(
                    block.count, 0,
                    "{name}: fallback {sym} is charged {} executions",
                    block.count
                );
                assert_eq!(block.contribution, 0, "{name}: {sym} contributes cycles");
                assert_eq!(block.measured, 0, "{name}: {sym} ran in the trace");
            }
            assert_ne!(
                top.start_word, *addr,
                "{name}: fallback {sym} still tops the pessimism ranking"
            );
        }
    }
}

/// The modulo scheduler's search effort over the suite at the default
/// options, pinned exactly, so a return to the full II sweep fails here
/// on any host. The sweep used to run from MII to `MAX_II` and apply the
/// benefit test only once a schedule was found: 35 II values (stencil2d
/// 12, expintish 6, matvec8 4 + 1, matmult 2 + 1, one each for the
/// eight pipelined loops and sort8) and 14689 placement steps. Refusing
/// on the resource MII first and stopping at the last II whose
/// one-stage estimate can pay leaves 10 II values — the first II of the
/// eight pipelined loops, matmult's `main_head7` and sort8's
/// `main_head5` — and 229 placement steps.
#[test]
fn modulo_search_effort_is_pinned() {
    let (mut ii_tried, mut placements) = (0, 0);
    for w in workloads::all() {
        let artifacts =
            compile_with_artifacts(&w.source, &CompileOptions::default()).expect("kernel compiles");
        ii_tried += artifacts.sched.ii_tried;
        placements += artifacts.sched.placements;
    }
    assert_eq!((ii_tried, placements), (10, 229));
}

/// The mid-end's work over the suite at the default options: fixpoint
/// rounds, instructions in and instructions out, pinned exactly. A
/// mid-end compile-time speed-up must do this same work faster; fewer
/// rounds or less folding fails here.
#[test]
fn mid_end_work_is_pinned() {
    let (mut rounds, mut insts_in, mut insts_out) = (0, 0, 0);
    for w in workloads::all() {
        let opt = compile_with_artifacts(&w.source, &CompileOptions::default())
            .expect("kernel compiles")
            .opt
            .expect("the default options run the mid-end");
        rounds += opt.rounds;
        insts_in += opt.insts_before;
        insts_out += opt.insts_after;
    }
    assert_eq!((rounds, insts_in, insts_out), (133, 1268, 1582));
}
