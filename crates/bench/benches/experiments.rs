//! Criterion benches: one group per experiment of the evaluation (the
//! measured quantity is the core computation each experiment's table is
//! built from), plus toolchain-throughput benches.

use criterion::{criterion_group, criterion_main, Criterion};

use patmos::asm::assemble;
use patmos::baseline::{BaselineConfig, BaselineSim};
use patmos::compiler::{compile, CompileOptions};
use patmos::rf::fpga;
use patmos::sim::{CmpSystem, SimConfig, Simulator};
use patmos::wcet::{analyze, Machine};
use patmos::workloads::{self, micro};

fn bench_f1_pipeline(c: &mut Criterion) {
    let image = assemble(&micro::split_load_chain(4, 4)).expect("assembles");
    c.bench_function("f1_pipeline_micro_program", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
}

fn bench_e1_register_file(c: &mut Criterion) {
    c.bench_function("e1_rf_design_space_sweep", |b| {
        b.iter(|| fpga::sweep(fpga::DeviceTiming::default()).len())
    });
}

fn bench_e2_dual_issue(c: &mut Criterion) {
    let w = workloads::matmult();
    let dual = compile(&w.source, &CompileOptions::default()).expect("compiles");
    let single_opts = CompileOptions {
        dual_issue: false,
        ..CompileOptions::default()
    };
    let single = compile(&w.source, &single_opts).expect("compiles");
    let mut group = c.benchmark_group("e2_dual_issue");
    group.bench_function("matmult_dual", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&dual, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.bench_function("matmult_single", |b| {
        let cfg = SimConfig {
            dual_issue: false,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut sim = Simulator::new(&single, cfg.clone());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.finish();
}

fn bench_e3_method_cache(c: &mut Criterion) {
    let image = assemble(&micro::call_ring(8, 48, 64)).expect("assembles");
    c.bench_function("e3_method_cache_call_ring", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().expect("runs").stats.method_cache.misses
        })
    });
}

fn bench_e4_split_cache(c: &mut Criterion) {
    let w = workloads::insertsort();
    let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("e4_split_cache");
    group.bench_function("split_patmos", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.bench_function("unified_baseline", |b| {
        b.iter(|| {
            let mut sim = BaselineSim::new(&image, BaselineConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.finish();
}

fn bench_e5_split_load(c: &mut Criterion) {
    let eager = assemble(&micro::split_load_chain(8, 0)).expect("assembles");
    let hidden = assemble(&micro::split_load_chain(8, 8)).expect("assembles");
    let mut group = c.benchmark_group("e5_split_load");
    group.bench_function("no_overlap", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&eager, SimConfig::default());
            sim.run().expect("runs").stats.stalls.split_load
        })
    });
    group.bench_function("fully_hidden", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&hidden, SimConfig::default());
            sim.run().expect("runs").stats.stalls.split_load
        })
    });
    group.finish();
}

fn bench_e6_single_path(c: &mut Criterion) {
    let w = workloads::crc();
    let branchy_opts = CompileOptions {
        if_convert: false,
        ..CompileOptions::default()
    };
    let sp_opts = CompileOptions {
        single_path: true,
        ..CompileOptions::default()
    };
    let branchy = compile(&w.source, &branchy_opts).expect("compiles");
    let single_path = compile(&w.source, &sp_opts).expect("compiles");
    let mut group = c.benchmark_group("e6_single_path");
    group.bench_function("crc_branches", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&branchy, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.bench_function("crc_single_path", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&single_path, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.finish();
}

fn bench_e7_wcet_analysis(c: &mut Criterion) {
    let w = workloads::crc();
    let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("e7_wcet_analysis");
    group.bench_function("analyze_patmos", |b| {
        b.iter(|| {
            analyze(&image, &Machine::Patmos(SimConfig::default()))
                .expect("analyses")
                .bound_cycles
        })
    });
    group.bench_function("analyze_baseline", |b| {
        b.iter(|| {
            analyze(&image, &Machine::Baseline(BaselineConfig::default()))
                .expect("analyses")
                .bound_cycles
        })
    });
    group.finish();
}

fn bench_e8_cmp_tdma(c: &mut Criterion) {
    let w = workloads::dotprod();
    let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
    c.bench_function("e8_cmp_4_cores", |b| {
        let system = CmpSystem::new(SimConfig::default(), 4, 64).expect("slots fit");
        b.iter(|| {
            system
                .run_all(&image)
                .expect("runs")
                .iter()
                .map(|r| r.result.stats.cycles)
                .max()
        })
    });
}

fn bench_e9_stack_cache(c: &mut Criterion) {
    let image = assemble(&micro::stack_ladder(8, 16)).expect("assembles");
    c.bench_function("e9_stack_ladder", |b| {
        let cfg = SimConfig {
            stack_cache_words: 64,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut sim = Simulator::new(&image, cfg.clone());
            sim.run().expect("runs").stats.stalls.stack_cache
        })
    });
}

fn bench_e10_scheduler(c: &mut Criterion) {
    let w = workloads::matmult();
    c.bench_function("e10_compile_matmult", |b| {
        b.iter(|| {
            compile(&w.source, &CompileOptions::default())
                .expect("compiles")
                .code()
                .len()
        })
    });
}

/// The NullSink-overhead check behind the CI gate: untraced `run`
/// against `run_traced(&mut NullSink)` (instrumentation compiled out —
/// must cost the same) and against a recording `VecSink` (the real
/// price of capturing a full event stream).
fn bench_e16_trace_overhead(c: &mut Criterion) {
    use patmos::trace::{NullSink, VecSink};
    let w = workloads::matmult();
    let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("e16_trace_overhead");
    group.bench_function("matmult_untraced", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.bench_function("matmult_nullsink", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run_traced(&mut NullSink).expect("runs").stats.cycles
        })
    });
    group.bench_function("matmult_vecsink", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            let mut sink = VecSink::new();
            sim.run_traced(&mut sink).expect("runs");
            sink.events.len()
        })
    });
    group.finish();
}

/// The host-throughput measurement behind the E17 table and the CI
/// floor: the same image and guest cycles, executed by the general step
/// alone (`fast_path = false`) and with bursts.
fn bench_e17_host_throughput(c: &mut Criterion) {
    let opts = CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    };
    let w = workloads::matmult();
    let image = compile(&w.source, &opts).expect("compiles");
    let mut group = c.benchmark_group("e17_host_throughput");
    group.bench_function("matmult_reference", |b| {
        let cfg = SimConfig {
            fast_path: false,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut sim = Simulator::new(&image, cfg.clone());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.bench_function("matmult_fast_engine", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().expect("runs").stats.cycles
        })
    });
    group.finish();
}

fn bench_toolchain(c: &mut Criterion) {
    let w = workloads::fir();
    let asm_text =
        patmos::compiler::compile_to_asm(&w.source, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("toolchain");
    group.bench_function("assemble_fir", |b| {
        b.iter(|| assemble(&asm_text).expect("assembles"))
    });
    let image = assemble(&asm_text).expect("assembles");
    group.bench_function("disassemble_fir", |b| {
        b.iter(|| {
            patmos::asm::disassemble(image.code())
                .expect("disassembles")
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    name = experiments;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
        bench_f1_pipeline,
        bench_e1_register_file,
        bench_e2_dual_issue,
        bench_e3_method_cache,
        bench_e4_split_cache,
        bench_e5_split_load,
        bench_e6_single_path,
        bench_e7_wcet_analysis,
        bench_e8_cmp_tdma,
        bench_e9_stack_cache,
        bench_e10_scheduler,
        bench_e16_trace_overhead,
        bench_e17_host_throughput,
        bench_toolchain
);
criterion_main!(experiments);
