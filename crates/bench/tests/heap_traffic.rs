//! The heap traffic of one suite compile: how many times the compiler
//! calls the allocator (allocations and reallocations; frees are not
//! counted) to compile all 22 kernels at the default options, the
//! `compile` workload's unit of work.
//!
//! A counting `#[global_allocator]` keeps its counters per thread, so
//! the test harness's own threads do not disturb them. One suite
//! compile warms up whatever the compiler sets up once; the next one is
//! counted, then each public stage call of the compile chain is counted
//! alone over the same kernels (its input built outside the count), and
//! what remains — code generation and the lowering of the scheduled
//! module into the assembler's statements — is the last row.
//!
//! The budget is asserted in release builds only: in debug builds the
//! mid-end's cache oracle rebuilds every cached analysis after every
//! pass application, so there the table is printed and not checked.
//! Run `cargo test --release -p patmos-bench --test heap_traffic --
//! --nocapture` to see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use patmos::asm::link;
use patmos::compiler::{compile, compile_with_artifacts, parse, CompileOptions, Policy};
use patmos::opt::{optimize_with, OptConfig};
use patmos::regalloc::regalloc;
use patmos::sched::{schedule_with_report, SchedOptions};
use patmos::workloads;

/// Allocator calls of one suite compile at the default options are at
/// most this many. Measured at 14,984 (25,930 allocations and 5,431
/// reallocations, 31,361 calls, before the mid-end kept its CFGs across
/// instruction-only edits and the passes, the list scheduler, the
/// linker, the encoder and the lexer stopped allocating per
/// application, block, bundle or identifier; 15,425 before the inliner
/// found the recursive functions once per run instead of once per site
/// search); the budget is about 5% above.
const BUDGET: u64 = 15_700;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no counters left; its calls go
    // uncounted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation of
/// the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees carry over; the counters are
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls made by the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Traffic {
    allocs: u64,
    reallocs: u64,
}

impl Traffic {
    fn now() -> Traffic {
        Traffic {
            allocs: ALLOCS.with(Cell::get),
            reallocs: REALLOCS.with(Cell::get),
        }
    }

    fn calls(self) -> u64 {
        self.allocs + self.reallocs
    }

    fn add(&mut self, other: Traffic) {
        self.allocs += other.allocs;
        self.reallocs += other.reallocs;
    }

    fn minus(self, other: Traffic) -> Traffic {
        Traffic {
            allocs: self.allocs - other.allocs,
            reallocs: self.reallocs - other.reallocs,
        }
    }
}

/// Runs `f`, returning its result and the allocator calls it made. The
/// result is dropped by the caller, outside the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
    let before = Traffic::now();
    let out = f();
    (out, Traffic::now().minus(before))
}

/// The allocator calls of one suite compile, then of each stage call
/// alone, as `(stage, traffic)` rows; the last row is the compile's
/// remainder.
fn census(options: &CompileOptions) -> (Traffic, Vec<(&'static str, Traffic)>) {
    let kernels = workloads::all();
    let mut total = Traffic::default();
    for w in &kernels {
        let (image, traffic) = counted(|| compile(&w.source, options));
        image.expect("kernel compiles");
        total.add(traffic);
    }

    let pipeline = options.sched_level >= 2 && !options.single_path;
    let opt_config = OptConfig {
        shape_stable: options.single_path,
        trace: false,
        level: options.opt_level,
        pressure: options.reg_policy.pressure_estimate(),
        defer_pipelineable: pipeline,
    };
    let sched_options = SchedOptions {
        dual_issue: options.dual_issue,
        pipeline,
        reuse_renaming: options.reg_policy == Policy::Loop,
    };
    let codegen_only = CompileOptions {
        opt_level: 0,
        ..options.clone()
    };
    let mut rows: Vec<(&'static str, Traffic)> = [
        "parse",
        "optimize_with",
        "regalloc",
        "schedule_with_report",
        "link",
    ]
    .into_iter()
    .map(|stage| (stage, Traffic::default()))
    .collect();
    for w in &kernels {
        let (program, traffic) = counted(|| parse(&w.source));
        program.expect("kernel parses");
        rows[0].1.add(traffic);

        let mut vmodule = compile_with_artifacts(&w.source, &codegen_only)
            .expect("kernel compiles")
            .vmodule;
        let (_, traffic) = counted(|| optimize_with(&mut vmodule, opt_config));
        rows[1].1.add(traffic);

        let (alloc, traffic) = counted(|| regalloc(&options.constraints(), &vmodule));
        let (lir, _) = alloc.expect("kernel allocates");
        rows[2].1.add(traffic);

        let (_, traffic) = counted(|| schedule_with_report(lir, &sched_options));
        rows[3].1.add(traffic);

        let asm = compile_with_artifacts(&w.source, options)
            .expect("kernel compiles")
            .asm;
        let (image, traffic) = counted(|| link(&asm));
        image.expect("kernel links");
        rows[4].1.add(traffic);
    }
    let staged = rows.iter().fold(Traffic::default(), |mut sum, (_, t)| {
        sum.add(*t);
        sum
    });
    rows.push(("codegen + lowering", total.minus(staged)));
    (total, rows)
}

#[test]
fn suite_compile_heap_traffic_is_within_budget() {
    let options = CompileOptions::default();
    census(&options);
    let (total, rows) = census(&options);

    println!("heap traffic of one suite compile (22 kernels, default options):");
    println!(
        "{:<22} {:>8} {:>9} {:>8}",
        "stage", "allocs", "reallocs", "calls"
    );
    for (stage, t) in rows.iter().chain([&("compile (total)", total)]) {
        println!(
            "{stage:<22} {:>8} {:>9} {:>8}",
            t.allocs,
            t.reallocs,
            t.calls()
        );
    }
    if cfg!(debug_assertions) {
        println!("(debug build: the mid-end's cache oracle allocates; no budget is checked)");
        return;
    }
    println!("budget: {BUDGET} calls");
    assert!(
        total.calls() <= BUDGET,
        "one suite compile made {} allocator calls, over the budget of {BUDGET}",
        total.calls()
    );
}
