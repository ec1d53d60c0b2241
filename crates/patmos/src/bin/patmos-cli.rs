//! Command-line driver for the Patmos toolchain.
//!
//! ```text
//! patmos-cli compile <file.patc> [--single-path] [--no-if-convert] [--single-issue]
//!                                [--opt-level N] [--sched-level N] [--reg-policy linear|loop]
//!                                [--dump-lir] [--dump-opt] [--dump-cfg] [--dump-loops]
//!                                [--dump-sched] [--dump-pipeline] [--dump-alloc]
//! patmos-cli asm     <file.pasm>
//! patmos-cli disasm  <file.pasm | file.patc>
//! patmos-cli run     <file.pasm | file.patc> [--single-issue] [--non-strict] [--stats]
//!                                [--host-stats] [--slow-path]
//!                                [--opt-level N] [--sched-level N] [--reg-policy linear|loop]
//!                                [--dump-lir] [--dump-opt] [--dump-cfg] [--dump-loops]
//!                                [--dump-sched] [--dump-pipeline] [--dump-alloc]
//! patmos-cli wcet    <file.pasm | file.patc> [--opt-level N] [--sched-level N] [--pessimism]
//!                                [--single-issue] [--non-strict]
//! patmos-cli profile <file.pasm | file.patc> [--opt-level N] [--sched-level N]
//!                                [--single-issue] [--non-strict] [--json]
//!                                [--chrome <out.json>] [--cores N] [--slot-cycles N]
//! patmos-cli faults  <file.pasm | file.patc> [--seed N] [--campaign N] [--json]
//!                                [--single-issue] [--non-strict] [--slow-path]
//!                                [--opt-level N] [--sched-level N]
//! ```
//!
//! `--single-issue`, `--non-strict` and `--slow-path` select the
//! simulated machine, the same way for every command that simulates:
//! `run`, `profile`, `wcet` (its observed run, its analysis and
//! `--pessimism`) and `faults`. `--single-issue` also compiles `.patc`
//! inputs without pairing.
//!
//! `--opt-level N` selects the mid-end pipeline (0 = straight lowering,
//! 1 = the `patmos-opt` scalar pass pipeline, 2 = the loop-aware
//! pipeline: inlining, loop-invariant code motion, bounded full
//! unrolling, 3 = the default: partial unrolling on top — divisor
//! replication of over-budget constant-trip loops, main/remainder
//! splitting of runtime-trip loops); `--sched-level N`
//! selects the backend scheduler (1 = the `patmos-sched`
//! dependence-DAG scheduler with delay-slot filling, 2 = the default:
//! iterative modulo scheduling on top — innermost counted loops become
//! software-pipelined guard/prologue/kernel/epilogue chains whose
//! `.pipeloop` records the WCET analysis charges at the pipelined
//! shape). Any other level is a compile error: `--sched-level 0`, the
//! historical run scheduler, was removed, and the error names the bench
//! baselines where its cycle counts are frozen. `--reg-policy` selects the
//! register-allocation policy (`linear` = the default historical
//! linear scan, `loop` = loop-aware allocation: round-robin assignment
//! inside hot loops, caller-saves and invariant spill reloads hoisted
//! to preheaders, and a liveness-based unroll pressure estimate).
//! `--dump-lir` prints the
//! compiler's virtual-register LIR and the register allocator's
//! per-function report before the usual output; `--dump-opt` prints
//! each optimization pass's before/after LIR; `--dump-cfg` emits the
//! per-function virtual-LIR control-flow graph as Graphviz DOT;
//! `--dump-sched` prints the scheduler's per-block report (bundle
//! counts, critical paths, pairing, shadow fills, hoists);
//! `--dump-pipeline` prints the loop-throughput report: every loop the
//! unroller rewrote (scheme, factor, trip count) and every loop the
//! modulo scheduler pipelined (ops, MII, achieved II, stages,
//! prologue/kernel/epilogue bundle counts), then the modulo
//! scheduler's search effort (II values tried, placement steps);
//! `--dump-alloc` prints the allocator's detailed per-function map:
//! register assignments, spill slots, and — under `--reg-policy loop` —
//! each loop's round-robin register class, hoisted caller-saves and
//! preheader reloads.
//! `--stats` extends `run`
//! with the full counter set, including the per-cause stall breakdown,
//! executed stack-cache operations, and — for `.patc` inputs — the
//! static loops-unrolled/loops-pipelined counts. `--host-stats` extends
//! `run` with host-side throughput: wall-clock time, simulated cycles
//! per host second, and the share of guest cycles the simulator retired
//! in bursts; `--slow-path` turns bursts off, so every bundle takes the
//! general step (guest cycles are bit-identical either way).
//!
//! `profile` runs the program under the structured tracer and folds
//! every retired bundle and attributed stall onto functions and
//! source-mapped loops: a flat text report by default, the same data as
//! JSON with `--json`, and — with `--chrome <path>` — a Chrome
//! trace-event document (loadable in `chrome://tracing`/Perfetto) with
//! one track per CMP core and TDMA slot-boundary markers when `--cores
//! N` (and optionally `--slot-cycles M`, default 64) selects the CMP
//! system. `--remarks` prints the structured optimization remarks
//! (inliner, LICM, unroller, modulo scheduler — applied rewrites and
//! refusals with their cost-model numbers) after `compile`, `run` or
//! `profile` of a `.patc` file. `wcet --pessimism` joins the IPET
//! bound's per-block charges against a traced run of the same binary
//! and prints the loosest blocks first.
//!
//! `faults` runs the seeded fault-injection campaign machinery on one
//! program: it draws a single bit-flip injection (`--seed N` picks the
//! stream, default `0x5eedfa17`), runs it against the program's golden
//! run, and classifies the outcome twice — under the strict-mode
//! contract checks and watchdog alone, and under the full stack with
//! the CFG-derived control-flow checker armed. `--campaign N` draws N
//! injections instead and prints the tallied outcome split; `--json`
//! emits the same data as a JSON document. Both also count how each run
//! was answered, over both arms: pruned (from the golden run's access
//! index, without simulating), forked (from a golden checkpoint) or from
//! reset. With `--slow-path`, every run is simulated from reset: the
//! oracle the other two paths must agree with.
//!
//! `.patc` files are compiled from PatC; `.pasm` files are assembled
//! directly. Results, cycle counts and stall breakdowns go to stdout.

use std::process::ExitCode;

use patmos::asm::ObjectImage;
use patmos::baseline::{BaselineConfig, BaselineSim};
use patmos::compiler::CompileOptions;
use patmos::sim::{SimConfig, Simulator};
use patmos::wcet::{analyze, Machine};

struct Args {
    command: String,
    path: String,
    single_path: bool,
    no_if_convert: bool,
    single_issue: bool,
    non_strict: bool,
    opt_level: u8,
    sched_level: u8,
    reg_policy: patmos::Policy,
    dump_lir: bool,
    dump_opt: bool,
    dump_cfg: bool,
    dump_loops: bool,
    dump_sched: bool,
    dump_pipeline: bool,
    dump_alloc: bool,
    stats: bool,
    host_stats: bool,
    slow_path: bool,
    remarks: bool,
    json: bool,
    chrome: Option<String>,
    cores: u32,
    slot_cycles: u32,
    pessimism: bool,
    seed: u64,
    campaign: Option<u32>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: patmos-cli <compile|asm|disasm|run|wcet|profile|faults> <file.patc|file.pasm> \
         [--single-path] [--no-if-convert] [--single-issue] [--non-strict] [--opt-level N] \
         [--sched-level N] [--reg-policy linear|loop] [--dump-lir] [--dump-opt] [--dump-cfg] \
         [--dump-loops] [--dump-sched] [--dump-pipeline] [--dump-alloc] [--stats] \
         [--host-stats] [--slow-path] [--remarks] [--json] [--chrome <out.json>] [--cores N] \
         [--slot-cycles N] [--pessimism] [--seed N] [--campaign N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut positional = Vec::new();
    let mut args = Args {
        command: String::new(),
        path: String::new(),
        single_path: false,
        no_if_convert: false,
        single_issue: false,
        non_strict: false,
        opt_level: CompileOptions::default().opt_level,
        sched_level: CompileOptions::default().sched_level,
        reg_policy: patmos::Policy::default(),
        dump_lir: false,
        dump_opt: false,
        dump_cfg: false,
        dump_loops: false,
        dump_sched: false,
        dump_pipeline: false,
        dump_alloc: false,
        stats: false,
        host_stats: false,
        slow_path: false,
        remarks: false,
        json: false,
        chrome: None,
        cores: 1,
        slot_cycles: 64,
        pessimism: false,
        seed: 0x5EED_FA17,
        campaign: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--single-path" => args.single_path = true,
            "--no-if-convert" => args.no_if_convert = true,
            "--single-issue" => args.single_issue = true,
            "--non-strict" => args.non_strict = true,
            "--opt-level" => {
                let Some(level) = argv.next().and_then(|v| v.parse::<u8>().ok()) else {
                    eprintln!("--opt-level expects a small integer");
                    return None;
                };
                args.opt_level = level;
            }
            "--sched-level" => {
                let Some(level) = argv.next().and_then(|v| v.parse::<u8>().ok()) else {
                    eprintln!("--sched-level expects a small integer");
                    return None;
                };
                args.sched_level = level;
            }
            "--reg-policy" => {
                let policy = match argv.next() {
                    Some(v) => match v.parse::<patmos::Policy>() {
                        Ok(p) => p,
                        Err(e) => {
                            eprintln!("{e}");
                            return None;
                        }
                    },
                    None => {
                        eprintln!("--reg-policy expects `linear` or `loop`");
                        return None;
                    }
                };
                args.reg_policy = policy;
            }
            "--dump-lir" => args.dump_lir = true,
            "--dump-opt" => args.dump_opt = true,
            "--dump-cfg" => args.dump_cfg = true,
            "--dump-loops" => args.dump_loops = true,
            "--dump-sched" => args.dump_sched = true,
            "--dump-pipeline" => args.dump_pipeline = true,
            "--dump-alloc" => args.dump_alloc = true,
            "--stats" => args.stats = true,
            "--host-stats" => args.host_stats = true,
            "--slow-path" => args.slow_path = true,
            "--remarks" => args.remarks = true,
            "--json" => args.json = true,
            "--pessimism" => args.pessimism = true,
            "--chrome" => {
                let Some(path) = argv.next() else {
                    eprintln!("--chrome expects an output path");
                    return None;
                };
                args.chrome = Some(path);
            }
            "--cores" => {
                let Some(n) = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--cores expects a positive integer");
                    return None;
                };
                args.cores = n;
            }
            "--seed" => {
                let Some(n) = argv.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed expects an unsigned integer");
                    return None;
                };
                args.seed = n;
            }
            "--campaign" => {
                let Some(n) = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--campaign expects a positive injection count");
                    return None;
                };
                args.campaign = Some(n);
            }
            "--slot-cycles" => {
                let Some(n) = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--slot-cycles expects a positive integer");
                    return None;
                };
                args.slot_cycles = n;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                return None;
            }
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return None;
    }
    args.command = positional.remove(0);
    args.path = positional.remove(0);
    Some(args)
}

impl Args {
    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            dual_issue: !self.single_issue,
            if_convert: !self.no_if_convert,
            single_path: self.single_path,
            opt_level: self.opt_level,
            sched_level: self.sched_level,
            reg_policy: self.reg_policy,
        }
    }

    /// The simulated machine the flags select, the same for every
    /// command that simulates.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            dual_issue: !self.single_issue,
            strict: !self.non_strict,
            fast_path: !self.slow_path,
            ..SimConfig::default()
        }
    }

    fn wants_dump(&self) -> bool {
        self.dump_lir
            || self.dump_opt
            || self.dump_cfg
            || self.dump_loops
            || self.dump_sched
            || self.dump_pipeline
            || self.dump_alloc
    }
}

fn load_image(args: &Args) -> Result<ObjectImage, String> {
    let source = std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
    if args.path.ends_with(".patc") {
        patmos::compiler::compile(&source, &args.compile_options()).map_err(|e| e.to_string())
    } else {
        patmos::asm::assemble(&source).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let result = match args.command.as_str() {
        "compile" => cmd_compile(&args),
        "asm" => cmd_asm(&args),
        "disasm" => cmd_disasm(&args),
        "run" => cmd_run(&args),
        "wcet" => cmd_wcet(&args),
        "profile" => cmd_profile(&args),
        "faults" => cmd_faults(&args),
        other => {
            eprintln!("unknown command `{other}`");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
    let options = args.compile_options();
    if args.wants_dump() {
        dump_artifacts(&source, &options, args)?;
        return Ok(());
    }
    let asm = patmos::compiler::compile_to_asm(&source, &options).map_err(|e| e.to_string())?;
    print!("{asm}");
    if args.remarks {
        print_remarks(&source, &options)?;
    }
    Ok(())
}

/// Prints the optimizer's and scheduler's structured remarks: every
/// applied rewrite and every refusal, with the cost-model numbers that
/// decided it.
fn print_remarks(source: &str, options: &CompileOptions) -> Result<(), String> {
    let artifacts =
        patmos::compiler::compile_with_artifacts(source, options).map_err(|e| e.to_string())?;
    let opt_remarks = artifacts.opt.as_ref().map_or(&[][..], |r| &r.remarks);
    let sched_remarks = &artifacts.sched.remarks;
    eprintln!(
        "=== optimization remarks ({} mid-end, {} scheduler) ===",
        opt_remarks.len(),
        sched_remarks.len()
    );
    for r in opt_remarks.iter().chain(sched_remarks) {
        eprintln!("{r}");
    }
    Ok(())
}

/// Prints the requested intermediate artefacts: the optimizer's
/// per-pass trace (`--dump-opt`), the CFG as Graphviz DOT
/// (`--dump-cfg`), and/or the virtual LIR plus allocation report and
/// scheduled assembly (`--dump-lir`).
fn dump_artifacts(source: &str, options: &CompileOptions, args: &Args) -> Result<(), String> {
    let artifacts =
        patmos::compiler::compile_with_artifacts(source, options).map_err(|e| e.to_string())?;
    if args.dump_opt {
        match &artifacts.opt {
            Some(report) => {
                println!(
                    "=== optimizer: {} -> {} instructions in {} round(s) ===",
                    report.insts_before, report.insts_after, report.rounds
                );
                for dump in &report.dumps {
                    println!("--- round {} / {}: before ---", dump.round, dump.pass);
                    print!("{}", dump.before);
                    println!("--- round {} / {}: after ---", dump.round, dump.pass);
                    print!("{}", dump.after);
                }
            }
            None => println!("=== optimizer disabled (opt-level 0) ==="),
        }
    }
    if args.dump_cfg {
        print!("{}", patmos::lir::dot::render(&artifacts.vmodule));
    }
    if args.dump_loops {
        print!("{}", patmos::lir::loops::render(&artifacts.vmodule));
    }
    if args.dump_sched {
        let report = &artifacts.sched;
        println!(
            "=== scheduler: {} shadow bundle(s) filled, {} op(s) hoisted ===",
            report.total_shadow_filled(),
            report.total_hoisted()
        );
        print!("{report}");
    }
    if args.dump_pipeline {
        println!("=== loop throughput (unroller + software pipeliner) ===");
        let unrolls = artifacts.opt.as_ref().map_or(&[][..], |r| &r.unrolls);
        if unrolls.is_empty() {
            println!("no loops unrolled (opt-level < 2, or nothing eligible)");
        } else {
            println!(
                "{:<20} {:>10} {:>7} {:>6}",
                "unrolled loop", "scheme", "factor", "trips"
            );
            for u in unrolls {
                println!(
                    "{:<20} {:>10} {:>6}x {:>6}",
                    u.label,
                    u.kind.to_string(),
                    u.factor,
                    u.trips.map_or("?".into(), |t| t.to_string())
                );
            }
        }
        let loops: Vec<_> = artifacts.sched.pipelined_loops().collect();
        if loops.is_empty() {
            println!("no loops software-pipelined (sched-level < 2, or nothing eligible)");
        } else {
            println!(
                "{:<20} {:>4} {:>5} {:>4} {:>7} {:>9} {:>7} {:>9}",
                "pipelined loop", "ops", "MII", "II", "stages", "prologue", "kernel", "epilogue"
            );
            for l in loops {
                println!(
                    "{:<20} {:>4} {:>5} {:>4} {:>7} {:>9} {:>7} {:>9}",
                    l.label, l.ops, l.mii, l.ii, l.stages, l.prologue, l.kernel, l.epilogue
                );
            }
        }
        println!(
            "modulo search: {} II value(s) tried, {} placement step(s)",
            artifacts.sched.ii_tried, artifacts.sched.placements
        );
    }
    if args.dump_alloc {
        println!("=== register allocation (detail) ===");
        print!("{}", artifacts.allocation.detail());
    }
    if args.dump_lir {
        println!("=== virtual LIR (before register allocation) ===");
        print!("{}", artifacts.vlir);
        println!("=== register allocation ===");
        print!("{}", artifacts.allocation);
        println!("=== scheduled assembly ===");
        print!("{}", artifacts.asm);
    }
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let image = load_image(args)?;
    println!(
        "{} words of code, {} functions, entry at word {:#x}",
        image.code().len(),
        image.functions().len(),
        image.entry_word()
    );
    for f in image.functions() {
        println!(
            "  {:<20} start {:#06x}  size {:>5} words",
            f.name, f.start_word, f.size_words
        );
    }
    for seg in image.data() {
        println!(
            "  data {:<15} at {:#010x}  {:>5} bytes",
            seg.name,
            seg.addr,
            seg.bytes.len()
        );
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let image = load_image(args)?;
    let text = patmos::asm::disassemble(image.code()).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if args.wants_dump() && args.path.ends_with(".patc") {
        let source =
            std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
        dump_artifacts(&source, &args.compile_options(), args)?;
    }
    if args.remarks && args.path.ends_with(".patc") {
        let source =
            std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
        print_remarks(&source, &args.compile_options())?;
    }
    let image = load_image(args)?;
    let mut core = Simulator::try_new(&image, args.sim_config()).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    core.run().map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let stats = core.stats();
    println!("result (r1)      = {}", core.reg(patmos::isa::Reg::R1));
    println!("cycles           = {}", stats.cycles);
    println!("bundles          = {}", stats.bundles);
    println!("IPC              = {:.2}", stats.ipc());
    println!(
        "second slot used = {:.0}% of all bundles, {:.0}% of active (non-nop) bundles",
        stats.slot2_utilisation() * 100.0,
        stats.slot2_utilisation_active() * 100.0
    );
    println!("stalls           : {}", stats.stalls);
    println!("method cache     : {}", stats.method_cache);
    println!("data cache       : {}", stats.data_cache);
    println!("static cache     : {}", stats.static_cache);
    if args.stats {
        println!("--- stall breakdown (cycles) ---");
        println!("method cache     = {}", stats.stalls.method_cache);
        println!("data cache       = {}", stats.stalls.data_cache);
        println!("static cache     = {}", stats.stalls.static_cache);
        println!("stack cache      = {}", stats.stalls.stack_cache);
        println!("split load       = {}", stats.stalls.split_load);
        println!("write buffer     = {}", stats.stalls.write_buffer);
        println!("tdma share       = {}", stats.stalls.tdma_wait);
        println!("total stalls     = {}", stats.stalls.total());
        println!("--- execution ---");
        println!("insts executed   = {}", stats.insts_executed);
        println!("insts annulled   = {}", stats.insts_annulled);
        println!("nops             = {}", stats.nops);
        println!("nop bundles      = {}", stats.nop_bundles);
        println!("taken branches   = {}", stats.taken_branches);
        println!("calls            = {}", stats.calls);
        println!("returns          = {}", stats.returns);
        println!("stack cache ops  = {}", stats.stack_ops);
        println!("S$ words moved   = {}", stats.stack_cache.transferred_words);
        if args.path.ends_with(".patc") {
            let source =
                std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
            let artifacts =
                patmos::compiler::compile_with_artifacts(&source, &args.compile_options())
                    .map_err(|e| e.to_string())?;
            println!("--- loop throughput ---");
            println!(
                "loops unrolled   = {}",
                artifacts.opt.as_ref().map_or(0, |r| r.unrolls.len())
            );
            println!(
                "loops pipelined  = {}",
                artifacts.sched.pipelined_loops().count()
            );
            println!(
                "modulo renames   = {}",
                artifacts.sched.total_modulo_renames()
            );
        }
    }
    if args.host_stats {
        let host = core.host_stats();
        let secs = wall.as_secs_f64();
        println!("--- host throughput ---");
        println!(
            "engine           = {}",
            if args.slow_path {
                "step only (--slow-path: no bursts)"
            } else {
                "bursts + step"
            }
        );
        println!("wall time        = {:.3} ms", secs * 1e3);
        println!(
            "host throughput  = {:.1} M simulated cycles/s",
            stats.cycles as f64 / secs / 1e6
        );
        println!(
            "burst cover      = {:.1}% of cycles ({} bundles)",
            host.fast_coverage(stats.cycles) * 100.0,
            host.fast_bundles
        );
        println!(
            "burst+step cover = {:.1}% of cycles ({} bundles)",
            host.predecoded_coverage(stats.cycles) * 100.0,
            host.fast_bundles + host.pre_bundles
        );
    }
    Ok(())
}

/// Traces one run and folds it into a cycle-attribution profile; with
/// `--cores N` the same image runs on every core of the TDMA-arbitrated
/// CMP system and each core gets its own report and trace track.
fn cmd_profile(args: &Args) -> Result<(), String> {
    if args.remarks && args.path.ends_with(".patc") {
        let source =
            std::fs::read_to_string(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
        print_remarks(&source, &args.compile_options())?;
    }
    let image = load_image(args)?;
    let config = args.sim_config();

    // One event stream per core.
    let mut streams: Vec<(u32, patmos::trace::VecSink)> = Vec::new();
    if args.cores > 1 {
        let system = patmos::sim::CmpSystem::new(config, args.cores, args.slot_cycles)
            .map_err(|e| e.to_string())?;
        for (res, sink) in system.run_all_traced(&image).map_err(|e| e.to_string())? {
            streams.push((res.core, sink));
        }
    } else {
        let mut core = Simulator::try_new(&image, config).map_err(|e| e.to_string())?;
        let mut sink = patmos::trace::VecSink::new();
        core.run_traced(&mut sink).map_err(|e| e.to_string())?;
        streams.push((0, sink));
    }

    for (core, sink) in &streams {
        let profile = patmos::trace::Profile::build(&sink.events, &image);
        if streams.len() > 1 {
            println!("=== core {core} ===");
        }
        if args.json {
            print!("{}", profile.to_json());
        } else {
            print!("{}", profile.flat_report());
        }
    }

    if let Some(path) = &args.chrome {
        let cores: Vec<patmos::trace::chrome::CoreTrace<'_>> = streams
            .iter()
            .map(|(core, sink)| patmos::trace::chrome::CoreTrace {
                core: *core,
                events: &sink.events,
            })
            .collect();
        let tdma = (args.cores > 1).then_some(patmos::trace::chrome::TdmaSlots {
            slot_cycles: args.slot_cycles,
            cores: args.cores,
        });
        let json = patmos::trace::chrome::chrome_trace(&cores, &image, tdma);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("chrome trace written to {path}");
    }
    Ok(())
}

/// Prints the per-block pessimism breakdown: the IPET bound's charges
/// joined against a traced run, loosest blocks first.
fn print_pessimism(image: &ObjectImage, config: &SimConfig) -> Result<(), String> {
    let mut core = Simulator::try_new(image, config.clone()).map_err(|e| e.to_string())?;
    let mut sink = patmos::trace::VecSink::new();
    core.run_traced(&mut sink).map_err(|e| e.to_string())?;
    let measured = patmos::trace::cycles_by_pc(&sink.events);
    let report = patmos::wcet::pessimism(image, &Machine::Patmos(config.clone()), &measured)
        .map_err(|e| e.to_string())?;
    println!("--- pessimism breakdown (IPET charge vs measured, loosest first) ---");
    println!(
        "bound {} (warm-up {}), measured {}",
        report.bound_cycles, report.warmup_cycles, report.measured_cycles
    );
    println!(
        "{:<20} {:>6} {:>9} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "block", "word", "source", "count", "cost", "charged", "measured", "slack"
    );
    for b in &report.blocks {
        println!(
            "{:<20} {:>6} {:>9} {:>6} {:>6} {:>10} {:>10} {:>10}",
            b.function,
            b.start_word,
            b.source
                .as_ref()
                .map(|(_, l)| format!("line {l}"))
                .unwrap_or_else(|| "-".into()),
            b.count,
            b.cost,
            b.contribution,
            b.measured,
            b.slack
        );
    }
    Ok(())
}

fn cmd_wcet(args: &Args) -> Result<(), String> {
    let image = load_image(args)?;
    let config = args.sim_config();
    let mut core = Simulator::try_new(&image, config.clone()).map_err(|e| e.to_string())?;
    core.run().map_err(|e| e.to_string())?;
    let observed = core.stats().cycles;
    let report = analyze(&image, &Machine::Patmos(config.clone())).map_err(|e| e.to_string())?;
    println!("entry function   = {}", report.entry);
    println!("observed cycles  = {observed}");
    println!(
        "WCET bound       = {} (warm-up {})",
        report.bound_cycles, report.warmup_cycles
    );
    println!("pessimism        = {:.2}x", report.pessimism(observed));
    for (name, bound) in &report.per_function {
        println!("  {:<20} {:>10} cycles", name, bound);
    }
    if args.pessimism {
        print_pessimism(&image, &config)?;
    }
    // Baseline comparison when the binary also runs there.
    let mut baseline = BaselineSim::new(&image, BaselineConfig::default());
    if baseline.run().is_ok() {
        let b_obs = baseline.stats().cycles;
        if let Ok(b_rep) = analyze(&image, &Machine::Baseline(BaselineConfig::default())) {
            println!(
                "baseline         = {} observed, {} bound ({:.2}x)",
                b_obs,
                b_rep.bound_cycles,
                b_rep.pessimism(b_obs)
            );
        }
    }
    Ok(())
}

fn describe_target(target: &patmos::sim::FaultTarget) -> String {
    use patmos::sim::faults::{CacheSel, SpecialTarget};
    use patmos::sim::FaultTarget;
    match target {
        FaultTarget::Register { reg, bit } => format!("flip r{reg} bit {bit}"),
        FaultTarget::Predicate { pred } => format!("invert p{pred}"),
        FaultTarget::Special { reg, bit } => {
            let name = match reg {
                SpecialTarget::Sl => "sl",
                SpecialTarget::Sh => "sh",
                SpecialTarget::Sm => "smask",
            };
            format!("flip {name} bit {bit}")
        }
        FaultTarget::Memory { addr, bit } => format!("flip mem[{addr:#x}] bit {bit}"),
        FaultTarget::CacheTags { cache } => {
            let name = match cache {
                CacheSel::Data => "data",
                CacheSel::Static => "static",
            };
            format!("{name}-cache tag upset")
        }
    }
}

fn describe_trigger(trigger: &patmos::sim::FaultTrigger) -> String {
    match trigger {
        patmos::sim::FaultTrigger::Cycle(cycle) => format!("cycle {cycle}"),
        patmos::sim::FaultTrigger::RetiredPc { pc, occurrence } => {
            format!("retirement {occurrence} of pc {pc:#x}")
        }
    }
}

/// Runs the seeded fault-injection machinery on one program: a single
/// drawn injection by default, an N-injection campaign with
/// `--campaign N`. Every injection is classified against the program's
/// golden run twice — under the strict-mode contract checks and
/// watchdog alone, and under the full stack with the CFG-derived
/// control-flow checker armed — so the outcome shows what each detector
/// layer contributes.
fn cmd_faults(args: &Args) -> Result<(), String> {
    use patmos::sim::faults::{golden_run, run_injection_with_path, RunPath};
    use patmos::sim::{DetectorKind, FaultOutcome, FaultPlan, FaultRng, FaultSpace};

    let image = load_image(args)?;
    let config = args.sim_config();
    let golden = golden_run(&image, &config).map_err(|e| format!("golden run failed: {e}"))?;
    let flow = patmos::wcet::flow_map(&image).map_err(|e| e.to_string())?;
    let space = FaultSpace::for_image(&image, golden.cycles);
    let mut rng = FaultRng::new(args.seed);
    let count = args.campaign.unwrap_or(1);

    let mut runs = Vec::new();
    // How each run was answered, over both arms: pruned, forked, from reset.
    let mut paths = [0u64; 3];
    for _ in 0..count {
        let injection = FaultPlan::draw(&mut rng, &space);
        let (strict, strict_path) =
            run_injection_with_path(&image, &config, injection, None, &golden);
        let (full, full_path) =
            run_injection_with_path(&image, &config, injection, Some(&flow), &golden);
        for path in [strict_path, full_path] {
            paths[match path {
                RunPath::Pruned => 0,
                RunPath::Forked => 1,
                RunPath::FromReset => 2,
            }] += 1;
        }
        runs.push((injection, strict, full));
    }
    let [pruned, forked, from_reset] = paths;

    let mut masked = 0u64;
    let mut sdc = 0u64;
    let mut det_contract = 0u64;
    let mut det_cflow = 0u64;
    let mut hang = 0u64;
    let mut strict_detected = 0u64;
    let mut strict_sdc = 0u64;
    let mut strict_hang = 0u64;
    let mut cfg_only = 0u64;
    for (_, strict, full) in &runs {
        match full.outcome {
            FaultOutcome::Masked => masked += 1,
            FaultOutcome::SilentDataCorruption => sdc += 1,
            FaultOutcome::Detected(DetectorKind::ControlFlow) => det_cflow += 1,
            FaultOutcome::Detected(_) => det_contract += 1,
            FaultOutcome::Hang => hang += 1,
        }
        match strict.outcome {
            FaultOutcome::Detected(_) => strict_detected += 1,
            FaultOutcome::SilentDataCorruption => strict_sdc += 1,
            FaultOutcome::Hang => strict_hang += 1,
            FaultOutcome::Masked => {}
        }
        if matches!(
            full.outcome,
            FaultOutcome::Detected(DetectorKind::ControlFlow)
        ) && !matches!(strict.outcome, FaultOutcome::Detected(_))
        {
            cfg_only += 1;
        }
    }

    if args.json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"patmos-cli/faults/v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", args.seed));
        out.push_str(&format!("  \"injections\": {count},\n"));
        out.push_str(&format!(
            "  \"golden\": {{ \"result_r1\": {}, \"cycles\": {}, \"halt_pc\": {} }},\n",
            golden.result_r1, golden.cycles, golden.halt_pc
        ));
        out.push_str("  \"runs\": [\n");
        for (i, (injection, strict, full)) in runs.iter().enumerate() {
            let latency = full
                .detection_latency
                .map_or("null".to_string(), |l| l.to_string());
            out.push_str(&format!(
                "    {{ \"target\": \"{}\", \"trigger\": \"{}\", \"fired\": {}, \
                 \"strict\": \"{}\", \"full\": \"{}\", \"latency\": {}, \"cycles\": {} }}{}\n",
                describe_target(&injection.target),
                describe_trigger(&injection.trigger),
                full.injected,
                strict.outcome.name(),
                full.outcome.name(),
                latency,
                full.cycles,
                if i + 1 == runs.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"tally\": {{ \"masked\": {masked}, \"sdc\": {sdc}, \
             \"detected_contract\": {det_contract}, \"detected_control_flow\": {det_cflow}, \
             \"hang\": {hang}, \"strict_detected\": {strict_detected}, \
             \"strict_sdc\": {strict_sdc}, \"strict_hang\": {strict_hang}, \
             \"cfg_only\": {cfg_only} }},\n"
        ));
        out.push_str(&format!(
            "  \"paths\": {{ \"pruned\": {pruned}, \"forked\": {forked}, \"from_reset\": {from_reset} }}\n"
        ));
        out.push_str("}\n");
        print!("{out}");
        return Ok(());
    }

    println!(
        "golden run       = r1 {}, {} cycles, halt pc {:#x}",
        golden.result_r1, golden.cycles, golden.halt_pc
    );
    println!("seed             = {:#x}", args.seed);
    println!(
        "{:>3}  {:<28} {:<26} {:>5}  {:<15} {:<22} {:>8}",
        "#", "target", "trigger", "fired", "strict mode", "full stack", "latency"
    );
    for (i, (injection, strict, full)) in runs.iter().enumerate() {
        println!(
            "{:>3}  {:<28} {:<26} {:>5}  {:<15} {:<22} {:>8}",
            i,
            describe_target(&injection.target),
            describe_trigger(&injection.trigger),
            if full.injected { "yes" } else { "no" },
            strict.outcome.name(),
            full.outcome.name(),
            full.detection_latency
                .map_or("-".to_string(), |l| l.to_string()),
        );
    }
    println!("runs answered    = {pruned} pruned, {forked} forked, {from_reset} from reset");
    if args.campaign.is_some() {
        println!("--- tally (full stack) ---");
        println!("masked           = {masked}");
        println!("sdc              = {sdc}");
        println!("detected (ctr)   = {det_contract}");
        println!("detected (cfg)   = {det_cflow}");
        println!("hang             = {hang}");
        println!("--- strict mode alone ---");
        println!("detected         = {strict_detected}");
        println!("sdc              = {strict_sdc}");
        println!("hang             = {strict_hang}");
        println!("cfg-checker-only = {cfg_only}");
    }
    Ok(())
}
