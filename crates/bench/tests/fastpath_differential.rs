//! Differential sweep between the simulator's engines.
//!
//! Every suite kernel — at every mid-end level, every scheduler level,
//! single-path and branchy, dual- and single-issue — must produce
//! bit-identical guest-visible results under the bursting engine, the
//! general step alone (`fast_path = false`, the burst's oracle), the
//! traced run (which never bursts, whatever `fast_path` says), and a
//! clean run with every hook armed: an empty fault plan plus the
//! CFG-derived control-flow checker, which keeps the run on the step.
//! An armed cycle trigger does not: the burst stops before the
//! trigger's cycle and the step fires the injection, so the armed
//! column also runs one cycle-triggered injection of each cell bursting
//! and stepped. That is the burst's whole contract: host speed is the
//! only thing allowed to differ.
//!
//! Debug builds check a fixed corner sample to keep tier-1 `cargo
//! test` fast; the release perf-trajectory job sweeps the full matrix.

use patmos::compiler::{compile, CompileOptions};
use patmos::isa::Reg;
use patmos::sim::faults::CacheSel;
use patmos::sim::{FaultPlan, FaultTarget, FaultTrigger, Injection, SimConfig, Simulator};
use patmos::trace::VecSink;
use patmos::wcet::flow_map;
use patmos::workloads;

#[derive(Clone, Copy)]
struct Combo {
    opt: u8,
    sched: u8,
    single_path: bool,
    dual: bool,
}

fn full_matrix() -> Vec<Combo> {
    let mut combos = Vec::new();
    for opt in 0..=3u8 {
        for sched in 1..=2u8 {
            for single_path in [false, true] {
                for dual in [true, false] {
                    combos.push(Combo {
                        opt,
                        sched,
                        single_path,
                        dual,
                    });
                }
            }
        }
    }
    combos
}

/// The debug-build sample: the matrix corners plus the default
/// pipeline, mixing in single-path and single-issue.
fn corner_sample() -> Vec<Combo> {
    vec![
        Combo {
            opt: 0,
            sched: 1,
            single_path: false,
            dual: true,
        },
        Combo {
            opt: 2,
            sched: 1,
            single_path: true,
            dual: false,
        },
        Combo {
            opt: 3,
            sched: 2,
            single_path: false,
            dual: true,
        },
        Combo {
            opt: 3,
            sched: 2,
            single_path: true,
            dual: true,
        },
        Combo {
            opt: 3,
            sched: 2,
            single_path: false,
            dual: false,
        },
    ]
}

/// Runs one (kernel, combo) cell through all four runs and asserts the
/// guest-visible outcomes are bit-identical. Returns `false` if the
/// cell was skipped because single-path conversion rejected the kernel.
fn check_cell(name: &str, source: &str, combo: Combo) -> bool {
    let label = format!(
        "{name} opt{} sched{} single_path={} dual={}",
        combo.opt, combo.sched, combo.single_path, combo.dual
    );
    let options = CompileOptions {
        opt_level: combo.opt,
        sched_level: combo.sched,
        single_path: combo.single_path,
        dual_issue: combo.dual,
        ..CompileOptions::default()
    };
    let image = match compile(source, &options) {
        Ok(image) => image,
        // Single-path conversion legitimately rejects control flow it
        // cannot predicate (early returns survive at low opt levels
        // where inlining/simplification has not removed them). Only
        // that combination may fail to compile.
        Err(e) if combo.single_path => {
            eprintln!("skipping {label}: {e}");
            return false;
        }
        Err(e) => panic!("{label}: {e}"),
    };
    let fast_config = SimConfig {
        dual_issue: combo.dual,
        ..SimConfig::default()
    };
    let slow_config = SimConfig {
        fast_path: false,
        ..fast_config.clone()
    };

    let mut fast = Simulator::new(&image, fast_config.clone());
    let fast_run = fast.run();
    let mut slow = Simulator::new(&image, slow_config.clone());
    let slow_run = slow.run();
    match (&fast_run, &slow_run) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.stats, s.stats, "{label}: stats diverge");
            assert_eq!(f.halt_pc, s.halt_pc, "{label}: halt pc diverges");
            assert_eq!(
                fast.reg(Reg::R1),
                slow.reg(Reg::R1),
                "{label}: results diverge"
            );
        }
        (Err(f), Err(s)) => assert_eq!(f, s, "{label}: errors diverge"),
        (f, s) => panic!("{label}: one engine failed: fast {f:?}, reference {s:?}"),
    }

    // A clean run with every hook armed: an empty fault plan and an
    // installed flow checker (which keeps the run on the step) must
    // change nothing, and the checker must stay silent on an
    // uncorrupted run.
    let flow = flow_map(&image)
        .unwrap_or_else(|e| panic!("{label}: finding: flow_map rejects the kernel: {e}"));
    let mut armed = Simulator::new(
        &image,
        SimConfig {
            faults: Some(FaultPlan::default()),
            ..fast_config.clone()
        },
    );
    armed.install_flow_checker(flow);
    let armed_run = armed.run();
    match (&fast_run, &armed_run) {
        (Ok(f), Ok(a)) => {
            assert_eq!(f.stats, a.stats, "{label}: armed stats diverge");
            assert_eq!(f.halt_pc, a.halt_pc, "{label}: armed halt pc diverges");
            assert_eq!(
                fast.reg(Reg::R1),
                armed.reg(Reg::R1),
                "{label}: armed result diverges"
            );
        }
        (Err(f), Err(a)) => assert_eq!(f, a, "{label}: armed error diverges"),
        (f, a) => panic!("{label}: finding: the armed run disagrees: fast {f:?}, armed {a:?}"),
    }

    // One injection at half the kernel's cycles, under a campaign's
    // watchdog: the bursting run must flip the same state at the same
    // cycle as the stepped run, and end the same way. r9 is read after
    // that point in most cells, so its flip changes how most runs end.
    if let Ok(f) = &fast_run {
        let cycles = f.stats.cycles;
        for target in [
            FaultTarget::Register { reg: 9, bit: 2 },
            FaultTarget::CacheTags {
                cache: CacheSel::Static,
            },
        ] {
            let plan = FaultPlan::single(Injection {
                trigger: FaultTrigger::Cycle(cycles / 2),
                target,
            });
            let injected = |config: &SimConfig| {
                let mut sim = Simulator::new(
                    &image,
                    SimConfig {
                        faults: Some(plan.clone()),
                        max_cycles: cycles * 4 + 4096,
                        ..config.clone()
                    },
                );
                let run = sim.run().map(|r| (r.stats, r.halt_pc));
                let host = sim.host_stats();
                ((run, sim.reg(Reg::R1), sim.fault_injected_at()), host)
            };
            let (bursting, host) = injected(&fast_config);
            let (stepped, _) = injected(&slow_config);
            assert_eq!(bursting, stepped, "{label}: {target:?} diverges");
            assert!(
                host.fast_bundles > 0 || fast.host_stats().fast_bundles == 0,
                "{label}: the armed run never burst"
            );
        }
    }

    // Tracing never bursts: the `fast_path` switch must not change the
    // event stream, and the traced counters must equal the untraced
    // bursting run's.
    let mut traced_fast = Simulator::new(&image, fast_config);
    let mut sink_fast = VecSink::new();
    let tf = traced_fast.run_traced(&mut sink_fast);
    let mut traced_slow = Simulator::new(&image, slow_config);
    let mut sink_slow = VecSink::new();
    let ts = traced_slow.run_traced(&mut sink_slow);
    assert_eq!(
        sink_fast.events, sink_slow.events,
        "{label}: traced streams diverge"
    );
    match (&tf, &ts, &fast_run) {
        (Ok(t), Ok(_), Ok(f)) => {
            assert_eq!(
                t.stats, f.stats,
                "{label}: traced stats diverge from untraced"
            )
        }
        (Err(t), Err(s), Err(f)) => {
            assert_eq!(t, s, "{label}: traced errors diverge");
            assert_eq!(t, f, "{label}: traced error diverges from untraced");
        }
        (t, s, f) => panic!("{label}: engines disagree on failure: {t:?}, {s:?}, {f:?}"),
    }
    true
}

#[test]
fn every_kernel_and_pipeline_is_bit_identical_across_engines() {
    let combos = if cfg!(debug_assertions) {
        corner_sample()
    } else {
        full_matrix()
    };
    let mut checked = 0u32;
    let mut skipped = 0u32;
    for w in workloads::all() {
        for &combo in &combos {
            if check_cell(w.name, &w.source, combo) {
                checked += 1;
            } else {
                skipped += 1;
            }
        }
    }
    // The sweep must never silently shrink: every cell is either
    // checked or an explicit single-path compile rejection, and the
    // rejections must stay a small minority of the matrix.
    let expected = workloads::all().len() as u32 * combos.len() as u32;
    assert_eq!(checked + skipped, expected, "sweep lost cells");
    assert!(
        skipped * 4 < expected,
        "single-path rejections ({skipped}) dominate the sweep ({expected})"
    );
}
