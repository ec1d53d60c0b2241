//! One pass of each workload, written once over [`Recorder`] so the
//! untraced and traced runs execute the same code, and the pinned
//! verification.
//!
//! * `compile`: every kernel through `patmos_compiler` at
//!   `CompileOptions::default()`; the image must equal set-up's.
//! * `analyze`: `Simulator::try_new` + `run` + `patmos_wcet::analyze`
//!   on every set-up image; r1, cycles and bound must equal the pinned
//!   numbers and the run must stay within the bound. The simulator's
//!   teardown is timed on its own (`sim.drop`): freeing its memory
//!   pages costs about as much as building it.
//! * `campaign`: per kernel a golden run, the control-flow map, then
//!   seeded fault injections, each run under both detector arms. A pass
//!   draws its injections from one of [`CAMPAIGN_SETS`] seeds derived
//!   from `--seed`; once a set has run, every later pass of that set
//!   must reproduce its outcomes exactly.
//!
//! The traced run adds probes inside the pass, each right after the
//! kernel it measures so both see the same host state; `probe.` spans
//! are left out of the pass time. The compile probe replays the
//! compiler stage by stage, the analyze probe reconstructs the CFGs
//! alone.

use patmos::asm::assemble;
use patmos::compiler::{
    compile, compile_stats, compile_to_asm, compile_with_artifacts, parse, CompileOptions, Policy,
};
use patmos::isa::Reg;
use patmos::opt::{optimize_with, OptConfig};
use patmos::regalloc::regalloc;
use patmos::sched::{schedule_with_report, SchedOptions};
use patmos::sim::faults::{golden_run, run_injection, GoldenRun, InjectionOutcome};
use patmos::sim::{
    DetectorKind, FaultOutcome, FaultPlan, FaultRng, FaultSpace, SimConfig, Simulator,
};
use patmos::wcet::{analyze, build_cfgs, flow_map, Machine};
use patmos_bench::resilience::{resilience_baseline, CAMPAIGN_SEED, INJECTIONS_PER_KERNEL};

use crate::spans::{Off, Recorder, Req};
use crate::suite::{Kernel, SplitMix, Suite, Tally};

/// Distinct injection seeds a campaign run cycles through.
pub const CAMPAIGN_SETS: usize = 8;

/// Work done by the passes of a run, summed.
#[derive(Debug, Default)]
pub struct Counts {
    /// Items completed: kernels compiled or analysed, or injected runs.
    pub items: u64,
    /// Encoded code bytes of the compiled images.
    pub code_bytes: u64,
    /// Simulated cycles of the analysed runs.
    pub guest_cycles: u64,
    /// WCET bounds of the analysed images.
    pub bound_cycles: u64,
    /// Of `guest_cycles`, those retired by the fast basic-block loop.
    pub fast_cycles: u64,
    /// Of `guest_cycles`, those retired by the general predecoded step.
    pub pre_cycles: u64,
    /// Injected runs under the full detector stack.
    pub full_runs: u64,
    /// Of those, runs whose injection fired.
    pub fired: u64,
    /// Simulated cycles of all injected runs, both arms.
    pub inject_cycles: u64,
    /// Full-stack outcomes: masked.
    pub masked: u64,
    /// Full-stack outcomes: silent data corruption.
    pub sdc: u64,
    /// Full-stack outcomes: stopped by a detector.
    pub detected: u64,
    /// Full-stack outcomes: watchdog hang.
    pub hang: u64,
    /// The compile probe's work counts.
    pub chain: ChainCounts,
    /// The compile probe's `(bundles, paired)` per kernel, last pass.
    pub chain_stats: Vec<Option<(usize, usize)>>,
    /// Basic blocks the analyze probe reconstructed.
    pub cfg_blocks: u64,
}

/// One injection's outcomes: strict-mode detectors alone, then with the
/// control-flow checker armed.
pub type Arms = (InjectionOutcome, InjectionOutcome);

/// A campaign run's injection seed and the outcomes of each injection
/// set's first pass, per kernel.
pub struct Campaign {
    seed: u64,
    memo: Vec<Option<Vec<Arms>>>,
}

impl Campaign {
    /// A campaign whose injection seeds derive from `seed`.
    pub fn new(seed: u64) -> Campaign {
        Campaign {
            seed,
            memo: Vec::new(),
        }
    }
}

/// The injection seed of a campaign pass.
pub fn campaign_seed(seed: u64, pass: u32) -> u64 {
    let mut rng = SplitMix(seed ^ (pass as u64 % CAMPAIGN_SETS as u64 + 1));
    rng.next_u64()
}

fn req(pass: u32, kernel: usize) -> Req {
    Req {
        pass,
        kernel: kernel as u32,
    }
}

/// Compiles every kernel; the traced run times `compile_to_asm` and
/// the assembler separately, then probes the
/// stage chain.
pub fn compile_pass<R: Recorder>(
    rec: &mut R,
    suite: &Suite,
    pass: u32,
    tally: &mut Tally,
    counts: &mut Counts,
) {
    let options = CompileOptions::default();
    for (i, k) in suite.kernels.iter().enumerate() {
        let req = req(pass, i);
        let image = if R::ON {
            rec.span("compiler.compile_to_asm", req, |_| {
                compile_to_asm(&k.source, &options)
            })
            .map_err(|e| e.to_string())
            .and_then(|asm| {
                rec.span("asm.assemble", req, |_| assemble(&asm))
                    .map_err(|e| e.to_string())
            })
        } else {
            compile(&k.source, &options).map_err(|e| e.to_string())
        };
        counts.items += 1;
        match image {
            Ok(image) => {
                counts.code_bytes += 4 * image.code().len() as u64;
                tally.check(
                    image.code() == k.image.code() && image.data() == k.image.data(),
                    || format!("{}: compiled image differs from set-up's", k.name),
                );
            }
            Err(e) => {
                tally.check(false, || format!("{}: compile failed: {e}", k.name));
            }
        }
        if R::ON {
            counts.chain_stats.resize(suite.kernels.len(), None);
            counts.chain_stats[i] =
                match rec.span("probe.chain", req, |rec| chain_kernel(rec, &k.source, req)) {
                    Ok((work, stats)) => {
                        counts.chain.add(&work);
                        Some(stats)
                    }
                    Err(e) => {
                        tally.check(false, || format!("{}: stage chain failed: {e}", k.name));
                        None
                    }
                };
        }
    }
}

/// Simulates and bounds every kernel.
pub fn analyze_pass<R: Recorder>(
    rec: &mut R,
    suite: &Suite,
    pass: u32,
    tally: &mut Tally,
    counts: &mut Counts,
) {
    let config = SimConfig::default();
    let machine = Machine::Patmos(config.clone());
    for (i, k) in suite.kernels.iter().enumerate() {
        let req = req(pass, i);
        let run = rec
            .span("sim.new", req, |_| {
                Simulator::try_new(&k.image, config.clone())
            })
            .and_then(|mut sim| {
                let run = rec.span("sim.run", req, |_| sim.run())?;
                let out = (sim.reg(Reg::R1), run.stats.cycles, sim.host_stats());
                rec.span("sim.drop", req, |_| drop(sim));
                Ok(out)
            })
            .map_err(|e| e.to_string());
        let report = rec
            .span("wcet.analyze", req, |_| analyze(&k.image, &machine))
            .map_err(|e| e.to_string());
        counts.items += 1;
        match (run, report) {
            (Ok((r1, cycles, host)), Ok(report)) => {
                let bound = report.bound_cycles;
                counts.guest_cycles += cycles;
                counts.bound_cycles += bound;
                counts.fast_cycles += host.fast_cycles;
                counts.pre_cycles += host.pre_cycles;
                tally.check(
                    r1 == k.expected
                        && Some(cycles) == k.cycles
                        && Some(bound) == k.bound
                        && cycles <= bound,
                    || {
                        format!(
                            "{}: r1 {r1} (expected {}), cycles {cycles} (pinned {:?}), bound {bound} (pinned {:?})",
                            k.name, k.expected, k.cycles, k.bound
                        )
                    },
                );
            }
            (run, report) => {
                tally.check(false, || {
                    format!(
                        "{}: run {:?}, analysis {:?}",
                        k.name,
                        run.err(),
                        report.err()
                    )
                });
            }
        }
        if R::ON {
            match rec.span("probe.cfg", req, |rec| {
                rec.span("wcet.cfg", req, |_| build_cfgs(&k.image))
            }) {
                Ok(cfgs) => {
                    counts.cfg_blocks += cfgs.iter().map(|c| c.blocks.len() as u64).sum::<u64>()
                }
                Err(e) => {
                    tally.check(false, || format!("{}: build_cfgs failed: {e}", k.name));
                }
            }
        }
    }
}

/// One kernel's campaign: golden run, flow map, then `count` seeded
/// injections, each under both detector arms.
fn campaign_kernel<R: Recorder>(
    rec: &mut R,
    k: &Kernel,
    seed: u64,
    count: u32,
    req: Req,
    config: &SimConfig,
) -> Result<(GoldenRun, Vec<Arms>), String> {
    let golden = rec
        .span("faults.golden", req, |_| golden_run(&k.image, config))
        .map_err(|e| e.to_string())?;
    let flow = rec
        .span("faults.flow_map", req, |_| flow_map(&k.image))
        .map_err(|e| e.to_string())?;
    let space = FaultSpace::for_image(&k.image, golden.cycles);
    let mut rng = FaultRng::for_kernel(seed, k.name);
    let runs = (0..count)
        .map(|_| {
            let injection = FaultPlan::draw(&mut rng, &space);
            let strict = rec.span("faults.inject", req, |_| {
                run_injection(&k.image, config, injection, None, &golden)
            });
            let full = rec.span("faults.inject", req, |_| {
                run_injection(&k.image, config, injection, Some(&flow), &golden)
            });
            (strict, full)
        })
        .collect();
    Ok((golden, runs))
}

/// Runs every kernel's campaign with this pass's injection seed.
pub fn campaign_pass<R: Recorder>(
    rec: &mut R,
    suite: &Suite,
    pass: u32,
    campaign: &mut Campaign,
    tally: &mut Tally,
    counts: &mut Counts,
) {
    let config = SimConfig::default();
    let n = suite.kernels.len();
    campaign.memo.resize(CAMPAIGN_SETS * n, None);
    let set = pass as usize % CAMPAIGN_SETS;
    let injections_seed = campaign_seed(campaign.seed, pass);
    for (i, k) in suite.kernels.iter().enumerate() {
        let req = req(pass, i);
        let (golden, runs) =
            match campaign_kernel(rec, k, injections_seed, INJECTIONS_PER_KERNEL, req, &config) {
                Ok(out) => out,
                Err(e) => {
                    tally.check(false, || format!("{}: golden run failed: {e}", k.name));
                    continue;
                }
            };
        tally.check(
            golden.result_r1 == k.expected && Some(golden.cycles) == k.cycles,
            || {
                format!(
                    "{}: golden r1 {} (expected {}), cycles {} (pinned {:?})",
                    k.name, golden.result_r1, k.expected, golden.cycles, k.cycles
                )
            },
        );
        for (strict, full) in &runs {
            counts.items += 2;
            counts.full_runs += 1;
            counts.fired += full.injected as u64;
            counts.inject_cycles += strict.cycles + full.cycles;
            match full.outcome {
                FaultOutcome::Masked => counts.masked += 1,
                FaultOutcome::SilentDataCorruption => counts.sdc += 1,
                FaultOutcome::Detected(_) => counts.detected += 1,
                FaultOutcome::Hang => counts.hang += 1,
            }
        }
        match &mut campaign.memo[set * n + i] {
            Some(first) => {
                tally.check(*first == runs, || {
                    format!("{}: pass {pass} differs from its set's first pass", k.name)
                });
            }
            slot => {
                tally.check(
                    runs.iter().all(|(s, f)| {
                        s.injected == f.injected
                            && (f.injected || f.outcome == FaultOutcome::Masked)
                    }),
                    || format!("{}: an injection that never fired was not masked", k.name),
                );
                *slot = Some(runs);
            }
        }
    }
}

/// Suite totals the verification measured.
pub struct Verified {
    /// Simulated cycles of one run of every kernel.
    pub guest_cycles: u64,
    /// WCET bounds of every kernel.
    pub bound_cycles: u64,
    /// The pinned campaign's suite totals under the full detector
    /// stack: `[runs, masked, sdc, caught by the flow checker]`.
    pub campaign: [u64; 4],
}

/// The pinned checks, run once outside the timed passes: one analyze
/// pass (r1, cycles and bound of every kernel against the pinned
/// numbers) and the E20 campaign at its pinned seed, single-threaded,
/// whose per-kernel tallies must equal `resilience_baseline.json`.
pub fn verify(suite: &Suite, tally: &mut Tally) -> Verified {
    let mut counts = Counts::default();
    analyze_pass(&mut Off, suite, u32::MAX, tally, &mut counts);
    let pinned = resilience_baseline();
    let config = SimConfig::default();
    let mut campaign = [0; 4];
    for (i, k) in suite.kernels.iter().enumerate() {
        let Some(base) = pinned.iter().find(|b| b.name == k.name) else {
            tally.check(false, || {
                format!("{}: missing from the resilience baseline", k.name)
            });
            continue;
        };
        let runs = match campaign_kernel(
            &mut Off,
            k,
            CAMPAIGN_SEED,
            INJECTIONS_PER_KERNEL,
            req(u32::MAX, i),
            &config,
        ) {
            Ok((_, runs)) => runs,
            Err(e) => {
                tally.check(false, || format!("{}: pinned campaign failed: {e}", k.name));
                continue;
            }
        };
        let count = |arm: fn(&Arms) -> bool| runs.iter().filter(|r| arm(r)).count() as u64;
        let got = [
            count(|(_, f)| f.injected),
            count(|(_, f)| f.outcome == FaultOutcome::Masked),
            count(|(_, f)| f.outcome == FaultOutcome::SilentDataCorruption),
            count(
                |(_, f)| matches!(f.outcome, FaultOutcome::Detected(d) if d != DetectorKind::ControlFlow),
            ),
            count(|(_, f)| f.outcome == FaultOutcome::Detected(DetectorKind::ControlFlow)),
            count(|(_, f)| f.outcome == FaultOutcome::Hang),
            count(|(s, _)| matches!(s.outcome, FaultOutcome::Detected(_))),
            count(|(s, _)| s.outcome == FaultOutcome::SilentDataCorruption),
            count(|(s, _)| s.outcome == FaultOutcome::Hang),
        ];
        let want = [
            base.fired,
            base.masked,
            base.sdc,
            base.detected_contract,
            base.detected_control_flow,
            base.hang,
            base.strict_detected,
            base.strict_sdc,
            base.strict_hang,
        ];
        for (total, n) in campaign
            .iter_mut()
            .zip([runs.len() as u64, got[1], got[2], got[4]])
        {
            *total += n;
        }
        tally.check(got == want && runs.len() as u64 == base.injections, || {
            format!(
                "{}: pinned campaign [fired masked sdc contract cflow hang strict_det strict_sdc strict_hang] {got:?}, baseline {want:?}",
                k.name
            )
        });
    }
    Verified {
        guest_cycles: counts.guest_cycles,
        bound_cycles: counts.bound_cycles,
        campaign,
    }
}

/// Work counts of the compile probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChainCounts {
    /// Mid-end fixpoint rounds.
    pub rounds: u64,
    /// Virtual instructions before the mid-end.
    pub insts_before: u64,
    /// Virtual instructions after the mid-end.
    pub insts_after: u64,
    /// Values the allocator spilled for register pressure.
    pub spills: u64,
    /// Scheduled bundles.
    pub bundles: u64,
    /// Bundles with a filled second slot.
    pub paired: u64,
    /// Loops software-pipelined.
    pub pipelined: u64,
    /// Loops the modulo scheduler refused.
    pub refusals: u64,
    /// Sum over pipelined loops of II − MII.
    pub ii_excess: u64,
}

impl ChainCounts {
    fn add(&mut self, o: &ChainCounts) {
        self.rounds += o.rounds;
        self.insts_before += o.insts_before;
        self.insts_after += o.insts_after;
        self.spills += o.spills;
        self.bundles += o.bundles;
        self.paired += o.paired;
        self.pipelined += o.pipelined;
        self.refusals += o.refusals;
        self.ii_excess += o.ii_excess;
    }
}

/// Replays the compiler stage by stage with the exact `OptConfig` and
/// `SchedOptions` that `compile_to_asm` uses, timing each public stage. Codegen
/// has no public entry point, so the virtual-register module comes
/// from `compile_with_artifacts` at opt 0 (code generation reads no
/// opt level); it is timed under a `probe.` span so it counts toward
/// no stage. `sched.list_only` is the counterfactual schedule without
/// the software pipeliner.
fn chain_kernel<R: Recorder>(
    rec: &mut R,
    source: &str,
    req: Req,
) -> Result<(ChainCounts, (usize, usize)), String> {
    let options = CompileOptions::default();
    let constraints = options.constraints();
    let pipeline = options.sched_level >= 2 && !options.single_path;
    let opt_config = OptConfig {
        shape_stable: options.single_path,
        trace: false,
        level: options.opt_level,
        pressure: constraints.pressure_estimate(),
        defer_pipelineable: pipeline,
    };
    let sched_options = SchedOptions {
        dual_issue: options.dual_issue,
        pipeline,
        reuse_renaming: options.reg_policy == Policy::Loop,
    };
    rec.span("compiler.parse", req, |_| parse(source))
        .map_err(|e| e.to_string())?;
    let codegen_options = CompileOptions {
        opt_level: 0,
        ..options.clone()
    };
    let mut vmodule = rec
        .span("probe.codegen", req, |_| {
            compile_with_artifacts(source, &codegen_options)
        })
        .map_err(|e| e.to_string())?
        .vmodule;
    let opt = rec.span("opt.optimize", req, |_| {
        optimize_with(&mut vmodule, opt_config)
    });
    let (lir, alloc) = rec
        .span("regalloc.regalloc", req, |_| {
            regalloc(&constraints, &vmodule)
        })
        .map_err(|e| e.to_string())?;
    let list_input = lir.clone();
    let (scheduled, report) = rec.span("sched.schedule", req, |_| {
        schedule_with_report(lir, &sched_options)
    });
    let list_options = SchedOptions {
        pipeline: false,
        ..sched_options
    };
    rec.span("sched.list_only", req, |_| {
        schedule_with_report(list_input, &list_options)
    });
    let stats = scheduled.bundle_stats();
    let modulo = report.remarks.iter().filter(|r| r.pass == "modulo-sched");
    Ok((
        ChainCounts {
            rounds: opt.rounds as u64,
            insts_before: opt.insts_before as u64,
            insts_after: opt.insts_after as u64,
            spills: alloc.funcs.iter().map(|f| f.pressure_spills as u64).sum(),
            bundles: stats.0 as u64,
            paired: stats.1 as u64,
            pipelined: modulo.clone().filter(|r| r.applied).count() as u64,
            refusals: modulo.filter(|r| !r.applied).count() as u64,
            ii_excess: report
                .pipelined_loops()
                .map(|l| l.ii.saturating_sub(l.mii) as u64)
                .sum(),
        },
        stats,
    ))
}

/// Checks that the compile probe's stage chain reproduced the compiler:
/// its `bundle_stats` must equal `compile_stats` for every kernel.
pub fn check_chain(suite: &Suite, chain_stats: &[Option<(usize, usize)>], tally: &mut Tally) {
    let options = CompileOptions::default();
    for (i, k) in suite.kernels.iter().enumerate() {
        let whole = compile_stats(&k.source, &options).ok();
        let chain = chain_stats.get(i).copied().flatten();
        tally.check(chain.is_some() && chain == whole, || {
            format!(
                "{}: stage chain bundle stats {chain:?}, compile_stats {whole:?}",
                k.name
            )
        });
    }
}
