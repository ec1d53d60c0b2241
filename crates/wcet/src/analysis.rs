//! The end-to-end WCET analysis: call graph, bottom-up per-function IPET,
//! and the final report.

use std::collections::HashMap;
use std::fmt;

use patmos_asm::ObjectImage;
use patmos_baseline::BaselineConfig;
use patmos_sim::SimConfig;

use crate::cfg::{build_cfg, Block, Cfg, CfgError};
use crate::model;
use crate::solver::{solve, LinearProgram, LpSolution};

/// Which machine's timing model to analyse.
#[derive(Debug, Clone)]
pub enum Machine {
    /// The Patmos core with the given configuration.
    Patmos(SimConfig),
    /// The conventional baseline.
    Baseline(BaselineConfig),
}

/// Why the analysis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WcetError {
    /// CFG reconstruction failed.
    Cfg(CfgError),
    /// A loop header lacks a `.loopbound` annotation.
    MissingLoopBound {
        /// Word address of the unannotated header block.
        addr: u32,
    },
    /// The call graph is cyclic.
    Recursion {
        /// A function on the cycle.
        name: String,
    },
    /// The IPET program was infeasible (malformed CFG).
    Infeasible {
        /// The function analysed.
        name: String,
    },
    /// The image has no functions.
    Empty,
}

impl fmt::Display for WcetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetError::Cfg(e) => write!(f, "{e}"),
            WcetError::MissingLoopBound { addr } => {
                write!(f, "loop header at {addr:#x} needs a .loopbound annotation")
            }
            WcetError::Recursion { name } => {
                write!(f, "recursive call involving `{name}` is not analysable")
            }
            WcetError::Infeasible { name } => {
                write!(f, "IPET for `{name}` is infeasible")
            }
            WcetError::Empty => f.write_str("image contains no functions"),
        }
    }
}

impl std::error::Error for WcetError {}

impl From<CfgError> for WcetError {
    fn from(e: CfgError) -> WcetError {
        WcetError::Cfg(e)
    }
}

/// The analysis result.
#[derive(Debug, Clone)]
pub struct WcetReport {
    /// Name of the entry function.
    pub entry: String,
    /// WCET bound of the whole program in cycles, including warm-up.
    pub bound_cycles: u64,
    /// Per-function bounds (body only, callees included).
    pub per_function: Vec<(String, u64)>,
    /// One-time warm-up charge included in `bound_cycles`.
    pub warmup_cycles: u64,
}

impl WcetReport {
    /// The pessimism ratio against an observed cycle count.
    pub fn pessimism(&self, observed_cycles: u64) -> f64 {
        if observed_cycles == 0 {
            f64::INFINITY
        } else {
            self.bound_cycles as f64 / observed_cycles as f64
        }
    }
}

/// Computes a WCET bound for the image's entry function on the given
/// machine model.
///
/// Software-pipelined loops carrying a `.pipeloop` record are charged
/// at their pipelined shape — guard, prologue, kernel iterations at
/// the initiation interval, epilogue — with the short-trip fallback
/// loop capped at the guard's trip-count threshold (and excluded
/// entirely when the `.loopbound` minimum proves the guard passes).
/// Use [`analyze_unpipelined`] to measure what the bound would be
/// without that shape knowledge.
///
/// # Errors
///
/// Returns a [`WcetError`] for unanalysable programs: indirect calls,
/// recursion, loops without `.loopbound` annotations.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use patmos_wcet::{analyze, Machine};
/// let image = patmos_asm::assemble(&patmos_wcet::fixtures::counted_loop(5))?;
/// let report = analyze(&image, &Machine::Patmos(patmos_sim::SimConfig::default()))?;
/// assert!(report.bound_cycles > 0);
/// # Ok(())
/// # }
/// ```
pub fn analyze(image: &ObjectImage, machine: &Machine) -> Result<WcetReport, WcetError> {
    analyze_impl(image, machine, true)
}

/// Like [`analyze`], but deliberately blind to `.pipeloop` records:
/// every software-pipelined loop is charged as if its short-trip
/// fallback could run the full trip count — the shape the analysis
/// assumed before it learnt the pipelined cost model. The gap between
/// this bound and [`analyze`]'s is exactly what modelling the pipeline
/// buys.
///
/// # Errors
///
/// Same conditions as [`analyze`].
pub fn analyze_unpipelined(
    image: &ObjectImage,
    machine: &Machine,
) -> Result<WcetReport, WcetError> {
    analyze_impl(image, machine, false)
}

fn analyze_impl(
    image: &ObjectImage,
    machine: &Machine,
    use_pipe_loops: bool,
) -> Result<WcetReport, WcetError> {
    let solved = solve_program(image, machine, use_pipe_loops)?;
    Ok(WcetReport {
        entry: solved.entry,
        bound_cycles: solved.bound_cycles,
        per_function: solved.per_function,
        warmup_cycles: solved.warmup,
    })
}

/// Prices basic blocks on one machine model.
pub(crate) struct Pricing<'a> {
    image: &'a ObjectImage,
    machine: &'a Machine,
    /// The Patmos model's global facts (unused by the baseline).
    facts: model::GlobalFacts,
}

impl Pricing<'_> {
    /// Worst-case cost of one execution of `block` in `cfg`, with
    /// callees charged their bounds in `callee_wcet` (an empty map
    /// charges a call site its own cost only).
    pub(crate) fn block_cost(
        &self,
        cfg: &Cfg,
        block: &Block,
        callee_wcet: &HashMap<u32, u64>,
    ) -> u64 {
        match self.machine {
            Machine::Patmos(config) => model::patmos_block_cost(
                block,
                config,
                &self.facts,
                self.image,
                cfg.func.size_words,
                callee_wcet,
            ),
            Machine::Baseline(config) => model::baseline_block_cost(block, config, callee_wcet),
        }
    }
}

/// One bottom-up solve of a whole program: what [`analyze`] reports,
/// and the worst-case block counts the pessimism report joins on.
pub(crate) struct ProgramSolution<'a> {
    /// Per-function CFGs, in image order.
    pub(crate) cfgs: Vec<Cfg>,
    /// Callees-first order over `cfgs`.
    pub(crate) order: Vec<usize>,
    /// The block prices the bounds were solved with.
    pub(crate) pricing: Pricing<'a>,
    /// Name of the entry function.
    pub(crate) entry: String,
    /// The entry function's bound plus `warmup`.
    pub(crate) bound_cycles: u64,
    /// One-time warm-up charge.
    pub(crate) warmup: u64,
    /// Per-function bounds (callees included), callees first.
    pub(crate) per_function: Vec<(String, u64)>,
    /// Per function (indexed like `cfgs`), the per-block execution
    /// counts of the flow that witnesses its bound.
    pub(crate) counts: Vec<Vec<u64>>,
}

/// Builds every function's CFG, derives the machine's global facts and
/// warm-up, and solves each function's IPET bottom-up over the call
/// graph. With `use_pipe_loops` off, `.pipeloop` records are ignored.
pub(crate) fn solve_program<'a>(
    image: &'a ObjectImage,
    machine: &'a Machine,
    use_pipe_loops: bool,
) -> Result<ProgramSolution<'a>, WcetError> {
    if image.functions().is_empty() {
        return Err(WcetError::Empty);
    }
    let mut cfgs: Vec<Cfg> = image
        .functions()
        .iter()
        .map(|f| build_cfg(image, f))
        .collect::<Result<_, _>>()?;
    if !use_pipe_loops {
        for cfg in &mut cfgs {
            cfg.pipe_loops.clear();
        }
    }

    let order = topo_order(&cfgs)?;

    // Stack-depth fact: the deepest chain of frames over the call graph.
    let frames: HashMap<u32, u32> = cfgs
        .iter()
        .map(|c| (c.func.start_word, model::frame_words(c)))
        .collect();
    let max_depth = max_stack_depth(&cfgs, &order, &frames);

    let (facts, warmup) = match machine {
        Machine::Patmos(config) => {
            let facts = model::global_facts(image, config, &frames, max_depth);
            (facts, model::warmup_cost(image, config, &facts))
        }
        Machine::Baseline(_) => (model::GlobalFacts::default(), 0),
    };
    let pricing = Pricing {
        image,
        machine,
        facts,
    };

    let mut wcet: HashMap<u32, u64> = HashMap::new();
    let mut per_function = Vec::new();
    let mut counts: Vec<Vec<u64>> = vec![Vec::new(); cfgs.len()];
    for &idx in &order {
        let cfg = &cfgs[idx];
        let costs: Vec<u64> = cfg
            .blocks
            .iter()
            .map(|b| pricing.block_cost(cfg, b, &wcet))
            .collect();
        let (bound, block_counts) = ipet(cfg, &costs)?;
        wcet.insert(cfg.func.start_word, bound);
        per_function.push((cfg.func.name.clone(), bound));
        counts[idx] = block_counts;
    }

    let entry = image
        .function_at(image.entry_word())
        .map(|f| f.name.clone())
        .unwrap_or_default();
    let entry_bound = wcet
        .get(&image.entry_word())
        .copied()
        .ok_or(WcetError::Empty)?;

    Ok(ProgramSolution {
        cfgs,
        order,
        pricing,
        entry,
        bound_cycles: entry_bound + warmup,
        warmup,
        per_function,
        counts,
    })
}

/// Reverse-topological order over the call graph (callees first).
fn topo_order(cfgs: &[Cfg]) -> Result<Vec<usize>, WcetError> {
    let index_of: HashMap<u32, usize> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.func.start_word, i))
        .collect();
    let mut state = vec![0u8; cfgs.len()];
    let mut order = Vec::new();

    fn visit(
        i: usize,
        cfgs: &[Cfg],
        index_of: &HashMap<u32, usize>,
        state: &mut [u8],
        order: &mut Vec<usize>,
    ) -> Result<(), WcetError> {
        match state[i] {
            1 => {
                return Err(WcetError::Recursion {
                    name: cfgs[i].func.name.clone(),
                })
            }
            2 => return Ok(()),
            _ => {}
        }
        state[i] = 1;
        for block in &cfgs[i].blocks {
            for callee in &block.calls {
                if let Some(&j) = index_of.get(callee) {
                    visit(j, cfgs, index_of, state, order)?;
                }
            }
        }
        state[i] = 2;
        order.push(i);
        Ok(())
    }

    for i in 0..cfgs.len() {
        visit(i, cfgs, &index_of, &mut state, &mut order)?;
    }
    Ok(order)
}

/// Maximum total frame words along any call-graph path.
fn max_stack_depth(cfgs: &[Cfg], order: &[usize], frames: &HashMap<u32, u32>) -> u32 {
    let index_of: HashMap<u32, usize> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.func.start_word, i))
        .collect();
    let mut depth: HashMap<usize, u32> = HashMap::new();
    for &i in order {
        // order is callees-first, so callee depths are ready.
        let own = frames.get(&cfgs[i].func.start_word).copied().unwrap_or(0);
        let mut deepest_callee = 0;
        for block in &cfgs[i].blocks {
            for callee in &block.calls {
                if let Some(&j) = index_of.get(callee) {
                    deepest_callee = deepest_callee.max(depth.get(&j).copied().unwrap_or(0));
                }
            }
        }
        depth.insert(i, own + deepest_callee);
    }
    depth.values().copied().max().unwrap_or(0)
}

/// Solves the IPET linear program for one function.
///
/// Returns the bound together with the per-block execution counts of
/// the witnessing worst-case flow (the number of times each block runs
/// on the path the bound charges for) — the raw material of the
/// pessimism report.
fn ipet(cfg: &Cfg, costs: &[u64]) -> Result<(u64, Vec<u64>), WcetError> {
    // Edge variables: a virtual entry edge, every CFG edge, one exit edge
    // per exit block.
    #[derive(Clone, Copy, PartialEq)]
    enum Edge {
        Entry,
        Flow(usize, usize),
        Exit(usize),
    }
    let mut edges: Vec<Edge> = vec![Edge::Entry];
    for (u, block) in cfg.blocks.iter().enumerate() {
        for &v in &block.succs {
            edges.push(Edge::Flow(u, v));
        }
        if block.is_exit {
            edges.push(Edge::Exit(u));
        }
    }

    let mut lp = LinearProgram::new(edges.len());
    // Objective: an edge entering block v earns cost(v).
    for (ei, e) in edges.iter().enumerate() {
        let coeff = match e {
            Edge::Entry => costs[0] as f64,
            Edge::Flow(_, v) => costs[*v] as f64,
            Edge::Exit(_) => 0.0,
        };
        lp.set_objective(ei, coeff);
    }
    // Entry edge executes exactly once.
    lp.add_eq(vec![(0, 1.0)], 1.0);
    // Flow conservation per block: in - out = 0.
    for b in 0..cfg.blocks.len() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for (ei, e) in edges.iter().enumerate() {
            let c = match e {
                Edge::Entry => (b == 0) as i32 as f64,
                Edge::Flow(u, v) => {
                    let mut c = 0.0;
                    if *v == b {
                        c += 1.0;
                    }
                    if *u == b {
                        c -= 1.0;
                    }
                    c
                }
                Edge::Exit(u) => {
                    if *u == b {
                        -1.0
                    } else {
                        0.0
                    }
                }
            };
            if c != 0.0 {
                coeffs.push((ei, c));
            }
        }
        lp.add_eq(coeffs, 0.0);
    }
    // Loop bounds: every back-edge target must be annotated.
    let back = cfg.back_edges();
    let headers: Vec<usize> = {
        let mut hs: Vec<usize> = back.iter().map(|&(_, h)| h).collect();
        hs.sort_unstable();
        hs.dedup();
        hs
    };
    for &h in &headers {
        let bound = cfg.blocks[h]
            .loop_bound
            .ok_or(WcetError::MissingLoopBound {
                addr: cfg.blocks[h].start_word,
            })?;
        // A software-pipelined loop's fallback carries the *original*
        // loop's annotation, but it only runs when the guard fails —
        // i.e. with fewer than `threshold` trips remaining — so its
        // per-entry bound caps at the threshold. The worst-case flow
        // then routes through the (costlier) guard + prologue +
        // kernel + epilogue path, which the kernel's own `.loopbound`
        // charges at II per iteration: exactly the pipelined cost
        // model. The fallback path still participates (the LP takes
        // the max), unless the exclusion below kills it.
        let pipe = cfg.pipe_loops.iter().find(|p| p.fallback == h);
        let max = match pipe {
            Some(p) => bound.max.min(p.record.threshold),
            None => bound.max,
        };
        // x_h <= max * (entry edges into h):
        //   sum(in(h)) - max * sum(non-back in(h)) <= 0.
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for (ei, e) in edges.iter().enumerate() {
            match e {
                Edge::Entry if h == 0 => {
                    coeffs.push((ei, 1.0 - max as f64));
                }
                Edge::Flow(u, v) if *v == h => {
                    let is_back = back.contains(&(*u, h));
                    let c = if is_back { 1.0 } else { 1.0 - max as f64 };
                    coeffs.push((ei, c));
                }
                _ => {}
            }
        }
        lp.add_ub(coeffs, 0.0);
    }
    // A fallback whose loop provably runs at least `threshold` trips
    // is dead: the guard always passes, so no flow may enter it at
    // all (its entry edges sum to zero). This fires on constant-trip
    // loops, where the unroller tightened the `.loopbound` min.
    for p in &cfg.pipe_loops {
        if p.record.min_trips < p.record.threshold {
            continue;
        }
        let coeffs: Vec<(usize, f64)> = edges
            .iter()
            .enumerate()
            .filter_map(|(ei, e)| match e {
                Edge::Flow(u, v) if *v == p.fallback && !back.contains(&(*u, p.fallback)) => {
                    Some((ei, 1.0))
                }
                _ => None,
            })
            .collect();
        if !coeffs.is_empty() {
            lp.add_ub(coeffs, 0.0);
        }
    }

    match solve(&lp) {
        LpSolution::Optimal { value, assignment } => {
            // Block count = total flow entering the block.
            let mut counts = vec![0u64; cfg.blocks.len()];
            for (ei, e) in edges.iter().enumerate() {
                let flow = assignment.get(ei).copied().unwrap_or(0.0);
                match e {
                    Edge::Entry => counts[0] += flow.round() as u64,
                    Edge::Flow(_, v) => counts[*v] += flow.round() as u64,
                    Edge::Exit(_) => {}
                }
            }
            // The bound is re-derived from the rounded witnessing flow
            // in exact integer arithmetic: the float objective can sit
            // an ulp above the true integral optimum, and `ceil` would
            // then charge a phantom cycle the per-block counts never
            // account for. Should the solver ever land on a fractional
            // vertex, the rounded flow could undercut the objective —
            // keep the ceiling in that case; soundness beats the
            // accounting identity.
            let flow_value: u64 = counts.iter().zip(costs).map(|(&n, &c)| n * c).sum();
            let bound = if (flow_value as f64) + 0.5 < value {
                value.ceil() as u64
            } else {
                flow_value
            };
            Ok((bound, counts))
        }
        LpSolution::Infeasible => Err(WcetError::Infeasible {
            name: cfg.func.name.clone(),
        }),
        // Unbounded means a loop escaped the bound constraints.
        LpSolution::Unbounded => Err(WcetError::MissingLoopBound {
            addr: cfg.blocks.first().map(|b| b.start_word).unwrap_or(0),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;
    use patmos_sim::Simulator;

    fn patmos() -> Machine {
        Machine::Patmos(SimConfig::default())
    }

    #[test]
    fn bound_covers_observed_loop() {
        let image = assemble(&crate::fixtures::counted_loop(5)).expect("assembles");
        let report = analyze(&image, &patmos()).expect("analyses");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let observed = sim.run().expect("runs").stats.cycles;
        assert!(
            report.bound_cycles >= observed,
            "bound {} must cover observed {}",
            report.bound_cycles,
            observed
        );
        // And it should be tight: the loop has a fixed trip count.
        assert!(
            report.pessimism(observed) < 1.3,
            "ratio {}",
            report.pessimism(observed)
        );
    }

    #[test]
    fn missing_loop_bound_is_reported() {
        let src = "        .func main\n        li r2 = 5\nloop:\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n";
        let image = assemble(src).expect("assembles");
        match analyze(&image, &patmos()) {
            Err(WcetError::MissingLoopBound { .. }) => {}
            other => panic!("expected MissingLoopBound, got {other:?}"),
        }
    }

    #[test]
    fn pipeloop_record_tightens_the_bound() {
        // Same image minus the `.pipeloop` record: the fallback is
        // charged its full 9 annotated trips instead of the guard's
        // 2-trip threshold, so the pipelined-aware bound is strictly
        // lower.
        let image = assemble(&crate::fixtures::pipelined_loop(Some((1, 3)), 0)).expect("assembles");
        let aware = analyze(&image, &patmos()).expect("analyses");
        let blind = analyze_unpipelined(&image, &patmos()).expect("analyses");
        assert!(
            aware.bound_cycles < blind.bound_cycles,
            "pipelined-aware bound {} must beat the fallback-charged bound {}",
            aware.bound_cycles,
            blind.bound_cycles
        );
    }

    #[test]
    fn missing_kernel_bound_names_the_kernel_header() {
        // Satellite: an unannotated *pipelined* kernel loop must point
        // the user at the kernel header, not the guard block.
        let image = assemble(&crate::fixtures::pipelined_loop(None, 0)).expect("assembles");
        let kernel = image.symbol("kernel").expect("kernel label kept");
        match analyze(&image, &patmos()) {
            Err(WcetError::MissingLoopBound { addr }) => assert_eq!(
                addr, kernel,
                "error should name the kernel header at word {kernel}, got {addr}"
            ),
            other => panic!("expected MissingLoopBound, got {other:?}"),
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let src =
            "        .func a\n        call a\n        nop\n        ret\n        nop\n        nop\n";
        let image = assemble(src).expect("assembles");
        match analyze(&image, &patmos()) {
            Err(WcetError::Recursion { name }) => assert_eq!(name, "a"),
            other => panic!("expected Recursion, got {other:?}"),
        }
    }

    #[test]
    fn diamond_takes_longer_path() {
        // Longer path has 6 extra bundles; bound must include them.
        let src = "        .func main\n        cmpieq p1 = r1, 0\n        (p1) br else\n        nop\n        nop\n        li r2 = 1\n        li r2 = 1\n        li r2 = 1\n        li r2 = 1\n        li r2 = 1\n        li r2 = 1\n        br join\n        nop\nelse:\n        li r2 = 2\njoin:\n        halt\n";
        let image = assemble(src).expect("assembles");
        let report = analyze(&image, &patmos()).expect("analyses");
        // Drive both paths in simulation; bound covers the worse one.
        let mut worst = 0;
        for r1 in [0u32, 1] {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.set_reg(patmos_isa::Reg::R1, r1);
            worst = worst.max(sim.run().expect("runs").stats.cycles);
        }
        assert!(report.bound_cycles >= worst);
        assert!(
            report.pessimism(worst) < 1.5,
            "ratio {}",
            report.pessimism(worst)
        );
    }

    #[test]
    fn calls_add_callee_bounds() {
        let src = "        .func leaf\n        li r1 = 1\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        call leaf\n        nop\n        call leaf\n        nop\n        halt\n";
        let image = assemble(src).expect("assembles");
        let report = analyze(&image, &patmos()).expect("analyses");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let observed = sim.run().expect("runs").stats.cycles;
        assert!(report.bound_cycles >= observed);
    }

    #[test]
    fn baseline_bound_is_much_looser() {
        let image = assemble(&crate::fixtures::counted_loop(5)).expect("assembles");
        let patmos_report = analyze(&image, &patmos()).expect("analyses");
        let baseline_report =
            analyze(&image, &Machine::Baseline(BaselineConfig::default())).expect("analyses");

        let mut psim = Simulator::new(&image, SimConfig::default());
        let p_obs = psim.run().expect("runs").stats.cycles;
        let mut bsim = patmos_baseline::BaselineSim::new(&image, BaselineConfig::default());
        let b_obs = bsim.run().expect("runs").stats.cycles;

        assert!(baseline_report.bound_cycles >= b_obs);
        let p_ratio = patmos_report.pessimism(p_obs);
        let b_ratio = baseline_report.pessimism(b_obs);
        assert!(
            b_ratio > p_ratio,
            "baseline pessimism {b_ratio:.2} should exceed Patmos {p_ratio:.2}"
        );
    }
}
