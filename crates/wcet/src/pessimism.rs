//! The pessimism report: joining the IPET bound against measured
//! cycles, block by block, to show *where* the bound is loose.
//!
//! The IPET solution is more than a number — its witnessing flow says
//! how many times each basic block is charged on the worst-case path,
//! and the timing model says what each charge costs. Folding a
//! profiled run's per-address cycles onto the same blocks produces a
//! ranked answer to "which code is the bound over-charging?": blocks
//! the analysis pays for but execution never (or rarely) visits float
//! to the top. A software-pipelined loop's list-scheduled fallback
//! used to be the canonical example — the analysis budgeted its full
//! worst-case trips while a profiled run took the kernel — until the
//! `.pipeloop` records taught IPET the guard's trip-count threshold;
//! the fallback is now capped (or excluded outright when the
//! `.loopbound` minimum proves the guard passes), and this report is
//! how such residual pessimism gets found in the first place.
//!
//! The measured side is a plain `word address → cycles` map so this
//! crate stays independent of the tracing machinery; `patmos-cli wcet
//! --pessimism` builds the map from a `patmos-trace`d run.

use std::collections::HashMap;

use patmos_asm::ObjectImage;

use crate::analysis::{solve_program, Machine, WcetError};

/// One block's share of the bound, joined with its measured cycles.
#[derive(Debug, Clone)]
pub struct BlockSlack {
    /// The containing function.
    pub function: String,
    /// Word address of the block's first bundle.
    pub start_word: u32,
    /// `(function, source line)` of the block's code, when the image
    /// carries a source map.
    pub source: Option<(String, u32)>,
    /// Executions charged on the worst-case path (per-function IPET
    /// count times the function's worst-case invocation count).
    pub count: u64,
    /// The model's cost of one execution, excluding callee bodies
    /// (their time is reported on their own blocks) but including
    /// call-site method-cache traffic.
    pub cost: u64,
    /// `count * cost`: the block's total charge in the bound.
    pub contribution: u64,
    /// Cycles a profiled run actually spent at this block's addresses.
    pub measured: u64,
    /// `contribution - measured`: how much of the bound this block
    /// over-charges. Negative when the model under-charges locally
    /// (another block's charge covers the difference).
    pub slack: i64,
}

/// The per-block pessimism breakdown of a WCET analysis.
#[derive(Debug, Clone)]
pub struct PessimismReport {
    /// Name of the entry function.
    pub entry: String,
    /// The WCET bound, including warm-up (matches
    /// [`crate::WcetReport::bound_cycles`]).
    pub bound_cycles: u64,
    /// One-time warm-up charge included in `bound_cycles`.
    pub warmup_cycles: u64,
    /// Total measured cycles handed in (the profiled run's attributed
    /// cycles).
    pub measured_cycles: u64,
    /// Blocks on the worst-case path, loosest first (descending
    /// slack). Blocks with no charge and no measured time are omitted.
    pub blocks: Vec<BlockSlack>,
}

/// Runs the WCET analysis and joins its per-block charges against a
/// measured `word address → cycles` profile.
///
/// Every cycle the profile attributes to an address inside a block is
/// credited to that block; the block's slack is its IPET charge minus
/// that credit. Unreachable functions (never called on the worst-case
/// path) carry zero charge and appear only if the profile somehow
/// visited them.
///
/// # Errors
///
/// Fails exactly when [`crate::analyze`] fails on the same image.
pub fn pessimism(
    image: &ObjectImage,
    machine: &Machine,
    measured: &HashMap<u32, u64>,
) -> Result<PessimismReport, WcetError> {
    let solved = solve_program(image, machine, true)?;
    let (cfgs, order, counts) = (&solved.cfgs, &solved.order, &solved.counts);

    // Self-only block costs: callee bodies are charged to the callees.
    let empty: HashMap<u32, u64> = HashMap::new();
    let self_costs: Vec<Vec<u64>> = cfgs
        .iter()
        .map(|cfg| {
            cfg.blocks
                .iter()
                .map(|b| solved.pricing.block_cost(cfg, b, &empty))
                .collect()
        })
        .collect();

    // Top-down invocation counts along the worst-case path: the entry
    // runs once; a callee runs once per charged execution of each
    // calling block, summed over callers.
    let index_of: HashMap<u32, usize> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.func.start_word, i))
        .collect();
    let mut invocations = vec![0u64; cfgs.len()];
    if let Some(&entry_idx) = index_of.get(&image.entry_word()) {
        invocations[entry_idx] = 1;
    }
    for &idx in order.iter().rev() {
        // order is callees-first, so callers come first reversed.
        if invocations[idx] == 0 {
            continue;
        }
        for (bi, block) in cfgs[idx].blocks.iter().enumerate() {
            for callee in &block.calls {
                if let Some(&j) = index_of.get(callee) {
                    invocations[j] += invocations[idx] * counts[idx][bi];
                }
            }
        }
    }

    // Fold the measured profile onto blocks by address.
    let mut block_of: HashMap<u32, (usize, usize)> = HashMap::new();
    for (fi, cfg) in cfgs.iter().enumerate() {
        for (bi, block) in cfg.blocks.iter().enumerate() {
            for (addr, bundle) in &block.bundles {
                for w in 0..bundle.width_words() {
                    block_of.insert(addr + w, (fi, bi));
                }
            }
        }
    }
    let mut measured_by_block: HashMap<(usize, usize), u64> = HashMap::new();
    let mut measured_total = 0u64;
    for (&addr, &cycles) in measured {
        measured_total += cycles;
        if let Some(&key) = block_of.get(&addr) {
            *measured_by_block.entry(key).or_insert(0) += cycles;
        }
    }

    let mut blocks = Vec::new();
    for (fi, cfg) in cfgs.iter().enumerate() {
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let count = invocations[fi] * counts[fi][bi];
            let contribution = count * self_costs[fi][bi];
            let measured = measured_by_block.get(&(fi, bi)).copied().unwrap_or(0);
            if contribution == 0 && measured == 0 {
                continue;
            }
            blocks.push(BlockSlack {
                function: cfg.func.name.clone(),
                start_word: block.start_word,
                source: image
                    .source_at(block.start_word)
                    .map(|(f, l)| (f.to_string(), l)),
                count,
                cost: self_costs[fi][bi],
                contribution,
                measured,
                slack: contribution as i64 - measured as i64,
            });
        }
    }
    blocks.sort_by(|a, b| b.slack.cmp(&a.slack).then(a.start_word.cmp(&b.start_word)));

    Ok(PessimismReport {
        entry: solved.entry,
        bound_cycles: solved.bound_cycles,
        warmup_cycles: solved.warmup,
        measured_cycles: measured_total,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;
    use patmos_sim::SimConfig;

    fn patmos() -> Machine {
        Machine::Patmos(SimConfig::default())
    }

    #[test]
    fn contributions_sum_to_the_bound() {
        let image = assemble(&crate::fixtures::counted_loop(5)).expect("assembles");
        let report = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let total: u64 = report.blocks.iter().map(|b| b.contribution).sum();
        assert_eq!(
            total + report.warmup_cycles,
            report.bound_cycles,
            "per-block charges must reconstruct the bound"
        );
    }

    #[test]
    fn loop_block_is_charged_per_trip() {
        let image = assemble(&crate::fixtures::counted_loop(5)).expect("assembles");
        let report = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let body = report
            .blocks
            .iter()
            .find(|b| b.count == 5)
            .expect("loop body charged 5 trips");
        assert!(body.cost > 0);
    }

    #[test]
    fn measured_cycles_reduce_slack() {
        let image = assemble(&crate::fixtures::counted_loop(5)).expect("assembles");
        let cold = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let top = cold.blocks.first().expect("has blocks");
        // Credit the top block with exactly its contribution: it
        // should drop from the top (slack 0).
        let mut measured = HashMap::new();
        measured.insert(top.start_word, top.contribution);
        let warm = pessimism(&image, &patmos(), &measured).expect("analyses");
        let same = warm
            .blocks
            .iter()
            .find(|b| b.start_word == top.start_word)
            .expect("block still reported");
        assert_eq!(same.slack, 0);
        assert_eq!(warm.measured_cycles, top.contribution);
    }

    #[test]
    fn fallback_count_caps_at_the_guard_threshold() {
        // With an unknown trip count the guard may fail, but then at
        // most `threshold` trips remain: the fallback's charged count
        // must not exceed the threshold (2 in the fixture) even though
        // its own `.loopbound` admits 9 trips.
        let image = assemble(&crate::fixtures::pipelined_loop(Some((1, 3)), 0)).expect("assembles");
        let fallback = image.symbol("fallback").expect("fallback label kept");
        let report = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let count = report
            .blocks
            .iter()
            .find(|b| b.start_word == fallback)
            .map(|b| b.count)
            .unwrap_or(0);
        assert!(count <= 2, "fallback charged {count} trips, threshold is 2");
    }

    #[test]
    fn provable_guard_zeroes_the_fallback_count() {
        // `min_trips` (5) ≥ threshold (2): the guard provably passes,
        // so the IPET solution must route zero flow into the fallback.
        let image = assemble(&crate::fixtures::pipelined_loop(Some((1, 3)), 5)).expect("assembles");
        let fallback = image.symbol("fallback").expect("fallback label kept");
        let report = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let count = report
            .blocks
            .iter()
            .find(|b| b.start_word == fallback)
            .map(|b| b.count)
            .unwrap_or(0);
        assert_eq!(count, 0, "dead fallback must carry no charge");
        let total: u64 = report.blocks.iter().map(|b| b.contribution).sum();
        assert_eq!(total + report.warmup_cycles, report.bound_cycles);
    }

    #[test]
    fn callee_blocks_carry_invocation_multiplied_counts() {
        // main calls leaf from a 3-trip loop: leaf's block must be
        // charged 3 executions, and its body cycles must not also be
        // charged to the calling block.
        let src = "        .func leaf\n        li r5 = 1\n        li r5 = 2\n        li r5 = 3\n        li r5 = 4\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r2 = 3\nloop:\n        .loopbound 3 3\n        call leaf\n        nop\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n";
        let image = assemble(src).expect("assembles");
        let report = pessimism(&image, &patmos(), &HashMap::new()).expect("analyses");
        let leaf_count: u64 = report
            .blocks
            .iter()
            .filter(|b| b.function == "leaf")
            .map(|b| b.count)
            .max()
            .expect("leaf reported");
        assert_eq!(leaf_count, 3);
        let total: u64 = report.blocks.iter().map(|b| b.contribution).sum();
        assert_eq!(total + report.warmup_cycles, report.bound_cycles);
    }
}
