//! Control-flow graph reconstruction from assembled binaries.
//!
//! Blocks are built per function; a control-transfer bundle *absorbs its
//! delay slots* into the same block (they execute unconditionally with
//! the branch, so their time belongs to the branch's block). Branch
//! targets must land on block boundaries — the assembler and compiler
//! guarantee they never point into a delay slot.

use std::fmt;

use patmos_asm::{FuncInfo, LoopBound, ObjectImage, PipeLoop};
use patmos_isa::{Bundle, FlowKind, Op};

/// Why a binary could not be turned into an analysable CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A branch target points into the middle of a block (e.g. a delay
    /// slot).
    TargetInsideBlock {
        /// The offending target word address.
        target: u32,
    },
    /// An indirect call — the analysis needs direct targets (the
    /// compiler emits `call`; `callr` requires a target annotation this
    /// implementation does not support).
    IndirectCall {
        /// Word address of the `callr`.
        addr: u32,
    },
    /// A word address inside a function does not decode to a bundle.
    UndecodableCode {
        /// The address.
        addr: u32,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::TargetInsideBlock { target } => {
                write!(f, "branch target {target:#x} is not a block boundary")
            }
            CfgError::IndirectCall { addr } => {
                write!(f, "indirect call at {addr:#x} cannot be analysed")
            }
            CfgError::UndecodableCode { addr } => {
                write!(f, "no bundle at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// A basic block: a run of bundles ending at a control transfer (with its
/// delay slots) or at a leader boundary.
#[derive(Debug, Clone)]
pub struct Block {
    /// Word address of the first bundle.
    pub start_word: u32,
    /// The bundles, with their word addresses.
    pub bundles: Vec<(u32, Bundle)>,
    /// Indices of successor blocks within the function.
    pub succs: Vec<usize>,
    /// Start addresses of functions called from this block (each called
    /// exactly once per block execution).
    pub calls: Vec<u32>,
    /// Whether this block ends the function (`ret` or `halt`).
    pub is_exit: bool,
    /// Loop-bound annotation attached to this block's start, if any.
    pub loop_bound: Option<LoopBound>,
}

impl Block {
    /// Issue cycles of the block under dual issue (one per bundle).
    pub fn bundle_count(&self) -> u32 {
        self.bundles.len() as u32
    }

    /// Issue cycles under single issue (one per occupied slot).
    pub fn slot_count(&self) -> u32 {
        self.bundles
            .iter()
            .map(|(_, b)| b.slots().count() as u32)
            .sum()
    }
}

/// A software-pipelined loop's `.pipeloop` record resolved to block
/// indices of this function's CFG.
#[derive(Debug, Clone, Copy)]
pub struct PipeLoopInfo {
    /// The guard block (holds the compare-and-branch into the fallback).
    pub guard: usize,
    /// The kernel loop's header block.
    pub kernel: usize,
    /// The fallback loop's header block.
    pub fallback: usize,
    /// The raw directive record (II, stages, prologue/epilogue bundle
    /// counts, guard threshold, provable minimum trip count).
    pub record: PipeLoop,
}

/// The CFG of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The function this CFG describes.
    pub func: FuncInfo,
    /// Blocks in address order; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Software-pipelined loops whose guard, kernel and fallback all
    /// resolve to blocks of this function.
    pub pipe_loops: Vec<PipeLoopInfo>,
}

impl Cfg {
    /// Indices of `(from, to)` edges that are loop back edges (reachable
    /// DFS ancestors).
    pub fn back_edges(&self) -> Vec<(usize, usize)> {
        let mut state = vec![0u8; self.blocks.len()]; // 0 new, 1 on stack, 2 done
        let mut back = Vec::new();
        // Iterative DFS from the entry.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[node].succs.len() {
                let succ = self.blocks[node].succs[*next];
                *next += 1;
                match state[succ] {
                    0 => {
                        state[succ] = 1;
                        stack.push((succ, 0));
                    }
                    1 => back.push((node, succ)),
                    _ => {}
                }
            } else {
                state[node] = 2;
                stack.pop();
            }
        }
        back
    }

    /// The block index starting at `word`, if any.
    pub fn block_at(&self, word: u32) -> Option<usize> {
        self.blocks.iter().position(|b| b.start_word == word)
    }
}

/// Builds the CFG of every function in the image.
///
/// # Errors
///
/// Returns a [`CfgError`] for indirect calls, targets that land inside
/// blocks, or undecodable code.
pub fn build_cfgs(image: &ObjectImage) -> Result<Vec<Cfg>, CfgError> {
    image
        .functions()
        .iter()
        .map(|f| build_cfg(image, f))
        .collect()
}

/// Builds the CFG of one function.
///
/// # Errors
///
/// See [`build_cfgs`].
pub fn build_cfg(image: &ObjectImage, func: &FuncInfo) -> Result<Cfg, CfgError> {
    // Collect the function's bundles in address order.
    let decoded = image.decode().map_err(|_| CfgError::UndecodableCode {
        addr: func.start_word,
    })?;
    let bundles: Vec<(u32, Bundle)> = decoded
        .into_iter()
        .filter(|(a, _)| *a >= func.start_word && *a < func.start_word + func.size_words)
        .collect();

    // Pass 1: find leaders (block starts): function entry, branch
    // targets, and the bundle following a flow bundle's delay slots.
    let mut leaders = vec![func.start_word];
    let mut i = 0usize;
    while i < bundles.len() {
        let (addr, bundle) = bundles[i];
        if let Some(flow) = bundle.flow_inst() {
            match flow.op.flow_kind() {
                FlowKind::Branch(off) => leaders.push(addr.wrapping_add(off as u32)),
                FlowKind::CallIndirect(_) => return Err(CfgError::IndirectCall { addr }),
                _ => {}
            }
            // Skip the delay slots; the following bundle is a leader.
            let skip = flow.delay_slots() as usize;
            i += 1 + skip;
            if let Some(&(next_addr, _)) = bundles.get(i) {
                leaders.push(next_addr);
            }
        } else {
            i += 1;
        }
    }
    leaders.sort_unstable();
    leaders.dedup();

    // Pass 2: carve blocks at leaders, absorbing delay slots.
    let mut blocks: Vec<Block> = Vec::new();
    let mut i = 0usize;
    while i < bundles.len() {
        let start = bundles[i].0;
        let mut block = Block {
            start_word: start,
            bundles: Vec::new(),
            succs: Vec::new(),
            calls: Vec::new(),
            is_exit: false,
            loop_bound: None,
        };
        while let Some(&(addr, bundle)) = bundles.get(i) {
            // A leader other than our own start ends the block.
            if addr != start && leaders.binary_search(&addr).is_ok() && !block.bundles.is_empty() {
                break;
            }
            block.bundles.push((addr, bundle));
            i += 1;
            if let Some(flow) = bundle.flow_inst() {
                // Absorb delay slots, then end the block.
                for _ in 0..flow.delay_slots() {
                    if let Some(&(daddr, dbundle)) = bundles.get(i) {
                        if dbundle.flow_inst().is_some() && !matches!(dbundle.first().op, Op::Halt)
                        {
                            return Err(CfgError::TargetInsideBlock { target: daddr });
                        }
                        block.bundles.push((daddr, dbundle));
                        i += 1;
                    }
                }
                break;
            }
        }
        blocks.push(block);
    }

    // Pass 3: successors, calls, exits.
    let find_block = |word: u32| -> Result<usize, CfgError> {
        blocks
            .iter()
            .position(|b| b.start_word == word)
            .ok_or(CfgError::TargetInsideBlock { target: word })
    };
    let mut edits: Vec<(usize, Vec<usize>, Vec<u32>, bool)> = Vec::new();
    for (bi, block) in blocks.iter().enumerate() {
        let mut succs = Vec::new();
        let mut calls = Vec::new();
        let mut is_exit = false;
        // The flow bundle is the one that ends the block (before its
        // delay slots were absorbed): find the first flow instruction.
        let flow = block
            .bundles
            .iter()
            .find_map(|(addr, b)| b.flow_inst().map(|inst| (*addr, *inst)));
        let fall_through = || -> Option<usize> {
            let next_bi = bi + 1;
            (next_bi < blocks.len()).then_some(next_bi)
        };
        match flow {
            Some((addr, inst)) => match inst.op.flow_kind() {
                FlowKind::Branch(off) => {
                    let target = find_block(addr.wrapping_add(off as u32))?;
                    succs.push(target);
                    if !inst.guard.is_always() {
                        if let Some(ft) = fall_through() {
                            succs.push(ft);
                        }
                    }
                }
                FlowKind::CallDirect(off) => {
                    calls.push(addr.wrapping_add(off as u32));
                    if let Some(ft) = fall_through() {
                        succs.push(ft);
                    }
                }
                FlowKind::Return => is_exit = true,
                FlowKind::Halt => {
                    if inst.guard.is_always() {
                        is_exit = true;
                    } else if let Some(ft) = fall_through() {
                        succs.push(ft);
                    }
                }
                FlowKind::CallIndirect(_) => return Err(CfgError::IndirectCall { addr }),
                FlowKind::None => unreachable!("flow_inst returned a flow op"),
            },
            None => {
                if let Some(ft) = fall_through() {
                    succs.push(ft);
                } else {
                    is_exit = true;
                }
            }
        }
        edits.push((bi, succs, calls, is_exit));
    }
    for (bi, succs, calls, is_exit) in edits {
        blocks[bi].succs = succs;
        blocks[bi].calls = calls;
        blocks[bi].is_exit = is_exit;
    }

    // Attach loop bounds.
    for lb in image.loop_bounds() {
        if let Some(b) = blocks.iter_mut().find(|b| b.start_word == lb.addr) {
            b.loop_bound = Some(*lb);
        }
    }

    // Attach pipelined-loop records whose three blocks all live here.
    // Kernel and fallback are loop headers, hence branch targets and
    // block starts; the guard label may be fallen into mid-block, so it
    // resolves to the containing block.
    let block_at = |word: u32| blocks.iter().position(|b| b.start_word == word);
    let block_containing = |word: u32| {
        blocks.iter().position(|b| {
            b.bundles.first().is_some_and(|&(a, _)| a <= word)
                && b.bundles.last().is_some_and(|&(a, _)| word <= a)
        })
    };
    let pipe_loops = image
        .pipe_loops()
        .iter()
        .filter_map(|record| {
            Some(PipeLoopInfo {
                guard: block_containing(record.guard)?,
                kernel: block_at(record.kernel)?,
                fallback: block_at(record.fallback)?,
                record: *record,
            })
        })
        .collect();

    Ok(Cfg {
        func: func.clone(),
        blocks,
        pipe_loops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        let image = assemble(src).expect("assembles");
        let func = image.functions()[0].clone();
        build_cfg(&image, &func).expect("builds CFG")
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg =
            cfg_of("        .func main\n        li r1 = 1\n        li r2 = 2\n        halt\n");
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].is_exit);
        assert_eq!(cfg.blocks[0].bundle_count(), 3);
    }

    #[test]
    fn loop_has_back_edge_and_bound() {
        let cfg = cfg_of(
            "        .func main\n        li r2 = 5\nloop:\n        .loopbound 5 5\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        );
        // Blocks: [li], [loop body incl. branch + 2 delay slots], [halt].
        assert_eq!(cfg.blocks.len(), 3);
        let back = cfg.back_edges();
        assert_eq!(back, vec![(1, 1)]);
        assert_eq!(cfg.blocks[1].loop_bound.map(|b| b.max), Some(5));
        // Delay slots absorbed: body block has 5 bundles.
        assert_eq!(cfg.blocks[1].bundle_count(), 5);
    }

    #[test]
    fn diamond_has_two_paths() {
        let cfg = cfg_of(
            "        .func main\n        cmpieq p1 = r1, 0\n        (p1) br else\n        nop\n        nop\n        li r2 = 1\n        br join\n        nop\nelse:\n        li r2 = 2\njoin:\n        halt\n",
        );
        // entry(+branch+slots), then-block(+br+slot), else, join.
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(
            cfg.blocks[0].succs.len(),
            2,
            "conditional: taken + fallthrough"
        );
        assert_eq!(cfg.blocks[1].succs.len(), 1, "unconditional: taken only");
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn call_records_callee_and_falls_through() {
        let image = assemble(
            "        .func callee\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        call callee\n        nop\n        halt\n",
        )
        .expect("assembles");
        let main = image.functions()[1].clone();
        let cfg = build_cfg(&image, &main).expect("builds");
        assert_eq!(cfg.blocks[0].calls, vec![0]);
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        assert!(cfg.blocks[1].is_exit);
    }

    #[test]
    fn single_issue_slot_count_differs() {
        let cfg = cfg_of(
            "        .func main\n        { add r1 = r1, r1 ; addi r2 = r2, 1 }\n        halt\n",
        );
        assert_eq!(cfg.blocks[0].bundle_count(), 2);
        assert_eq!(cfg.blocks[0].slot_count(), 3);
    }
}
