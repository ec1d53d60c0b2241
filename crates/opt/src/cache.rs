//! The per-function analysis cache every pass reads.
//!
//! One [`Analyses`] sits beside each function of the module for the
//! whole pipeline run. It holds the function's instruction positions
//! (owned item indices, so the cache can stay beside the function while
//! a pass edits it), its CFG with predecessor lists, its dominator tree
//! and loop forest, and its liveness solve. Each is built on first use
//! and kept until the pass manager drops it, according to what the pass
//! that changed the function may have edited ([`Edits`], stated once
//! per pass in the pass table). Only edits that touch labels or control
//! flow drop the block graph: after an instruction-only edit the cache
//! renumbers the positions and block extents in place
//! ([`patmos_lir::VCfg::relayout`]) and keeps the successor and
//! predecessor lists, the dominator tree and the loop forest, unless the
//! edit emptied a block (or filled an empty gap between two labels or
//! terminators), which drops them for a rebuild on next use.
//!
//! In debug builds the pass manager checks after every pass application that
//! each analysis still cached equals a fresh build
//! ([`Analyses::assert_fresh`]), so a pass that edits more than its
//! table entry admits, or a renumbering that kept a changed block graph,
//! fails the first test that runs it.

use patmos_lir::{
    build_vcfg, inst_positions, BlockLiveness, DomTree, FuncCode, Function, LoopForest,
    UndefinedLabel, VCfg, VItem,
};

/// What a pass may edit when it reports a change, and so which of the
/// changed function's analyses the pass manager drops. A pass that reports no
/// change must leave the function's items untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edits {
    /// Rewrites instructions in place and never touches labels,
    /// branches, `ret`/`halt` or calls, nor inserts, removes or moves an
    /// item: the positions, the CFG, the dominator tree and the loop
    /// forest stay valid, and only liveness is dropped.
    Operands,
    /// May also insert, remove or move instructions, but never a label,
    /// a `.loopbound`, a branch, `ret`/`halt` or a call: the positions
    /// and block extents are renumbered in place and the block graph,
    /// the dominator tree and the loop forest kept, unless the edit
    /// emptied a block or filled an empty gap between two labels or
    /// terminators; liveness is dropped.
    Instructions,
    /// May insert, remove or move any item: every analysis is dropped.
    Layout,
}

/// How many analyses the caches built, and kept across an edit, over
/// one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisBuilds {
    /// CFGs built (each over freshly numbered positions).
    pub cfgs: u32,
    /// Dominator trees built, each with the loop forest over it.
    pub loop_forests: u32,
    /// Liveness solves.
    pub liveness: u32,
    /// CFGs kept across an instruction-only edit: their positions and
    /// block extents renumbered in place, their block graph kept.
    pub cfgs_kept: u32,
    /// Dominator trees and loop forests kept across an instruction-only
    /// edit, with the CFG under them.
    pub loop_forests_kept: u32,
}

impl std::ops::AddAssign for AnalysisBuilds {
    fn add_assign(&mut self, other: AnalysisBuilds) {
        self.cfgs += other.cfgs;
        self.loop_forests += other.loop_forests;
        self.liveness += other.liveness;
        self.cfgs_kept += other.cfgs_kept;
        self.loop_forests_kept += other.loop_forests_kept;
    }
}

/// The positions of `func` and its CFG over them.
fn build(func: &Function<VItem>) -> Result<(Vec<usize>, VCfg), UndefinedLabel> {
    let positions = inst_positions(&func.items);
    let cfg = build_vcfg(&FuncCode::new(func, &positions))?;
    Ok((positions, cfg))
}

/// The lazily built analyses of one function.
#[derive(Default)]
pub(crate) struct Analyses {
    /// The instruction positions and the CFG over them.
    cfg: Option<(Vec<usize>, VCfg)>,
    loops: Option<(DomTree, LoopForest)>,
    liveness: Option<BlockLiveness>,
    /// What this cache has built so far; dropping analyses keeps it.
    pub(crate) builds: AnalysisBuilds,
}

impl Analyses {
    /// The cache of `func` with its CFG built, or `None` when a branch
    /// of `func` names a label it does not define: such a function has
    /// no CFG, and the pass manager leaves it untouched for the
    /// register allocator to report.
    pub(crate) fn of(func: &Function<VItem>) -> Option<Analyses> {
        let cfg = build(func).ok()?;
        Some(Analyses {
            cfg: Some(cfg),
            builds: AnalysisBuilds {
                cfgs: 1,
                ..AnalysisBuilds::default()
            },
            ..Analyses::default()
        })
    }

    /// Drops or renumbers what a change of kind `edits` to `func` may
    /// have made stale.
    pub(crate) fn invalidate(&mut self, func: &Function<VItem>, edits: Edits) {
        self.liveness = None;
        let kept = match (edits, &mut self.cfg) {
            (Edits::Operands, _) => true,
            (Edits::Instructions, Some((positions, cfg))) => cfg.relayout(&func.items, positions),
            (Edits::Instructions, None) | (Edits::Layout, _) => false,
        };
        if !kept {
            self.cfg = None;
            self.loops = None;
        } else if edits == Edits::Instructions {
            self.builds.cfgs_kept += 1;
            self.builds.loop_forests_kept += self.loops.is_some() as u32;
        }
    }

    /// Builds the positions and the CFG of `func` unless cached.
    pub(crate) fn with_cfg(&mut self, func: &Function<VItem>) -> &Analyses {
        if self.cfg.is_none() {
            let built = build(func).expect("every pass keeps each branch target defined");
            self.cfg = Some(built);
            self.builds.cfgs += 1;
        }
        self
    }

    /// Builds the CFG, the dominator tree and the loop forest of `func`
    /// unless cached.
    pub(crate) fn with_loops(&mut self, func: &Function<VItem>) -> &Analyses {
        self.with_cfg(func);
        if self.loops.is_none() {
            let cfg = self.cfg();
            let dom = DomTree::build(cfg);
            let forest = LoopForest::build_with_dom(cfg, &dom);
            self.loops = Some((dom, forest));
            self.builds.loop_forests += 1;
        }
        self
    }

    /// Builds the CFG and the liveness solve of `func` unless cached.
    pub(crate) fn with_liveness(&mut self, func: &Function<VItem>) -> &Analyses {
        self.with_cfg(func);
        if self.liveness.is_none() {
            let code = FuncCode::new(func, self.positions());
            self.liveness = Some(BlockLiveness::solve(&code, self.cfg()));
            self.builds.liveness += 1;
        }
        self
    }

    /// The instruction positions (after any `with_*`: they are built
    /// with the CFG).
    pub(crate) fn positions(&self) -> &[usize] {
        &self.cfg.as_ref().expect("the CFG is built").0
    }

    /// The CFG (after any `with_*`).
    pub(crate) fn cfg(&self) -> &VCfg {
        &self.cfg.as_ref().expect("the CFG is built").1
    }

    /// The basic blocks (after any `with_*`), each as the item indices
    /// of its instructions in layout order — so the block-local passes
    /// and the dataflow analyses agree on block boundaries by
    /// construction. The slices borrow the cache, not the function:
    /// rewrite instructions in place while walking them, but add or
    /// remove no item.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &[usize]> {
        let (positions, cfg) = self.cfg.as_ref().expect("the CFG is built");
        cfg.blocks.iter().map(move |b| &positions[b.first..b.end])
    }

    /// The loop forest (after `with_loops`).
    pub(crate) fn forest(&self) -> &LoopForest {
        &self.loops.as_ref().expect("the loop forest is built").1
    }

    /// The liveness solve (after `with_liveness`).
    pub(crate) fn liveness(&self) -> &BlockLiveness {
        self.liveness.as_ref().expect("liveness is solved")
    }

    /// The debug oracle: panics unless every analysis still cached
    /// equals a fresh build over `func` as it is now. `pass` names the
    /// application just run.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_fresh(&self, func: &Function<VItem>, pass: &str) {
        let stale = |what: &str| -> ! {
            panic!(
                "stale {what} of `{}` cached across {pass}: the pass edited more than its \
                 pass-table entry lets it",
                func.name
            )
        };
        let Some((cached_positions, cached_cfg)) = &self.cfg else {
            return;
        };
        let positions = inst_positions(&func.items);
        if *cached_positions != positions {
            stale("instruction positions");
        }
        let code = FuncCode::new(func, &positions);
        let cfg = build_vcfg(&code).expect("a cached CFG's labels resolve");
        if *cached_cfg != cfg {
            stale("CFG");
        }
        if let Some((dom, forest)) = &self.loops {
            let fresh = DomTree::build(&cfg);
            if *dom != fresh {
                stale("dominator tree");
            }
            if *forest != LoopForest::build_with_dom(&cfg, &fresh) {
                stale("loop forest");
            }
        }
        if let Some(live) = &self.liveness {
            if *live != BlockLiveness::solve(&code, &cfg) {
                stale("liveness");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Guard, Op, Pred};
    use patmos_lir::{VInst, VOp, VReg};

    fn looped() -> Function<VItem> {
        let v = VReg::new;
        Function::new(
            "f",
            vec![
                VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 3 })),
                VItem::Label("f_head1".into()),
                VItem::Inst(VInst::always(Op::AluI {
                    op: AluOp::Sub,
                    rd: v(1),
                    rs1: v(1),
                    imm: 1,
                })),
                VItem::Inst(VInst::new(
                    Guard::when(Pred::P6),
                    VOp::BrLabel("f_head1".into()),
                )),
                VItem::Inst(VInst::always(Op::Halt)),
            ],
        )
    }

    #[test]
    fn analyses_are_built_once_until_invalidated() {
        let mut func = looped();
        let mut cache = Analyses::default();
        for _ in 0..3 {
            cache.with_loops(&func);
            cache.with_liveness(&func);
        }
        let once = AnalysisBuilds {
            cfgs: 1,
            loop_forests: 1,
            liveness: 1,
            ..AnalysisBuilds::default()
        };
        assert_eq!(cache.builds, once);
        assert_eq!(cache.forest().loops.len(), 1);

        // An operand rewrite keeps the layout analyses.
        cache.invalidate(&func, Edits::Operands);
        cache.with_loops(&func);
        cache.with_liveness(&func);
        assert_eq!(
            cache.builds,
            AnalysisBuilds {
                liveness: 2,
                ..once
            }
        );

        // A second entry instruction moves every position but keeps the
        // block graph: the CFG and the loop forest are renumbered, not
        // rebuilt.
        let li = VItem::Inst(VInst::always(Op::LoadImmLow {
            rd: VReg::new(2),
            imm: 0,
        }));
        func.items.insert(0, li);
        cache.invalidate(&func, Edits::Instructions);
        cache.with_loops(&func);
        cache.with_liveness(&func);
        #[cfg(debug_assertions)]
        cache.assert_fresh(&func, "an inserted instruction");
        assert_eq!(
            cache.builds,
            AnalysisBuilds {
                liveness: 3,
                cfgs_kept: 1,
                loop_forests_kept: 1,
                ..once
            }
        );

        // Emptying the entry block changes the block count: everything
        // is rebuilt on next use.
        func.items.drain(..2);
        cache.invalidate(&func, Edits::Instructions);
        cache.with_loops(&func);
        assert_eq!((cache.builds.cfgs, cache.builds.loop_forests), (2, 2));
        assert_eq!(cache.builds.cfgs_kept, 1);

        // A layout edit drops everything.
        cache.invalidate(&func, Edits::Layout);
        cache.with_loops(&func);
        assert_eq!((cache.builds.cfgs, cache.builds.loop_forests), (3, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn the_oracle_catches_a_layout_edit_kept_as_operand_only() {
        let mut func = looped();
        let mut cache = Analyses::default();
        cache.with_loops(&func);
        // Deleting an item shifts the positions under the cached CFG.
        func.items.remove(0);
        cache.invalidate(&func, Edits::Operands);
        cache.assert_fresh(&func, "a mis-classified pass");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale liveness")]
    fn the_oracle_catches_liveness_kept_across_a_changed_use() {
        let mut func = looped();
        let mut cache = Analyses::default();
        cache.with_liveness(&func);
        // The loop body now reads v9 instead of the v1 carried around
        // the back edge, and nothing dropped the liveness solve.
        let VItem::Inst(inst) = &mut func.items[2] else {
            unreachable!("item 2 is the loop's `sub`");
        };
        inst.op.map_uses(|_| VReg::new(9));
        cache.assert_fresh(&func, "a pass that kept liveness");
    }
}
