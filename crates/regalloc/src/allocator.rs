//! Interval-based register allocation and physical-code rewriting.
//!
//! [`regalloc`] allocates a module function by function under the
//! chosen [`Policy`]. Both policies share the machinery in this module:
//!
//! 1. build the virtual CFG and run backward liveness
//!    ([`patmos_lir::liveness`]);
//! 2. scan the live intervals over the allocatable pool
//!    ([`patmos_isa::ALLOC_POOL`], `r7`–`r28`), spilling an interval to
//!    a deterministic stack-cache slot when the pool is exhausted — the
//!    linear-scan policy takes the lowest free register and evicts the
//!    furthest-ending interval, the loop-aware policy hands out
//!    registers round-robin inside loops and evicts the interval the
//!    loops touch least;
//! 3. rewrite to physical LIR: map every ISA operation's registers with
//!    one [`patmos_isa::Op::map_regs`], materialise spill reloads/stores
//!    through the two scratch registers
//!    ([`patmos_isa::SPILL_SCRATCH`], `r2` and `r30`), save and restore
//!    live registers around calls (every allocatable register is
//!    caller-saved, matching the Patmos ABI used here), and emit the
//!    frame protocol — one `sres` at entry, `sens` after each call, one
//!    `sfree` per exit, plus the link-register save for non-leaf
//!    functions — sized to exactly the slots in use. The loop-aware
//!    policy additionally hoists the call-save stores of loop-invariant
//!    values and the reloads of spilled loop-invariant values out to
//!    loop preheaders.
//!
//! Leaf functions without spills get *no* stack-cache traffic at all.
//! Visible-delay legalisation (load-use gaps, branch delay slots) is the
//! scheduler's job downstream; the allocator only ever inserts
//! instructions, it never reorders them.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use patmos_isa::{
    AccessSize, AluOp, Guard, Inst, MemArea, Op, Reg, ALLOC_POOL, LINK_REG, SPILL_SCRATCH,
};

use crate::constraints::Policy;
use patmos_lir::cfg::{build_vcfg, inst_positions, FuncCode, VCfg};
use patmos_lir::liveness::{self, Interval};
use patmos_lir::loops::{header_lead, LoopForest, NaturalLoop};
use patmos_lir::plir::{AsmInst, Item, Module, Operand};
use patmos_lir::vlir::{VInst, VItem, VModule, VOp, VReg};
use patmos_lir::Function;

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A function's frame (link slot + spill slots) exceeds the 63-word
    /// typed-offset range of the stack cache.
    FrameTooLarge {
        /// The function.
        func: String,
        /// The required frame size in words.
        words: u32,
    },
    /// A call under a non-always guard (the compiler rejects these; the
    /// allocator's save/restore sequences assume unguarded calls).
    GuardedCall {
        /// The function.
        func: String,
    },
    /// A `ret`/`halt` under a non-always guard: the epilogue's link
    /// restore and `sfree` cannot be annulled together with it, so a
    /// false guard would fall through with the frame already freed.
    GuardedReturn {
        /// The function.
        func: String,
    },
    /// A branch names a label its function does not define (the
    /// compiler never emits one; a hand-built module can).
    UndefinedLabel {
        /// The function.
        func: String,
        /// The label the branch names.
        label: String,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::FrameTooLarge { func, words } => {
                write!(
                    f,
                    "frame of `{func}` needs {words} words, exceeding the 63-word range"
                )
            }
            AllocError::GuardedCall { func } => {
                write!(f, "guarded call in `{func}` cannot be allocated")
            }
            AllocError::GuardedReturn { func } => {
                write!(f, "guarded return in `{func}` cannot be allocated")
            }
            AllocError::UndefinedLabel { func, label } => {
                write!(f, "branch to undefined label `{label}` in `{func}`")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// What the loop-aware policy did inside one natural loop, for
/// reporting (`--dump-alloc`).
#[derive(Debug, Clone)]
pub struct LoopClass {
    /// Header label of the loop (`<entry>` when unnamed).
    pub label: String,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// The round-robin class: registers assigned, in allocation order,
    /// to intervals that start inside this loop.
    pub regs: Vec<Reg>,
    /// Registers whose call-save store was hoisted to the preheader.
    pub hoisted: Vec<Reg>,
    /// Registers holding a spilled loop-invariant value reloaded once
    /// at the preheader instead of per use through scratch.
    pub reloads: Vec<Reg>,
}

/// Allocation outcome of one function, for reporting (`--dump-lir`,
/// `--dump-alloc`).
#[derive(Debug, Clone)]
pub struct FuncAlloc {
    /// Function name.
    pub name: String,
    /// Number of virtual registers allocated.
    pub vregs: usize,
    /// Final register assignments, sorted by virtual register.
    pub assignments: Vec<(VReg, Reg)>,
    /// Stack slots of spilled or call-saved values, sorted by register.
    pub slots: Vec<(VReg, u32)>,
    /// Virtual registers spilled *purely* because the pool ran out.
    /// Values live across calls are excluded even when they also lost
    /// their register: their slot traffic is mandated by the
    /// caller-save protocol and counted under [`FuncAlloc::call_saved`]
    /// instead, so the two columns never double-count a value.
    pub pressure_spills: usize,
    /// Values with a home slot because they are live across at least
    /// one call (register-resident and saved around each call, or
    /// already memory-resident).
    pub call_saved: usize,
    /// Final frame size in words (0 for leaf functions without spills).
    pub frame_words: u32,
    /// Per-loop allocation classes (loop-aware policy only).
    pub loop_classes: Vec<LoopClass>,
    /// Call-save stores hoisted from call sites to loop preheaders
    /// (loop-aware policy only).
    pub hoisted_saves: usize,
    /// Spill reloads hoisted from in-loop uses to loop preheaders
    /// (loop-aware policy only).
    pub loop_reloads: usize,
}

/// Allocation outcome of a whole module.
#[derive(Debug, Clone)]
pub struct AllocReport {
    /// Name of the policy that produced this allocation.
    pub policy: &'static str,
    /// One entry per function.
    pub funcs: Vec<FuncAlloc>,
}

impl Default for AllocReport {
    fn default() -> Self {
        AllocReport {
            policy: "linear",
            funcs: Vec::new(),
        }
    }
}

impl AllocReport {
    /// Total frame words across functions.
    pub fn total_frame_words(&self) -> u32 {
        self.funcs.iter().map(|f| f.frame_words).sum()
    }

    /// Total pressure spills across functions (call-crossing values
    /// excluded; see [`FuncAlloc::pressure_spills`]).
    pub fn total_pressure_spills(&self) -> usize {
        self.funcs.iter().map(|f| f.pressure_spills).sum()
    }

    /// Total call-crossing values with a home slot across functions.
    pub fn total_call_saved(&self) -> usize {
        self.funcs.iter().map(|f| f.call_saved).sum()
    }

    /// Full per-function rendering for `patmos-cli compile
    /// --dump-alloc`: the assignment map, the spill slots and the
    /// per-loop round-robin classes.
    pub fn detail(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        writeln!(out, "policy: {}", self.policy).ok();
        for fa in &self.funcs {
            writeln!(
                out,
                ".func {}: {} vreg(s), frame {} word(s)",
                fa.name, fa.vregs, fa.frame_words
            )
            .ok();
            if !fa.assignments.is_empty() {
                let map: Vec<String> = fa
                    .assignments
                    .iter()
                    .map(|(v, r)| format!("{v}:{r}"))
                    .collect();
                writeln!(out, "  assignments: {}", map.join(" ")).ok();
            }
            if !fa.slots.is_empty() {
                let slots: Vec<String> = fa
                    .slots
                    .iter()
                    .map(|(v, s)| format!("{v}:sc[{s}]"))
                    .collect();
                writeln!(out, "  slots: {}", slots.join(" ")).ok();
            }
            for lc in &fa.loop_classes {
                let regs = |rs: &[Reg]| -> String {
                    rs.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                let mut line = format!(
                    "  loop {} (depth {}): class [{}]",
                    lc.label,
                    lc.depth,
                    regs(&lc.regs)
                );
                if !lc.hoisted.is_empty() {
                    line.push_str(&format!(" hoisted-saves [{}]", regs(&lc.hoisted)));
                }
                if !lc.reloads.is_empty() {
                    line.push_str(&format!(" preheader-reloads [{}]", regs(&lc.reloads)));
                }
                writeln!(out, "{line}").ok();
            }
        }
        out
    }
}

impl fmt::Display for AllocReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>6} {:>8} {:>10} {:>10} {:>6}",
            "function", "vregs", "spilled", "call-saved", "frame(wd)", "regs"
        )?;
        for fa in &self.funcs {
            writeln!(
                f,
                "{:<16} {:>6} {:>8} {:>10} {:>10} {:>6}",
                fa.name,
                fa.vregs,
                fa.pressure_spills,
                fa.call_saved,
                fa.frame_words,
                fa.assignments
                    .iter()
                    .map(|(_, r)| r)
                    .collect::<HashSet<_>>()
                    .len(),
            )?;
        }
        Ok(())
    }
}

/// Runs register allocation over a whole virtual module under the given
/// [`Policy`], producing physical LIR ready for scheduling.
///
/// # Errors
///
/// Returns an [`AllocError`] when a frame exceeds the stack-cache
/// offset range or a call/return carries a guard.
pub fn regalloc(policy: &Policy, module: &VModule) -> Result<(Module, AllocReport), AllocError> {
    let mut out = Module {
        funcs: Vec::with_capacity(module.funcs.len()),
        entry: module.entry.clone(),
    };
    let loop_aware = match policy {
        Policy::Linear => false,
        Policy::Loop => true,
    };
    let mut report = AllocReport {
        policy: policy.name(),
        funcs: Vec::new(),
    };
    for func in &module.funcs {
        let positions = inst_positions(&func.items);
        let code = FuncCode::new(func, &positions);
        let (items, fa) = run_func(loop_aware, &code, &module.entry)?;
        out.funcs.push(Function::new(func.name.clone(), items));
        report.funcs.push(fa);
    }
    Ok((out, report))
}

/// Where a virtual register's value lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// The hard-wired zero register.
    Zero,
    /// An allocated pool register.
    Reg(Reg),
    /// A stack-cache slot (word offset within the frame).
    Slot(u32),
}

/// The free-register structure of the scan: ordered (linear scan takes
/// the lowest-numbered register, maximising reuse) or FIFO (the
/// loop-aware policy cycles through the pool inside loops, so
/// successive short-lived temporaries get distinct registers).
enum FreeRegs {
    Ordered(BTreeSet<u8>),
    Fifo(VecDeque<u8>),
}

impl FreeRegs {
    fn release(&mut self, r: u8) {
        match self {
            FreeRegs::Ordered(set) => {
                set.insert(r);
            }
            FreeRegs::Fifo(queue) => queue.push_back(r),
        }
    }

    /// Takes the next register: the lowest-numbered one, except inside
    /// a loop under the FIFO discipline, where the least recently
    /// released register is taken instead.
    fn take(&mut self, in_loop: bool) -> Option<u8> {
        match self {
            FreeRegs::Ordered(set) => {
                let r = *set.iter().next()?;
                set.remove(&r);
                Some(r)
            }
            FreeRegs::Fifo(queue) => {
                if in_loop {
                    queue.pop_front()
                } else {
                    let (i, _) = queue.iter().enumerate().min_by_key(|&(_, &r)| r)?;
                    queue.remove(i)
                }
            }
        }
    }
}

/// Allocates one function, returning its physical items; `loop_aware`
/// selects the loop-aware disciplines (FIFO assignment inside loops,
/// loop-quiet victims, preheader-hoisted saves and reloads) on top of
/// the shared interval scan.
fn run_func(
    loop_aware: bool,
    func: &FuncCode<'_>,
    entry: &str,
) -> Result<(Vec<Item>, FuncAlloc), AllocError> {
    let cfg = build_vcfg(func).map_err(|e| AllocError::UndefinedLabel {
        func: func.name.to_string(),
        label: e.label,
    })?;
    for &cp in &cfg.call_positions {
        if !func.inst(cp).guard.is_always() {
            return Err(AllocError::GuardedCall {
                func: func.name.to_string(),
            });
        }
    }
    for (_, inst) in func.iter() {
        if matches!(inst.op, VOp::Machine(Op::Ret | Op::Halt)) && !inst.guard.is_always() {
            return Err(AllocError::GuardedReturn {
                func: func.name.to_string(),
            });
        }
    }
    let live = liveness::analyze(func, &cfg);

    // --- Loop context (loop-aware policy only) ---
    let loops = loop_aware.then(|| LoopCtx::build(func, &cfg));

    // --- Interval scan over the pool ---
    let mut free = if loop_aware {
        FreeRegs::Fifo(ALLOC_POOL.collect())
    } else {
        FreeRegs::Ordered(ALLOC_POOL.collect())
    };
    let mut active: Vec<(Interval, Reg)> = Vec::new();
    let mut assigned: HashMap<VReg, Reg> = HashMap::new();
    let mut pressure_spilled: BTreeSet<VReg> = BTreeSet::new();
    // How often the loops touch a value: the loop-aware eviction spills
    // the loop-quietest interval, breaking ties toward the furthest end
    // (the pure linear-scan criterion).
    let luse = |v: VReg| loops.as_ref().map_or(0, |lc| lc.uses(v));
    for iv in &live.intervals {
        active.retain(|(a, r)| {
            if a.end < iv.start {
                free.release(r.index());
                false
            } else {
                true
            }
        });
        let in_loop = loops.as_ref().is_some_and(|lc| lc.depth_at(iv.start) > 0);
        if let Some(r) = free.take(in_loop) {
            let reg = Reg::from_index(r);
            assigned.insert(iv.vreg, reg);
            active.push((*iv, reg));
        } else {
            // Pool exhausted: spill whichever of the active intervals
            // (or this one) ranks worst under the policy's criterion.
            let key = |a: &Interval| {
                if loop_aware {
                    (Reverse(luse(a.vreg)), a.end, a.vreg.id())
                } else {
                    (Reverse(0), a.end, a.vreg.id())
                }
            };
            let victim_idx = active
                .iter()
                .enumerate()
                .max_by_key(|(_, (a, _))| key(a))
                .map(|(i, _)| i)
                .expect("pool smaller than active set");
            let evict = if loop_aware {
                key(&active[victim_idx].0) > key(iv)
            } else {
                active[victim_idx].0.end > iv.end
            };
            if evict {
                let (victim, reg) = active[victim_idx];
                pressure_spilled.insert(victim.vreg);
                assigned.remove(&victim.vreg);
                assigned.insert(iv.vreg, reg);
                active[victim_idx] = (*iv, reg);
            } else {
                pressure_spilled.insert(iv.vreg);
            }
        }
    }

    // --- Call-crossing values need a home slot ---
    let mut call_crossing: BTreeSet<VReg> = BTreeSet::new();
    for live_set in &live.live_across_calls {
        call_crossing.extend(live_set.iter().copied());
    }
    let mut needs_slot: BTreeSet<VReg> = pressure_spilled.clone();
    for v in &call_crossing {
        if assigned.contains_key(v) {
            needs_slot.insert(*v);
        }
    }

    // --- Frame layout ---
    let save_link = !cfg.call_positions.is_empty() && func.name != entry;
    let base = u32::from(save_link);
    let mut slot_of: HashMap<VReg, u32> = HashMap::new();
    for (i, v) in needs_slot.iter().enumerate() {
        slot_of.insert(*v, base + i as u32);
    }
    let frame_words = base + needs_slot.len() as u32;
    if frame_words > 63 {
        return Err(AllocError::FrameTooLarge {
            func: func.name.to_string(),
            words: frame_words,
        });
    }

    let saves_per_call: Vec<Vec<(Reg, u32)>> = live
        .live_across_calls
        .iter()
        .map(|live_set| {
            live_set
                .iter()
                .filter_map(|v| assigned.get(v).map(|r| (*r, slot_of[v])))
                .collect()
        })
        .collect();

    // --- Loop-aware spill placement ---
    let mut preheader: HashMap<usize, Vec<Item>> = HashMap::new();
    let mut hoisted_at_call: Vec<HashSet<Reg>> = vec![HashSet::new(); cfg.call_positions.len()];
    let mut splits: HashMap<VReg, Vec<(usize, usize, Reg)>> = HashMap::new();
    let mut loop_classes: Vec<LoopClass> = Vec::new();
    let mut hoisted_saves = 0usize;
    let mut loop_reloads = 0usize;
    if let Some(lc) = &loops {
        let placer = LoopPlacer {
            func,
            cfg: &cfg,
            lc,
            live: &live,
            assigned: &assigned,
            slot_of: &slot_of,
            pressure_spilled: &pressure_spilled,
        };
        placer.place(
            &mut preheader,
            &mut hoisted_at_call,
            &mut splits,
            &mut loop_classes,
            &mut hoisted_saves,
            &mut loop_reloads,
        );
    }

    let this = FuncAllocator {
        func,
        assigned,
        slot_of,
        saves_per_call,
        save_link,
        frame_words,
        preheader,
        hoisted_at_call,
        splits,
    };
    let items = this.rewrite();

    let mut assignments: Vec<(VReg, Reg)> = this.assigned.iter().map(|(v, r)| (*v, *r)).collect();
    assignments.sort_by_key(|(v, _)| v.id());
    let mut slots: Vec<(VReg, u32)> = this.slot_of.iter().map(|(v, s)| (*v, *s)).collect();
    slots.sort_by_key(|(v, _)| v.id());
    let fa = FuncAlloc {
        name: func.name.to_string(),
        vregs: live.intervals.len(),
        assignments,
        slots,
        pressure_spills: pressure_spilled
            .iter()
            .filter(|v| !call_crossing.contains(v))
            .count(),
        call_saved: call_crossing.len(),
        frame_words: this.frame_words,
        loop_classes,
        hoisted_saves,
        loop_reloads,
    };
    Ok((items, fa))
}

/// The loop forest of one function plus per-position queries.
struct LoopCtx {
    forest: LoopForest,
    /// Innermost loop index per block.
    innermost: Vec<Option<usize>>,
    /// Nesting depth per block (0 outside loops).
    depth: Vec<u32>,
    /// References (uses + defs) per value at in-loop positions.
    loop_uses: HashMap<VReg, u32>,
    /// Block index per instruction position.
    block_of: Vec<usize>,
}

impl LoopCtx {
    fn build(func: &FuncCode<'_>, cfg: &VCfg) -> LoopCtx {
        let forest = LoopForest::build(cfg);
        let innermost = forest.innermost_per_block(cfg.blocks.len());
        let depth = forest.depth_per_block(cfg.blocks.len());
        let block_of: Vec<usize> = (0..func.insts.len()).map(|p| cfg.block_of(p)).collect();
        let mut loop_uses: HashMap<VReg, u32> = HashMap::new();
        for (p, (_, inst)) in func.iter().enumerate() {
            if depth[block_of[p]] == 0 {
                continue;
            }
            for u in inst.op.uses().into_iter().flatten() {
                *loop_uses.entry(u).or_default() += 1;
            }
            if let Some(d) = inst.op.def() {
                *loop_uses.entry(d).or_default() += 1;
            }
        }
        LoopCtx {
            forest,
            innermost,
            depth,
            loop_uses,
            block_of,
        }
    }

    fn uses(&self, v: VReg) -> u32 {
        self.loop_uses.get(&v).copied().unwrap_or(0)
    }

    fn depth_at(&self, pos: usize) -> u32 {
        self.depth[self.block_of[pos]]
    }

    fn in_loop(&self, lp: &NaturalLoop, pos: usize) -> bool {
        lp.contains(self.block_of[pos])
    }
}

/// Computes the loop-aware spill placements after the scan: hoisted
/// call-saves, preheader reloads of spilled loop-invariant values, and
/// the per-loop reporting classes.
struct LoopPlacer<'a> {
    func: &'a FuncCode<'a>,
    cfg: &'a VCfg,
    lc: &'a LoopCtx,
    live: &'a liveness::Liveness,
    assigned: &'a HashMap<VReg, Reg>,
    slot_of: &'a HashMap<VReg, u32>,
    pressure_spilled: &'a BTreeSet<VReg>,
}

impl LoopPlacer<'_> {
    fn place(
        &self,
        preheader: &mut HashMap<usize, Vec<Item>>,
        hoisted_at_call: &mut [HashSet<Reg>],
        splits: &mut HashMap<VReg, Vec<(usize, usize, Reg)>>,
        loop_classes: &mut Vec<LoopClass>,
        hoisted_saves: &mut usize,
        loop_reloads: &mut usize,
    ) {
        let interval_of: HashMap<VReg, (usize, usize)> = self
            .live
            .intervals
            .iter()
            .map(|iv| (iv.vreg, (iv.start, iv.end)))
            .collect();
        // Physical register occupancy: each register is written exactly
        // by the intervals finally assigned to it, so an interval-free
        // span of a register is genuinely dead code space.
        let mut reg_spans: HashMap<Reg, Vec<(usize, usize)>> = HashMap::new();
        for iv in &self.live.intervals {
            if let Some(&r) = self.assigned.get(&iv.vreg) {
                reg_spans.entry(r).or_default().push((iv.start, iv.end));
            }
        }

        for (li, lp) in self.lc.forest.loops.iter().enumerate() {
            let first_pos = lp
                .blocks
                .iter()
                .map(|&b| self.cfg.blocks[b].first)
                .min()
                .expect("loop has blocks");
            let last_pos = lp
                .blocks
                .iter()
                .map(|&b| self.cfg.blocks[b].end)
                .max()
                .expect("loop has blocks")
                - 1;
            let header_first_item = self.func.insts[self.cfg.blocks[lp.header].first];
            let lead = header_lead(self.func.items, header_first_item);

            // The round-robin class: registers granted to intervals
            // starting inside this loop, in allocation order.
            let mut class_regs: Vec<Reg> = Vec::new();
            for iv in &self.live.intervals {
                if iv.start >= first_pos
                    && self.lc.in_loop(lp, iv.start)
                    && self.lc.innermost[self.lc.block_of[iv.start]] == Some(li)
                {
                    if let Some(&r) = self.assigned.get(&iv.vreg) {
                        class_regs.push(r);
                    }
                }
            }
            let mut class = LoopClass {
                label: lead.label.unwrap_or("<entry>").to_string(),
                depth: lp.depth,
                regs: class_regs,
                hoisted: Vec::new(),
                reloads: Vec::new(),
            };

            // Preheader safety: the header must lead the loop's span
            // (so the insertion point precedes every member position)
            // and every branch to its label must come from inside the
            // loop (natural loops have no other side entries).
            let layout_ok = self.cfg.blocks[lp.header].first == first_pos;
            let entry_ok = lead.label.is_some_and(|l| {
                self.func.iter().enumerate().all(|(p, (_, inst))| {
                    !matches!(&inst.op, VOp::BrLabel(t) if t == l) || self.lc.in_loop(lp, p)
                })
            });
            if !(layout_ok && entry_ok) {
                loop_classes.push(class);
                continue;
            }

            let defs_in_loop = |v: VReg| {
                self.func
                    .iter()
                    .enumerate()
                    .any(|(p, (_, inst))| self.lc.in_loop(lp, p) && inst.op.def() == Some(v))
            };
            let calls_in_loop: Vec<usize> = self
                .cfg
                .call_positions
                .iter()
                .enumerate()
                .filter(|&(_, &cp)| {
                    self.lc.in_loop(lp, cp) && self.lc.innermost[self.lc.block_of[cp]] == Some(li)
                })
                .map(|(ci, _)| ci)
                .collect();

            // Hoist the call-save store of every loop-invariant
            // register-resident value to the preheader: the slot then
            // holds the value for the whole loop, so each call keeps
            // only its reload.
            let mut candidates: BTreeSet<VReg> = BTreeSet::new();
            for &ci in &calls_in_loop {
                for v in &self.live.live_across_calls[ci] {
                    if self.assigned.contains_key(v)
                        && !defs_in_loop(*v)
                        && interval_of[v].0 < first_pos
                    {
                        candidates.insert(*v);
                    }
                }
            }
            for v in &candidates {
                let r = self.assigned[v];
                preheader
                    .entry(lead.start)
                    .or_default()
                    .push(FuncAllocator::slot_store(Guard::ALWAYS, self.slot_of[v], r));
                for &ci in &calls_in_loop {
                    if self.live.live_across_calls[ci].contains(v) {
                        hoisted_at_call[ci].insert(r);
                    }
                }
                class.hoisted.push(r);
                *hoisted_saves += 1;
            }

            // Reload spilled loop-invariant values once at the
            // preheader into an interval-free register instead of per
            // use through scratch. Only in innermost, call-free loops:
            // calls would clobber the chosen register, and inner loops
            // would re-derive the same placement.
            if calls_in_loop.is_empty()
                && !self
                    .cfg
                    .call_positions
                    .iter()
                    .any(|&cp| self.lc.in_loop(lp, cp))
                && !self.lc.forest.has_children(li)
            {
                let mut taken: HashSet<Reg> = HashSet::new();
                for v in self.pressure_spilled {
                    if self.assigned.contains_key(v) || defs_in_loop(*v) {
                        continue;
                    }
                    if interval_of[v].0 >= first_pos {
                        continue;
                    }
                    let uses_in_loop = self
                        .func
                        .iter()
                        .enumerate()
                        .filter(|&(p, (_, inst))| {
                            self.lc.in_loop(lp, p)
                                && inst.op.uses().into_iter().flatten().any(|u| u == *v)
                        })
                        .count();
                    if uses_in_loop < 2 {
                        continue;
                    }
                    let reg = ALLOC_POOL.map(Reg::from_index).find(|r| {
                        !taken.contains(r)
                            && reg_spans.get(r).is_none_or(|spans| {
                                spans.iter().all(|&(s, e)| e < first_pos || s > last_pos)
                            })
                    });
                    let Some(r) = reg else { continue };
                    taken.insert(r);
                    splits.entry(*v).or_default().push((first_pos, last_pos, r));
                    preheader
                        .entry(lead.start)
                        .or_default()
                        .push(FuncAllocator::slot_load(r, self.slot_of[v]));
                    class.reloads.push(r);
                    *loop_reloads += 1;
                }
            }
            loop_classes.push(class);
        }
    }
}

struct FuncAllocator<'a> {
    func: &'a FuncCode<'a>,
    assigned: HashMap<VReg, Reg>,
    slot_of: HashMap<VReg, u32>,
    saves_per_call: Vec<Vec<(Reg, u32)>>,
    save_link: bool,
    frame_words: u32,
    /// Items to emit just before the item at each index (loop
    /// preheaders: hoisted call-saves and spill reloads).
    preheader: HashMap<usize, Vec<Item>>,
    /// Per call, the registers whose save store was hoisted to a
    /// preheader (the reload after the call always stays).
    hoisted_at_call: Vec<HashSet<Reg>>,
    /// Spilled values readable from a register over an instruction
    /// span: `(first, last, reg)`, positions inclusive.
    splits: HashMap<VReg, Vec<(usize, usize, Reg)>>,
}

impl<'a> FuncAllocator<'a> {
    fn loc(&self, v: VReg) -> Loc {
        if v.is_zero() {
            Loc::Zero
        } else if let Some(&r) = self.assigned.get(&v) {
            Loc::Reg(r)
        } else {
            Loc::Slot(self.slot_of[&v])
        }
    }

    /// The register carrying spilled value `v` at position `pos`, when
    /// a loop split covers it.
    fn split_for(&self, v: VReg, pos: usize) -> Option<Reg> {
        self.splits
            .get(&v)?
            .iter()
            .find(|&&(s, e, _)| (s..=e).contains(&pos))
            .map(|&(_, _, r)| r)
    }

    fn slot_load(reg: Reg, slot: u32) -> Item {
        Self::always(Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: reg,
            ra: Reg::R0,
            offset: slot as i16,
        })
    }

    fn slot_store(guard: Guard, slot: u32, reg: Reg) -> Item {
        Self::inst(
            guard,
            Op::Store {
                area: MemArea::Stack,
                size: AccessSize::Word,
                ra: Reg::R0,
                offset: slot as i16,
                rs: reg,
            },
        )
    }

    fn always(op: Op) -> Item {
        Self::inst(Guard::ALWAYS, op)
    }

    fn inst(guard: Guard, op: Op) -> Item {
        Item::Inst(AsmInst::Ready(Inst::new(guard, op)))
    }

    /// The function's physical items: the frame prologue, then every
    /// item rewritten.
    fn rewrite(&self) -> Vec<Item> {
        let mut out = Vec::new();
        if self.frame_words > 0 {
            out.push(Self::always(Op::Sres {
                words: self.frame_words,
            }));
        }
        if self.save_link {
            out.push(Self::slot_store(Guard::ALWAYS, 0, LINK_REG));
        }
        let mut call_index = 0usize;
        let mut pos = 0usize;
        for (idx, item) in self.func.items.iter().enumerate() {
            if let Some(pre) = self.preheader.get(&idx) {
                out.extend(pre.iter().cloned());
            }
            match item {
                VItem::Label(name) => out.push(Item::Label(name.clone())),
                VItem::LoopBound { min, max } => out.push(Item::LoopBound {
                    min: *min,
                    max: *max,
                }),
                VItem::Inst(vinst) => {
                    let p = pos;
                    pos += 1;
                    match &vinst.op {
                        VOp::CallFunc(name) => {
                            for &(reg, slot) in &self.saves_per_call[call_index] {
                                if self.hoisted_at_call[call_index].contains(&reg) {
                                    continue;
                                }
                                out.push(Self::slot_store(Guard::ALWAYS, slot, reg));
                            }
                            out.push(Item::Inst(AsmInst::Flow {
                                guard: Guard::ALWAYS,
                                call: true,
                                target: Operand::Sym(name.clone()),
                            }));
                            if self.frame_words > 0 {
                                out.push(Self::always(Op::Sens {
                                    words: self.frame_words,
                                }));
                            }
                            for &(reg, slot) in &self.saves_per_call[call_index] {
                                out.push(Self::slot_load(reg, slot));
                            }
                            call_index += 1;
                        }
                        VOp::Machine(Op::Ret) => {
                            if self.save_link {
                                out.push(Self::slot_load(LINK_REG, 0));
                            }
                            if self.frame_words > 0 {
                                out.push(Self::always(Op::Sfree {
                                    words: self.frame_words,
                                }));
                            }
                            out.push(Self::inst(vinst.guard, Op::Ret));
                        }
                        VOp::Machine(Op::Halt) => {
                            if self.frame_words > 0 {
                                out.push(Self::always(Op::Sfree {
                                    words: self.frame_words,
                                }));
                            }
                            out.push(Self::inst(vinst.guard, Op::Halt));
                        }
                        _ => self.rewrite_plain(vinst, p, &mut out),
                    }
                }
            }
        }
        out
    }

    /// Rewrites a non-call, non-terminator instruction: reloads spilled
    /// operands into scratch registers (unless a loop split already
    /// holds them in a register at this position), maps the rest, and
    /// stores a spilled definition back to its slot under the original
    /// guard.
    fn rewrite_plain(&self, vinst: &VInst, pos: usize, out: &mut Vec<Item>) {
        // Fast paths: ABI copies touching a spilled value become a
        // single stack access (or register move) instead of
        // reload-plus-move.
        match vinst.op {
            VOp::CopyToPhys { dst, src } => {
                match self.loc(src) {
                    Loc::Slot(slot) => match self.split_for(src, pos) {
                        Some(r) => out.push(Self::inst(
                            vinst.guard,
                            Op::AluR {
                                op: AluOp::Add,
                                rd: dst,
                                rs1: r,
                                rs2: Reg::R0,
                            },
                        )),
                        None => out.push(Self::inst(
                            vinst.guard,
                            Op::Load {
                                area: MemArea::Stack,
                                size: AccessSize::Word,
                                rd: dst,
                                ra: Reg::R0,
                                offset: slot as i16,
                            },
                        )),
                    },
                    Loc::Reg(r) => out.push(Self::inst(
                        vinst.guard,
                        Op::AluR {
                            op: AluOp::Add,
                            rd: dst,
                            rs1: r,
                            rs2: Reg::R0,
                        },
                    )),
                    Loc::Zero => out.push(Self::inst(
                        vinst.guard,
                        Op::AluR {
                            op: AluOp::Add,
                            rd: dst,
                            rs1: Reg::R0,
                            rs2: Reg::R0,
                        },
                    )),
                }
                return;
            }
            VOp::CopyFromPhys { dst, src } => {
                match self.loc(dst) {
                    Loc::Slot(slot) => out.push(Self::slot_store(vinst.guard, slot, src)),
                    Loc::Reg(r) => out.push(Self::inst(
                        vinst.guard,
                        Op::AluR {
                            op: AluOp::Add,
                            rd: r,
                            rs1: src,
                            rs2: Reg::R0,
                        },
                    )),
                    Loc::Zero => {}
                }
                return;
            }
            _ => {}
        }

        // General case: spilled operands covered by a loop split read
        // their register directly; the rest get scratch reloads.
        let uses = vinst.op.uses();
        let mut split_map: Vec<(VReg, Reg)> = Vec::new();
        let mut scratch_map: Vec<(VReg, Reg)> = Vec::new();
        for u in uses.into_iter().flatten() {
            if let Loc::Slot(slot) = self.loc(u) {
                if split_map.iter().any(|(v, _)| *v == u)
                    || scratch_map.iter().any(|(v, _)| *v == u)
                {
                    continue;
                }
                if let Some(r) = self.split_for(u, pos) {
                    split_map.push((u, r));
                    continue;
                }
                let scratch = SPILL_SCRATCH[scratch_map.len()];
                out.push(Self::slot_load(scratch, slot));
                scratch_map.push((u, scratch));
            }
        }
        let map = |v: VReg| -> Reg {
            if let Some(&(_, s)) = split_map.iter().find(|(u, _)| *u == v) {
                return s;
            }
            if let Some(&(_, s)) = scratch_map.iter().find(|(u, _)| *u == v) {
                return s;
            }
            match self.loc(v) {
                Loc::Zero => Reg::R0,
                Loc::Reg(r) => r,
                Loc::Slot(_) => SPILL_SCRATCH[0], // a spilled def lands in the first scratch
            }
        };
        // A spilled definition computes into its mapped scratch register
        // and is stored back to its slot afterwards.
        let def_store: Option<(u32, Reg)> = vinst.op.def().and_then(|d| match self.loc(d) {
            Loc::Slot(slot) => Some((slot, map(d))),
            _ => None,
        });

        out.push(match &vinst.op {
            VOp::Machine(op) => Self::inst(vinst.guard, op.map_regs(map)),
            VOp::LilSym { rd, sym } => Item::Inst(AsmInst::LongImm {
                guard: vinst.guard,
                rd: map(*rd),
                value: Operand::Sym(sym.clone()),
            }),
            VOp::BrLabel(label) => Item::Inst(AsmInst::Flow {
                guard: vinst.guard,
                call: false,
                target: Operand::Sym(label.clone()),
            }),
            VOp::CopyToPhys { .. } | VOp::CopyFromPhys { .. } | VOp::CallFunc(_) => {
                unreachable!("handled by the caller")
            }
        });
        if let Some((slot, reg)) = def_store {
            out.push(Self::slot_store(vinst.guard, slot, reg));
        }
    }
}
