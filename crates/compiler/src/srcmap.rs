//! The compiler-side source map: PatC source lines for functions and
//! loops, keyed by the labels the code generator invents.
//!
//! The code generator records, for every branching `while`/`for` loop,
//! the 1-based source line together with the generated header and exit
//! labels (`{func}_head{n}` / `{func}_exit{m}`). The map then survives
//! the mid-end by construction and bookkeeping:
//!
//! * **Inlining** renames a spliced callee's labels to
//!   `il{serial}_{label}`; [`SourceMap::apply_inlines`] clones the
//!   callee's loop spans under the same prefix, so an inlined loop
//!   still attributes to its original source line — now inside the
//!   caller.
//! * **Unrolling** is handled lazily at lowering: a *divisor*-unrolled
//!   loop keeps its header label, a *remainder*-split loop replaces it
//!   with `{head}_pu` (which [`crate::sched::lower`] falls
//!   back to, and which covers both the main and remainder loops), and
//!   a *fully* unrolled loop has no labels left — its span is dropped,
//!   and the straight-line cycles attribute to the function.
//! * **Modulo scheduling** keeps the header and exit labels and places
//!   the kernel/fallback blocks between them, so the span covers
//!   prologue, kernel, epilogue and fallback unchanged.
//!
//! At lowering the map becomes `.srcfunc`/`.srcloop` statements, which
//! the linker resolves into the object's
//! [`patmos_asm::SourceInfo`] side table — what `patmos-cli profile`
//! folds cycles onto.

/// One branching loop's source span: the line it starts on and the
/// generated labels delimiting its body in layout order.
#[derive(Debug, Clone)]
pub struct LoopSpan {
    /// The function the loop was generated in (pre-inlining).
    pub func: String,
    /// 1-based source line of the `while`/`for` statement.
    pub line: u32,
    /// The loop's header label.
    pub head: String,
    /// The loop's exit label (the first label after the loop).
    pub exit: String,
}

/// Source lines for every function and branching loop of a program.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// `(name, line)` per function, in declaration order.
    pub funcs: Vec<(String, u32)>,
    /// Loop spans, in generation order.
    pub loops: Vec<LoopSpan>,
}

impl SourceMap {
    /// Follows the inliner's splices: for each splice, in order, the
    /// callee's loop spans are cloned into the caller under the
    /// `il{serial}_` label prefix the splice applied. Applying in
    /// splice order composes correctly when an already-spliced body is
    /// inlined again (the prefixes stack, exactly as the labels did).
    pub fn apply_inlines(&mut self, inlines: &[patmos_opt::InlineSplice]) {
        for splice in inlines {
            let mut cloned: Vec<LoopSpan> = self
                .loops
                .iter()
                .filter(|l| l.func == splice.callee)
                .map(|l| LoopSpan {
                    func: splice.caller.clone(),
                    line: l.line,
                    head: format!("il{}_{}", splice.serial, l.head),
                    exit: format!("il{}_{}", splice.serial, l.exit),
                })
                .collect();
            self.loops.append(&mut cloned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(func: &str, line: u32, head: &str, exit: &str) -> LoopSpan {
        LoopSpan {
            func: func.into(),
            line,
            head: head.into(),
            exit: exit.into(),
        }
    }

    #[test]
    fn inline_clones_callee_spans_under_the_splice_prefix() {
        let mut map = SourceMap {
            funcs: vec![("main".into(), 10), ("dot".into(), 1)],
            loops: vec![span("dot", 3, "dot_head1", "dot_exit2")],
        };
        map.apply_inlines(&[patmos_opt::InlineSplice {
            serial: 0,
            callee: "dot".into(),
            caller: "main".into(),
        }]);
        assert_eq!(map.loops.len(), 2);
        let cloned = &map.loops[1];
        assert_eq!(cloned.func, "main");
        assert_eq!(cloned.line, 3);
        assert_eq!(cloned.head, "il0_dot_head1");
        assert_eq!(cloned.exit, "il0_dot_exit2");
    }

    #[test]
    fn stacked_splices_stack_prefixes() {
        // dot inlined into mid (serial 0), then mid into main (serial 1):
        // the loop ends up as il1_il0_dot_head1, matching the labels.
        let mut map = SourceMap {
            funcs: Vec::new(),
            loops: vec![span("dot", 3, "dot_head1", "dot_exit2")],
        };
        map.apply_inlines(&[
            patmos_opt::InlineSplice {
                serial: 0,
                callee: "dot".into(),
                caller: "mid".into(),
            },
            patmos_opt::InlineSplice {
                serial: 1,
                callee: "mid".into(),
                caller: "main".into(),
            },
        ]);
        assert!(map
            .loops
            .iter()
            .any(|l| l.head == "il1_il0_dot_head1" && l.func == "main"));
    }
}
