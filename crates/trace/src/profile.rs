//! The cycle-attribution profiler: folds a trace onto functions,
//! source-mapped loops and source lines.

use std::collections::HashMap;

use patmos_asm::ObjectImage;

use crate::event::{StallCause, TraceEvent};
use crate::json_escape;

/// Cycles attributed to one region (a function, a loop, or a line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Issue cycles of bundles retired inside the region.
    pub issue_cycles: u64,
    /// Attributed stall cycles, indexed like [`StallCause::ALL`].
    pub stalls: [u64; 6],
    /// Bundles retired inside the region.
    pub bundles: u64,
}

impl Attribution {
    fn retire(&mut self, issue_cycles: u64) {
        self.issue_cycles += issue_cycles;
        self.bundles += 1;
    }

    fn add_stall(&mut self, cause: StallCause, cycles: u64) {
        self.stalls[cause.index()] += cycles;
    }

    /// Total attributed stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Issue plus stall cycles.
    pub fn total_cycles(&self) -> u64 {
        self.issue_cycles + self.stall_cycles()
    }

    /// Stall cycles of one cause.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }
}

/// One function's share of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncProfile {
    /// The function name.
    pub name: String,
    /// Definition line, when the image carries a source map.
    pub line: Option<u32>,
    /// Cycles folded onto the function (loops included).
    pub cycles: Attribution,
}

/// One source loop's share of the run. The region covers everything
/// derived from the loop — unrolled copies and a modulo-scheduled
/// prologue/kernel/epilogue plus its fallback included — so compute and
/// stall cycles of pipelined code still land on the source loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopProfile {
    /// Function containing the loop.
    pub func: String,
    /// 1-based source line of the loop statement.
    pub line: u32,
    /// First word of the region.
    pub start_word: u32,
    /// One past the last word of the region.
    pub end_word: u32,
    /// Cycles folded onto the region (each cycle lands on its innermost
    /// containing loop only).
    pub cycles: Attribution,
}

/// The folded profile of one traced run.
///
/// The totals reconcile exactly: `total.total_cycles()` equals the
/// simulator's cycle counter, and every function row is the sum of the
/// bundles retired and stalls paid inside it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Whole-run totals.
    pub total: Attribution,
    /// Per-function rows, hottest first.
    pub funcs: Vec<FuncProfile>,
    /// Per-loop rows, hottest first (innermost attribution).
    pub loops: Vec<LoopProfile>,
    /// Cycles at addresses outside every function (zero for images the
    /// assembler produced).
    pub unattributed: u64,
}

impl Profile {
    /// Folds an event stream onto the image's functions and source map.
    pub fn build(events: &[TraceEvent], image: &ObjectImage) -> Profile {
        let mut total = Attribution::default();
        let mut unattributed = 0u64;
        let mut by_func: HashMap<String, Attribution> = HashMap::new();
        // One accumulator per source loop, keyed by region index.
        let loops = image.source_info().loops.clone();
        let mut by_loop: Vec<Attribution> = vec![Attribution::default(); loops.len()];

        let innermost = |word: u32| -> Option<usize> {
            loops
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains(word))
                .min_by_key(|(_, l)| l.end_word - l.start_word)
                .map(|(i, _)| i)
        };

        for e in events {
            match *e {
                TraceEvent::Retire {
                    pc, issue_cycles, ..
                } => {
                    total.retire(issue_cycles);
                    match image.function_at(pc) {
                        Some(f) => by_func
                            .entry(f.name.clone())
                            .or_default()
                            .retire(issue_cycles),
                        None => unattributed += issue_cycles,
                    }
                    if let Some(i) = innermost(pc) {
                        by_loop[i].retire(issue_cycles);
                    }
                }
                TraceEvent::Stall {
                    pc, cycles, cause, ..
                } => {
                    total.add_stall(cause, cycles);
                    match image.function_at(pc) {
                        Some(f) => by_func
                            .entry(f.name.clone())
                            .or_default()
                            .add_stall(cause, cycles),
                        None => unattributed += cycles,
                    }
                    if let Some(i) = innermost(pc) {
                        by_loop[i].add_stall(cause, cycles);
                    }
                }
                _ => {}
            }
        }

        let mut funcs: Vec<FuncProfile> = by_func
            .into_iter()
            .map(|(name, cycles)| FuncProfile {
                line: image.source_info().func_line(&name),
                name,
                cycles,
            })
            .collect();
        funcs.sort_by(|a, b| {
            b.cycles
                .total_cycles()
                .cmp(&a.cycles.total_cycles())
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut loop_rows: Vec<LoopProfile> = loops
            .iter()
            .zip(by_loop)
            .map(|(l, cycles)| LoopProfile {
                func: image
                    .function_at(l.start_word)
                    .map(|f| f.name.clone())
                    .unwrap_or_default(),
                line: l.line,
                start_word: l.start_word,
                end_word: l.end_word,
                cycles,
            })
            .collect();
        loop_rows.sort_by(|a, b| {
            b.cycles
                .total_cycles()
                .cmp(&a.cycles.total_cycles())
                .then_with(|| a.start_word.cmp(&b.start_word))
        });

        Profile {
            total,
            funcs,
            loops: loop_rows,
            unattributed,
        }
    }

    /// Renders the flat text report: run totals, the per-cause stall
    /// breakdown, and the function and loop tables.
    pub fn flat_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = &self.total;
        let _ = writeln!(
            out,
            "cycles {} = issue {} + stall {}",
            t.total_cycles(),
            t.issue_cycles,
            t.stall_cycles()
        );
        let mut parts = Vec::new();
        for cause in StallCause::ALL {
            let c = t.stall(cause);
            if c > 0 {
                parts.push(format!("{cause} {c}"));
            }
        }
        if !parts.is_empty() {
            let _ = writeln!(out, "stalls: {}", parts.join(", "));
        }
        if self.unattributed > 0 {
            let _ = writeln!(out, "unattributed: {} cycles", self.unattributed);
        }

        let _ = writeln!(
            out,
            "\n{:<24} {:>6} {:>10} {:>10} {:>10} {:>7}",
            "function", "line", "cycles", "issue", "stall", "share"
        );
        for f in &self.funcs {
            let share = percent(f.cycles.total_cycles(), t.total_cycles());
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>10} {:>10} {:>10} {:>6.1}%",
                f.name,
                f.line.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
                f.cycles.total_cycles(),
                f.cycles.issue_cycles,
                f.cycles.stall_cycles(),
                share
            );
        }

        if !self.loops.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<24} {:>6} {:>12} {:>10} {:>10} {:>10} {:>7}",
                "loop", "line", "words", "cycles", "issue", "stall", "share"
            );
            for l in &self.loops {
                let share = percent(l.cycles.total_cycles(), t.total_cycles());
                let _ = writeln!(
                    out,
                    "{:<24} {:>6} {:>12} {:>10} {:>10} {:>10} {:>6.1}%",
                    format!("{}:{}", l.func, l.line),
                    l.line,
                    format!("[{}..{})", l.start_word, l.end_word),
                    l.cycles.total_cycles(),
                    l.cycles.issue_cycles,
                    l.cycles.stall_cycles(),
                    share
                );
            }
        }
        out
    }

    /// Renders the profile as a small JSON document (hand-written, like
    /// every JSON artifact in this workspace).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let t = &self.total;
        let _ = writeln!(
            out,
            "  \"cycles\": {}, \"issue_cycles\": {}, \"stall_cycles\": {}, \"unattributed\": {},",
            t.total_cycles(),
            t.issue_cycles,
            t.stall_cycles(),
            self.unattributed
        );
        out.push_str("  \"stalls\": {");
        let mut first = true;
        for cause in StallCause::ALL {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{cause}\": {}", t.stall(cause));
        }
        out.push_str("},\n  \"functions\": [\n");
        for (i, f) in self.funcs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"line\": {}, \"cycles\": {}, \"issue\": {}, \"stall\": {}}}",
                json_escape(&f.name),
                f.line.map(|l| l.to_string()).unwrap_or_else(|| "null".into()),
                f.cycles.total_cycles(),
                f.cycles.issue_cycles,
                f.cycles.stall_cycles()
            );
            out.push_str(if i + 1 < self.funcs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"loops\": [\n");
        for (i, l) in self.loops.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"func\": \"{}\", \"line\": {}, \"start_word\": {}, \"end_word\": {}, \
                 \"cycles\": {}, \"issue\": {}, \"stall\": {}}}",
                json_escape(&l.func),
                l.line,
                l.start_word,
                l.end_word,
                l.cycles.total_cycles(),
                l.cycles.issue_cycles,
                l.cycles.stall_cycles()
            );
            out.push_str(if i + 1 < self.loops.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallCause;

    fn tiny_image() -> ObjectImage {
        // main at words 0..8 with a mapped loop at words 2..6 (line 3),
        // helper at words 8..12.
        patmos_asm::assemble(
            "        .func main\n\
                     .entry main\n\
                     .srcfunc main 1\n\
                     .srcfunc helper 6\n\
                     .srcloop 3 main_head1 main_exit2\n\
                     nop\n\
                     nop\n\
             main_head1:\n\
                     nop\n\
                     nop\n\
                     nop\n\
                     nop\n\
             main_exit2:\n\
                     nop\n\
                     halt\n\
                     .func helper\n\
                     nop\n\
                     nop\n\
                     nop\n\
                     halt\n",
        )
        .expect("assembles")
    }

    fn retire(pc: u32) -> TraceEvent {
        TraceEvent::Retire {
            pc,
            cycle: 0,
            issue_cycles: 1,
            executed: 1,
            annulled: 0,
            nops: 0,
            second_slot_used: false,
            nop_bundle: false,
            stack_ops: 0,
            taken_branch: false,
            untaken_branches: 0,
        }
    }

    #[test]
    fn folds_onto_functions_and_loops() {
        let image = tiny_image();
        let events = [
            retire(0),
            retire(2),
            retire(3),
            TraceEvent::Stall {
                pc: 4,
                cycle: 10,
                cycles: 8,
                cause: StallCause::DataCache,
            },
            retire(8),
        ];
        let p = Profile::build(&events, &image);
        assert_eq!(p.total.total_cycles(), 12);
        assert_eq!(p.total.issue_cycles, 4);
        assert_eq!(p.unattributed, 0);

        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].line, Some(1));
        assert_eq!(p.funcs[0].cycles.total_cycles(), 11);
        assert_eq!(p.funcs[1].name, "helper");
        assert_eq!(p.funcs[1].cycles.issue_cycles, 1);

        assert_eq!(p.loops.len(), 1);
        let l = &p.loops[0];
        assert_eq!((l.line, l.start_word, l.end_word), (3, 2, 6));
        assert_eq!(l.cycles.issue_cycles, 2);
        assert_eq!(l.cycles.stall(StallCause::DataCache), 8);
        assert_eq!(l.cycles.total_cycles(), 10);

        let report = p.flat_report();
        assert!(report.contains("cycles 12 = issue 4 + stall 8"));
        assert!(report.contains("main:3"));
        let json = p.to_json();
        assert!(json.contains("\"data_cache\": 8"));
    }

    #[test]
    fn source_at_prefers_innermost_loop() {
        let image = tiny_image();
        assert_eq!(image.source_at(0), Some(("main", 1)));
        assert_eq!(image.source_at(3), Some(("main", 3)));
        assert_eq!(image.source_at(6), Some(("main", 1)));
        assert_eq!(image.source_at(8), Some(("helper", 6)));
        assert_eq!(image.source_at(100), None);
    }
}
