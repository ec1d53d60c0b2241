//! Graphviz DOT rendering of the per-function virtual-LIR CFG.
//!
//! One digraph per function, blocks as record-style nodes listing their
//! instructions, edges following [`crate::cfg::VCfg`] successors. The
//! output is meant for `dot -Tsvg` during compiler debugging
//! (`patmos-cli compile --dump-cfg`).

use std::fmt::Write as _;

use crate::cfg::{build_vcfg, inst_positions, FuncCode};
use crate::vlir::VModule;

/// Escapes a string for use inside a DOT record label.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' | '{' | '}' | '<' | '>' | '|' => {
                out.push('\\');
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out
}

/// Renders every function of `module` as a Graphviz digraph.
pub fn render(module: &VModule) -> String {
    let mut out = String::new();
    for func in &module.funcs {
        let positions = inst_positions(&func.items);
        let code = FuncCode::new(func, &positions);
        writeln!(out, "digraph \"{}\" {{", escape(&func.name)).ok();
        writeln!(out, "    node [shape=record, fontname=\"monospace\"];").ok();
        let cfg = match build_vcfg(&code) {
            Ok(cfg) => cfg,
            Err(e) => {
                let label = format!("{}: {e}", func.name);
                writeln!(out, "    label=\"{}\";\n}}", escape(&label)).ok();
                continue;
            }
        };
        writeln!(out, "    label=\"{}\";", escape(&func.name)).ok();
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let mut lines = vec![format!("B{bi} [{}..{})", block.first, block.end)];
            for pos in block.first..block.end {
                lines.push(escape(&code.inst(pos).to_string()));
            }
            writeln!(out, "    b{bi} [label=\"{}\"];", lines.join("\\l") + "\\l").ok();
        }
        for (bi, block) in cfg.blocks.iter().enumerate() {
            for &s in &block.succs {
                writeln!(out, "    b{bi} -> b{s};").ok();
            }
        }
        writeln!(out, "}}").ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlir::{VInst, VItem, VOp, VReg};
    use crate::Function;
    use patmos_isa::{Guard, Op, Pred};

    #[test]
    fn loop_renders_with_back_edge() {
        let module = VModule {
            entry: "f".into(),
            funcs: vec![Function::new(
                "f",
                vec![
                    VItem::Inst(VInst::always(Op::LoadImmLow {
                        rd: VReg::new(1),
                        imm: 3,
                    })),
                    VItem::Label("f_head".into()),
                    VItem::Inst(VInst::always(Op::AluI {
                        op: patmos_isa::AluOp::Sub,
                        rd: VReg::new(1),
                        rs1: VReg::new(1),
                        imm: 1,
                    })),
                    VItem::Inst(VInst::new(
                        Guard::when(Pred::P6),
                        VOp::BrLabel("f_head".into()),
                    )),
                    VItem::Inst(VInst::always(Op::Halt)),
                ],
            )],
        };
        let dot = render(&module);
        assert!(dot.starts_with("digraph \"f\" {"));
        assert!(dot.contains("b1 -> b1;"), "self loop edge:\n{dot}");
        assert!(dot.contains("b1 -> b2;"), "fallthrough edge:\n{dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn record_metacharacters_are_escaped() {
        assert_eq!(escape("a{b|c}"), "a\\{b\\|c\\}");
    }
}
