//! Property test of the source map: across every `opt_level` (0–3) ×
//! `sched_level` (1–2) combination, every program-counter value a
//! traced run retires must resolve through the object's source map to
//! a valid function and source line of the generated program — lines
//! that actually carry a function definition or a loop statement. This
//! pins the map's survival through inlining (prefix bookkeeping),
//! unrolling (label fallback) and modulo scheduling (a pipelined
//! prologue/kernel/epilogue/fallback all attribute to the loop's
//! line), and the retirement hook's pc fidelity.

use std::collections::HashSet;

use proptest::prelude::*;

use patmos::compiler::{compile, CompileOptions};
use patmos::sim::{SimConfig, Simulator};
use patmos::trace::{TraceEvent, VecSink};

/// One generated program plus the ground truth the map must hit.
#[derive(Debug)]
struct Program {
    source: String,
    /// Names of the functions in the source.
    func_names: HashSet<String>,
    /// 1-based lines carrying a function definition or loop statement.
    valid_lines: HashSet<u32>,
}

/// Builds a program from the generated shape: an optional helper
/// (small enough to inline) with its own counted loop, and a main
/// whose loops cover the unroller's schemes — a short constant-trip
/// loop (fully unrolled), a 32-trip loop (divisor replication), and an
/// optional runtime-trip loop (remainder split + modulo scheduling).
fn build(helper: bool, nest: bool, runtime_trip: bool, body_muls: u32) -> Program {
    let mut src = String::new();
    let mut line = 1u32;
    let mut valid_lines = HashSet::new();
    let mut func_names = HashSet::new();
    let push = |src: &mut String, line: &mut u32, text: &str| {
        src.push_str(text);
        src.push('\n');
        *line += 1;
    };

    push(&mut src, &mut line, "int data[32] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32};");
    push(&mut src, &mut line, "int len = 32;");

    if helper {
        func_names.insert("helper".to_string());
        valid_lines.insert(line);
        push(&mut src, &mut line, "int helper(int x) {");
        push(&mut src, &mut line, "    int i;");
        push(&mut src, &mut line, "    int s = 0;");
        valid_lines.insert(line);
        push(
            &mut src,
            &mut line,
            "    for (i = 0; i < 4; i = i + 1) bound(4) { s = s + x + i; }",
        );
        push(&mut src, &mut line, "    return s;");
        push(&mut src, &mut line, "}");
    }

    func_names.insert("main".to_string());
    valid_lines.insert(line);
    push(&mut src, &mut line, "int main() {");
    push(&mut src, &mut line, "    int i;");
    push(&mut src, &mut line, "    int j;");
    push(&mut src, &mut line, "    int n = len;");
    push(&mut src, &mut line, "    int s = 0;");

    // A 32-trip loop the divisor partial unroller replicates; its body
    // width varies with the generated multiply count.
    let mut body = String::from("s = s + data[i];");
    for k in 0..body_muls {
        body.push_str(&format!(" s = s + data[i] * {};", k + 2));
    }
    valid_lines.insert(line);
    push(
        &mut src,
        &mut line,
        &format!("    for (i = 0; i < 32; i = i + 1) bound(32) {{ {body} }}"),
    );

    if nest {
        valid_lines.insert(line);
        push(
            &mut src,
            &mut line,
            "    for (i = 0; i < 3; i = i + 1) bound(3) {",
        );
        valid_lines.insert(line);
        push(
            &mut src,
            &mut line,
            "        for (j = 0; j < 8; j = j + 1) bound(8) { s = s + data[j] - i; }",
        );
        push(&mut src, &mut line, "    }");
    }

    if runtime_trip {
        // The trip count loads from memory: remainder-split at opt 3,
        // a modulo-scheduling candidate at sched 2.
        valid_lines.insert(line);
        push(
            &mut src,
            &mut line,
            "    for (i = 0; i < n; i = i + 1) bound(32) { s = s + data[i] * data[i]; }",
        );
    }

    if helper {
        push(&mut src, &mut line, "    s = s + helper(s);");
    }
    push(&mut src, &mut line, "    return s;");
    push(&mut src, &mut line, "}");

    Program {
        source: src,
        func_names,
        valid_lines,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_retired_pc_maps_to_a_valid_function_and_line(
        helper in any::<bool>(),
        nest in any::<bool>(),
        runtime_trip in any::<bool>(),
        body_muls in 0u32..4,
    ) {
        let program = build(helper, nest, runtime_trip, body_muls);
        let mut result: Option<u32> = None;
        for opt_level in 0..=3u8 {
            for sched_level in 1..=2u8 {
                let options = CompileOptions {
                    opt_level,
                    sched_level,
                    ..CompileOptions::default()
                };
                let image = compile(&program.source, &options)
                    .unwrap_or_else(|e| panic!("opt{opt_level}/sched{sched_level}: {e}\n{}", program.source));
                let mut sim = Simulator::new(&image, SimConfig::default());
                let mut sink = VecSink::new();
                sim.run_traced(&mut sink)
                    .unwrap_or_else(|e| panic!("opt{opt_level}/sched{sched_level}: {e}"));

                // Same observable result in every configuration.
                let r1 = sim.reg(patmos::isa::Reg::R1);
                match result {
                    None => result = Some(r1),
                    Some(expect) => prop_assert_eq!(
                        r1, expect,
                        "opt{}/sched{} changed the result", opt_level, sched_level
                    ),
                }

                for e in &sink.events {
                    if let TraceEvent::Retire { pc, .. } = *e {
                        let (func, line) = image.source_at(pc).unwrap_or_else(|| {
                            panic!(
                                "opt{opt_level}/sched{sched_level}: retired pc {pc} has no source \
                                 mapping\n{}",
                                program.source
                            )
                        });
                        prop_assert!(
                            program.func_names.contains(func),
                            "opt{}/sched{}: pc {} maps to unknown function `{}`",
                            opt_level, sched_level, pc, func
                        );
                        prop_assert!(
                            program.valid_lines.contains(&line),
                            "opt{}/sched{}: pc {} maps to line {} which is neither a function \
                             definition nor a loop statement\n{}",
                            opt_level, sched_level, pc, line, program.source
                        );
                    }
                }
            }
        }
    }
}
