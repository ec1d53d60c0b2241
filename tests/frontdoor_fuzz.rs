//! Front-door fuzzing: no input — bytes, token soup, or a hostile
//! object image — may panic the toolchain's public entry points.
//!
//! Every surface a user (or a campaign driver) feeds data into must
//! return `Err` on garbage, never unwind: the PatC compiler, the
//! assembler and its linker, the disassembler, `ObjectImage::decode`,
//! `Simulator::try_new`, and the comparator machine's `BaselineSim`. The
//! generators are layered — raw bytes shake
//! the lexers, token soup digs into the parsers past the lexing stage,
//! random statement modules reach the linker without any parser, and
//! raw-word images attack the decoder and loader directly.

use proptest::prelude::*;

use patmos::asm::{
    assemble, disassemble, link, AsmInst, AsmModule, FuncInfo, ObjectImage, Operand, PipeLoop, Stmt,
};
use patmos::baseline::{BaselineConfig, BaselineSim};
use patmos::compiler::{compile, CompileOptions};
use patmos::isa::{AccessSize, AluOp, Guard, Inst, MemArea, Op, Pred, Reg};
use patmos::sim::{SimConfig, Simulator};

/// A bounded simulator config for running hostile-but-decodable
/// programs: whatever the program does, the watchdog ends it.
fn bounded_config() -> SimConfig {
    SimConfig {
        max_cycles: 50_000,
        ..SimConfig::default()
    }
}

/// Exercises everything downstream of a successful assembly/compile:
/// the disassembler, the decoder, the loader, and a bounded run on both
/// machines. The comparator loads any image; a malformed one is its
/// run's error.
fn exercise_image(image: &ObjectImage) {
    let _ = disassemble(image.code());
    let _ = image.decode();
    if let Ok(mut sim) = Simulator::try_new(image, bounded_config()) {
        let _ = sim.run();
    }
    let comparator = BaselineConfig {
        max_cycles: 50_000,
        ..BaselineConfig::default()
    };
    let _ = BaselineSim::new(image, comparator).run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn raw_bytes_never_panic_the_front_door(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = compile(&text, &CompileOptions::default());
        let _ = assemble(&text);
    }

    #[test]
    fn raw_words_never_panic_the_disassembler(
        words in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let _ = disassemble(&words);
    }
}

#[test]
fn data_past_the_top_of_the_address_space_is_an_error_not_a_panic() {
    // Before the check, the segment's end overflowed: a panic in debug
    // builds, and a wrapped segment that later overflowed the fault
    // campaign's address arithmetic in release.
    let src = "        .data top 0xFFFFFFFC\n        .word 7\n        .func main\n        halt\n";
    match assemble(src) {
        Ok(image) => panic!("a segment ending at 2^32 assembled: {:?}", image.data()),
        Err(e) => assert!(e.message.contains("`top`"), "{e}"),
    }
}

#[test]
fn negative_space_is_an_error_not_an_allocation() {
    // `.space -16` used to be read as 4294967280 bytes, which the
    // assembler then tried to allocate; a huge positive size hits the
    // segment limit instead.
    for (space, message) in [
        ("-16", "`.space` operand -16"),
        ("0xFFFFFFF0", "`d` exceeds"),
    ] {
        let src = format!(
            "        .data d 0\n        .space {space}\n        .func main\n        halt\n"
        );
        match assemble(&src) {
            Ok(image) => panic!(
                "`.space {space}` assembled: {} bytes",
                image.data()[0].bytes.len()
            ),
            Err(e) => assert!(e.message.contains(message), "{e}"),
        }
    }
}

#[test]
fn a_global_too_large_to_lay_out_is_an_error_not_a_panic() {
    // `4 * len` of this array used to overflow `u32` in code generation:
    // a panic in debug builds.
    let src = "int a[1073741824]; int main() { return 1; }";
    match compile(src, &CompileOptions::default()) {
        Ok(_) => panic!("a 4 GiB global compiled"),
        Err(e) => assert!(e.to_string().contains("global `a`"), "{e}"),
    }
}

#[test]
fn deeply_nested_programs_are_an_error_not_a_stack_overflow() {
    // Each used to overflow the stack in the parser, code generation or
    // the syntax tree's drop, aborting the process.
    let n = 100_000;
    for src in [
        format!(
            "int main() {{ return {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("int main() {{ return {}1; }}", "-".repeat(n)),
        format!(
            "int main() {{ {}return 0;{} }}",
            "if (1) {".repeat(n),
            "}".repeat(n)
        ),
        format!("int main() {{ return 1{}; }}", "+1".repeat(n)),
    ] {
        match compile(&src, &CompileOptions::default()) {
            Ok(_) => panic!("a program nested {n} deep compiled"),
            Err(e) => assert!(e.to_string().contains("nesting deeper than"), "{e}"),
        }
    }
}

/// PatC token soup: syntactically plausible fragments in random order,
/// reaching parser states raw bytes rarely hit.
fn arb_patc_soup() -> impl Strategy<Value = String> {
    let vocab: Vec<&'static str> = vec![
        "int", "if", "else", "while", "for", "return", "bound", "heap", "spm", "main", "x", "y",
        "a", "(", ")", "{", "}", "[", "]", ";", ",", "=", "==", "!=", "<", "<=", ">", ">=", "+",
        "-", "*", "/", "%", "&&", "||", "!", "&", "|", "^", "<<", ">>", "0", "1", "7", "32767",
        "99999", "-1",
    ];
    prop::collection::vec(prop::sample::select(vocab), 0..48).prop_map(|toks| toks.join(" "))
}

/// Assembler token soup: directives, mnemonics, operands and
/// punctuation in random order.
fn arb_pasm_soup() -> impl Strategy<Value = String> {
    let vocab: Vec<&'static str> = vec![
        ".func",
        ".data",
        ".word",
        ".byte",
        ".space",
        ".loopbound",
        ".srcfunc",
        ".srcloop",
        ".pipeloop",
        "main",
        "loop",
        "done",
        "add",
        "sub",
        "mul",
        "mov",
        "li",
        "liu",
        "lil",
        "lws",
        "sws",
        "ldm",
        "stm",
        "br",
        "brcf",
        "call",
        "ret",
        "halt",
        "nop",
        "sres",
        "sens",
        "sfree",
        "mfs",
        "mts",
        "cmplt",
        "cmpeq",
        "por",
        "pnot",
        "r0",
        "r1",
        "r31",
        "p1",
        "p7",
        "sl",
        "smask",
        "=",
        ",",
        "+",
        "-",
        "[",
        "]",
        "{",
        "}",
        "(",
        ")",
        ";",
        "!",
        ":",
        "0",
        "1",
        "4",
        "0x10000",
        "-2048",
        "65535",
        "\n",
    ];
    prop::collection::vec(prop::sample::select(vocab), 0..64).prop_map(|toks| toks.join(" "))
}

proptest! {
    #[test]
    fn patc_token_soup_never_panics_the_compiler(src in arb_patc_soup()) {
        if let Ok(image) = compile(&src, &CompileOptions::default()) {
            exercise_image(&image);
        }
    }

    #[test]
    fn pasm_token_soup_never_panics_the_assembler(src in arb_pasm_soup()) {
        if let Ok(image) = assemble(&src) {
            exercise_image(&image);
        }
    }

    #[test]
    fn hostile_images_never_panic_the_loader(
        code in prop::collection::vec(any::<u32>(), 0..48),
        start in 0u32..64,
        size in 0u32..64,
        entry in 0u32..64,
    ) {
        // A raw image whose function table and entry point need not be
        // consistent with the code section: decode and load must reject
        // it gracefully, and a loadable one must run into `halt`, an
        // error, or the watchdog — never a panic.
        let functions = vec![FuncInfo {
            name: "main".into(),
            start_word: start,
            size_words: size,
        }];
        exercise_image(&ObjectImage::from_raw(code, functions, entry));
    }
}

/// Names every random module defines: functions `main` and `f`,
/// labels `l` and `m` in `main`, data segment `d` and `.equ` `e`.
const DEFINED: [&str; 6] = ["main", "f", "l", "m", "d", "e"];

fn arb_name(names: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::sample::select(names.to_vec()).prop_map(String::from)
}

/// Literals text can spell.
fn arb_value() -> impl Strategy<Value = i64> {
    prop::sample::select(vec![0, 1, 3, -4, 300, 0x1_0000, 0xFFFF_FFFF, -0xFFFF_FFFF])
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_name(&DEFINED).prop_map(Operand::Sym),
        arb_value().prop_map(Operand::Val)
    ]
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    prop::sample::select(vec![
        Guard::ALWAYS,
        Guard::ALWAYS,
        Guard::when(Pred::P1),
        Guard::unless(Pred::P6),
    ])
}

/// Operations that encode and need no label.
fn arb_ready() -> impl Strategy<Value = AsmInst> {
    let (r1, r2, r3) = (Reg::R1, Reg::from_index(2), Reg::from_index(3));
    let ops = vec![
        Op::Nop,
        Op::Halt,
        Op::Ret,
        Op::AluR {
            op: AluOp::Add,
            rd: r1,
            rs1: r1,
            rs2: r2,
        },
        Op::AluI {
            op: AluOp::Sub,
            rd: r3,
            rs1: r2,
            imm: -7,
        },
        Op::LoadImmLow {
            rd: r2,
            imm: 0xFFFF,
        },
        Op::LoadImm32 {
            rd: r1,
            imm: 70_000,
        },
        Op::Mul { rs1: r1, rs2: r2 },
        Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: r2,
            ra: Reg::R0,
            offset: -1,
        },
        Op::Store {
            area: MemArea::Static,
            size: AccessSize::Byte,
            ra: r1,
            offset: 3,
            rs: r2,
        },
        Op::Sres { words: 4 },
    ];
    (arb_guard(), prop::sample::select(ops)).prop_map(|(g, op)| AsmInst::Ready(Inst::new(g, op)))
}

/// An instruction of `main`: branches go to its labels, calls to
/// either function, long immediates to any symbol.
fn arb_main_inst() -> impl Strategy<Value = AsmInst> {
    prop_oneof![
        arb_ready(),
        arb_ready(),
        (arb_guard(), arb_name(&["l", "m"])).prop_map(|(guard, label)| AsmInst::Flow {
            guard,
            call: false,
            target: Operand::Sym(label),
        }),
        arb_name(&["main", "f"]).prop_map(|func| AsmInst::Flow {
            guard: Guard::ALWAYS,
            call: true,
            target: Operand::Sym(func),
        }),
        (arb_guard(), arb_operand()).prop_map(|(guard, value)| AsmInst::LongImm {
            guard,
            rd: Reg::R1,
            value,
        }),
    ]
}

/// A bundle of one instruction, or now and then a pair whose second
/// slot holds an ALU operation.
fn arb_bundle(inst: impl Strategy<Value = AsmInst>) -> impl Strategy<Value = Stmt> {
    let alu = (0u8..4, -8i16..8).prop_map(|(rd, imm)| {
        AsmInst::Ready(Inst::always(Op::AluI {
            op: AluOp::Add,
            rd: Reg::from_index(rd + 4),
            rs1: Reg::R1,
            imm,
        }))
    });
    let mut pair = vec![false; 5];
    pair.push(true);
    (inst, prop::sample::select(pair), alu).prop_map(|(first, pair, second)| {
        Stmt::Bundle(if pair {
            vec![first, second]
        } else {
            vec![first]
        })
    })
}

/// A statement that breaks one rule of the linker: a duplicate or an
/// undefined name, an empty or a misplaced directive, a bundle of zero
/// or three instructions, a resolved `br`/`call`, an operation that
/// does not encode, a literal text cannot spell, a reversed loop bound
/// or a zero II.
fn arb_fault() -> impl Strategy<Value = Stmt> {
    let halt = || AsmInst::Ready(Inst::always(Op::Halt));
    let ready = |op| Stmt::Bundle(vec![AsmInst::Ready(Inst::always(op))]);
    let long = |value| {
        Stmt::Bundle(vec![AsmInst::LongImm {
            guard: Guard::ALWAYS,
            rd: Reg::R1,
            value: Operand::Val(value),
        }])
    };
    let faults = vec![
        Stmt::Label("l".into()),
        Stmt::Func("f".into()),
        Stmt::Equ {
            name: "d".into(),
            value: 1,
        },
        Stmt::Entry("x".into()),
        Stmt::Words(vec![Operand::Sym("x".into())]),
        Stmt::Words(Vec::new()),
        Stmt::Bytes(Vec::new()),
        Stmt::Space(4),
        Stmt::Bundle(Vec::new()),
        Stmt::Bundle(vec![halt(), halt(), halt()]),
        ready(Op::Br { offset: 2 }),
        ready(Op::Call { offset: 0 }),
        ready(Op::AluI {
            op: AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::R1,
            imm: 5000,
        }),
        long(1 << 32),
        long(i64::MIN),
        Stmt::Bytes(vec![1 << 40]),
        Stmt::LoopBound { min: 3, max: 1 },
        Stmt::PipeLoop(PipeLoop {
            guard: "l".into(),
            kernel: "m".into(),
            fallback: "l".into(),
            ii: 0,
            stages: 2,
            prologue: 0,
            epilogue: 1,
            threshold: 2,
            min_trips: 0,
        }),
        Stmt::SrcLoop {
            line: 3,
            start: "x".into(),
            end: "m".into(),
        },
    ];
    prop::sample::select(faults)
}

/// An annotation: the entry, the source map, a pipelined loop.
fn arb_annotation() -> impl Strategy<Value = Stmt> {
    let count = || prop::sample::select(vec![1u32, 2, 3]);
    let pipeloop = (count(), count(), 0u32..4).prop_map(|(ii, stages, threshold)| {
        Stmt::PipeLoop(PipeLoop {
            guard: "l".into(),
            kernel: "m".into(),
            fallback: "l".into(),
            ii,
            stages,
            prologue: ii * (stages - 1),
            epilogue: 1,
            threshold,
            min_trips: 0,
        })
    });
    prop_oneof![
        arb_name(&["main", "f"]).prop_map(Stmt::Entry),
        (arb_name(&["main", "f"]), 1u32..50).prop_map(|(name, line)| Stmt::SrcFunc { name, line }),
        (1u32..50, arb_name(&["l", "m"]), arb_name(&["l", "m"]))
            .prop_map(|(line, start, end)| Stmt::SrcLoop { line, start, end }),
        pipeloop,
    ]
}

/// A program-shaped module — a data segment and an `.equ`, `main`
/// with its labels `l` and `m` (and a loop bound) among its bundles,
/// `f`, then annotations — into which half the time one
/// [`arb_fault`] is spliced at a random position.
fn arb_asm_module() -> impl Strategy<Value = AsmModule> {
    let data = (
        prop::sample::select(vec![0u32, 0x1_0000, 0x1_0000, 0x20, 0xFFFF_FFF8]),
        prop::collection::vec(arb_operand(), 1..3),
        prop::collection::vec(arb_value(), 0..3),
        arb_value(),
    );
    let main = (
        prop::collection::vec(arb_bundle(arb_main_inst()), 1..8),
        any::<u64>(),
        any::<bool>(),
    );
    let rest = (
        prop::collection::vec(arb_bundle(arb_ready()), 1..3),
        prop::collection::vec(arb_annotation(), 0..3),
        (any::<bool>(), arb_fault(), any::<u64>()),
    );
    (data, main, rest).prop_map(
        |((addr, words, bytes, value), (mut body, at, bound), (f, annotations, fault))| {
            let mut stmts = vec![Stmt::Data {
                name: "d".into(),
                addr,
            }];
            stmts.push(Stmt::Words(words));
            if !bytes.is_empty() {
                stmts.push(Stmt::Bytes(bytes));
            }
            stmts.push(Stmt::Equ {
                name: "e".into(),
                value,
            });
            stmts.push(Stmt::Func("main".into()));
            // `l` and `m` before two of the body's bundles, `m` not
            // before `l`.
            let len = body.len() as u64;
            let (a, b) = ((at % len) as usize, ((at >> 8) % len) as usize);
            let (l, m) = (a.min(b), a.max(b));
            body.insert(m, Stmt::Label("m".into()));
            body.insert(l, Stmt::Label("l".into()));
            if bound {
                body.insert(l, Stmt::LoopBound { min: 1, max: 4 });
            }
            stmts.extend(body);
            stmts.push(Stmt::Func("f".into()));
            stmts.extend(f);
            stmts.extend(annotations);
            let (inject, stmt, at) = fault;
            if inject {
                stmts.insert((at % (stmts.len() as u64 + 1)) as usize, stmt);
            }
            stmts.into_iter().collect()
        },
    )
}

#[test]
fn random_modules_never_panic_the_linker_and_link_like_their_text() {
    // `link` skips the parser, so it must hold a hand-built module to
    // the rules text obeys: whenever it links one, the module's text
    // assembles to the same image.
    let cases = 1024;
    let mut linked = 0;
    for case in 0..cases {
        let module = arb_asm_module().generate(&mut TestRng::deterministic("asm_module", case));
        let Ok(image) = link(&module) else { continue };
        linked += 1;
        let text = module.to_string();
        match assemble(&text) {
            Ok(assembled) => assert!(assembled == image, "the text links differently:\n{text}"),
            Err(e) => panic!("linked, but its text does not assemble: {e}\n{text}"),
        }
        exercise_image(&image);
    }
    assert!(
        linked >= cases / 4,
        "only {linked} of {cases} modules linked"
    );
}
