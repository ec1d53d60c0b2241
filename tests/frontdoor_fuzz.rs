//! Front-door fuzzing: no input — bytes, token soup, or a hostile
//! object image — may panic the toolchain's public entry points.
//!
//! Every surface a user (or a campaign driver) feeds data into must
//! return `Err` on garbage, never unwind: the PatC compiler, the
//! assembler, the disassembler, `ObjectImage::decode`,
//! `Simulator::try_new`, and the comparator machine's `BaselineSim`. The
//! generators are layered — raw bytes shake
//! the lexers, token soup digs into the parsers past the lexing stage,
//! and raw-word images attack the decoder and loader directly.

use proptest::prelude::*;

use patmos::asm::{assemble, disassemble, FuncInfo, ObjectImage};
use patmos::baseline::{BaselineConfig, BaselineSim};
use patmos::compiler::{compile, CompileOptions};
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
