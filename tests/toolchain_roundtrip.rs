//! Toolchain round trips across crates: PatC → assembly → image →
//! disassembly → reassembly must be stable, the image must decode
//! into exactly the bundles the encoder produced, and the image
//! `compile` links straight from the compiler's statements must equal
//! the one assembled from their text.

use patmos::asm::{assemble, disassemble, parse, ObjectImage};
use patmos::compiler::{compile, compile_to_asm, CompileOptions};
use patmos::isa::decode_all;
use patmos::Policy;

/// Asserts that two images agree on every field, naming the first
/// that differs.
fn assert_same_image(direct: &ObjectImage, text: &ObjectImage, label: &str) {
    assert_eq!(direct.code(), text.code(), "{label}: code");
    assert_eq!(direct.functions(), text.functions(), "{label}: functions");
    assert_eq!(direct.data(), text.data(), "{label}: data");
    assert_eq!(direct.symbols(), text.symbols(), "{label}: symbols");
    assert_eq!(
        direct.loop_bounds(),
        text.loop_bounds(),
        "{label}: loop bounds"
    );
    assert_eq!(
        direct.pipe_loops(),
        text.pipe_loops(),
        "{label}: pipe loops"
    );
    assert_eq!(
        direct.source_info(),
        text.source_info(),
        "{label}: source map"
    );
    assert_eq!(direct.entry_word(), text.entry_word(), "{label}: entry");
    assert!(direct == text, "{label}: images differ");
}

/// Compiles `source` both ways and checks that they agree: `compile`'s
/// image equals `assemble(compile_to_asm(..))`'s, the text is the
/// rendering of its own parse, and a program one path rejects the
/// other rejects with the same error.
fn assert_direct_matches_text(source: &str, options: &CompileOptions, label: &str) {
    let direct = compile(source, options);
    let text = match compile_to_asm(source, options) {
        Ok(text) => text,
        Err(e) => {
            assert_eq!(direct.err(), Some(e), "{label}: only the text path failed");
            return;
        }
    };
    let parsed = parse(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        parsed.to_string(),
        text,
        "{label}: text is not its parse's display"
    );
    let direct = direct.unwrap_or_else(|e| panic!("{label}: {e}"));
    let assembled = assemble(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_same_image(&direct, &assembled, label);
}

#[test]
fn direct_and_text_lowering_agree() {
    let mut configs: Vec<(String, CompileOptions)> = Vec::new();
    for (opt_level, sched_level, reg_policy) in [
        (1, 1, Policy::Linear),
        (2, 1, Policy::Linear),
        (3, 2, Policy::Linear),
        (3, 2, Policy::Loop),
    ] {
        let options = CompileOptions {
            opt_level,
            sched_level,
            reg_policy,
            ..CompileOptions::default()
        };
        configs.push((
            format!("opt{opt_level}/s{sched_level}/{reg_policy:?}"),
            options,
        ));
    }
    for opt_level in [0, 2] {
        let options = CompileOptions {
            opt_level,
            sched_level: 1,
            single_path: true,
            ..CompileOptions::default()
        };
        configs.push((format!("opt{opt_level}/s1 single-path"), options));
    }
    for w in patmos::workloads::all() {
        for (config, options) in &configs {
            assert_direct_matches_text(&w.source, options, &format!("{} {config}", w.name));
        }
    }
}

#[test]
fn compiled_assembly_reassembles_identically() {
    for w in patmos::workloads::all() {
        let asm1 = compile_to_asm(&w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let img1 = assemble(&asm1).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // Disassemble and compare against a fresh decode: every word
        // belongs to exactly one bundle.
        let bundles = decode_all(img1.code()).expect("image decodes");
        let total_words: u32 = bundles.iter().map(|(_, b)| b.width_words()).sum();
        assert_eq!(total_words as usize, img1.code().len(), "{}", w.name);
        let text = disassemble(img1.code()).expect("disassembles");
        assert_eq!(text.lines().count(), bundles.len(), "{}", w.name);
    }
}

#[test]
fn function_table_is_consistent() {
    for w in patmos::workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let mut end = 0;
        for f in image.functions() {
            assert_eq!(
                f.start_word, end,
                "{}: functions must tile the image",
                w.name
            );
            assert!(f.size_words > 0, "{}: empty function {}", w.name, f.name);
            end = f.start_word + f.size_words;
        }
        assert_eq!(end as usize, image.code().len(), "{}", w.name);
        // The entry is a function start.
        assert!(
            image.function_starting_at(image.entry_word()).is_some(),
            "{}",
            w.name
        );
    }
}

#[test]
fn loop_bounds_land_on_real_blocks() {
    for w in patmos::workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let cfgs = patmos::wcet::build_cfgs(&image).expect("CFGs build");
        for lb in image.loop_bounds() {
            let found = cfgs
                .iter()
                .flat_map(|c| c.blocks.iter())
                .any(|b| b.start_word == lb.addr);
            assert!(found, "{}: orphan .loopbound at {:#x}", w.name, lb.addr);
        }
    }
}

#[test]
fn every_kernel_survives_a_disassembly_reassembly_cycle() {
    // Disassembled text is bare bundles without .func structure, so we
    // check the stronger property at the encoding level: encode(decode)
    // is the identity on the image words.
    for w in patmos::workloads::all() {
        let image = compile(&w.source, &CompileOptions::default()).expect("compiles");
        let bundles = decode_all(image.code()).expect("decodes");
        let mut words = Vec::new();
        for (_, b) in &bundles {
            words.extend(patmos::isa::encode(b));
        }
        assert_eq!(words, image.code(), "{}", w.name);
    }
}
