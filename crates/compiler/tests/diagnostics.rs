//! Diagnostics: the compiler rejects unsupported or unsafe constructs
//! with precise errors instead of miscompiling them.

use patmos_compiler::{compile, CompileError, CompileOptions};

fn err_of(src: &str, options: &CompileOptions) -> CompileError {
    match compile(src, options) {
        Err(e) => e,
        Ok(_) => panic!("expected a compile error for:\n{src}"),
    }
}

fn default_err(src: &str) -> String {
    err_of(src, &CompileOptions::default()).to_string()
}

#[test]
fn unknown_variable() {
    let msg = default_err("int main() { return nope; }");
    assert!(msg.contains("unknown variable"), "{msg}");
}

#[test]
fn unknown_function() {
    let msg = default_err("int main() { return missing(1); }");
    assert!(msg.contains("unknown function"), "{msg}");
}

#[test]
fn duplicate_local() {
    let msg = default_err("int main() { int a; int a; return 0; }");
    assert!(msg.contains("duplicate"), "{msg}");
}

#[test]
fn duplicate_global() {
    let msg = default_err("int g; int g; int main() { return 0; }");
    assert!(msg.contains("duplicate"), "{msg}");
}

#[test]
fn division_by_non_power_of_two() {
    let msg = default_err("int main() { return 10 / 3; }");
    assert!(msg.contains("power-of-two"), "{msg}");
}

#[test]
fn division_by_variable() {
    let msg = default_err("int main() { int d = 4; return 10 / d; }");
    assert!(msg.contains("power-of-two"), "{msg}");
}

#[test]
fn too_many_arguments() {
    let msg = default_err(
        "int f(int a, int b, int c, int d) { return a; } int main() { return f(1, 2, 3, 4, 5); }",
    );
    // Five arguments at the call site: either the parser (arity) or the
    // codegen (arg registers) must complain.
    assert!(
        msg.contains("4 arguments") || msg.contains("argument"),
        "{msg}"
    );
}

#[test]
fn missing_main() {
    let msg = default_err("int helper() { return 1; }");
    assert!(msg.contains("main"), "{msg}");
}

#[test]
fn spm_globals_cannot_be_initialised() {
    let msg = default_err("spm int buf[4] = {1, 2, 3, 4}; int main() { return buf[0]; }");
    assert!(msg.contains("spm"), "{msg}");
}

#[test]
fn missing_loop_bound_is_a_parse_error() {
    let msg = default_err("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }");
    assert!(msg.contains("bound"), "{msg}");
}

#[test]
fn call_in_single_path_branch_rejected() {
    let options = CompileOptions {
        single_path: true,
        ..CompileOptions::default()
    };
    let msg = err_of(
        "int f(int x) { return x; } int main() { int r = 0; if (r == 0) { r = f(1); } return r; }",
        &options,
    )
    .to_string();
    assert!(msg.contains("predicated"), "{msg}");
}

#[test]
fn return_in_single_path_branch_rejected() {
    let options = CompileOptions {
        single_path: true,
        ..CompileOptions::default()
    };
    let msg = err_of(
        "int main() { int r = 1; if (r == 1) { return 7; } return 0; }",
        &options,
    )
    .to_string();
    assert!(
        msg.contains("return") || msg.contains("predicated"),
        "{msg}"
    );
}

#[test]
fn deep_single_path_nesting_exhausts_predicates() {
    let options = CompileOptions {
        single_path: true,
        ..CompileOptions::default()
    };
    let src = "int main() {
    int r = 0;
    if (r == 0) { if (r == 0) { r = 1; } }
    return r;
}";
    // Each else-less if consumes two of the five stacked predicates:
    // two levels fit...
    assert!(compile(src, &options).is_ok());
    // ...but three levels need six.
    let deeper = "int main() {
    int r = 0;
    if (r == 0) { if (r == 0) { if (r == 0) { r = 1; } } }
    return r;
}";
    let msg = err_of(deeper, &options).to_string();
    assert!(msg.contains("predicate"), "{msg}");
}

#[test]
fn parse_errors_report_lines() {
    match compile(
        "int main() {\n  int x = ;\n  return 0;\n}",
        &CompileOptions::default(),
    ) {
        Err(CompileError::Parse(e)) => assert_eq!(e.line, 2, "{e}"),
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn negative_array_length_rejected() {
    let msg = default_err("int a[0]; int main() { return 0; }");
    assert!(msg.contains("positive"), "{msg}");
}

#[test]
fn removed_and_unknown_levels_are_rejected() {
    let src = "int main() { return 0; }";
    let with = |opt_level, sched_level| CompileOptions {
        opt_level,
        sched_level,
        ..CompileOptions::default()
    };
    // The run scheduler is gone; the error says where its numbers live.
    match compile(src, &with(1, 0)) {
        Err(CompileError::InvalidOptions(msg)) => {
            assert!(msg.contains("sched_cycles.json"), "{msg}");
            assert!(msg.contains("opt_cycles.json"), "{msg}");
        }
        other => panic!("sched_level 0 must be rejected, got {other:?}"),
    }
    // Levels past the top used to run the top level silently.
    for (opt, sched, needle) in [(3, 3, "sched_level 3"), (4, 2, "opt_level 4")] {
        let msg = err_of(src, &with(opt, sched)).to_string();
        assert!(msg.starts_with("invalid options"), "{msg}");
        assert!(msg.contains(needle), "{msg}");
    }
    assert!(compile(src, &with(0, 1)).is_ok());
}

#[test]
fn surplus_initialisers_rejected() {
    let msg = default_err("int a[2] = {1, 2, 3}; int main() { return 0; }");
    assert!(msg.contains("initialisers"), "{msg}");
}

/// The error for `src`, which must come from the parser or code
/// generation: the source-level stages that know the PatC names.
fn source_err(src: &str) -> String {
    match err_of(src, &CompileOptions::default()) {
        e @ (CompileError::Parse(_) | CompileError::Codegen(_)) => e.to_string(),
        other => panic!("expected a parse or codegen error, got {other:?}"),
    }
}

#[test]
fn static_data_running_into_the_heap_is_rejected() {
    // 1.2 MB of static data from 0x10000 would overlap the heap at
    // 0x100000: `a[245760]` used to overwrite `b[0]`.
    let msg = source_err(
        "int a[300000]; heap int b[4]; int main() { b[0] = 7; a[245760] = 9; return b[0]; }",
    );
    assert!(msg.contains("static global `a`"), "{msg}");
    assert!(msg.contains("0x100000"), "{msg}");
}

#[test]
fn array_length_beyond_32_bits_is_rejected() {
    // Used to be truncated to one element.
    let msg = source_err("int a[4294967297]; int main() { return 1; }");
    assert!(msg.contains("integer literal 4294967297 exceeds"), "{msg}");
}

#[test]
fn array_whose_byte_size_overflows_32_bits_is_rejected() {
    // `4 * len` used to overflow: a panic in debug builds, a wrapped
    // layout in release.
    let msg = source_err("int a[1073741824]; int main() { return 1; }");
    assert!(msg.contains("global `a` needs 4294967296 bytes"), "{msg}");
}

#[test]
fn global_over_the_segment_limit_is_rejected() {
    // Used to surface as an internal assembly error.
    let msg = source_err("heap int h[5000000]; int main() { return 1; }");
    assert!(msg.contains("global `h` needs 20000000 bytes"), "{msg}");
}

#[test]
fn initialiser_beyond_32_bits_is_rejected() {
    // Used to surface as an internal assembly error.
    let msg = source_err("int g = 5000000000; int main() { return g; }");
    assert!(msg.contains("integer literal 5000000000 exceeds"), "{msg}");
}

#[test]
fn literal_beyond_32_bits_in_an_expression_is_rejected() {
    // Used to wrap to 705032704.
    let msg = source_err("int main() { return 5000000000; }");
    assert!(msg.contains("integer literal 5000000000 exceeds"), "{msg}");
}

#[test]
fn initialiser_below_the_int_range_is_rejected() {
    // Used to hold 1.
    let msg = source_err("int g = -4294967295; int main() { return g; }");
    assert!(msg.contains("-4294967295 is below -2147483648"), "{msg}");
}

#[test]
fn literals_spanning_the_whole_32_bit_word_still_compile() {
    for src in [
        "int g = 4294967295; int main() { return 0xFFFFFFFF == g; }",
        "int g = -2147483648; int main() { return g == 0x80000000; }",
    ] {
        assert!(compile(src, &CompileOptions::default()).is_ok(), "{src}");
    }
}

/// A `main` whose deepest construct sits `level` levels down (its
/// statements are level 1, their expressions level 2), nested on line
/// 2 as parentheses, unary minuses, `if`s or a left-associative sum.
fn nested(shape: &str, level: usize) -> String {
    let k = level - 2;
    let body = match shape {
        "parens" => format!("return {}1{};", "(".repeat(k), ")".repeat(k)),
        "minuses" => format!("return {}1;", "- ".repeat(k)),
        "ifs" => format!("{}return 0;{}", "if (1) { ".repeat(k), " }".repeat(k)),
        "sum" => format!("return 1{};", " + 1".repeat(k)),
        _ => unreachable!("no shape {shape}"),
    };
    format!("int main() {{\n  {body}\n  return 1;\n}}")
}

const SHAPES: [&str; 4] = ["parens", "minuses", "ifs", "sum"];

/// `shape` one level past the limit must be a parse error on its line.
fn assert_too_deep(shape: &str) {
    match compile(&nested(shape, 65), &CompileOptions::default()) {
        Err(CompileError::Parse(e)) => {
            assert_eq!(e.line, 2, "{shape}: {e}");
            assert!(
                e.message.contains("nesting deeper than 64 levels"),
                "{shape}: {e}"
            );
        }
        other => panic!("{shape}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn parentheses_past_the_nesting_limit_are_rejected() {
    assert_too_deep("parens");
}

#[test]
fn unary_operators_past_the_nesting_limit_are_rejected() {
    assert_too_deep("minuses");
}

#[test]
fn ifs_past_the_nesting_limit_are_rejected() {
    assert_too_deep("ifs");
}

#[test]
fn a_sum_past_the_nesting_limit_is_rejected() {
    // A left-associative chain nests one level per operator.
    assert_too_deep("sum");
}

#[test]
fn nesting_at_the_limit_compiles_on_a_small_stack() {
    // Parsing, code generation and dropping the tree recurse once per
    // level: at the limit they fit a 2 MiB thread, even unoptimised.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for shape in SHAPES {
                let src = nested(shape, 64);
                if let Err(e) = compile(&src, &CompileOptions::default()) {
                    panic!("{shape}: {e}");
                }
            }
        })
        .expect("spawns")
        .join()
        .expect("compiles every shape");
}
