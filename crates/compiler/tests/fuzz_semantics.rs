//! Differential fuzzing of the compiler: random PatC programs are
//! compiled, executed on the strict cycle-accurate simulator, and
//! compared against a direct Rust interpreter of the same AST — with
//! if-conversion on and off. Any divergence is a code-generation or
//! scheduling bug; any strict-mode error is a scheduler bug. Every
//! program's directly linked image must also equal the one assembled
//! from its assembly text.

use proptest::prelude::*;

use patmos_compiler::{compile, compile_to_asm, CompileOptions};
use patmos_isa::Reg;
use patmos_sim::{SimConfig, Simulator};

/// Expression tree over three variables `a`, `b`, `c`.
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, u32),
    Sra(Box<E>, u32),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    Not(Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(usize, E),
    If(E, Vec<S>, Vec<S>),
}

const VARS: [&str; 3] = ["a", "b", "c"];

fn render_e(e: &E) -> String {
    match e {
        E::Lit(v) => {
            if *v < 0 {
                format!("(0 - {})", -(*v as i64))
            } else {
                v.to_string()
            }
        }
        E::Var(i) => VARS[*i].to_string(),
        E::Add(l, r) => format!("({} + {})", render_e(l), render_e(r)),
        E::Sub(l, r) => format!("({} - {})", render_e(l), render_e(r)),
        E::Mul(l, r) => format!("({} * {})", render_e(l), render_e(r)),
        E::And(l, r) => format!("({} & {})", render_e(l), render_e(r)),
        E::Or(l, r) => format!("({} | {})", render_e(l), render_e(r)),
        E::Xor(l, r) => format!("({} ^ {})", render_e(l), render_e(r)),
        E::Shl(l, k) => format!("({} << {k})", render_e(l)),
        E::Sra(l, k) => format!("({} >> {k})", render_e(l)),
        E::Lt(l, r) => format!("({} < {})", render_e(l), render_e(r)),
        E::Eq(l, r) => format!("({} == {})", render_e(l), render_e(r)),
        E::Not(l) => format!("(!{})", render_e(l)),
    }
}

fn eval_e(e: &E, env: &[i32; 3]) -> i32 {
    match e {
        E::Lit(v) => *v,
        E::Var(i) => env[*i],
        E::Add(l, r) => eval_e(l, env).wrapping_add(eval_e(r, env)),
        E::Sub(l, r) => eval_e(l, env).wrapping_sub(eval_e(r, env)),
        E::Mul(l, r) => eval_e(l, env).wrapping_mul(eval_e(r, env)),
        E::And(l, r) => eval_e(l, env) & eval_e(r, env),
        E::Or(l, r) => eval_e(l, env) | eval_e(r, env),
        E::Xor(l, r) => eval_e(l, env) ^ eval_e(r, env),
        E::Shl(l, k) => ((eval_e(l, env) as u32).wrapping_shl(*k)) as i32,
        E::Sra(l, k) => eval_e(l, env).wrapping_shr(*k),
        E::Lt(l, r) => (eval_e(l, env) < eval_e(r, env)) as i32,
        E::Eq(l, r) => (eval_e(l, env) == eval_e(r, env)) as i32,
        E::Not(l) => (eval_e(l, env) == 0) as i32,
    }
}

fn render_s(s: &S, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    match s {
        S::Assign(v, e) => format!("{pad}{} = {};\n", VARS[*v], render_e(e)),
        S::If(cond, then_s, else_s) => {
            let mut out = format!("{pad}if ({}) {{\n", render_e(cond));
            for s in then_s {
                out.push_str(&render_s(s, indent + 1));
            }
            out.push_str(&format!("{pad}}}"));
            if !else_s.is_empty() {
                out.push_str(" else {\n");
                for s in else_s {
                    out.push_str(&render_s(s, indent + 1));
                }
                out.push_str(&format!("{pad}}}"));
            }
            out.push('\n');
            out
        }
    }
}

fn eval_s(s: &S, env: &mut [i32; 3]) {
    match s {
        S::Assign(v, e) => env[*v] = eval_e(e, env),
        S::If(cond, then_s, else_s) => {
            let branch = if eval_e(cond, env) != 0 {
                then_s
            } else {
                else_s
            };
            for s in branch {
                eval_s(s, env);
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(E::Lit),
        (0usize..3).prop_map(E::Var)
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Or(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Xor(Box::new(l), Box::new(r))),
            (inner.clone(), 0u32..16).prop_map(|(l, k)| E::Shl(Box::new(l), k)),
            (inner.clone(), 0u32..16).prop_map(|(l, k)| E::Sra(Box::new(l), k)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Lt(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Eq(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|l| E::Not(Box::new(l))),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = S> {
    let assign = (0usize..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e));
    assign.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            (0usize..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e)),
            (
                arb_expr(),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner, 0..3)
            )
                .prop_map(|(c, t, e)| S::If(c, t, e)),
        ]
    })
}

fn run_program(stmts: &[S], init: [i32; 3], options: &CompileOptions) -> u32 {
    let mut source = String::from("int main() {\n");
    for (i, name) in VARS.iter().enumerate() {
        source.push_str(&format!("    int {name} = {};\n", init[i]));
    }
    for s in stmts {
        source.push_str(&render_s(s, 1));
    }
    source.push_str("    return (a ^ b) ^ c;\n}\n");
    let image =
        compile(&source, options).unwrap_or_else(|e| panic!("compile failed: {e}\n{source}"));
    // `compile` links the lowered statements directly: their text must
    // be the rendering of its own parse and assemble to the same image.
    let text = compile_to_asm(&source, options).expect("compiles to text");
    let parsed = patmos_asm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(parsed.to_string(), text, "text is not its parse's display");
    assert!(
        patmos_asm::assemble(&text).as_ref() == Ok(&image),
        "the text assembles to a different image\n{source}"
    );
    let mut sim = Simulator::new(&image, SimConfig::default());
    sim.run()
        .unwrap_or_else(|e| panic!("strict simulation failed: {e}\n{source}"));
    sim.reg(Reg::R1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_code_matches_reference_interpreter(
        stmts in prop::collection::vec(arb_stmt(), 1..6),
        init in (-50i32..50, -50i32..50, -50i32..50),
    ) {
        let init = [init.0, init.1, init.2];
        // Reference semantics.
        let mut env = init;
        for s in &stmts {
            eval_s(s, &mut env);
        }
        let expected = (env[0] ^ env[1] ^ env[2]) as u32;

        for (label, options) in [
            ("branches", CompileOptions { if_convert: false, ..CompileOptions::default() }),
            ("if-converted", CompileOptions::default()),
            ("single-issue", CompileOptions { dual_issue: false, ..CompileOptions::default() }),
        ] {
            let mut config_specific = options.clone();
            config_specific.dual_issue = options.dual_issue;
            let got = run_program(&stmts, init, &config_specific);
            prop_assert_eq!(got, expected, "{} mode diverged", label);
        }
    }
}
