//! Differential property test of the backend schedulers: every
//! generated program is compiled at `sched_level` 1 (dependence-DAG
//! list scheduling with delay-slot filling) and 2 (iterative modulo
//! scheduling of innermost counted loops on top), across dual-issue
//! on/off and single-path on/off, and all binaries run on the strict
//! cycle-accurate simulator. The observable outcomes — the ABI result
//! register and the final contents of every global — must match the
//! host reference model at every level, and in single-path mode level
//! 2 must match level 1. The
//! generator leans on the shapes the schedulers rewrite most
//! aggressively: short data-dependent loops whose bodies end in branch
//! shadows, guarded assignments, array traffic whose loads want
//! reordering, and enough arithmetic to keep both issue slots
//! contested; a second generator produces straight-line loop bodies
//! built around multiply-accumulate recurrences — loop-carried
//! dependences that force the pipeliner's `MII` above one — with trip
//! counts long enough that pipelining actually triggers. Strict
//! simulation doubles as the timing oracle: a misscheduled load-use
//! gap, a violated loop-carried gap in a kernel, or a clobbered
//! register on a speculated path fails the run outright.

use proptest::prelude::*;

use patmos_compiler::{compile, CompileOptions};
use patmos_isa::Reg;
use patmos_sim::{SimConfig, Simulator};

const VARS: [&str; 3] = ["a", "b", "c"];
const ARR_LEN: usize = 4;

#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Var(usize),
    Arr(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shr(Box<E>, u32),
    Lt(Box<E>, Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(usize, E),
    ArrSet(usize, E),
    If(E, Vec<S>, Vec<S>),
}

struct Env {
    vars: [i32; 3],
    arr: [i32; ARR_LEN],
}

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
        E::Arr(i) => format!("out[{i}]"),
        E::Add(l, r) => format!("({} + {})", render_e(l), render_e(r)),
        E::Sub(l, r) => format!("({} - {})", render_e(l), render_e(r)),
        E::Mul(l, r) => format!("({} * {})", render_e(l), render_e(r)),
        E::Xor(l, r) => format!("({} ^ {})", render_e(l), render_e(r)),
        E::Shr(l, k) => format!("(({}) / {})", render_e(l), 1i64 << k),
        E::Lt(l, r) => format!("({} < {})", render_e(l), render_e(r)),
    }
}

fn eval_e(e: &E, env: &Env) -> i32 {
    match e {
        E::Lit(v) => *v,
        E::Var(i) => env.vars[*i],
        E::Arr(i) => env.arr[*i],
        E::Add(l, r) => eval_e(l, env).wrapping_add(eval_e(r, env)),
        E::Sub(l, r) => eval_e(l, env).wrapping_sub(eval_e(r, env)),
        E::Mul(l, r) => eval_e(l, env).wrapping_mul(eval_e(r, env)),
        E::Xor(l, r) => eval_e(l, env) ^ eval_e(r, env),
        // PatC lowers `/ 2^k` to an arithmetic shift.
        E::Shr(l, k) => eval_e(l, env).wrapping_shr(*k),
        E::Lt(l, r) => (eval_e(l, env) < eval_e(r, env)) as i32,
    }
}

fn render_s(s: &S, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    match s {
        S::Assign(v, e) => format!("{pad}{} = {};\n", VARS[*v], render_e(e)),
        S::ArrSet(i, e) => format!("{pad}out[{i}] = {};\n", render_e(e)),
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

fn eval_s(s: &S, env: &mut Env) {
    match s {
        S::Assign(v, e) => env.vars[*v] = eval_e(e, env),
        S::ArrSet(i, e) => env.arr[*i] = eval_e(e, env),
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
        (-64i32..64).prop_map(E::Lit),
        (0usize..3).prop_map(E::Var),
        (0usize..ARR_LEN).prop_map(E::Arr),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Xor(Box::new(l), Box::new(r))),
            (inner.clone(), 0u32..6).prop_map(|(l, k)| E::Shr(Box::new(l), k)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Lt(Box::new(l), Box::new(r))),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (0usize..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e)),
        (0usize..ARR_LEN, arb_expr()).prop_map(|(i, e)| S::ArrSet(i, e)),
    ];
    leaf.prop_recursive(2, 10, 3, |inner| {
        prop_oneof![
            (0usize..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e)),
            (0usize..ARR_LEN, arb_expr()).prop_map(|(i, e)| S::ArrSet(i, e)),
            (
                arb_expr(),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner, 0..2)
            )
                .prop_map(|(c, t, e)| S::If(c, t, e)),
        ]
    })
}

fn render_program(stmts: &[S], reps: u32, init: [i32; 3]) -> String {
    let mut source = format!("int out[{ARR_LEN}];\nint main() {{\n");
    for (i, name) in VARS.iter().enumerate() {
        source.push_str(&format!("    int {name} = {};\n", init[i]));
    }
    source.push_str("    int li;\n");
    source.push_str(&format!(
        "    for (li = 0; li < {reps}; li = li + 1) bound({reps}) {{\n"
    ));
    for s in stmts {
        source.push_str(&render_s(s, 2));
    }
    source.push_str("    }\n    return (a ^ b) ^ c;\n}\n");
    source
}

/// Compiles and runs one configuration; returns `(r1, out[..])`, or
/// `None` when the program legitimately rejects single-path
/// conversion.
fn observe(
    source: &str,
    sched_level: u8,
    dual_issue: bool,
    single_path: bool,
) -> Option<(u32, [u32; ARR_LEN])> {
    let options = CompileOptions {
        sched_level,
        dual_issue,
        single_path,
        ..CompileOptions::default()
    };
    let image = match compile(source, &options) {
        Ok(image) => image,
        Err(_) if single_path => return None,
        Err(e) => panic!("S{sched_level} compile failed: {e}\n{source}"),
    };
    let config = SimConfig {
        dual_issue,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&image, config);
    sim.run().unwrap_or_else(|e| {
        panic!(
            "S{sched_level}/dual={dual_issue}/sp={single_path} strict simulation failed: {e}\n{source}"
        )
    });
    let base = image.symbol("out").expect("global array exists");
    let mut arr = [0u32; ARR_LEN];
    for (i, slot) in arr.iter_mut().enumerate() {
        *slot = sim.memory().read_word(base + 4 * i as u32);
    }
    Some((sim.reg(Reg::R1), arr))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn sched_levels_agree_in_every_mode(
        stmts in prop::collection::vec(arb_stmt(), 1..5),
        reps in 1u32..4,
        init in (-50i32..50, -50i32..50, -50i32..50),
    ) {
        let source = render_program(&stmts, reps, [init.0, init.1, init.2]);

        // Reference semantics.
        let mut env = Env { vars: [init.0, init.1, init.2], arr: [0; ARR_LEN] };
        for _ in 0..reps {
            for s in &stmts {
                eval_s(s, &mut env);
            }
        }
        let want_r1 = (env.vars[0] ^ env.vars[1] ^ env.vars[2]) as u32;
        let want_arr = env.arr.map(|v| v as u32);

        for dual_issue in [true, false] {
            for single_path in [false, true] {
                let o1 = observe(&source, 1, dual_issue, single_path);
                let o2 = observe(&source, 2, dual_issue, single_path);
                prop_assert_eq!(
                    o1.is_some(),
                    o2.is_some(),
                    "sched levels disagree on single-path feasibility\n{}",
                    &source
                );
                let (Some(s1), Some(s2)) = (o1, o2) else {
                    continue;
                };
                if single_path {
                    prop_assert_eq!(
                        s2, s1,
                        "sched levels 1/2 disagree in single-path mode (dual={})\n{}",
                        dual_issue, &source
                    );
                } else {
                    for (level, (r1, arr)) in [(1, s1), (2, s2)] {
                        prop_assert_eq!(
                            r1, want_r1,
                            "sched {} diverged from reference (dual={})\n{}",
                            level, dual_issue, &source
                        );
                        prop_assert_eq!(
                            arr, want_arr,
                            "sched {} memory diverged (dual={})\n{}",
                            level, dual_issue, &source
                        );
                    }
                }
            }
        }
    }

    /// Loop-carried recurrences under the pipeliner: straight-line
    /// bodies (no `if`s, so the loop stays a single block the modulo
    /// scheduler accepts) built around a multiply-accumulate whose
    /// `mul`→`mfs`→use→`mul` chain forces `MII` above one, with trip
    /// counts long enough for pipelining to pay. Checked across every
    /// scheduler level and both issue widths, at the partial-unrolling
    /// mid-end level, against the host reference.
    #[test]
    fn pipelined_recurrences_agree_with_the_reference(
        tail in prop::collection::vec(
            prop_oneof![
                (0usize..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e)),
                (0usize..ARR_LEN, arb_expr()).prop_map(|(i, e)| S::ArrSet(i, e)),
            ],
            0..3,
        ),
        mul_of in 0usize..3,
        addend in -40i32..40,
        reps in 6u32..16,
        init in (-50i32..50, -50i32..50, -50i32..50),
    ) {
        // `v = v * 3 + (addend ^ other)` — the accumulator reads its
        // own previous-iteration value through the multiplier.
        let rec = S::Assign(
            mul_of,
            E::Add(
                Box::new(E::Mul(Box::new(E::Var(mul_of)), Box::new(E::Lit(3)))),
                Box::new(E::Xor(Box::new(E::Lit(addend)), Box::new(E::Var((mul_of + 1) % 3)))),
            ),
        );
        let mut stmts = vec![rec];
        stmts.extend(tail);
        let source = render_program(&stmts, reps, [init.0, init.1, init.2]);

        let mut env = Env { vars: [init.0, init.1, init.2], arr: [0; ARR_LEN] };
        for _ in 0..reps {
            for s in &stmts {
                eval_s(s, &mut env);
            }
        }
        let want_r1 = (env.vars[0] ^ env.vars[1] ^ env.vars[2]) as u32;
        let want_arr = env.arr.map(|v| v as u32);

        for dual_issue in [true, false] {
            for sched_level in [1u8, 2] {
                let options = CompileOptions {
                    opt_level: 3,
                    sched_level,
                    dual_issue,
                    ..CompileOptions::default()
                };
                let image = compile(&source, &options)
                    .unwrap_or_else(|e| panic!("S{sched_level} compile failed: {e}\n{source}"));
                let config = SimConfig { dual_issue, ..SimConfig::default() };
                let mut sim = Simulator::new(&image, config);
                sim.run().unwrap_or_else(|e| {
                    panic!("S{sched_level}/dual={dual_issue} strict simulation failed: {e}\n{source}")
                });
                prop_assert_eq!(
                    sim.reg(Reg::R1), want_r1,
                    "S{}/dual={} diverged from reference\n{}",
                    sched_level, dual_issue, &source
                );
                let base = image.symbol("out").expect("global array exists");
                for (i, want) in want_arr.iter().enumerate() {
                    prop_assert_eq!(
                        sim.memory().read_word(base + 4 * i as u32), *want,
                        "S{}/dual={} memory diverged at out[{}]\n{}",
                        sched_level, dual_issue, i, &source
                    );
                }
            }
        }
    }
}
