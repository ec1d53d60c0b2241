//! Differential property test of the register-allocation policies:
//! every generated program is compiled under both `Policy::Linear` and
//! `Policy::Loop` — across opt levels 0–3, scheduler levels 0–2,
//! single-path and dual-/single-issue modes — all binaries run on the
//! strict cycle-accurate simulator, and the observable outcomes must be
//! identical: the ABI result register and the final contents of every
//! global. The generator leans on the shapes the loop-aware policy
//! rewrites differently from linear scan: counted loops over many
//! simultaneously live scalars (round-robin assignment), loop-invariant
//! values used across a call inside the loop (caller-save hoisting to
//! the preheader), and enough locals to approach the pool (victim
//! selection, spill placement).

use proptest::prelude::*;

use patmos_compiler::{compile, CompileOptions, Policy};
use patmos_isa::Reg;
use patmos_sim::{SimConfig, Simulator};

const ARR_LEN: usize = 4;
const MAX_LOCALS: usize = 8;

/// One statement of the loop body, over locals `t0..tN`, the loop
/// counter `i` and the global array `out`.
#[derive(Debug, Clone)]
enum S {
    /// `ta = tb <op> tc`
    Bin(usize, usize, char, usize),
    /// `ta = tb <op> K`
    BinImm(usize, usize, char, i32),
    /// `ta = ta + i`
    AddCounter(usize),
    /// `out[k] = out[k] ^ ta`
    ArrMix(usize, usize),
    /// `ta = f(tb)` — a call, so every live pool register is saved.
    Call(usize, usize),
    /// `if (ta < tb) { tc = tc + K; }`
    Guarded(usize, usize, usize, i32),
}

fn arb_stmt(nlocals: usize) -> impl Strategy<Value = S> {
    let l = 0..nlocals;
    prop_oneof![
        (
            l.clone(),
            l.clone(),
            prop_oneof![Just('+'), Just('-'), Just('^'), Just('&')],
            l.clone()
        )
            .prop_map(|(a, b, op, c)| S::Bin(a, b, op, c)),
        (
            l.clone(),
            l.clone(),
            prop_oneof![Just('+'), Just('^')],
            -30i32..30
        )
            .prop_map(|(a, b, op, k)| S::BinImm(a, b, op, k)),
        l.clone().prop_map(S::AddCounter),
        (0..ARR_LEN, l.clone()).prop_map(|(k, a)| S::ArrMix(k, a)),
        (l.clone(), l.clone()).prop_map(|(a, b)| S::Call(a, b)),
        (l.clone(), l.clone(), l, -10i32..10).prop_map(|(a, b, c, k)| S::Guarded(a, b, c, k)),
    ]
}

fn render_stmt(s: &S) -> String {
    match s {
        S::Bin(a, b, op, c) => format!("        t{a} = t{b} {op} t{c};\n"),
        S::BinImm(a, b, op, k) => {
            if *k < 0 {
                format!("        t{a} = t{b} {op} (0 - {});\n", -(*k as i64))
            } else {
                format!("        t{a} = t{b} {op} {k};\n")
            }
        }
        S::AddCounter(a) => format!("        t{a} = t{a} + i;\n"),
        S::ArrMix(k, a) => format!("        out[{k}] = out[{k}] ^ t{a};\n"),
        S::Call(a, b) => format!("        t{a} = f(t{b});\n"),
        S::Guarded(a, b, c, k) => {
            if *k < 0 {
                format!(
                    "        if (t{a} < t{b}) {{ t{c} = t{c} - {}; }}\n",
                    -(*k as i64)
                )
            } else {
                format!("        if (t{a} < t{b}) {{ t{c} = t{c} + {k}; }}\n")
            }
        }
    }
}

fn render_program(nlocals: usize, inits: &[i32], body: &[S], trips: u32) -> String {
    let mut out = String::new();
    out.push_str(&format!("int out[{ARR_LEN}];\n"));
    out.push_str("int f(int a) { return a * 3 + 1; }\n");
    out.push_str("int main() {\n    int i;\n");
    for (n, k) in inits.iter().enumerate().take(nlocals) {
        if *k < 0 {
            out.push_str(&format!("    int t{n} = 0 - {};\n", -(*k as i64)));
        } else {
            out.push_str(&format!("    int t{n} = {k};\n"));
        }
    }
    out.push_str(&format!(
        "    for (i = 0; i < {trips}; i = i + 1) bound({trips}) {{\n"
    ));
    for s in body {
        out.push_str(&render_stmt(s));
    }
    out.push_str("    }\n    return t0");
    for n in 1..nlocals {
        out.push_str(&format!(" ^ t{n}"));
    }
    out.push_str(";\n}\n");
    out
}

/// Compiles and runs one configuration; `None` when single-path mode
/// rejects the program (predicate depth).
fn observe(
    source: &str,
    policy: Policy,
    opt_level: u8,
    sched_level: u8,
    single_path: bool,
    dual_issue: bool,
) -> Option<(u32, [u32; ARR_LEN])> {
    let options = CompileOptions {
        opt_level,
        sched_level,
        single_path,
        dual_issue,
        reg_policy: policy,
        ..CompileOptions::default()
    };
    let image = match compile(source, &options) {
        Ok(image) => image,
        Err(_) if single_path => return None,
        Err(e) => panic!("{policy:?}/O{opt_level}/S{sched_level} compile failed: {e}\n{source}"),
    };
    let config = SimConfig {
        dual_issue,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&image, config);
    sim.run().unwrap_or_else(|e| {
        panic!(
            "{policy:?}/O{opt_level}/S{sched_level}/sp={single_path}/dual={dual_issue} \
             strict simulation failed: {e}\n{source}"
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
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn allocation_policies_agree_at_every_level(
        nlocals in 3usize..=MAX_LOCALS,
        inits in prop::collection::vec(-40i32..40, MAX_LOCALS),
        body in prop::collection::vec(arb_stmt(3), 2..7),
        trips in 3u32..10,
    ) {
        // `arb_stmt(3)` limits statement operands to t0..t2 so every
        // generated body compiles for any `nlocals`; the remaining
        // locals are live-through ballast raising pool pressure.
        let source = render_program(nlocals, &inits, &body, trips);

        // The linear policy at the historical default is the anchor;
        // every policy × opt × sched × single-path × issue-width
        // combination must observe the same result and memory.
        let want = observe(&source, Policy::Linear, 2, 1, false, true);
        let mut rejected = 0usize;
        let mut total = 0usize;
        for policy in [Policy::Linear, Policy::Loop] {
            for opt_level in [0u8, 1, 2, 3] {
                for sched_level in [1u8, 2] {
                    for single_path in [false, true] {
                        for dual_issue in [true, false] {
                            total += 1;
                            match observe(
                                &source, policy, opt_level, sched_level, single_path, dual_issue,
                            ) {
                                Some(got) => {
                                    let want = want.as_ref().expect(
                                        "non-single-path anchor cannot have been rejected",
                                    );
                                    prop_assert_eq!(
                                        &got, want,
                                        "{:?}/O{}/S{}/sp={}/dual={} diverged\n{}",
                                        policy, opt_level, sched_level, single_path,
                                        dual_issue, &source
                                    );
                                }
                                None => rejected += 1,
                            }
                        }
                    }
                }
            }
        }
        // Single-path rejection is a codegen decision: it must not
        // depend on the policy, the opt/sched level or issue width.
        prop_assert!(
            rejected == 0 || rejected * 2 == total,
            "single-path rejection varied across configurations: {}/{}\n{}",
            rejected, total, source
        );
    }
}
