//! The pinned guest-performance history as one matrix.
//!
//! Every cycle baseline under `baselines/` is a view over one table:
//! kernel × compiler [`Config`] → metric [`Cell`]. A column of a file is
//! either *live* — one metric of one config, measured once per process
//! ([`matrix`]) and shared by every file that shows it, so two files
//! pinning the same pipeline agree by construction — or *frozen*:
//! recorded by a pipeline that no longer exists (the seed codegen, or the
//! run scheduler behind `sched_level 0`), read from the checked-in file
//! and written back unchanged. All baseline files share one flat JSON
//! reader/writer ([`Doc`]); every gate is a [`Rule`] in one declarative
//! table (the crate's `gates!` tests), checked on the checked-in
//! numbers, and [`assert_current`] proves those numbers current. Regenerate a file with the command in
//! its `description` (`cargo run -p patmos-bench --bin exp_eNN_… --
//! --json`).

use std::fmt::Write as _;
use std::sync::OnceLock;

use patmos::asm::{assemble, ObjectImage};
use patmos::baseline::{BaselineConfig, BaselineSim, BaselineStats};
use patmos::compiler::{compile, compile_with_artifacts, CompileOptions};
use patmos::isa::Reg;
use patmos::opt::UnrollKind;
use patmos::sim::{SimConfig, Simulator};
use patmos::wcet::{analyze, analyze_unpipelined, Machine};
use patmos::workloads::{self, Workload};
use patmos::Policy;

use crate::geomean_speedup;
use Column::{Frozen, Live};
use Rule::{Below, Faster, Pin, Total, Utilisation};

/// One flat baseline document: a verbatim header, then one record of
/// named integers per kernel, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Everything before the `"kernels"` key, verbatim.
    pub header: String,
    /// `(kernel, [(key, value)])`.
    pub kernels: Vec<(String, Vec<(String, u64)>)>,
}

impl Doc {
    /// Parses the layout [`Doc::render`] writes: one `"name": {` or
    /// `"key": value` per line (the round-trip test holds every
    /// checked-in file to it).
    pub fn parse(text: &str) -> Doc {
        let at = text
            .find("\"kernels\"")
            .expect("baseline has a kernels object");
        let unquote = |s: &str| s.trim().trim_matches('"').to_string();
        let mut kernels: Vec<(String, Vec<(String, u64)>)> = Vec::new();
        for line in text[at..].lines().skip(1) {
            let line = line.trim().trim_end_matches(',');
            if let Some(name) = line.strip_suffix(": {") {
                kernels.push((unquote(name), Vec::new()));
            } else if let Some((key, value)) = line.split_once(": ") {
                let value = value
                    .parse()
                    .unwrap_or_else(|_| panic!("baseline line `{line}` is not an integer field"));
                let (_, fields) = kernels.last_mut().expect("field inside a kernel record");
                fields.push((unquote(key), value));
            }
        }
        Doc {
            header: text[..at].to_string(),
            kernels,
        }
    }

    /// Renders the document in the checked-in layout.
    pub fn render(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(name, fields)| {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("      \"{key}\": {value}"))
                    .collect();
                format!("    \"{name}\": {{\n{}\n    }}", fields.join(",\n"))
            })
            .collect();
        let kernels = kernels.join(",\n");
        format!("{}\"kernels\": {{\n{kernels}\n  }}\n}}\n", self.header)
    }

    /// The value of `key` in `kernel`'s record.
    pub fn get(&self, kernel: &str, key: &str) -> u64 {
        let fields = self
            .kernels
            .iter()
            .find(|(k, _)| k == kernel)
            .map(|(_, f)| f);
        let value = fields
            .and_then(|f| f.iter().find(|(k, _)| k == key))
            .map(|&(_, v)| v);
        value.unwrap_or_else(|| panic!("`{kernel}` records no `{key}`"))
    }

    /// The suite total of `key`.
    pub fn total(&self, key: &str) -> u64 {
        self.kernels.iter().map(|(k, _)| self.get(k, key)).sum()
    }
}

/// A compiler configuration, one column group of the matrix:
/// `(opt_level, sched_level, reg_policy)` of [`CompileOptions`].
pub type Config = (u8, u8, Policy);

/// The scalar mid-end on the DAG scheduler.
pub const O1S1: Config = (1, 1, Policy::Linear);
/// The loop-aware mid-end on the DAG scheduler.
pub const O2S1: Config = (2, 1, Policy::Linear);
/// Partial unrolling plus software pipelining: the default pipeline.
pub const O3S2: Config = (3, 2, Policy::Linear);
/// The default pipeline under the loop-aware allocation policy.
pub const O3S2_LOOP: Config = (3, 2, Policy::Loop);
/// Every configuration the matrix measures.
pub const CONFIGS: [Config; 4] = [O1S1, O2S1, O3S2, O3S2_LOOP];

/// What one kernel measures under one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Simulated cycles on the default machine.
    pub cycles: u64,
    /// Executed second issue slots.
    pub second_slots: u64,
    /// Bundles issuing real (non-pure-`nop`) work.
    pub active_bundles: u64,
    /// Modulo-scheduler renames.
    pub renames: u64,
    /// Pure pressure spills.
    pub spills: u64,
    /// Loops the unroller rewrote.
    pub unrolls: u64,
    /// Factors of the partial (non-full) unrolls.
    pub partial_unrolls: Vec<u32>,
    /// `(MII, II)` of every software-pipelined loop.
    pub pipelined: Vec<(u32, u32)>,
    /// The pipeline-aware WCET bound.
    pub bound: u64,
    /// The WCET bound with `.pipeloop` records ignored.
    pub blind_bound: u64,
    /// FNV-1a 64 digest of the emitted assembly text.
    pub asm_fnv: u64,
    /// FNV-1a 64 digest of the rendered virtual-register LIR the
    /// allocator receives (`VModule::render` after the mid-end).
    pub vlir_fnv: u64,
    /// FNV-1a 64 digest of every field of the linked image: code
    /// words, functions, data segments, symbols sorted by name, loop
    /// bounds, pipelined loops, the source map and the entry word.
    pub image_fnv: u64,
    /// The counters of one run on the conventional comparator machine.
    pub baseline: BaselineStats,
    /// The comparator machine's WCET bound.
    pub baseline_bound: u64,
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 over every field of an image, in a fixed text form: code
/// words, functions, data segments, symbols sorted by name, loop
/// bounds, pipelined loops, the source map and the entry word.
fn image_fnv(image: &ObjectImage) -> u64 {
    let mut text = String::new();
    for word in image.code() {
        let _ = write!(text, "{word:08x}");
    }
    text.push('\n');
    for f in image.functions() {
        let _ = writeln!(text, "func {} {} {}", f.name, f.start_word, f.size_words);
    }
    for seg in image.data() {
        let _ = write!(text, "data {} {} ", seg.name, seg.addr);
        for byte in &seg.bytes {
            let _ = write!(text, "{byte:02x}");
        }
        text.push('\n');
    }
    let mut symbols: Vec<(&String, &u32)> = image.symbols().iter().collect();
    symbols.sort();
    for (name, value) in symbols {
        let _ = writeln!(text, "symbol {name} {value}");
    }
    for b in image.loop_bounds() {
        let _ = writeln!(text, "loopbound {} {} {}", b.addr, b.min, b.max);
    }
    for p in image.pipe_loops() {
        let _ = writeln!(
            text,
            "pipeloop {} {} {} {} {} {} {} {} {}",
            p.guard,
            p.kernel,
            p.fallback,
            p.ii,
            p.stages,
            p.prologue,
            p.epilogue,
            p.threshold,
            p.min_trips
        );
    }
    let source = image.source_info();
    for f in &source.funcs {
        let _ = writeln!(text, "srcfunc {} {}", f.name, f.line);
    }
    for l in &source.loops {
        let _ = writeln!(text, "srcloop {} {} {}", l.line, l.start_word, l.end_word);
    }
    let _ = writeln!(text, "entry {}", image.entry_word());
    fnv1a64(text.as_bytes())
}

/// Compiles, runs and analyses one kernel under one configuration.
fn measure(w: &Workload, config: &Config) -> Cell {
    let fail = |e: &dyn std::fmt::Display| -> ! { panic!("{} at {config:?}: {e}", w.name) };
    let (opt_level, sched_level, reg_policy) = *config;
    let options = CompileOptions {
        opt_level,
        sched_level,
        reg_policy,
        ..CompileOptions::default()
    };
    let artifacts = compile_with_artifacts(&w.source, &options).unwrap_or_else(|e| fail(&e));
    // `compile` links the lowered statements directly; the text of the
    // same statements must assemble to the same image.
    let image = compile(&w.source, &options).unwrap_or_else(|e| fail(&e));
    let asm = artifacts.asm.to_string();
    if assemble(&asm).as_ref() != Ok(&image) {
        fail(&"the linked image differs from its assembled text's");
    }
    let mut sim = Simulator::new(&image, SimConfig::default());
    sim.run().unwrap_or_else(|e| fail(&e));
    if sim.reg(Reg::R1) != w.expected {
        fail(&"wrong result");
    }
    let stats = sim.stats();
    let machine = Machine::Patmos(SimConfig::default());
    let bound = analyze(&image, &machine).unwrap_or_else(|e| fail(&e));
    let blind = analyze_unpipelined(&image, &machine).unwrap_or_else(|e| fail(&e));
    let mut comparator = BaselineSim::new(&image, BaselineConfig::default());
    let baseline = comparator.run().unwrap_or_else(|e| fail(&e)).stats;
    let baseline_machine = Machine::Baseline(BaselineConfig::default());
    let baseline_bound = analyze(&image, &baseline_machine).unwrap_or_else(|e| fail(&e));
    let unrolls = artifacts.opt.as_ref().map_or(&[][..], |r| &r.unrolls);
    let partial = unrolls.iter().filter(|u| u.kind != UnrollKind::Full);
    let pipelined = artifacts.sched.pipelined_loops();
    Cell {
        cycles: stats.cycles,
        second_slots: stats.second_slots_used,
        active_bundles: stats.active_bundles(),
        renames: artifacts.sched.total_modulo_renames() as u64,
        spills: artifacts.allocation.total_pressure_spills() as u64,
        unrolls: unrolls.len() as u64,
        partial_unrolls: partial.map(|u| u.factor).collect(),
        pipelined: pipelined.map(|l| (l.mii, l.ii)).collect(),
        bound: bound.bound_cycles,
        blind_bound: blind.bound_cycles,
        asm_fnv: fnv1a64(asm.as_bytes()),
        vlir_fnv: fnv1a64(artifacts.vmodule.render().as_bytes()),
        image_fnv: image_fnv(&image),
        baseline,
        baseline_bound: baseline_bound.bound_cycles,
    }
}

/// Every suite kernel with its cells, one per entry of [`CONFIGS`], in
/// suite order: measured on first use (one host worker per kernel) and
/// shared by every caller in the process.
pub fn matrix() -> &'static [(&'static str, Vec<Cell>)] {
    static MATRIX: OnceLock<Vec<(&'static str, Vec<Cell>)>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let suite = workloads::all();
        std::thread::scope(|s| {
            let workers: Vec<_> = suite
                .iter()
                .map(|w| s.spawn(move || (w.name, CONFIGS.iter().map(|c| measure(w, c)).collect())))
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("matrix worker panicked"))
                .collect()
        })
    })
}

/// One kernel's cell under `config`.
pub fn cell(kernel: &str, config: Config) -> &'static Cell {
    let (_, cells) = matrix()
        .iter()
        .find(|(k, _)| *k == kernel)
        .unwrap_or_else(|| panic!("baseline kernel `{kernel}` no longer exists"));
    let at = CONFIGS.iter().position(|c| *c == config);
    &cells[at.expect("a matrix config")]
}

/// Where a baseline column's numbers come from.
#[derive(Debug, Clone, Copy)]
pub enum Column {
    /// A metric of one matrix configuration.
    Live(Config, fn(&Cell) -> u64),
    /// Recorded by a pipeline that no longer exists: copied from the
    /// checked-in file.
    Frozen,
}

/// One checked-in baseline file and its columns, in file order.
#[derive(Debug)]
pub struct Family {
    /// File name under `baselines/`.
    pub file: &'static str,
    /// The checked-in text.
    pub text: &'static str,
    /// The `(key, column)`s of every kernel record.
    pub columns: &'static [(&'static str, Column)],
}

/// Seed codegen vs register allocation, both at `opt0/sched0`.
pub const REGALLOC: &str = "regalloc_cycles.json";
/// The scalar mid-end, `opt{0,1}/sched0`.
pub const OPT: &str = "opt_cycles.json";
/// The DAG scheduler against the run scheduler, at `opt1`.
pub const SCHED: &str = "sched_cycles.json";
/// The loop-aware mid-end.
pub const OPT2: &str = "opt2_cycles.json";
/// Partial unrolling plus software pipelining.
pub const OPT3: &str = "opt3_cycles.json";
/// The allocation-policy interface.
pub const REGALLOC2: &str = "regalloc2_cycles.json";
/// Pipeline-aware WCET bounds.
pub const WCET: &str = "wcet_bounds.json";
/// Digests of the emitted assembly, of the mid-end's output and of the
/// linked image: equal cycles do not prove equal code, equal code does
/// not prove an unchanged mid-end, and equal text does not prove an
/// equal image.
pub const ASM: &str = "asm_digests.json";
/// The conventional comparator machine: its counters and WCET bound.
pub const BASELINE_MACHINE: &str = "baseline_machine.json";

/// Every baseline file as a view over the matrix.
pub const FAMILIES: [Family; 9] = [
    Family {
        file: REGALLOC,
        text: include_str!("../baselines/regalloc_cycles.json"),
        columns: &[
            ("seed_cycles", Frozen),
            ("seed_stack_ops", Frozen),
            ("regalloc_cycles", Frozen),
            ("regalloc_stack_ops", Frozen),
        ],
    },
    Family {
        file: OPT,
        text: include_str!("../baselines/opt_cycles.json"),
        columns: &[("opt0_cycles", Frozen), ("opt1_cycles", Frozen)],
    },
    Family {
        file: SCHED,
        text: include_str!("../baselines/sched_cycles.json"),
        columns: &[
            ("sched0_cycles", Frozen),
            ("sched1_cycles", Live(O1S1, |c| c.cycles)),
            ("sched1_second_slots", Live(O1S1, |c| c.second_slots)),
            ("sched1_active_bundles", Live(O1S1, |c| c.active_bundles)),
        ],
    },
    Family {
        file: OPT2,
        text: include_str!("../baselines/opt2_cycles.json"),
        columns: &[
            ("opt1_cycles", Live(O1S1, |c| c.cycles)),
            ("opt2_cycles", Live(O2S1, |c| c.cycles)),
        ],
    },
    Family {
        file: OPT3,
        text: include_str!("../baselines/opt3_cycles.json"),
        columns: &[
            ("opt2_cycles", Live(O2S1, |c| c.cycles)),
            ("opt3_cycles", Live(O3S2, |c| c.cycles)),
            ("opt3_second_slots", Live(O3S2, |c| c.second_slots)),
            ("opt3_active_bundles", Live(O3S2, |c| c.active_bundles)),
        ],
    },
    Family {
        file: REGALLOC2,
        text: include_str!("../baselines/regalloc2_cycles.json"),
        columns: &[
            ("linear_cycles", Live(O3S2, |c| c.cycles)),
            ("loop_cycles", Live(O3S2_LOOP, |c| c.cycles)),
            ("linear_renames", Live(O3S2, |c| c.renames)),
            ("loop_renames", Live(O3S2_LOOP, |c| c.renames)),
        ],
    },
    Family {
        file: WCET,
        text: include_str!("../baselines/wcet_bounds.json"),
        columns: &[
            ("bound_cycles", Live(O3S2, |c| c.bound)),
            ("fallback_bound_cycles", Live(O3S2, |c| c.blind_bound)),
            ("measured_cycles", Live(O3S2, |c| c.cycles)),
        ],
    },
    Family {
        file: ASM,
        text: include_str!("../baselines/asm_digests.json"),
        columns: &[
            ("opt1_sched1", Live(O1S1, |c| c.asm_fnv)),
            ("opt2_sched1", Live(O2S1, |c| c.asm_fnv)),
            ("opt3_sched2", Live(O3S2, |c| c.asm_fnv)),
            ("opt3_sched2_loop", Live(O3S2_LOOP, |c| c.asm_fnv)),
            ("vlir_opt1_sched1", Live(O1S1, |c| c.vlir_fnv)),
            ("vlir_opt2_sched1", Live(O2S1, |c| c.vlir_fnv)),
            ("vlir_opt3_sched2", Live(O3S2, |c| c.vlir_fnv)),
            ("vlir_opt3_sched2_loop", Live(O3S2_LOOP, |c| c.vlir_fnv)),
            ("image_opt1_sched1", Live(O1S1, |c| c.image_fnv)),
            ("image_opt2_sched1", Live(O2S1, |c| c.image_fnv)),
            ("image_opt3_sched2", Live(O3S2, |c| c.image_fnv)),
            ("image_opt3_sched2_loop", Live(O3S2_LOOP, |c| c.image_fnv)),
        ],
    },
    Family {
        file: BASELINE_MACHINE,
        text: include_str!("../baselines/baseline_machine.json"),
        columns: &[
            ("cycles", Live(O3S2, |c| c.baseline.cycles)),
            ("bundles", Live(O3S2, |c| c.baseline.bundles)),
            ("insts_executed", Live(O3S2, |c| c.baseline.insts_executed)),
            (
                "predicted_branches",
                Live(O3S2, |c| c.baseline.predicted_branches),
            ),
            ("mispredicts", Live(O3S2, |c| c.baseline.mispredicts)),
            ("stall_icache", Live(O3S2, |c| c.baseline.stall_icache)),
            ("stall_dcache", Live(O3S2, |c| c.baseline.stall_dcache)),
            ("stall_branch", Live(O3S2, |c| c.baseline.stall_branch)),
            ("icache_misses", Live(O3S2, |c| c.baseline.icache.misses)),
            ("dcache_misses", Live(O3S2, |c| c.baseline.dcache.misses)),
            ("bound_cycles", Live(O3S2, |c| c.baseline_bound)),
            ("opt1_sched1_cycles", Live(O1S1, |c| c.baseline.cycles)),
            ("opt2_sched1_cycles", Live(O2S1, |c| c.baseline.cycles)),
            (
                "opt3_sched2_loop_cycles",
                Live(O3S2_LOOP, |c| c.baseline.cycles),
            ),
        ],
    },
];

fn family(file: &str) -> &'static Family {
    FAMILIES
        .iter()
        .find(|f| f.file == file)
        .unwrap_or_else(|| panic!("no baseline family `{file}`"))
}

/// `file` as checked in.
pub fn pinned(file: &str) -> Doc {
    Doc::parse(family(file).text)
}

/// `file` as it would be written now: live columns from [`matrix`]
/// (measured on first use), frozen columns copied from the checked-in
/// file. Its [`Doc::render`] is the file's `--json` regeneration.
pub fn view(file: &str) -> Doc {
    let mut doc = pinned(file);
    let frozen = doc.clone();
    for (kernel, fields) in &mut doc.kernels {
        *fields = (family(file).columns.iter())
            .map(|&(key, column)| {
                let value = match column {
                    Frozen => frozen.get(kernel, key),
                    Live(config, metric) => metric(cell(kernel, config)),
                };
                (key.to_string(), value)
            })
            .collect();
    }
    doc
}

/// The shared `main` of the family binaries: with `--json`, prints
/// `file` as regenerated now; otherwise prints `table()`.
pub fn family_main(file: &str, table: fn() -> String) {
    if std::env::args().any(|a| a == "--json") {
        print!("{}", view(file).render());
    } else {
        print!("{}", table());
    }
}

/// Asserts that `file` regenerates byte for byte: every live column
/// equals a fresh measurement (the toolchain is deterministic, so drift
/// means a stale baseline), and a file with live columns records exactly
/// the suite, in suite order.
pub fn assert_current(file: &str) {
    let fresh = view(file);
    let live = family(file)
        .columns
        .iter()
        .any(|(_, c)| matches!(c, Live(..)));
    if live {
        let recorded: Vec<&str> = fresh.kernels.iter().map(|(k, _)| k.as_str()).collect();
        let suite: Vec<&str> = matrix().iter().map(|(k, _)| *k).collect();
        assert_eq!(recorded, suite, "{file} must record every suite kernel");
    }
    for ((kernel, old), (_, new)) in pinned(file).kernels.iter().zip(&fresh.kernels) {
        for ((key, was), (_, now)) in old.iter().zip(new) {
            assert_eq!(
                was, now,
                "baselines/{file}: {kernel}.{key} is stale; regenerate the file with the \
                 command in its description"
            );
        }
    }
    let text = family(file).text;
    assert_eq!(fresh.render(), text, "{file} does not round-trip");
}

/// A column of a checked-in file: `(file, key)`.
pub type Col = (&'static str, &'static str);

/// One check over the checked-in numbers.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// A cross-pin: on every kernel the first column's file records, the
    /// second column's file records the same value.
    Pin(Col, Col),
    /// Per kernel of the first column's file (or only the listed
    /// kernels): `a < b` when strict, else `a ≤ b`.
    Below(Col, Col, bool, Option<&'static [&'static str]>),
    /// Within one file, from `before` to `after`: never slower per
    /// kernel, a strictly smaller suite total, and at least the given
    /// geometric-mean speedup.
    Faster(&'static str, &'static str, &'static str, f64),
    /// Within one file: suite second issue slots per active bundle of
    /// at least the given floor.
    Utilisation(&'static str, &'static str, &'static str, f64),
    /// The suite total of a column is positive (`true`) or zero.
    Total(Col, bool),
}

/// Kernels whose innermost loop the modulo scheduler pipelines at
/// `opt3/sched2` — the rows `wcet_bounds.json` requires to tighten
/// strictly under the `.pipeloop`-aware analysis.
pub const PIPELINED_KERNELS: [&str; 4] = ["dotprod64", "cnt2d", "fir8", "spmfilter"];

/// Suite-wide second issue slots per active bundle.
fn slot2_share(doc: &Doc, slots: &str, active: &str) -> f64 {
    doc.total(slots) as f64 / doc.total(active).max(1) as f64
}

impl Rule {
    /// Panics, naming the enforcing `gate`, unless the rule holds on the
    /// checked-in numbers.
    pub fn check(&self, gate: &str) {
        match *self {
            Pin((a_file, a), (b_file, b)) => {
                let (a_doc, b_doc) = (pinned(a_file), pinned(b_file));
                for (kernel, _) in &a_doc.kernels {
                    let (x, y) = (a_doc.get(kernel, a), b_doc.get(kernel, b));
                    assert_eq!(x, y, "{gate}: {kernel}: {a_file}.{a} vs {b_file}.{b}");
                }
            }
            Below((file, a), (b_file, b), strict, only) => {
                let (doc, b_doc) = (pinned(file), pinned(b_file));
                let all: Vec<&str> = doc.kernels.iter().map(|(k, _)| k.as_str()).collect();
                for kernel in only.unwrap_or(&all) {
                    let (x, y) = (doc.get(kernel, a), b_doc.get(kernel, b));
                    assert!(
                        x < y || (!strict && x == y),
                        "{gate}: {kernel}: {a} {x} vs {b} {y}"
                    );
                }
            }
            Faster(file, before, after, geomean) => {
                let doc = pinned(file);
                let pairs: Vec<(u64, u64)> = (doc.kernels.iter())
                    .map(|(k, _)| (doc.get(k, before), doc.get(k, after)))
                    .collect();
                for ((kernel, _), (b, a)) in doc.kernels.iter().zip(&pairs) {
                    assert!(a <= b, "{gate}: {kernel} got slower ({b} -> {a} cycles)");
                }
                let (total_b, total_a) = (doc.total(before), doc.total(after));
                assert!(
                    total_a < total_b,
                    "{gate}: suite total {total_b} -> {total_a}"
                );
                let speedup = geomean_speedup(&pairs);
                assert!(speedup >= geomean, "{gate}: geomean speedup {speedup:.3}x");
            }
            Utilisation(file, slots, active, min) => {
                let share = slot2_share(&pinned(file), slots, active);
                assert!(share >= min, "{gate}: dual-issue utilisation {share:.3}");
            }
            Total((file, key), positive) => {
                let total = pinned(file).total(key);
                assert_eq!(
                    total > 0,
                    positive,
                    "{gate}: suite total of {key} is {total}"
                );
            }
        }
    }
}

/// One kernel's entry in `opt3_cycles.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opt3Baseline {
    /// Kernel name.
    pub name: String,
    /// Cycles at `opt3/sched2`.
    pub opt3_cycles: u64,
}

/// Parses the checked-in `opt3_cycles.json` (no measurement).
pub fn opt3_baseline() -> Vec<Opt3Baseline> {
    let rows = column(OPT3, "opt3_cycles").into_iter();
    rows.map(|(name, opt3_cycles)| Opt3Baseline { name, opt3_cycles })
        .collect()
}

/// One kernel's entry in `wcet_bounds.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetBoundsBaseline {
    /// Kernel name.
    pub name: String,
    /// The pipeline-aware WCET bound at `opt3/sched2`.
    pub bound_cycles: u64,
}

/// Parses the checked-in `wcet_bounds.json` (no measurement).
pub fn wcet_bounds_baseline() -> Vec<WcetBoundsBaseline> {
    let rows = column(WCET, "bound_cycles").into_iter();
    rows.map(|(name, bound_cycles)| WcetBoundsBaseline { name, bound_cycles })
        .collect()
}

/// One checked-in column as `(kernel, value)` pairs.
fn column(file: &str, key: &str) -> Vec<(String, u64)> {
    let doc = pinned(file);
    doc.kernels
        .iter()
        .map(|(k, _)| (k.clone(), doc.get(k, key)))
        .collect()
}

/// A before/after table over one view: per kernel both values, the
/// ratio and the saving, then `extra(kernel)`; suite totals and the
/// geometric-mean ratio close it.
fn speedup_table(
    title: &str,
    doc: &Doc,
    (before, after): (&str, &str),
    extra_head: &str,
    extra: impl Fn(&str) -> String,
) -> String {
    let label = |key: &str| key.trim_end_matches("_cycles").to_string();
    let mut out = format!(
        "{title}\n{:<12} {:>14} {:>14} {:>9} {:>8} {extra_head}\n",
        "kernel",
        label(before),
        label(after),
        "speedup",
        "saved"
    );
    let mut pairs = Vec::new();
    for (kernel, _) in &doc.kernels {
        let (b, a) = (doc.get(kernel, before), doc.get(kernel, after));
        pairs.push((b, a));
        let (speedup, saved) = (b as f64 / a as f64, 100.0 * (1.0 - a as f64 / b as f64));
        let extra = extra(kernel);
        writeln!(
            out,
            "{kernel:<12} {b:>14} {a:>14} {speedup:>8.2}x {saved:>7.1}% {extra}"
        )
        .ok();
    }
    let (total_b, total_a) = (doc.total(before), doc.total(after));
    let geomean = geomean_speedup(&pairs);
    writeln!(
        out,
        "total: {total_b} -> {total_a} cycles; geometric-mean speedup {geomean:.2}x"
    )
    .ok();
    out
}

/// `a/b` as a whole percentage.
fn percent(a: u64, b: u64) -> String {
    format!("{:.0}%", 100.0 * a as f64 / b.max(1) as f64)
}

/// E11 — register allocation against the seed codegen: cycles and
/// stack-cache operations, both frozen at `opt0/sched0`.
pub fn exp_e11_regalloc() -> String {
    let doc = view(REGALLOC);
    let ops = |k: &str| {
        let (seed, now) = (
            doc.get(k, "seed_stack_ops"),
            doc.get(k, "regalloc_stack_ops"),
        );
        format!("{seed:>10} {now:>10}")
    };
    let title = "E11: liveness-driven register allocation vs seed codegen (frozen at opt0/sched0)";
    let pair = ("seed_cycles", "regalloc_cycles");
    speedup_table(title, &doc, pair, "seed S$ops  now S$ops", ops)
        + "leaf kernels keep every live value in r7-r28\n"
}

/// E12 — the mid-end optimizer: `opt_level` 0 vs 1, frozen at
/// `sched_level` 0.
pub fn exp_e12_opt() -> String {
    let title = "E12: mid-end optimizer (patmos-opt) vs straight lowering (frozen at sched0)";
    speedup_table(
        title,
        &view(OPT),
        ("opt0_cycles", "opt1_cycles"),
        "",
        |_| String::new(),
    )
}

/// E13 — the DAG scheduler against the frozen run scheduler, with
/// dual-issue utilisation over active bundles.
pub fn exp_e13_sched() -> String {
    let doc = view(SCHED);
    let (slots, active) = ("sched1_second_slots", "sched1_active_bundles");
    let util = |k: &str| format!("{:>12}", percent(doc.get(k, slots), doc.get(k, active)));
    let title = "E13: dependence-DAG scheduler (patmos-sched) vs run scheduler (sched0 frozen)";
    let mut out = speedup_table(
        title,
        &doc,
        ("sched0_cycles", "sched1_cycles"),
        "slot2 active",
        util,
    );
    let share = 100.0 * slot2_share(&doc, slots, active);
    writeln!(out, "suite slot2 {share:.0}% of active bundles").ok();
    out
}

/// E14 — the loop-aware mid-end (inlining, LICM, unrolling):
/// `opt_level` 1 vs 2.
pub fn exp_e14_opt2() -> String {
    let title = "E14: loop-aware mid-end (inline + LICM + unroll) vs scalar mid-end";
    speedup_table(
        title,
        &view(OPT2),
        ("opt1_cycles", "opt2_cycles"),
        "",
        |_| String::new(),
    )
}

/// E15 — loop throughput: `opt2/sched1` vs `opt3/sched2`, with
/// dual-issue utilisation, pipelined loops (MII → II) and partial
/// unroll factors.
pub fn exp_e15_pipeline() -> String {
    let doc = view(OPT3);
    let (slots, active) = ("opt3_second_slots", "opt3_active_bundles");
    let list = |items: Vec<String>| match items.is_empty() {
        true => "-".to_string(),
        false => items.join(" "),
    };
    let row = |k: &str| {
        let cell = cell(k, O3S2);
        format!(
            "{:>12} {:>11} {:>14}",
            percent(doc.get(k, slots), doc.get(k, active)),
            list(
                cell.pipelined
                    .iter()
                    .map(|(mii, ii)| format!("{mii}→{ii}"))
                    .collect()
            ),
            list(
                cell.partial_unrolls
                    .iter()
                    .map(|f| format!("{f}x"))
                    .collect()
            ),
        )
    };
    let title = "E15: software pipelining + partial unrolling (opt3/sched2) vs the loop-aware mid-end (opt2/sched1)";
    let head = "slot2 active   pipelined partial unroll";
    let mut out = speedup_table(title, &doc, ("opt2_cycles", "opt3_cycles"), head, row);
    let share = 100.0 * slot2_share(&doc, slots, active);
    writeln!(out, "suite slot2 {share:.0}% of active bundles").ok();
    out
}

/// E18 — the loop-aware allocation policy against linear scan at
/// `opt3/sched2`: cycles, modulo renames, pure pressure spills and
/// unroller decisions under each policy.
pub fn exp_e18_regalloc2() -> String {
    let doc = view(REGALLOC2);
    let row = |k: &str| {
        let (lin, lp) = (cell(k, O3S2), cell(k, O3S2_LOOP));
        format!(
            "{:>6}/{:<6} {:>6}/{:<6} {:>6}/{:<6}",
            lin.renames, lp.renames, lin.spills, lp.spills, lin.unrolls, lp.unrolls
        )
    };
    let title =
        "E18: loop-aware register allocation (--reg-policy loop) vs linear scan (opt3/sched2)";
    let head = "  renames l/l    spills l/l   unrolls l/l";
    let mut out = speedup_table(title, &doc, ("linear_cycles", "loop_cycles"), head, row);
    let (lin, lp) = (doc.total("linear_renames"), doc.total("loop_renames"));
    writeln!(out, "suite modulo renames {lin} (linear) -> {lp} (loop)").ok();
    out
}

/// E7 — WCET bound tightness at `opt3/sched2`: Patmos against the
/// conventional comparator, observed cycles and bound on each machine.
pub fn exp_e7_wcet_bounds() -> String {
    let (patmos, comparator) = (view(WCET), view(BASELINE_MACHINE));
    let mut out =
        String::from("E7: WCET bound vs observed — Patmos vs average-case baseline (Section 1)\n");
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7}",
        "kernel", "P obs", "P bound", "ratio", "B obs", "B bound", "ratio"
    )
    .ok();
    let (mut p_prod, mut b_prod) = (1.0f64, 1.0f64);
    for (kernel, _) in &patmos.kernels {
        let p_obs = patmos.get(kernel, "measured_cycles");
        let p_bound = patmos.get(kernel, "bound_cycles");
        let b_obs = comparator.get(kernel, "cycles");
        let b_bound = comparator.get(kernel, "bound_cycles");
        let (pr, br) = (p_bound as f64 / p_obs as f64, b_bound as f64 / b_obs as f64);
        p_prod *= pr;
        b_prod *= br;
        writeln!(
            out,
            "{kernel:<12} {p_obs:>10} {p_bound:>10} {pr:>6.2}x | {b_obs:>10} {b_bound:>10} {br:>6.2}x"
        )
        .ok();
    }
    let n = patmos.kernels.len() as f64;
    writeln!(
        out,
        "geometric-mean pessimism: Patmos {:.2}x, baseline {:.2}x",
        p_prod.powf(1.0 / n),
        b_prod.powf(1.0 / n)
    )
    .ok();
    out
}

/// E19 — the pipeline-aware WCET trajectory at `opt3/sched2`: the
/// record-blind bound against the `.pipeloop`-aware one (the speedup
/// column is the tightening), with measured cycles and pessimism.
pub fn exp_e19_wcet_trajectory() -> String {
    let doc = view(WCET);
    let row = |k: &str| {
        let (bound, measured) = (doc.get(k, "bound_cycles"), doc.get(k, "measured_cycles"));
        format!("{measured:>10} {:>9.2}x", bound as f64 / measured as f64)
    };
    let title = "E19: pipeline-aware WCET bounds (opt3/sched2) vs the fallback-charged analysis";
    let pair = ("fallback_bound_cycles", "bound_cycles");
    speedup_table(title, &doc, pair, "  measured pessimism", row)
}

/// The per-kernel spill, rename and unroll footprint of both allocation
/// policies at `opt3/sched2`, as a JSON document (a CI trend artifact).
pub fn footprint_json() -> String {
    let kernels = matrix().iter().map(|&(k, _)| {
        let (lin, lp) = (cell(k, O3S2), cell(k, O3S2_LOOP));
        let fields = [
            ("linear_spills", lin.spills),
            ("loop_spills", lp.spills),
            ("linear_renames", lin.renames),
            ("loop_renames", lp.renames),
            ("linear_unrolls", lin.unrolls),
            ("loop_unrolls", lp.unrolls),
        ];
        (
            k.to_string(),
            fields.map(|(f, v)| (f.to_string(), v)).to_vec(),
        )
    });
    let header = "{\n  \"schema\": \"patmos-bench/regalloc2-footprint/v1\",\n  ".to_string();
    let kernels = kernels.collect();
    Doc { header, kernels }.render()
}

/// Every family table, keyed by the binary that prints it.
pub fn tables() -> Vec<(&'static str, String)> {
    vec![
        ("exp_e7_wcet_bounds", exp_e7_wcet_bounds()),
        ("exp_e11_regalloc", exp_e11_regalloc()),
        ("exp_e12_opt", exp_e12_opt()),
        ("exp_e13_sched", exp_e13_sched()),
        ("exp_e14_opt2", exp_e14_opt2()),
        ("exp_e15_pipeline", exp_e15_pipeline()),
        ("exp_e18_regalloc2", exp_e18_regalloc2()),
        ("exp_e19_wcet_trajectory", exp_e19_wcet_trajectory()),
    ]
}
