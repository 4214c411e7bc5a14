//! The three workloads. Each is sized so that one layer does nearly all of
//! its work (see `perfbench/README.md` for why each was chosen):
//!
//! - `paper-timing`: `optimize` + timing-mode simulation of the paper's
//!   cells; `sim.run` dominates.
//! - `full-verify`: full-mode simulation under seeded fault plans, checked
//!   against sequential references built during set-up; the distributed
//!   evaluator dominates.
//! - `compile-lint`: the static toolchain on every source × preset;
//!   `analysis.lint` dominates.

use crate::ledger::Ledger;
use commopt_analysis::lint;
use commopt_benchmarks::{jacobi_source, suite, Experiment};
use commopt_core::{dynamic_count, optimize, verify_plan, OptConfig, Optimized};
use commopt_ir::Program;
use commopt_ironman::Library;
use commopt_lang::Frontend;
use commopt_machine::MachineSpec;
use commopt_sim::{FaultPlan, SeqInterp, SimConfig, SimResult, Simulator};
use commopt_testkit::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper-timing", "full-verify", "compile-lint"];

/// Expected outputs recorded at the commit that defined the benchmark.
const EXPECTED: &str = include_str!("../expected.tsv");

/// The paper's partition size.
const PAPER_PROCS: usize = 64;
/// `full-verify` partition and problem sizes.
const VERIFY_PROCS: usize = 16;
const VERIFY_2D: (i64, i64) = (96, 3);
const VERIFY_SP: (i64, i64) = (16, 2);
/// The fuzz harness's relative bound for distributed vs sequential values.
const REL_TOL: f64 = 1e-9;

/// A layer whose call the sensitivity self-check repeats on every
/// operation of the workloads that make it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Repeat {
    /// `analysis.lint` (made only by `compile-lint`).
    Lint,
    /// Timing-mode `sim.run` (made only by `paper-timing`).
    SimTiming,
    /// Full-mode `sim.run` (made only by `full-verify`).
    SimFull,
}

impl Repeat {
    pub fn parse(s: &str) -> Option<Repeat> {
        match s {
            "lint" => Some(Repeat::Lint),
            "sim-timing" => Some(Repeat::SimTiming),
            "sim-full" => Some(Repeat::SimFull),
            _ => None,
        }
    }
}

/// One workload after set-up: a fixed list of cases, one operation each.
pub trait Workload {
    /// The case names, one per operation of a pass.
    fn cases(&self) -> Vec<String>;
    /// Runs and checks case `i`. `Err` is a failed operation.
    fn run(&mut self, i: usize, ledger: &mut Ledger, repeat: Option<Repeat>) -> Result<(), String>;
    /// What a recorder collected (empty for workloads that check against
    /// references of their own).
    fn recorded(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// Builds a workload, doing all of its set-up work.
pub fn setup(name: &str, seed: u64, ledger: &mut Ledger, expected: Expected) -> Box<dyn Workload> {
    match name {
        "paper-timing" => Box::new(PaperTiming::setup(ledger, expected)),
        "full-verify" => Box::new(FullVerify::setup(ledger, seed, expected.corrupt)),
        "compile-lint" => Box::new(CompileLint::setup(ledger, expected)),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// A workload's recorded expected outputs, or a recorder collecting them.
pub struct Expected {
    table: BTreeMap<String, String>,
    recording: Option<Vec<(String, String)>>,
    /// The self-test corrupts one expected entry.
    corrupt: bool,
}

impl Expected {
    /// The recorded entries of `workload`; with `corrupt`, the first entry
    /// (for `full-verify`, one reference value) is deliberately wrong.
    pub fn load(workload: &str, corrupt: bool) -> Expected {
        let mut table = BTreeMap::new();
        for line in EXPECTED
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut f = line.splitn(3, '\t');
            if let (Some(w), Some(case), Some(value)) = (f.next(), f.next(), f.next()) {
                if w == workload {
                    table.insert(case.to_string(), value.to_string());
                }
            }
        }
        if corrupt {
            if let Some(v) = table.values_mut().next() {
                v.push_str("-corrupted");
            }
        }
        Expected {
            table,
            recording: None,
            corrupt,
        }
    }

    /// A recorder: every check passes and stores what it observed.
    pub fn recorder() -> Expected {
        Expected {
            table: BTreeMap::new(),
            recording: Some(Vec::new()),
            corrupt: false,
        }
    }

    /// The entries a recorder collected, in check order.
    fn recorded(&self) -> Vec<(String, String)> {
        self.recording.clone().unwrap_or_default()
    }

    fn check(&mut self, case: &str, observed: String) -> Result<(), String> {
        if let Some(rec) = &mut self.recording {
            rec.push((case.to_string(), observed));
            return Ok(());
        }
        match self.table.get(case) {
            Some(want) if *want == observed => Ok(()),
            Some(want) => Err(format!("{case}: expected {want}, got {observed}")),
            None => Err(format!("{case}: no recorded expectation (got {observed})")),
        }
    }
}

fn compile(ledger: &mut Ledger, source: &str, config: &[(&str, i64)]) -> Program {
    let program = ledger.span("lang.compile", || {
        config
            .iter()
            .fold(Frontend::new(source), |f, (k, v)| f.with_config(k, *v))
            .compile()
    });
    program.expect("the workload's sources are the repository's own programs")
}

fn optimize_counted(ledger: &mut Ledger, program: &Program, cfg: &OptConfig) -> Optimized {
    let opt = ledger.span("core.optimize", || optimize(program, cfg));
    count_plan(ledger, program, &opt);
    opt
}

fn count_plan(ledger: &mut Ledger, source: &Program, opt: &Optimized) {
    ledger.add("lang.stmts", source.stmt_count() as u64);
    ledger.add("core.transfers", opt.program.transfers.len() as u64);
    ledger.add("core.rr_removals", opt.log.removals().count() as u64);
    ledger.add("core.cc_merges", opt.log.merges().count() as u64);
}

fn run_layer(lib: Library) -> &'static str {
    match lib {
        Library::Pvm => "sim.run.pvm",
        Library::Shmem => "sim.run.shmem",
        Library::NxSync | Library::NxAsync | Library::NxCallback => "sim.run.nx",
    }
}

/// `Simulator::new` + `try_run`, each as its own span.
fn simulate(ledger: &mut Ledger, program: &Program, cfg: SimConfig) -> Result<SimResult, String> {
    let layer = run_layer(cfg.library);
    let sim = ledger.span("sim.new", || Simulator::new(program, cfg));
    ledger
        .span(layer, || sim.try_run())
        .map_err(|e| format!("SimError: {e}"))
}

fn count_sim(ledger: &mut Ledger, r: &SimResult, nprocs: usize) {
    ledger.add("sim.transfer_execs", r.dynamic_comm * nprocs as u64);
    ledger.add(
        "sim.bytes_moved",
        r.transfers.values().map(|t| t.bytes).sum(),
    );
    ledger.add("sim.faults.retries", r.faults.retries);
    ledger.add("sim.faults.reordered", r.faults.reordered_messages);
}

// `machine_for` and `library_tag` repeat two helpers of the harness crate
// (`commopt_bench::fuzz`) so that the benchmark depends only on the layers
// it measures and on the suite's sources, not on the harness.

/// The machine each library's binding is calibrated for.
fn machine_for(lib: Library) -> MachineSpec {
    match lib {
        Library::Pvm | Library::Shmem => MachineSpec::t3d(),
        Library::NxSync | Library::NxAsync | Library::NxCallback => MachineSpec::paragon(),
    }
}

fn library_tag(lib: Library) -> &'static str {
    match lib {
        Library::NxSync => "nx-sync",
        Library::NxAsync => "nx-async",
        Library::NxCallback => "nx-callback",
        Library::Pvm => "pvm",
        Library::Shmem => "shmem",
    }
}

/// FNV-1a over the exact bits of a timing result: simulated times and
/// every count, so any change to the simulated outcome changes it.
fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.time_s.to_bits());
    r.per_proc_time_s.iter().for_each(|t| eat(t.to_bits()));
    for x in [
        r.dynamic_comm,
        r.data_transfers,
        r.bytes_received,
        r.max_message_bytes,
        r.reductions,
        r.comm_time_s.to_bits(),
        r.compute_time_s.to_bits(),
    ] {
        eat(x);
    }
    for (id, t) in &r.transfers {
        eat(u64::from(*id));
        eat(t.executions);
        eat(t.bytes);
        eat(t.max_message_bytes);
        eat(t.wait_s.to_bits());
    }
    h
}

// ---------------------------------------------------------------- paper-timing

struct TimingCell {
    name: String,
    bench: usize,
    cfg: OptConfig,
    machine: MachineSpec,
    lib: Library,
}

/// Each suite benchmark at its paper size with P=64: the six Figure 9/10
/// experiments on the T3D (PVM and SHMEM), and `pl` on the Paragon over
/// NX `csend`/`crecv`. 28 operations per pass.
struct PaperTiming {
    programs: Vec<Program>,
    cells: Vec<TimingCell>,
    expected: Expected,
}

impl PaperTiming {
    fn setup(ledger: &mut Ledger, expected: Expected) -> PaperTiming {
        let mut programs = Vec::new();
        let mut cells = Vec::new();
        for (bench, b) in suite().iter().enumerate() {
            programs.push(compile(ledger, b.source, &[]));
            for exp in Experiment::ALL {
                cells.push(TimingCell {
                    name: format!(
                        "{}/{}/t3d-{}",
                        b.name,
                        exp.name(),
                        library_tag(exp.library())
                    ),
                    bench,
                    cfg: exp.config(),
                    machine: MachineSpec::t3d(),
                    lib: exp.library(),
                });
            }
            cells.push(TimingCell {
                name: format!("{}/pl/paragon-nx-sync", b.name),
                bench,
                cfg: OptConfig::pl(),
                machine: MachineSpec::paragon(),
                lib: Library::NxSync,
            });
        }
        PaperTiming {
            programs,
            cells,
            expected,
        }
    }
}

impl Workload for PaperTiming {
    fn recorded(&self) -> Vec<(String, String)> {
        self.expected.recorded()
    }

    fn cases(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn run(&mut self, i: usize, ledger: &mut Ledger, repeat: Option<Repeat>) -> Result<(), String> {
        let c = &self.cells[i];
        let opt = optimize_counted(ledger, &self.programs[c.bench], &c.cfg);
        let cfg = SimConfig::timing(c.machine.clone(), c.lib, PAPER_PROCS);
        if repeat == Some(Repeat::SimTiming) {
            black_box(simulate(ledger, &opt.program, cfg.clone())?);
        }
        let r = simulate(ledger, &opt.program, cfg)?;
        count_sim(ledger, &r, PAPER_PROCS);
        let structural = ledger.span("core.dynamic_count", || dynamic_count(&opt.program));
        let expected = &mut self.expected;
        ledger.span("bench.check", || {
            if r.dynamic_comm != structural {
                return Err(format!(
                    "{}: simulated dynamic count {} != structural {structural}",
                    c.name, r.dynamic_comm
                ));
            }
            expected.check(&c.name, format!("{:016x}", digest(&r)))
        })
    }
}

// ----------------------------------------------------------------- full-verify

/// Final values of one benchmark's sequential run.
struct Reference {
    arrays: Vec<(String, Vec<f64>)>,
    scalars: Vec<(String, f64)>,
}

struct VerifyCase {
    name: String,
    plan: usize,
    lib: Library,
    faults: FaultPlan,
}

/// 4 benchmarks × {vect, rr, cc, pl} × all 5 bindings at P=16 under seeded
/// fault plans. 80 operations per pass.
struct FullVerify {
    programs: Vec<Program>,
    /// Per plan: its benchmark's index and the plan.
    plans: Vec<(usize, Optimized)>,
    refs: Vec<Reference>,
    cases: Vec<VerifyCase>,
}

impl FullVerify {
    fn setup(ledger: &mut Ledger, seed: u64, corrupt: bool) -> FullVerify {
        const LEVELS: [Experiment; 4] = [
            Experiment::Baseline,
            Experiment::Rr,
            Experiment::Cc,
            Experiment::Pl,
        ];
        let mut faults = Rng::new(seed ^ 0x6675_6c6c_7665_7269);
        let mut programs = Vec::new();
        let mut plans = Vec::new();
        let mut refs = Vec::new();
        let mut cases = Vec::new();
        for (bench, b) in suite().iter().enumerate() {
            let (n, iters) = if b.name == "sp" { VERIFY_SP } else { VERIFY_2D };
            let program = compile(ledger, b.source, &[("n", n), ("iters", iters)]);
            let seq = ledger.span("sim.seq", || SeqInterp::run(&program));
            refs.push(Reference {
                arrays: program
                    .arrays
                    .iter()
                    .map(|a| {
                        let v = seq.array(&a.name).expect("the reference holds every array");
                        (a.name.clone(), v.to_vec())
                    })
                    .collect(),
                scalars: program
                    .scalars
                    .iter()
                    .map(|s| {
                        let v = seq
                            .scalar(&s.name)
                            .expect("the reference holds every scalar");
                        (s.name.clone(), v)
                    })
                    .collect(),
            });
            for exp in LEVELS {
                let opt = ledger.span("core.optimize", || optimize(&program, &exp.config()));
                for lib in Library::ALL {
                    cases.push(VerifyCase {
                        name: format!("{}/{}/{}", b.name, exp.name(), library_tag(lib)),
                        plan: plans.len(),
                        lib,
                        faults: FaultPlan::seeded(faults.next_u64()),
                    });
                }
                plans.push((bench, opt));
            }
            programs.push(program);
        }
        if corrupt {
            if let Some((_, v)) = refs[0].arrays.iter_mut().find(|(_, v)| !v.is_empty()) {
                v[0] += 1.0;
            }
        }
        FullVerify {
            programs,
            plans,
            refs,
            cases,
        }
    }
}

fn close(want: f64, got: f64) -> bool {
    want.is_finite() && got.is_finite() && (want - got).abs() <= REL_TOL * want.abs().max(1.0)
}

impl Workload for FullVerify {
    fn cases(&self) -> Vec<String> {
        self.cases.iter().map(|c| c.name.clone()).collect()
    }

    fn run(&mut self, i: usize, ledger: &mut Ledger, repeat: Option<Repeat>) -> Result<(), String> {
        let c = &self.cases[i];
        let (bench, opt) = &self.plans[c.plan];
        count_plan(ledger, &self.programs[*bench], opt);
        let cfg = SimConfig::full(machine_for(c.lib), c.lib, VERIFY_PROCS).with_faults(c.faults);
        if repeat == Some(Repeat::SimFull) {
            black_box(simulate(ledger, &opt.program, cfg.clone())?);
        }
        let r = simulate(ledger, &opt.program, cfg)?;
        count_sim(ledger, &r, VERIFY_PROCS);
        let reference = &self.refs[*bench];
        ledger.span("bench.check", || {
            for (name, want) in &reference.arrays {
                let got = r
                    .array(name)
                    .ok_or_else(|| format!("{}: result missing array {name}", c.name))?;
                if got.len() != want.len() {
                    return Err(format!("{}: array {name} length mismatch", c.name));
                }
                if let Some(k) = want.iter().zip(got).position(|(w, g)| !close(*w, *g)) {
                    return Err(format!("{}: {name}[{k}] {} vs {}", c.name, want[k], got[k]));
                }
            }
            for (name, want) in &reference.scalars {
                let got = r
                    .scalar(name)
                    .ok_or_else(|| format!("{}: result missing scalar {name}", c.name))?;
                if !close(*want, got) {
                    return Err(format!("{}: scalar {name} {want} vs {got}", c.name));
                }
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------- compile-lint

struct LintCase {
    name: String,
    source: usize,
    cfg: OptConfig,
}

/// The four suite programs at their paper config, `jacobi` and
/// `examples/stencil.zpl`, each under every `OptConfig::presets()` entry.
/// 30 operations per pass.
struct CompileLint {
    sources: Vec<&'static str>,
    cases: Vec<LintCase>,
    expected: Expected,
}

impl CompileLint {
    fn setup(ledger: &mut Ledger, expected: Expected) -> CompileLint {
        let mut named: Vec<(&'static str, &'static str)> =
            suite().iter().map(|b| (b.name, b.source)).collect();
        named.push(("jacobi", jacobi_source()));
        named.push(("stencil", include_str!("../../examples/stencil.zpl")));
        let mut cases = Vec::new();
        for (source, (name, text)) in named.iter().enumerate() {
            // Validate every source before the timed loop.
            compile(ledger, text, &[]);
            for (preset, cfg) in OptConfig::presets() {
                cases.push(LintCase {
                    name: format!("{name}/{preset}"),
                    source,
                    cfg,
                });
            }
        }
        CompileLint {
            sources: named.iter().map(|(_, text)| *text).collect(),
            cases,
            expected,
        }
    }
}

impl Workload for CompileLint {
    fn recorded(&self) -> Vec<(String, String)> {
        self.expected.recorded()
    }

    fn cases(&self) -> Vec<String> {
        self.cases.iter().map(|c| c.name.clone()).collect()
    }

    fn run(&mut self, i: usize, ledger: &mut Ledger, repeat: Option<Repeat>) -> Result<(), String> {
        let c = &self.cases[i];
        let program = compile(ledger, self.sources[c.source], &[]);
        let opt = optimize_counted(ledger, &program, &c.cfg);
        let verified = ledger.span("core.verify_plan", || verify_plan(&opt.program));
        let dynamic = ledger.span("core.dynamic_count", || dynamic_count(&opt.program));
        if repeat == Some(Repeat::Lint) {
            black_box(ledger.span("analysis.lint", || lint(&opt.program)));
        }
        let report = ledger.span("analysis.lint", || lint(&opt.program));
        ledger.add("analysis.stmts_linted", opt.program.stmt_count() as u64);
        ledger.add("analysis.diagnostics", report.diagnostics.len() as u64);
        let expected = &mut self.expected;
        ledger.span("bench.check", || {
            if let Err(errors) = verified {
                return Err(format!(
                    "{}: verify_plan: {} error(s)",
                    c.name,
                    errors.len()
                ));
            }
            if !report.error_free() {
                return Err(format!("{}: lint errors:\n{}", c.name, report.render()));
            }
            let mut observed = format!("static={} dynamic={dynamic}", opt.static_count());
            for (code, n) in report.counts() {
                observed.push_str(&format!(" {}={n}", code.as_str()));
            }
            expected.check(&c.name, observed)
        })
    }
}
