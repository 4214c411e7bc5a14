//! The traced run's per-layer ledger.
//!
//! Every public call the benchmark makes into `lang`, `core`, `analysis` or
//! `sim` goes through [`Ledger::span`]. With tracing off that is a plain
//! call; with tracing on it records a span (layer, start, end, parent) in
//! memory. Exact work counts are recorded next to the spans with
//! [`Ledger::add`]. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What caused a span: the set-up, or one numbered operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Parent {
    Setup,
    Op(u64),
}

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Parent,
}

/// Layers whose calls happen inside operations. Each is reported per pass
/// of operations, with its share of operation time. A name covers its
/// sub-layers: `sim.run` sums `sim.run.pvm`, `sim.run.shmem` and
/// `sim.run.nx`.
pub const OP_LAYERS: [&str; 11] = [
    "lang.compile",
    "core.optimize",
    "core.verify_plan",
    "core.dynamic_count",
    "analysis.lint",
    "sim.new",
    "sim.run",
    "sim.run.pvm",
    "sim.run.shmem",
    "sim.run.nx",
    "bench.check",
];

/// Layers called only during set-up, reported with their share of set-up
/// time.
pub const SETUP_LAYERS: [&str; 1] = ["sim.seq"];

/// Exact work counts, reported per pass of operations.
pub const COUNTERS: [&str; 10] = [
    "lang.stmts",
    "core.transfers",
    "core.rr_removals",
    "core.cc_merges",
    "analysis.stmts_linted",
    "analysis.diagnostics",
    "sim.transfer_execs",
    "sim.bytes_moved",
    "sim.faults.retries",
    "sim.faults.reordered",
];

pub struct Ledger {
    on: bool,
    epoch: Instant,
    parent: Parent,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            epoch: Instant::now(),
            parent: Parent::Setup,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Attributes the spans that follow to `parent`.
    pub fn enter(&mut self, parent: Parent) {
        self.parent = parent;
    }

    /// Forgets everything recorded so far (used before each repeated
    /// set-up, so that the ledger holds exactly one set-up).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counts.clear();
    }

    /// Runs `f` as one call into `layer`, recording a span when tracing.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            start_ns: ns(start - self.epoch),
            end_ns: ns(end - self.epoch),
            parent: self.parent,
        });
        out
    }

    /// Adds `n` to an exact work counter (one of [`COUNTERS`]).
    pub fn add(&mut self, counter: &'static str, n: u64) {
        if self.on {
            debug_assert!(COUNTERS.contains(&counter), "unknown counter {counter}");
            *self.counts.entry(counter).or_insert(0) += n;
        }
    }

    fn busy(&self, layer: &str, setup: bool) -> (u64, f64) {
        let mut calls = 0;
        let mut ns = 0;
        for s in &self.spans {
            let in_layer = s.layer == layer
                || (s.layer.starts_with(layer)
                    && s.layer.as_bytes().get(layer.len()) == Some(&b'.'));
            if in_layer && (s.parent == Parent::Setup) == setup {
                calls += 1;
                ns += s.end_ns - s.start_ns;
            }
        }
        (calls, ns as f64 * 1e-9)
    }

    /// The per-layer metrics, as `(name, value, unit)`.
    ///
    /// `passes` is the number of whole passes of operations, `op_s` the
    /// summed operation latency and `setup_s` the duration of the set-up
    /// the ledger holds.
    pub fn metrics(
        &self,
        passes: u64,
        op_s: f64,
        setup_s: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let per_pass = |x: f64| x / passes as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = Vec::new();
        for layer in OP_LAYERS {
            let (calls, busy) = self.busy(layer, false);
            out.push((format!("{layer}.calls"), per_pass(calls as f64), "count"));
            out.push((format!("{layer}.busy_s"), per_pass(busy), "s"));
            out.push((format!("{layer}.share"), ratio(busy, op_s), "ratio"));
        }
        for layer in SETUP_LAYERS {
            let (calls, busy) = self.busy(layer, true);
            out.push((format!("{layer}.calls"), calls as f64, "count"));
            out.push((format!("{layer}.busy_s"), busy, "s"));
            out.push((format!("{layer}.share"), ratio(busy, setup_s), "ratio"));
        }
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0) as f64;
        for name in COUNTERS {
            let unit = if name == "sim.bytes_moved" {
                "B"
            } else {
                "count"
            };
            out.push((name.to_string(), per_pass(count(name)), unit));
        }
        let (_, run_s) = self.busy("sim.run", false);
        out.push((
            "sim.ns_per_transfer_exec".into(),
            ratio(run_s * 1e9, count("sim.transfer_execs")),
            "ns",
        ));
        let (_, lint_s) = self.busy("analysis.lint", false);
        out.push((
            "analysis.us_per_stmt".into(),
            ratio(lint_s * 1e6, count("analysis.stmts_linted")),
            "us",
        ));
        out
    }

    /// Every span as tab-separated text: layer, start, end (ns since the
    /// ledger was made) and parent.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("layer\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = match s.parent {
                Parent::Setup => "setup".to_string(),
                Parent::Op(i) => format!("op{i}"),
            };
            let _ = writeln!(out, "{}\t{}\t{}\t{parent}", s.layer, s.start_ns, s.end_ns);
        }
        out
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
