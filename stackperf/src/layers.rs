//! Per-layer accounting for the traced replays: summed wall time of the
//! calls into each layer's public functions, timed from outside the
//! program, plus the exact counts those calls return.

use crate::{metric, Metric};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and work counts of every layer over one traced replay.
#[derive(Default)]
pub struct Layers {
    /// `clight::frontend`, and the source bytes it read.
    pub frontend: Duration,
    pub source_bytes: u64,
    /// `vcache::keys`.
    pub keys: Duration,
    /// `analyzer::analyze` or `vcache::analyze`.
    pub analyze: Duration,
    /// `Analysis::check` or `vcache::check`.
    pub auto_check: Duration,
    /// `RecursiveCase::check`, in total and per case.
    pub proof_check: BTreeMap<&'static str, Duration>,
    /// `compiler::Pipeline::run` or `vcache::compile`, and the
    /// instructions of the programs they returned.
    pub compile: Duration,
    pub asm_instrs: u64,
    /// `Analysis::concrete_bound` or `vcache::concrete_bound`.
    pub bound: Duration,
    /// `asm::measure_function` or `MeasureCache::measure_function`, and
    /// the machine steps of the runs that executed.
    pub measure: Duration,
    pub steps: u64,
    /// `stacklint::analyze`.
    pub lint: Duration,
    /// Summed wall time of the traced verdicts.
    pub verdicts: Duration,
}

/// Times `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    pub fn merge(&mut self, o: Layers) {
        self.frontend += o.frontend;
        self.source_bytes += o.source_bytes;
        self.keys += o.keys;
        self.analyze += o.analyze;
        self.auto_check += o.auto_check;
        for (case, d) in o.proof_check {
            *self.proof_check.entry(case).or_default() += d;
        }
        self.compile += o.compile;
        self.asm_instrs += o.asm_instrs;
        self.bound += o.bound;
        self.measure += o.measure;
        self.steps += o.steps;
        self.lint += o.lint;
        self.verdicts += o.verdicts;
    }

    /// The per-layer metrics this accounting provides. Every case of
    /// Table 2 is listed, with zero busy time where a workload never
    /// checks it, so every workload reports the same metric names.
    pub fn metrics(&self, untraced_wall_s: f64, traced_wall_s: f64) -> Vec<Metric> {
        let per_s = |n: f64, d: Duration| {
            if d.is_zero() {
                0.0
            } else {
                n / d.as_secs_f64()
            }
        };
        let proof_total: Duration = self.proof_check.values().sum();
        let mut out = vec![
            metric("clight.frontend_ms", ms(self.frontend), "ms"),
            metric(
                "clight.kb_per_s",
                per_s(self.source_bytes as f64 / 1024.0, self.frontend),
                "KiB/s",
            ),
            metric("analyzer.analyze_ms", ms(self.analyze), "ms"),
            metric("qhl.auto_check_ms", ms(self.auto_check), "ms"),
            metric("qhl.proof_check_ms", ms(proof_total), "ms"),
        ];
        for case in stackbound::benchsuite::recursive_cases() {
            let d = self.proof_check.get(case.name).copied().unwrap_or_default();
            out.push(metric(
                &format!("qhl.proof_check_ms.{}", case.name),
                ms(d),
                "ms",
            ));
        }
        out.extend([
            metric("compiler.compile_ms", ms(self.compile), "ms"),
            metric("compiler.asm_instrs", self.asm_instrs as f64, "count"),
            metric("bound.eval_ms", ms(self.bound), "ms"),
            metric("asm.measure_ms", ms(self.measure), "ms"),
            metric("asm.steps", self.steps as f64, "count"),
            metric(
                "asm.msteps_per_s",
                per_s(self.steps as f64 / 1e6, self.measure),
                "Msteps/s",
            ),
            metric("stacklint.analyze_ms", ms(self.lint), "ms"),
            metric("vcache.keys_ms", ms(self.keys), "ms"),
            metric("trace.verdict_ms", ms(self.verdicts), "ms"),
            metric(
                "trace.overhead_pct",
                100.0 * (traced_wall_s / untraced_wall_s - 1.0),
                "%",
            ),
        ]);
        out
    }
}

/// Instructions in a compiled program.
pub fn instrs(asm: &stackbound::asm::AsmProgram) -> u64 {
    asm.functions.iter().map(|f| f.code.len() as u64).sum()
}

/// Hit ratio from `(hits, misses)` deltas; 0 when nothing was looked up.
pub fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The cache and serve metrics, for workloads that do not use them.
pub fn unused_cache_and_serve() -> Vec<Metric> {
    cache_metrics([(0, 0); 5])
        .into_iter()
        .chain(serve_metrics([0.0; 3], 0, 0))
        .collect()
}

/// Hit ratios of the four `VCache` stages and the `MeasureCache`.
pub fn cache_metrics(stats: [(u64, u64); 5]) -> Vec<Metric> {
    [
        "vcache.analyze",
        "vcache.check",
        "vcache.compile",
        "vcache.bound",
        "asm.measure_cache",
    ]
    .iter()
    .zip(stats)
    .map(|(name, s)| metric(&format!("{name}.hit_ratio"), hit_ratio(s), "ratio"))
    .collect()
}

/// The serve layer: median queue, work and wire time, and the daemon's
/// failure counters.
pub fn serve_metrics(p50s: [f64; 3], failed: u64, timed_out: u64) -> Vec<Metric> {
    vec![
        metric("serve.queue_ms_p50", p50s[0], "ms"),
        metric("serve.work_ms_p50", p50s[1], "ms"),
        metric("serve.wire_ms_p50", p50s[2], "ms"),
        metric("serve.failed", failed as f64, "count"),
        metric("serve.timed_out", timed_out as f64, "count"),
    ]
}
