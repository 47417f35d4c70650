//! `stackperf`: the stackbound benchmark.
//!
//! ```text
//! cargo run --release --manifest-path stackperf/Cargo.toml -- \
//!     --workload <cold_corpus|cold_proofs|serve_edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload replays a seeded list of verdicts through the public
//! entry points (`Verifier::verify`, `table2::verify_case_cached`, the
//! `serve` daemon over loopback TCP) and checks every verdict against a
//! known answer. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! replays the same list twice, once as a black box and once calling each
//! layer's public functions in turn, and reports per-layer metrics. The
//! last line of standard output is one JSON object; `README.md` next to
//! this crate describes the workloads and metrics.

mod cold;
mod corpus;
mod layers;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--write-known-answers" => {
                print!("{}", corpus::render_known()?);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// The load shape every workload prints.
pub fn print_shape(workload: &str, clients: usize, workers: usize, list: usize) {
    println!(
        "{workload}: nproc={} clients={clients} server_workers={workers} loop=closed list={list}",
        nproc()
    );
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repeated set-up of a workload. The first set-up runs before the
/// timed phase; the other `SETUPS - 1` run between its parts (passes
/// or segments of the stream), spread evenly over the run, and their
/// state is dropped at once. On a shared machine a busy spell lasts
/// seconds: set-ups run back to back would all fall into the same spell,
/// while set-ups spread over the run sample it as the verdicts do.
pub struct SetUp<F> {
    setup: F,
    times: Vec<f64>,
    /// Set-ups to run between parts, in all.
    extra: usize,
}

impl<S, F: FnMut() -> Result<S, String>> SetUp<F> {
    /// Runs the first set-up and returns its state. A traced run reports
    /// no `setup_s`, so it sets up only once.
    pub fn first(mut setup: F, trace: bool) -> Result<(SetUp<F>, S), String> {
        let start = Instant::now();
        let state = setup()?;
        let times = vec![start.elapsed().as_secs_f64()];
        let extra = if trace { 0 } else { SETUPS - 1 };
        Ok((
            SetUp {
                setup,
                times,
                extra,
            },
            state,
        ))
    }

    /// Called after part `done` (1-based) of `total`: runs the set-ups
    /// due by then, so that the last one runs after the last part.
    pub fn after(&mut self, done: usize, total: usize) -> Result<(), String> {
        let due = self.extra * done / total.max(1);
        while self.times.len() - 1 < due {
            let start = Instant::now();
            let state = (self.setup)()?;
            self.times.push(start.elapsed().as_secs_f64());
            drop(state);
        }
        Ok(())
    }

    /// Prints the set-up wall times and returns their median in seconds.
    pub fn median_s(&self) -> f64 {
        let ms: Vec<String> = self
            .times
            .iter()
            .map(|t| format!("{:.0}", t * 1e3))
            .collect();
        println!("set-up times (ms, in run order): {}", ms.join(" "));
        stats::median(&self.times)
    }
}

/// A timed verdict: its time (a round trip, on `serve_edit`) and whether
/// it was an edit.
#[derive(Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub edit: bool,
}

/// The end-to-end metrics shared by every workload; the workload works
/// out its own throughput.
pub fn end_to_end(setup_s: f64, samples: &[Sample], verdicts_per_s: f64) -> Vec<Metric> {
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let of = |edit: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.edit == edit)
            .map(|s| s.ms)
            .collect()
    };
    let mut out = vec![
        metric("setup_s", setup_s, "s"),
        metric("verdicts_per_s", verdicts_per_s, "1/s"),
        metric("verdict_p50_ms", stats::median(&all), "ms"),
    ];
    if let Some((pct, value)) = stats::tail(&all) {
        println!(
            "verdict_tail_ms is p{pct:.2} of {} verdicts (at least ten beyond it)",
            all.len()
        );
        out.push(metric("verdict_tail_ms", value, "ms"));
    }
    let (reads, edits) = (of(false), of(true));
    println!("reads={} edits={}", reads.len(), edits.len());
    out.push(metric("read_p50_ms", stats::median(&reads), "ms"));
    out.push(metric("edit_p50_ms", stats::median(&edits), "ms"));
    out.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    out
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackperf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold_corpus" => cold::corpus(&args),
        "cold_proofs" => cold::proofs(&args),
        "serve_edit" => serve::edit(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stackperf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut json = String::new();
    for m in &outcome.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("stackperf: metric `{}` was not measured", m.name);
            return ExitCode::FAILURE;
        }
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
