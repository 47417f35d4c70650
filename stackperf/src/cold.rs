//! The two serial, cache-less workloads.
//!
//! * `cold_corpus`: one-shot verification of the 14 automatic programs
//!   and of seeded single-function edits of them, on both targets, each
//!   followed by `stacklint` — what a CI job running `sbound --lint` pays
//!   per file. The compiler and the machine do most of the work.
//! * `cold_proofs`: cold re-checks of the 8 Table 2 cases through
//!   `table2::verify_case_cached` with a fresh cache per verdict. The
//!   hand-proof checker (`qhl` numeric-justification grids) does nearly
//!   all of the work.
//!
//! Both replay their list in several passes and time each verdict as its
//! best pass. On a shared machine the same verdict takes up to twice as
//! long while a neighbour is busy, and such spells last seconds; the
//! fastest of passes a few seconds apart is the least disturbed reading.
//! Nothing is cached, so every pass does the same work.

use crate::corpus::{self, Answer, Item, Known, Reference, TARGETS};
use crate::layers::{self, instrs, timed, Layers};
use crate::stats::Rng;
use crate::{end_to_end, print_shape, Args, Outcome, Sample, SetUp};
use stackbound::asm::Target;
use stackbound::benchsuite::{self, RecursiveCase};
use stackbound::{analyzer, asm, clight, compiler, stacklint, vcache, DEFAULT_FUEL};
use std::time::Instant;

/// A verdict faster than this in an earlier pass runs in every pass; a
/// slower one only in every [`HEAVY_EVERY`]th. Repeating cheap verdicts
/// costs little and gives their best time more chances, which matters on
/// `cold_proofs`: its median and tail are cases of 20 to 150 ms, while
/// two cases of 0.3 and 2 s take nine tenths of a pass.
const CHEAP_MS: f64 = 200.0;

/// See [`CHEAP_MS`].
const HEAVY_EVERY: usize = 3;

/// Replays verdicts `0..n` in `passes` passes. `verdict(i)` runs verdict
/// `i` and returns its time in ms and whether it was correct; `between`
/// runs after each pass (1-based), untimed. Returns each verdict's best
/// time, the verdicts run and failed, and the wall time of the passes.
fn best_of_passes(
    n: usize,
    passes: usize,
    mut verdict: impl FnMut(usize) -> Result<(f64, bool), String>,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<(Vec<f64>, usize, usize, f64), String> {
    let mut best = vec![f64::INFINITY; n];
    let (mut run, mut failed) = (0, 0);
    let mut wall = 0.0;
    for pass in 0..passes {
        let start = Instant::now();
        for (i, b) in best.iter_mut().enumerate() {
            if pass % HEAVY_EVERY != 0 && *b >= CHEAP_MS {
                continue;
            }
            let (ms, ok) = verdict(i)?;
            *b = b.min(ms);
            run += 1;
            failed += usize::from(!ok);
        }
        wall += start.elapsed().as_secs_f64();
        between(pass + 1)?;
    }
    Ok((best, run, failed, wall))
}

/// The end-to-end metrics of a best-of-passes replay; throughput is the
/// verdicts over the sum of their best times.
fn cold_metrics(setup_s: f64, best: &[f64], edit: impl Fn(usize) -> bool) -> Vec<crate::Metric> {
    let samples: Vec<Sample> = best
        .iter()
        .enumerate()
        .map(|(i, &ms)| Sample { ms, edit: edit(i) })
        .collect();
    let verdicts_per_s = 1e3 * best.len() as f64 / best.iter().sum::<f64>();
    end_to_end(setup_s, &samples, verdicts_per_s)
}

/// `cold_corpus` rounds per second of `--seconds`; one round verifies
/// every program on both targets once unedited and once edited (56
/// verdicts, about 0.12 s).
const CORPUS_ROUNDS_PER_S: f64 = 8.5;

/// Passes over the `cold_corpus` list.
const CORPUS_PASSES: usize = 15;

struct CorpusState {
    reference: Reference,
    items: Vec<Item>,
}

fn corpus_items(seed: u64, rounds: usize) -> Vec<Item> {
    let programs = corpus::programs();
    let functions: Vec<Vec<String>> = programs
        .iter()
        .map(|p| {
            let program = clight::frontend(p.source, &[]).expect("corpus program parses");
            program.function_names().map(str::to_owned).collect()
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut next_k = 1_000 + (seed % 1_000) as u32 * 1_000_000;
    let mut items = Vec::new();
    for _ in 0..rounds {
        let mut round = Vec::new();
        for (program, funcs) in functions.iter().enumerate() {
            for target in 0..TARGETS.len() {
                round.push(Item {
                    program,
                    target,
                    edit: None,
                });
                let func = funcs[rng.below(funcs.len())].clone();
                next_k += 1;
                round.push(Item {
                    program,
                    target,
                    edit: Some((func, next_k)),
                });
            }
        }
        rng.shuffle(&mut round);
        items.extend(round);
    }
    items
}

fn corpus_setup(args: &Args) -> Result<CorpusState, String> {
    let known = Known::parse(corpus::KNOWN_ANSWERS)?;
    let rounds = args.seconds as f64 * CORPUS_ROUNDS_PER_S / CORPUS_PASSES as f64;
    let items = corpus_items(args.seed, (rounds.round() as usize).max(1));
    let reference = Reference::derive(&known, &items)?;
    Ok(CorpusState { reference, items })
}

impl CorpusState {
    /// One black-box verdict: the one-shot pipeline, then stacklint.
    fn verdict(&self, item: &Item) -> Result<(f64, bool), String> {
        let src = self.reference.source(item)?;
        let t0 = Instant::now();
        let result = corpus::verify_cold(&src, TARGETS[item.target]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = result
            .and_then(|(report, lint)| corpus::expect_of(&report, &lint))
            .is_ok_and(|got| got.answer == self.reference.expected(item).answer);
        Ok((ms, ok))
    }

    /// One traced verdict: each layer's public entry point in the order
    /// `Verifier::verify` calls them, then `stacklint::analyze`.
    fn traced(&self, item: &Item, l: &mut Layers) -> Result<(f64, bool), String> {
        let src = self.reference.source(item)?;
        let t0 = Instant::now();
        let got = traced_cold(&src, TARGETS[item.target], l);
        let elapsed = t0.elapsed();
        l.verdicts += elapsed;
        let ok = got.is_ok_and(|a| a == self.reference.expected(item).answer);
        Ok((elapsed.as_secs_f64() * 1e3, ok))
    }
}

fn traced_cold(src: &str, target: Target, l: &mut Layers) -> Result<Answer, String> {
    l.source_bytes += src.len() as u64;
    let program = timed(&mut l.frontend, || clight::frontend(src, &[]))?;
    let analysis =
        timed(&mut l.analyze, || analyzer::analyze(&program)).map_err(|e| e.to_string())?;
    timed(&mut l.auto_check, || analysis.check(&program)).map_err(|e| e.to_string())?;
    let config = compiler::PipelineConfig::with_options(compiler::Options::for_target(target));
    let compiled = timed(&mut l.compile, || {
        compiler::Pipeline::new(config).run(&program)
    })
    .map_err(|e| e.to_string())?;
    l.asm_instrs += instrs(&compiled.asm);
    let bounds = timed(&mut l.bound, || {
        program
            .function_names()
            .filter_map(|f| {
                let b = analysis.concrete_bound(f, &compiled.metric)?;
                Some((f.to_owned(), b as u32))
            })
            .collect::<std::collections::BTreeMap<_, _>>()
    });
    let main_bound = *bounds.get("main").ok_or("main has no bound")?;
    let m = timed(&mut l.measure, || {
        asm::measure_function(&compiled.asm, "main", &[], main_bound, DEFAULT_FUEL)
    })
    .map_err(|e| e.to_string())?;
    l.steps += m.steps;
    if m.error.is_some() || !m.behavior.converges() {
        return Err(format!("main did not converge: {:?}", m.error));
    }
    let lint = timed(&mut l.lint, || stacklint::analyze(&compiled.asm));
    let answer = Answer {
        bounds,
        peak: m.stack_usage,
    };
    answer.check_peak()?;
    corpus::check_lint(&answer, &lint)?;
    Ok(answer)
}

/// Runs `cold_corpus`.
pub fn corpus(args: &Args) -> Result<Outcome, String> {
    let (mut setups, state) = SetUp::first(|| corpus_setup(args), args.trace)?;
    let n = state.items.len();
    print_shape("cold_corpus", 1, 0, n);
    println!("{CORPUS_PASSES} passes over the list; each verdict's time is its best pass");
    let (best, run, failed, wall) = best_of_passes(
        n,
        CORPUS_PASSES,
        |i| state.verdict(&state.items[i]),
        |done| setups.after(done, CORPUS_PASSES),
    )?;
    if !args.trace {
        return Ok(Outcome {
            attempted: run,
            failed,
            metrics: cold_metrics(setups.median_s(), &best, |i| state.items[i].edit.is_some()),
        });
    }
    let mut l = Layers::default();
    let (_, traced_run, traced_failed, traced_wall) = best_of_passes(
        n,
        CORPUS_PASSES,
        |i| state.traced(&state.items[i], &mut l),
        |_| Ok(()),
    )?;
    let mut metrics = l.metrics(wall, traced_wall);
    metrics.extend(layers::unused_cache_and_serve());
    Ok(Outcome {
        attempted: run + traced_run,
        failed: failed + traced_failed,
        metrics,
    })
}

/// `cold_proofs` rounds per second of `--seconds`. A round checks all 8
/// cases once (about 2.9 s, three quarters of it `filter_find`). Rounds
/// alternate target, and each pair of rounds alternates unedited and
/// edited files, so the four rounds of the list cover every combination
/// once; the passes repeat them.
const PROOF_ROUNDS_PER_S: f64 = 0.36;

/// Rounds in the `cold_proofs` list.
const PROOF_ROUNDS: usize = 4;

/// Fewest passes over the `cold_proofs` list that run every verdict.
const MIN_PROOF_PASSES: usize = 3;

struct ProofItem {
    case: RecursiveCase,
    target: Target,
    edited: bool,
}

struct ProofState {
    known: Known,
    items: Vec<ProofItem>,
    passes: usize,
}

fn proof_items(seed: u64, rounds: usize) -> Vec<ProofItem> {
    let mut rng = Rng::new(seed);
    let mut next_k = 1_000 + (seed % 1_000) as u32 * 1_000_000;
    let mut items = Vec::new();
    for r in 0..rounds {
        let target = TARGETS[(seed as usize + r) % 2];
        let edited = (r / 2) % 2 == 1;
        let mut round = benchsuite::recursive_cases();
        rng.shuffle(&mut round);
        for case in round {
            next_k += 1;
            items.push(ProofItem {
                case: if edited {
                    corpus::edited_case(&case, next_k)
                } else {
                    case
                },
                target,
                edited,
            });
        }
    }
    items
}

fn proof_setup(args: &Args) -> Result<ProofState, String> {
    let known = Known::parse(corpus::KNOWN_ANSWERS)?;
    let passes = args.seconds as f64 * PROOF_ROUNDS_PER_S / PROOF_ROUNDS as f64;
    let items = proof_items(args.seed, PROOF_ROUNDS);
    // Warm-up: every case but the two slowest (`filter_find` and `qsort`,
    // nine tenths of a round) once on each target.
    let cases = benchsuite::recursive_cases();
    let warm = |c: &&RecursiveCase| !matches!(c.name, "filter_find" | "qsort");
    for (case, target) in cases
        .iter()
        .filter(warm)
        .flat_map(|c| TARGETS.map(|t| (c, t)))
    {
        let got = stackbound::table2::verify_case_cached(case, target, &vcache::VCache::new())?;
        if got != known.table2(target, case.name) {
            return Err(format!(
                "{} [{target}]: `{got}` differs from the known answer",
                case.name
            ));
        }
    }
    Ok(ProofState {
        known,
        items,
        passes: HEAVY_EVERY * (passes.round() as usize).max(MIN_PROOF_PASSES),
    })
}

impl ProofState {
    fn expected(&self, item: &ProofItem) -> &str {
        self.known.table2(item.target, item.case.name)
    }

    fn verdict(&self, item: &ProofItem) -> (f64, bool) {
        let t0 = Instant::now();
        let got =
            stackbound::table2::verify_case_cached(&item.case, item.target, &vcache::VCache::new());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (ms, got.as_deref() == Ok(self.expected(item)))
    }

    /// One traced verdict: the steps of `table2::verify_case_cached`, each
    /// layer call timed on its own, with a fresh cache.
    fn traced(&self, item: &ProofItem, l: &mut Layers) -> (f64, bool) {
        let t0 = Instant::now();
        let got = traced_case(&item.case, item.target, l);
        let elapsed = t0.elapsed();
        l.verdicts += elapsed;
        (
            elapsed.as_secs_f64() * 1e3,
            got.as_deref() == Ok(self.expected(item)),
        )
    }
}

fn traced_case(case: &RecursiveCase, target: Target, l: &mut Layers) -> Result<String, String> {
    let config = compiler::PipelineConfig::with_options(compiler::Options::for_target(target));
    l.source_bytes += case.source.len() as u64;
    let program = timed(&mut l.frontend, || clight::frontend(case.source, &[]))?;
    let keys = timed(&mut l.keys, || vcache::keys(&program, &config.options));
    let check = l.proof_check.entry(case.name).or_default();
    timed(check, || case.check(&program)).map_err(|e| e.to_string())?;
    let cache = vcache::VCache::new();
    let compiled = timed(&mut l.compile, || {
        vcache::compile(&cache, &program, &config, &keys)
    })
    .map_err(|e| e.to_string())?;
    l.asm_instrs += instrs(&compiled.asm);
    Ok(format!(
        "{}: {} proofs checked, bound {}, M({}) = {}",
        case.file,
        case.proofs.len(),
        case.bound_display,
        case.name,
        compiled.metric.call_cost(case.name),
    ))
}

/// Runs `cold_proofs`.
pub fn proofs(args: &Args) -> Result<Outcome, String> {
    let (mut setups, state) = SetUp::first(|| proof_setup(args), args.trace)?;
    let (n, passes) = (state.items.len(), state.passes);
    print_shape("cold_proofs", 1, 0, n);
    println!("{passes} passes over the list, the heavy verdicts in every {HEAVY_EVERY}rd only");
    println!("each verdict's time is its best pass");
    let (best, run, failed, wall) = best_of_passes(
        n,
        passes,
        |i| Ok(state.verdict(&state.items[i])),
        |done| setups.after(done, passes),
    )?;
    if !args.trace {
        return Ok(Outcome {
            attempted: run,
            failed,
            metrics: cold_metrics(setups.median_s(), &best, |i| state.items[i].edited),
        });
    }
    let mut l = Layers::default();
    let (_, traced_run, traced_failed, traced_wall) = best_of_passes(
        n,
        passes,
        |i| Ok(state.traced(&state.items[i], &mut l)),
        |_| Ok(()),
    )?;
    let mut metrics = l.metrics(wall, traced_wall);
    metrics.extend(layers::unused_cache_and_serve());
    Ok(Outcome {
        attempted: run + traced_run,
        failed: failed + traced_failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seed: u64) -> Args {
        Args {
            workload: String::new(),
            seed,
            seconds: 1,
            trace: true,
        }
    }

    /// The same seed gives the same verdict list and the same exact
    /// counts; another seed gives another list.
    #[test]
    fn cold_corpus_repeats_exactly_per_seed() {
        let run = |seed| {
            let state = corpus_setup(&args(seed)).unwrap();
            let mut l = Layers::default();
            let n = state.items.len();
            let (_, _, failed, _) =
                best_of_passes(n, 1, |i| state.traced(&state.items[i], &mut l), |_| Ok(()))
                    .unwrap();
            assert_eq!(failed, 0);
            let list: Vec<_> = state
                .items
                .iter()
                .map(|i| (i.program, i.target, i.edit.clone()))
                .collect();
            (list, l.steps, l.asm_instrs)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a, b);
        assert!(a.1 > 0 && a.2 > 0);
        assert_ne!(a.0, run(6).0);
    }

    #[test]
    fn cold_proofs_lists_repeat_per_seed_and_cover_every_combination() {
        let list = |seed| {
            proof_items(seed, 4)
                .iter()
                .map(|i| (i.case.name, i.target, i.edited, i.case.source))
                .collect::<Vec<_>>()
        };
        assert_eq!(list(3), list(3));
        assert_ne!(list(3), list(4));
        let mut combos: Vec<_> = list(3).iter().map(|c| (c.0, c.1.name(), c.2)).collect();
        combos.sort();
        combos.dedup();
        assert_eq!(combos.len(), 8 * 2 * 2);
    }
}
