//! The benchmark's inputs and their known answers.
//!
//! * The 14 automatic programs (Table 1 plus the extras) on both targets.
//! * The seeded single-function edit generator.
//! * The known-answer file (`known_answers.txt`): every function's bound
//!   and `main`'s measured peak per program and target, the same for every
//!   edit site, and the Table 2 rendering of each recursive case per
//!   target.

use stackbound::asm::Target;
use stackbound::benchsuite::{self, Benchmark, RecursiveCase};
use stackbound::{analyzer, clight, compiler, stacklint, vcache, Report, Verifier};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Both backend targets, in the order the known-answer file lists them.
pub const TARGETS: [Target; 2] = [Target::Sz32, Target::Rv];

/// The known-answer file, shipped next to the benchmark's sources.
pub const KNOWN_ANSWERS: &str = include_str!("../known_answers.txt");

/// The 14 automatic programs: Table 1 then the extras.
pub fn programs() -> Vec<Benchmark> {
    benchsuite::table1_benchmarks()
        .into_iter()
        .chain(benchsuite::extra_benchmarks())
        .collect()
}

/// What a verification of one automatic program must report: every
/// function's certified bound, and `main`'s measured peak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub bounds: BTreeMap<String, u32>,
    pub peak: u32,
}

impl Answer {
    pub fn of(report: &Report) -> Result<Answer, String> {
        let peak = report
            .measured("main")
            .ok_or("main was not measured to completion")?;
        Ok(Answer {
            bounds: report.bounds().map(|(f, b)| (f.to_owned(), b)).collect(),
            peak,
        })
    }

    /// The sandwich every verdict must satisfy: `main`'s measured peak
    /// within its certified bound.
    pub fn check_peak(&self) -> Result<(), String> {
        match self.bounds.get("main") {
            Some(&b) if self.peak <= b => Ok(()),
            Some(&b) => Err(format!("measured peak {} exceeds bound {b}", self.peak)),
            None => Err("main has no bound".into()),
        }
    }
}

/// The `sbound --lint` sandwich on one verdict: the binary is
/// discipline-clean and `measured <= binary <= certified` per function.
pub fn check_lint(answer: &Answer, lint: &stacklint::LintReport) -> Result<(), String> {
    if !lint.is_clean() {
        return Err(format!("stacklint diagnostics: {:?}", lint.diagnostics));
    }
    for (name, verdict) in &lint.verdicts {
        let stacklint::Verdict::Bounded(binary) = verdict else {
            return Err(format!("stacklint: `{name}` is {verdict}"));
        };
        if name == "main" && answer.peak > *binary {
            return Err(format!("measured peak exceeds binary bound {binary}"));
        }
        if answer.bounds.get(name).is_some_and(|c| binary > c) {
            return Err(format!("`{name}`: binary bound {binary} exceeds certified"));
        }
    }
    Ok(())
}

/// The known answers, parsed.
#[derive(Debug, Default)]
pub struct Known {
    /// `(target name, file)` to the program's answer.
    pub auto: BTreeMap<(&'static str, String), Answer>,
    /// `(target name, file, function)` to the answer of the program with
    /// that function edited.
    pub edits: BTreeMap<(&'static str, String, String), Answer>,
    /// `(target name, case)` to the Table 2 rendering.
    pub table2: BTreeMap<(&'static str, String), String>,
}

fn parse_target(s: &str) -> Result<&'static str, String> {
    TARGETS
        .into_iter()
        .map(Target::name)
        .find(|t| *t == s)
        .ok_or_else(|| format!("unknown target `{s}`"))
}

impl Known {
    /// Parses the known-answer format written by [`render_known`] and
    /// checks the paper's accuracy identity on it: every `main` has slack
    /// 4 on `sz32` and 0 on `rv`.
    pub fn parse(text: &str) -> Result<Known, String> {
        let mut known = Known::default();
        let mut peaks = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let err = |m: &str| format!("known_answers.txt:{}: {m}", n + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.splitn(4, ' ');
            let (Some(kind), Some(target), Some(name), Some(rest)) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(err("expected `<kind> <target> <name> <value>`"));
            };
            let target = parse_target(target).map_err(|e| err(&e))?;
            let name = name.to_owned();
            match kind {
                "bound" => {
                    let (f, b) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("bound needs 2 fields"))?;
                    let b = b.parse().map_err(|_| err("bad bound"))?;
                    let answer = known.auto.entry((target, name)).or_insert(Answer {
                        bounds: BTreeMap::new(),
                        peak: 0,
                    });
                    answer.bounds.insert(f.to_owned(), b);
                }
                "peak" => {
                    peaks.insert((target, name), rest.parse().map_err(|_| err("bad peak"))?);
                }
                "table2" => {
                    known.table2.insert((target, name), rest.to_owned());
                }
                "edit" => {
                    let answer = parse_edit(rest)
                        .ok_or_else(|| err("edit needs `<function> <peak> <callee>=<bound>...`"))?;
                    known.edits.insert((target, name, answer.0), answer.1);
                }
                _ => return Err(err("unknown kind")),
            }
        }
        for (key, answer) in &mut known.auto {
            answer.peak = *peaks
                .get(key)
                .ok_or_else(|| format!("no peak for {} {}", key.0, key.1))?;
            accuracy_identity(key.0, answer).map_err(|e| format!("{} {}: {e}", key.0, key.1))?;
        }
        for (key, answer) in &known.edits {
            accuracy_identity(key.0, answer)
                .map_err(|e| format!("{} {} `{}` edited: {e}", key.0, key.1, key.2))?;
        }
        if known.auto.len() != programs().len() * TARGETS.len()
            || known.table2.len() != benchsuite::recursive_cases().len() * TARGETS.len()
        {
            return Err("known_answers.txt does not cover the corpus on both targets".into());
        }
        Ok(known)
    }

    pub fn auto(&self, target: Target, file: &str) -> &Answer {
        &self.auto[&(target.name(), file.to_owned())]
    }

    pub fn table2(&self, target: Target, case: &str) -> &str {
        &self.table2[&(target.name(), case.to_owned())]
    }

    pub fn edit(&self, target: Target, file: &str, func: &str) -> Option<&Answer> {
        self.edits
            .get(&(target.name(), file.to_owned(), func.to_owned()))
    }
}

/// The paper's accuracy identity on one answer: `main`'s slack is 4 on
/// `sz32` and 0 on `rv`.
fn accuracy_identity(target: &str, answer: &Answer) -> Result<(), String> {
    let slack = answer
        .bounds
        .get("main")
        .and_then(|b| b.checked_sub(answer.peak));
    let identity = if target == Target::Sz32.name() { 4 } else { 0 };
    if slack != Some(identity) {
        return Err(format!(
            "main slack {slack:?} breaks the accuracy identity ({identity})"
        ));
    }
    Ok(())
}

/// The value of an `edit` line: `<function> <peak> <f>=<bound>...`.
fn parse_edit(rest: &str) -> Option<(String, Answer)> {
    let mut it = rest.split(' ');
    let func = it.next()?.to_owned();
    let peak = it.next()?.parse().ok()?;
    let bounds = it
        .map(|fb| {
            let (f, b) = fb.split_once('=')?;
            Some((f.to_owned(), b.parse().ok()?))
        })
        .collect::<Option<_>>()?;
    Some((func, Answer { bounds, peak }))
}

/// Derives the known-answer file from the program itself (one-shot,
/// uncached). Used once to write `known_answers.txt`; the file is then
/// the reference every run checks against.
pub fn render_known() -> Result<String, String> {
    let mut out = String::from(
        "# Known answers: per program and target, every function's certified\n\
         # bound and main's measured peak; the same per edit site\n\
         # (`edit <target> <file> <edited function> <peak> <function>=<bound>...`);\n\
         # per Table 2 case and target, the one-line rendering.\n\
         # Regenerate with `--write-known-answers`.\n",
    );
    for target in TARGETS {
        for p in programs() {
            let report = Verifier::new()
                .target(target)
                .verify(p.source)
                .map_err(|e| format!("{}: {e}", p.file))?;
            let answer = Answer::of(&report)?;
            for (f, b) in &answer.bounds {
                let _ = writeln!(out, "bound {} {} {f} {b}", target.name(), p.file);
            }
            let _ = writeln!(out, "peak {} {} {}", target.name(), p.file, answer.peak);
            let program = clight::frontend(p.source, &[])?;
            for func in program.function_names() {
                let src = edit_source(p.source, func, 1)?;
                let report = Verifier::new()
                    .target(target)
                    .verify(&src)
                    .map_err(|e| format!("{} `{func}` edited: {e}", p.file))?;
                let answer = Answer::of(&report)?;
                let _ = write!(
                    out,
                    "edit {} {} {func} {}",
                    target.name(),
                    p.file,
                    answer.peak
                );
                for (f, b) in &answer.bounds {
                    let _ = write!(out, " {f}={b}");
                }
                out.push('\n');
            }
        }
        for case in benchsuite::recursive_cases() {
            let line =
                stackbound::table2::verify_case_cached(&case, target, &vcache::VCache::new())?;
            let _ = writeln!(out, "table2 {} {} {line}", target.name(), case.name);
        }
    }
    Ok(out)
}

/// The local the edit introduces; no corpus program uses the name.
const EDIT_LOCAL: &str = "bench_edit";

/// A seeded single-function edit of an automatic program: `source` with a
/// store of `k` into a fresh one-word local array at the top of `func`'s
/// body. Stores are never removed by the optimizer, so the edit always
/// changes `func`'s compiled code, while the program computes exactly
/// what it did before. Distinct `k` give distinct sources, hence distinct
/// cache keys.
pub fn edit_source(source: &str, func: &str, k: u32) -> Result<String, String> {
    let body =
        function_body(source, func).ok_or_else(|| format!("cannot find the body of `{func}`"))?;
    let mut out = String::with_capacity(source.len() + 48);
    out.push_str(&source[..body]);
    let _ = write!(out, " u32 {EDIT_LOCAL}[1]; {EDIT_LOCAL}[0] = {k};");
    out.push_str(&source[body..]);
    Ok(out)
}

/// Byte offset just past the `{` opening the definition of `func`: a
/// top-level line `<type> func(...) {`.
fn function_body(source: &str, func: &str) -> Option<usize> {
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let start = offset;
        offset += line.len();
        if line.starts_with(char::is_whitespace) || line.starts_with('/') {
            continue;
        }
        let Some(open) = line.find('(') else { continue };
        let name = line[..open]
            .split_whitespace()
            .last()?
            .trim_start_matches('*');
        if name != func || line[..open].split_whitespace().count() < 2 {
            continue;
        }
        let brace = source[start + open..].find('{')? + start + open;
        if source[start + open..brace].contains(';') {
            continue; // a declaration, not a definition
        }
        return Some(brace + 1);
    }
    None
}

/// `func` and every function that reaches it through calls.
pub fn affected(program: &clight::Program, func: &str) -> BTreeSet<String> {
    let graph = analyzer::call_graph(program);
    let mut set = BTreeSet::from([func.to_owned()]);
    loop {
        let before = set.len();
        for (caller, callees) in &graph {
            if callees.iter().any(|c| set.contains(c)) {
                set.insert(caller.clone());
            }
        }
        if set.len() == before {
            return set;
        }
    }
}

/// The checks that make an edit a valid benchmark input, run once per
/// (program, target, function) at set-up against the unedited report:
///
/// * the content keys (`vcache::keys`) change for exactly the edited
///   function and its transitive callers;
/// * the compiled code changes for exactly the edited function;
/// * every function outside the affected set keeps its known bound, and
///   no affected bound shrinks.
pub fn check_edit(
    original: &Report,
    original_program: &clight::Program,
    edited: &Report,
    edited_src: &str,
    func: &str,
    target: Target,
) -> Result<(), String> {
    let options = compiler::Options::for_target(target);
    let edited_program = clight::frontend(edited_src, &[])?;
    let before = vcache::keys(original_program, &options);
    let after = vcache::keys(&edited_program, &options);
    let affected = affected(original_program, func);
    let changed: BTreeSet<String> = before
        .iter()
        .filter(|(f, k)| after.get(*f) != Some(k))
        .map(|(f, _)| f.clone())
        .collect();
    if changed != affected {
        return Err(format!(
            "edit of `{func}` changed the keys of {changed:?}, expected {affected:?}"
        ));
    }
    let code = |r: &Report| -> BTreeMap<String, Vec<String>> {
        r.compiled
            .asm
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    f.code.iter().map(|i| format!("{i:?}")).collect(),
                )
            })
            .collect()
    };
    let (a, b) = (code(original), code(edited));
    let recompiled: Vec<&String> = a.keys().filter(|f| a.get(*f) != b.get(*f)).collect();
    if recompiled != [func] {
        return Err(format!(
            "edit of `{func}` changed the compiled code of {recompiled:?}"
        ));
    }
    let (a, b) = (Answer::of(original)?, Answer::of(edited)?);
    for (f, &old) in &a.bounds {
        let new = b.bounds.get(f).copied().unwrap_or(0);
        if (affected.contains(f) && new < old) || (!affected.contains(f) && new != old) {
            return Err(format!(
                "edit of `{func}` moved the bound of `{f}`: {old} -> {new}"
            ));
        }
    }
    b.check_peak()
}

/// A place an edit can go: one function of one program on one target
/// (an index into [`TARGETS`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub program: usize,
    pub target: usize,
    pub func: String,
}

/// A verdict's expected outcome: its answer and the report rendering a
/// one-shot `sbound` run prints.
#[derive(Debug, Clone)]
pub struct Expect {
    pub answer: Answer,
    pub rendering: String,
}

/// The expected outcome of every read and every edit site, derived by
/// uncached one-shot verification (`Verifier::verify`, then
/// `stacklint::analyze`): the set-up's warm-up pass. Reads and edit sites
/// must equal the known-answer file, and each edit site passes
/// [`check_edit`].
pub struct Reference {
    pub programs: Vec<Benchmark>,
    /// Indexed by `[program][target]`.
    pub reads: Vec<[Expect; 2]>,
    pub edits: BTreeMap<Site, Expect>,
}

/// One cold verdict: the one-shot pipeline, then stacklint on its output
/// (the `sbound --lint` run).
pub fn verify_cold(
    source: &str,
    target: Target,
) -> Result<(Report, stacklint::LintReport), String> {
    let report = Verifier::new()
        .target(target)
        .verify(source)
        .map_err(|e| e.to_string())?;
    let lint = stacklint::analyze(&report.compiled.asm);
    Ok((report, lint))
}

/// Checks a cold verdict's own sandwich and returns what it reported.
pub fn expect_of(report: &Report, lint: &stacklint::LintReport) -> Result<Expect, String> {
    let answer = Answer::of(report)?;
    answer.check_peak()?;
    check_lint(&answer, lint)?;
    Ok(Expect {
        answer,
        rendering: report.to_string(),
    })
}

/// One verdict of `cold_corpus` or `serve_edit`: a program on a target
/// (an index into [`TARGETS`]), unedited or with one edit.
pub struct Item {
    pub program: usize,
    pub target: usize,
    pub edit: Option<(String, u32)>,
}

impl Item {
    pub fn site(&self) -> Option<Site> {
        self.edit.as_ref().map(|(func, _)| Site {
            program: self.program,
            target: self.target,
            func: func.clone(),
        })
    }
}

impl Reference {
    /// Derives the reference for a run's `items`. Each edit site is
    /// verified with the constant of its first edit in `items`, so that
    /// edit is compared with the one-shot rendering of exactly its
    /// source; later edits of the site differ only in the stored
    /// constant, which the rendering does not depend on (a unit test
    /// checks this for every site).
    pub fn derive(known: &Known, items: &[Item]) -> Result<Reference, String> {
        let mut first_k = BTreeMap::new();
        for item in items {
            if let (Some(site), Some((_, k))) = (item.site(), &item.edit) {
                first_k.entry(site).or_insert(*k);
            }
        }
        let k_of = |site: &Site| first_k.get(site).copied().unwrap_or(1);
        let programs = programs();
        let mut reads = Vec::new();
        let mut edits = BTreeMap::new();
        for (pi, p) in programs.iter().enumerate() {
            let program = clight::frontend(p.source, &[])?;
            let mut per_target = Vec::new();
            for (ti, &target) in TARGETS.iter().enumerate() {
                let ctx = |e: String| format!("{} [{target}]: {e}", p.file);
                let (original, lint) = verify_cold(p.source, target).map_err(ctx)?;
                let read = expect_of(&original, &lint).map_err(ctx)?;
                if &read.answer != known.auto(target, p.file) {
                    return Err(ctx(format!(
                        "{:?} differs from the known answer",
                        read.answer
                    )));
                }
                for func in program.function_names() {
                    let site = Site {
                        program: pi,
                        target: ti,
                        func: func.to_owned(),
                    };
                    let src = edit_source(p.source, func, k_of(&site)).map_err(ctx)?;
                    let (report, lint) = verify_cold(&src, target).map_err(ctx)?;
                    let edit = expect_of(&report, &lint).map_err(ctx)?;
                    if known.edit(target, p.file, func) != Some(&edit.answer) {
                        return Err(ctx(format!(
                            "edit of `{func}`: {:?} differs from the known answer",
                            edit.answer
                        )));
                    }
                    check_edit(&original, &program, &report, &src, func, target).map_err(ctx)?;
                    edits.insert(site, edit);
                }
                per_target.push(read);
            }
            reads.push(per_target.try_into().expect("two targets"));
        }
        Ok(Reference {
            programs,
            reads,
            edits,
        })
    }
}

impl Reference {
    /// The source an item sends.
    pub fn source(&self, item: &Item) -> Result<std::borrow::Cow<'static, str>, String> {
        let src = self.programs[item.program].source;
        Ok(match &item.edit {
            None => src.into(),
            Some((func, k)) => edit_source(src, func, *k)?.into(),
        })
    }

    /// What an item's verdict must report.
    pub fn expected(&self, item: &Item) -> &Expect {
        match item.site() {
            None => &self.reads[item.program][item.target],
            Some(site) => &self.edits[&site],
        }
    }
}

/// A Table 2 case whose file gained one helper function. The proven
/// functions are untouched, so the hand-written derivations still apply
/// and the rendering must equal the case's known answer. (Changing a
/// proven function would need a new hand-written proof.) The source is
/// leaked: `RecursiveCase` holds `&'static str`, and a run builds a few
/// dozen such cases.
pub fn edited_case(case: &RecursiveCase, k: u32) -> RecursiveCase {
    let source = format!(
        "{}\nu32 {EDIT_LOCAL}(u32 x) {{ return x + {k}; }}\n",
        case.source
    );
    RecursiveCase {
        name: case.name,
        file: case.file,
        source: Box::leak(source.into_boxed_str()),
        proofs: case.proofs.clone(),
        bound_display: case.bound_display,
        args_for: case.args_for,
        sweep: case.sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_parse_and_hold_the_accuracy_identity() {
        Known::parse(KNOWN_ANSWERS).unwrap();
    }

    #[test]
    fn known_answers_match_the_program() {
        assert_eq!(render_known().unwrap(), KNOWN_ANSWERS);
    }

    /// The Table 1 column of EXPERIMENTS.md, as `(file, function, bytes)`.
    fn experiments_table1() -> Vec<(String, String, u32)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md");
        let text = std::fs::read_to_string(path).unwrap();
        let mut rows = Vec::new();
        let mut file = String::new();
        let section = text.split("## Table 1").nth(1).unwrap();
        let section = section.split("\n## ").next().unwrap();
        for line in section.lines().filter(|l| l.starts_with("| ")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let Some(bytes) = cells[3].strip_suffix(" B") else {
                continue;
            };
            if !cells[1].is_empty() {
                file = cells[1].to_owned();
            }
            rows.push((file.clone(), cells[2].to_owned(), bytes.parse().unwrap()));
        }
        rows
    }

    #[test]
    fn known_answers_agree_with_the_experiments_table1_column() {
        let known = Known::parse(KNOWN_ANSWERS).unwrap();
        let rows = experiments_table1();
        assert!(rows.len() >= 30, "{rows:?}");
        for (file, func, bytes) in rows {
            let answer = known.auto(Target::Sz32, &file);
            assert_eq!(answer.bounds.get(&func), Some(&bytes), "{file} {func}");
        }
    }

    #[test]
    fn every_edit_changes_exactly_its_function_and_callers() {
        for target in TARGETS {
            for p in programs() {
                let program = clight::frontend(p.source, &[]).unwrap();
                let original = Verifier::new().target(target).verify(p.source).unwrap();
                for func in program.function_names() {
                    let src = edit_source(p.source, func, 7).unwrap();
                    let edited = Verifier::new().target(target).verify(&src).unwrap();
                    check_edit(&original, &program, &edited, &src, func, target)
                        .unwrap_or_else(|e| panic!("{} {target}: {e}", p.file));
                }
            }
        }
    }

    #[test]
    fn the_edit_constant_does_not_change_the_rendering() {
        for target in TARGETS {
            for p in programs() {
                let program = clight::frontend(p.source, &[]).unwrap();
                for func in program.function_names() {
                    let render = |k| {
                        let src = edit_source(p.source, func, k).unwrap();
                        Verifier::new()
                            .target(target)
                            .verify(&src)
                            .unwrap()
                            .to_string()
                    };
                    assert_eq!(render(1), render(2_000_000_017), "{} {func}", p.file);
                }
            }
        }
    }

    #[test]
    fn edited_cases_render_their_known_answer() {
        let known = Known::parse(KNOWN_ANSWERS).unwrap();
        let case = benchsuite::recursive_case("fib").unwrap();
        let edited = edited_case(&case, 3);
        for target in TARGETS {
            let got =
                stackbound::table2::verify_case_cached(&edited, target, &vcache::VCache::new())
                    .unwrap();
            assert_eq!(got, known.table2(target, "fib"));
        }
    }
}
