//! The pass manager: first-class compiler passes and the [`Pipeline`]
//! driver that runs them.
//!
//! The paper's compiler is a *chain* of passes, each carrying its own
//! quantitative-refinement obligation `C(s) ≼Q s` (§3.2, proved once in
//! Coq). This module reifies that structure: every pass is a value
//! implementing [`Pass`], and the [`Pipeline`] driver owns the pass list
//! and the cross-cutting machinery that used to be hand-rolled inline —
//! observability spans and size counters, optional per-pass wall-clock
//! [`Budgets`], and an optional per-pass *refinement checkpoint*
//! ([`Pass::check`]) that executes the source and target IR of the pass
//! and asserts [`trace::refinement`] on the concrete run, the testable
//! counterpart of the paper's per-pass theorems.
//!
//! Every pass is a per-function map. A function's compiled artifacts
//! therefore depend only on
//!
//! 1. its own Clight AST,
//! 2. the *signatures* (names, order, arities) of the program's globals,
//!    externals and functions — `machgen` compiles name references down
//!    to table indices, so positions matter,
//! 3. with inlining enabled, the RTL bodies of its callees, and
//! 4. the optimization selection ([`Options`]).
//!
//! [`Pipeline::run_reusing`] exploits this: the caller hands it the
//! per-function [`FnArtifacts`] it already trusts (crate `vcache` keys
//! them by content covering 1–4), and every pass translates only the
//! remaining functions. Reused functions are spliced back in from their
//! artifacts wherever the whole program is needed: for the two
//! program-wide tables (inline candidates over the pre-optimization RTL,
//! `machgen`'s name indices over the optimized RTL) and for the assembled
//! [`Compiled`]. [`Pipeline::run`] is the same driver with nothing to
//! reuse.
//!
//! Per-function translations fan out across `std::thread` workers in
//! parallel mode ([`PipelineConfig::parallel`]) and are re-assembled in
//! program order, so parallel output is byte-identical to serial output.
//!
//! # Examples
//!
//! ```
//! use compiler::pipeline::{Pipeline, PipelineConfig};
//! use std::collections::HashMap;
//!
//! let program = clight::frontend(
//!     "u32 sq(u32 x) { return x * x; }
//!      int main() { u32 r; r = sq(6); return r + 6; }", &[]).unwrap();
//!
//! // A refinement-checked, parallel build.
//! let config = PipelineConfig {
//!     check_refinement: true,
//!     parallel: true,
//!     ..PipelineConfig::default()
//! };
//! let compiled = Pipeline::new(config).run(&program).unwrap();
//! assert_eq!(compiled.asm.functions.len(), 2);
//!
//! // Reusing every function's artifacts compiles nothing and changes
//! // nothing.
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let (cold, fresh) = pipeline.run_reusing(&program, &HashMap::new()).unwrap();
//! let reuse: HashMap<_, _> = fresh.into_iter().collect();
//! let (warm, none) = pipeline.run_reusing(&program, &reuse).unwrap();
//! assert!(none.is_empty());
//! assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
//! ```

use crate::{asmgen, cminor, cminorgen, inline, mach, machgen, opt, rtl, rtlgen};
use crate::{par_map, CompileError, Compiled, Options};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::refinement::{self, RefinementError};
use trace::Behavior;

/// Stack size used when executing `ASMsz` code inside a refinement
/// checkpoint (generous so the check observes the true behavior).
const CHECK_STACK: u32 = 1 << 22;

/// A program at some stage of the compilation pipeline.
///
/// Passes consume and produce values of this type; the variant order
/// mirrors the pipeline of the paper's Figure 4.
#[derive(Debug, Clone)]
pub enum Ir {
    /// The Clight source program.
    Clight(clight::Program),
    /// The Cminor intermediate program.
    Cminor(cminor::CmProgram),
    /// The RTL intermediate program.
    Rtl(rtl::RtlProgram),
    /// The Mach program with laid-out frames.
    Mach(mach::MachProgram),
    /// The final `ASMsz` program.
    Asm(asm::AsmProgram),
}

impl Ir {
    /// The stage name of this representation.
    pub fn stage(&self) -> &'static str {
        match self {
            Ir::Clight(_) => "clight",
            Ir::Cminor(_) => "cminor",
            Ir::Rtl(_) => "rtl",
            Ir::Mach(_) => "mach",
            Ir::Asm(_) => "asm",
        }
    }

    /// The default size measure of this representation: total instruction
    /// count for the flat IRs, function count for Cminor (whose statements
    /// are trees), and none for Clight.
    pub fn size(&self) -> Option<u64> {
        match self {
            Ir::Clight(_) => None,
            Ir::Cminor(p) => Some(p.functions.len() as u64),
            Ir::Rtl(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
            Ir::Mach(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
            Ir::Asm(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
        }
    }

    /// Executes the program's `main` with this stage's interpreter and
    /// returns its behavior, or `None` when the program has no `main` (or,
    /// for `ASMsz`, cannot be set up). `ASMsz` runs on a generous
    /// fixed-size stack.
    pub fn run_main(&self, fuel: u64) -> Option<Behavior> {
        match self {
            Ir::Clight(p) => p
                .function("main")
                .map(|_| clight::Executor::run_main(p, fuel)),
            Ir::Cminor(p) => p.function("main").map(|_| cminor::run_main(p, fuel)),
            Ir::Rtl(p) => p.function("main").map(|_| rtl::run_main(p, fuel)),
            Ir::Mach(p) => p
                .functions
                .iter()
                .any(|f| f.name == "main")
                .then(|| mach::run_main(p, fuel)),
            Ir::Asm(p) => p
                .functions
                .iter()
                .any(|f| f.name == "main")
                .then(|| asm::measure_main(p, CHECK_STACK, fuel))?
                .ok()
                .map(|m| m.behavior),
        }
    }
}

/// Per-run context handed to every pass by the driver.
pub struct PassContext<'a> {
    /// Number of worker threads a pass may fan its per-function
    /// translations out to (`1` means serial).
    pub workers: usize,
    /// The machine the backend passes emit code for (from
    /// [`Options::target`]).
    pub target: asm::Target,
    /// The pass being run; names its per-function spans.
    pass: &'a dyn Pass,
    /// One entry per program function, in definition order: the artifacts
    /// spliced in for a reused function, `None` for one this run compiles.
    reused: &'a [Option<&'a FnArtifacts>],
}

impl PassContext<'_> {
    /// Translates each of `functions` — the functions this run compiles —
    /// across [`PassContext::workers`] threads, each inside a
    /// `compiler/<pass>/fn/<function>` obs span. Results keep input order,
    /// and the first error in that order wins.
    fn map<T, U>(
        &self,
        functions: &[T],
        f: impl Fn(&T) -> Result<U, CompileError> + Sync,
    ) -> Result<Vec<U>, CompileError>
    where
        T: FnName + Sync,
        U: Send,
    {
        par_map(functions, self.workers, |func| {
            let _s = obs::span_dyn(|| {
                format!("{}/fn/{}", span_name(self.pass, self.target), func.name())
            });
            f(func)
        })
        .into_iter()
        .collect()
    }

    /// The whole program's functions at the pass's input stage, in
    /// definition order: `functions` (the ones this run compiles) with
    /// the `pick`ed artifact of every reused function spliced back in.
    fn whole<'b, F>(
        &'b self,
        functions: &'b [F],
        pick: impl Fn(&'b FnArtifacts) -> &'b F + 'b,
    ) -> impl Iterator<Item = &'b F> {
        splice(self.reused, functions, pick)
    }
}

/// One compiler pass: a named transformation between [`Ir`] stages with a
/// size measure and an optional refinement checkpoint.
///
/// The paper proves `C(s) ≼Q s` once per pass; here [`Pass::check`] is the
/// per-execution counterpart, invoked by the driver when
/// [`PipelineConfig::check_refinement`] is set.
pub trait Pass: Send + Sync {
    /// Short pass name, e.g. `machgen`. The driver opens an obs span
    /// `compiler/<name>` around the pass and keys [`Budgets`] by this name.
    fn name(&self) -> &'static str;

    /// Transforms the input IR into the output IR. The input holds only
    /// the functions this run compiles (all of them when nothing is
    /// reused), and the output holds their translations in the same
    /// order; program-wide tables are built over the whole program through
    /// the context.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on malformed input (including an input
    /// [`Ir`] stage the pass does not accept) or internal invariant
    /// violations.
    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError>;

    /// The size measure reported as the `instrs_in`/`instrs_out` obs
    /// counters (over the functions this run compiles); defaults to
    /// [`Ir::size`].
    fn size(&self, ir: &Ir) -> Option<u64> {
        ir.size()
    }

    /// Whether the driver reports the input size as an `instrs_in`
    /// counter (the transformation passes over already-flat IR do).
    fn reports_input_size(&self) -> bool {
        false
    }

    /// Whether this pass's output depends on the backend target. The
    /// driver suffixes the obs span of such passes with a `target=` label
    /// so sz32 and rv runs never collide in `obs-diff` or the hotspots
    /// table.
    fn target_specific(&self) -> bool {
        false
    }

    /// The refinement checkpoint: executes source and target and checks
    /// the pass's quantitative-refinement obligation on the concrete run.
    /// The default checks [`refinement::check_quantitative`] — pruned
    /// traces and outcomes agree and target weights are bounded by source
    /// weights under *every* stack metric. Programs without a `main` are
    /// vacuously fine.
    ///
    /// # Errors
    ///
    /// Returns the first [`RefinementError`] discrepancy.
    fn check(&self, source: &Ir, target: &Ir, fuel: u64) -> Result<(), RefinementError> {
        let (Some(b_src), Some(b_tgt)) = (source.run_main(fuel), target.run_main(fuel)) else {
            return Ok(());
        };
        refinement::check_quantitative(&b_src, &b_tgt, &[])
    }
}

/// The complete per-function vertical produced by one compilation: the
/// function's image in every intermediate representation the final
/// [`Compiled`] artifact retains, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub struct FnArtifacts {
    /// Cminor translation (post-`cminorgen`).
    pub cminor: cminor::CmFunction,
    /// RTL before optimization (post-`rtlgen`).
    pub rtl: rtl::RtlFunction,
    /// RTL after the enabled optimizations (post-`tunnel`).
    pub rtl_opt: rtl::RtlFunction,
    /// Mach translation with the laid-out frame (post-`machgen`).
    pub mach: mach::MachFunction,
    /// Final `ASMsz` code (post-`asmgen`).
    pub asm: asm::AsmFunction,
}

impl FnArtifacts {
    /// The vertical of the `i`-th function of `compiled`.
    pub(crate) fn of(compiled: &Compiled, i: usize) -> FnArtifacts {
        FnArtifacts {
            cminor: compiled.cminor.functions[i].clone(),
            rtl: compiled.rtl.functions[i].clone(),
            rtl_opt: compiled.rtl_opt.functions[i].clone(),
            mach: compiled.mach.functions[i].clone(),
            asm: compiled.asm.functions[i].clone(),
        }
    }
}

/// The verticals a [`Pipeline::run_reusing`] run compiled, keyed by
/// function name, for the caller to store under its own content keys.
pub type FreshArtifacts = Vec<(String, Arc<FnArtifacts>)>;

/// A function of some IR, named for its per-function obs span.
trait FnName {
    fn name(&self) -> &str;
}

macro_rules! fn_name {
    ($($ty:ty),*) => {
        $(impl FnName for $ty {
            fn name(&self) -> &str {
                &self.name
            }
        })*
    };
}

fn_name!(
    clight::Function,
    cminor::CmFunction,
    rtl::RtlFunction,
    mach::MachFunction
);

/// The obs span of a pass: `compiler/<name>`, with a `target=` label on
/// target-specific passes so sz32 and rv runs never collide in `obs-diff`
/// or the hotspots table.
fn span_name(pass: &dyn Pass, target: asm::Target) -> String {
    if pass.target_specific() {
        format!("compiler/{}{{target={}}}", pass.name(), target.name())
    } else {
        format!("compiler/{}", pass.name())
    }
}

/// Interleaves the functions a run compiled (in definition order) with
/// the reused ones: slot `i` is `pick(reused[i])` for a reused function
/// and the next compiled function otherwise.
fn splice<'r, T>(
    reused: &'r [Option<&'r FnArtifacts>],
    compiled: impl IntoIterator<Item = T, IntoIter: 'r>,
    pick: impl Fn(&'r FnArtifacts) -> T + 'r,
) -> impl Iterator<Item = T> + 'r {
    let mut compiled = compiled.into_iter();
    reused.iter().map(move |r| match r {
        Some(a) => pick(a),
        None => compiled
            .next()
            .expect("one compiled function per function not reused"),
    })
}

/// The error for an input [`Ir`] stage a pass does not accept.
fn wrong_input(pass: &str, expected: &str, got: &Ir) -> CompileError {
    CompileError::Internal(format!(
        "{pass}: expected {expected} input, got {}",
        got.stage()
    ))
}

/// Runs an RTL → RTL transformation on a copy of every function of the
/// input.
fn map_rtl(
    pass: &str,
    input: &Ir,
    ctx: &PassContext<'_>,
    transform: impl Fn(&mut rtl::RtlFunction) + Sync,
) -> Result<Ir, CompileError> {
    let Ir::Rtl(p) = input else {
        return Err(wrong_input(pass, "rtl", input));
    };
    Ok(Ir::Rtl(rtl::RtlProgram {
        globals: p.globals.clone(),
        externals: p.externals.clone(),
        functions: ctx.map(&p.functions, |f| {
            let mut f = f.clone();
            transform(&mut f);
            Ok(f)
        })?,
    }))
}

/// Clight → Cminor (local-variable merging into an explicit stack block).
#[derive(Debug, Clone, Copy, Default)]
pub struct CminorGen;

impl Pass for CminorGen {
    fn name(&self) -> &'static str {
        "cminorgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Clight(p) = input else {
            return Err(wrong_input("cminorgen", "clight", input));
        };
        Ok(Ir::Cminor(cminor::CmProgram {
            globals: p
                .globals
                .iter()
                .map(|g| (g.name.clone(), g.ty.size(), g.init.clone()))
                .collect(),
            externals: p
                .externals
                .iter()
                .map(|e| (e.name.clone(), e.arity, e.ret.is_some()))
                .collect(),
            functions: ctx.map(&p.functions, |f| cminorgen::translate_function(f, p))?,
        }))
    }
}

/// Cminor → RTL (CFG construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct RtlGen;

impl Pass for RtlGen {
    fn name(&self) -> &'static str {
        "rtlgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Cminor(p) = input else {
            return Err(wrong_input("rtlgen", "cminor", input));
        };
        Ok(Ir::Rtl(rtl::RtlProgram {
            globals: p.globals.clone(),
            externals: p.externals.clone(),
            functions: ctx.map(&p.functions, rtlgen::translate_function)?,
        }))
    }
}

/// RTL → RTL leaf inlining (off by default, see [`crate::inline`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Pass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Rtl(p) = input else {
            return Err(wrong_input("inline", "rtl", input));
        };
        // The candidate table is program-wide: reused callees count too,
        // at their pre-optimization RTL.
        let candidates = inline::candidates(ctx.whole(&p.functions, |a| &a.rtl));
        map_rtl("inline", input, ctx, |f| {
            inline::inline_function(f, &candidates)
        })
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL constant propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstProp;

impl Pass for ConstProp {
    fn name(&self) -> &'static str {
        "constprop"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("constprop", input, ctx, opt::constprop_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL dead-code elimination.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("dce", input, ctx, opt::dce_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL `Nop`-chain shortening; the last RTL pass, so its output is
/// the optimized RTL.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tunnel;

impl Pass for Tunnel {
    fn name(&self) -> &'static str {
        "tunnel"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("tunnel", input, ctx, opt::tunnel_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → Mach (allocation, linearization, stacking).
#[derive(Debug, Clone, Copy, Default)]
pub struct MachGen;

impl Pass for MachGen {
    fn name(&self) -> &'static str {
        "machgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Rtl(p) = input else {
            return Err(wrong_input("machgen", "rtl", input));
        };
        // Names compile to positions in the whole optimized program,
        // reused functions included.
        let env = machgen::Env::new(p, ctx.whole(&p.functions, |a| &a.rtl_opt), ctx.target);
        Ok(Ir::Mach(mach::MachProgram {
            target: ctx.target,
            globals: p.globals.clone(),
            externals: p.externals.clone(),
            functions: ctx.map(&p.functions, |f| machgen::translate_function(f, &env))?,
        }))
    }

    fn reports_input_size(&self) -> bool {
        true
    }

    fn target_specific(&self) -> bool {
        true
    }
}

/// Mach → `ASMsz` (stack merging).
#[derive(Debug, Clone, Copy, Default)]
pub struct AsmGen;

impl Pass for AsmGen {
    fn name(&self) -> &'static str {
        "asmgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Mach(p) = input else {
            return Err(wrong_input("asmgen", "mach", input));
        };
        Ok(Ir::Asm(asm::AsmProgram {
            target: p.target,
            globals: p.globals.clone(),
            externals: p
                .externals
                .iter()
                .map(|(n, a, _)| asm::AsmExternal {
                    name: n.clone(),
                    arity: *a,
                })
                .collect(),
            functions: ctx.map(&p.functions, |f| asmgen::translate_function(f, p.target))?,
        }))
    }

    fn target_specific(&self) -> bool {
        true
    }

    /// The machine has a *finite* stack, so the quantitative half of the
    /// refinement is Theorem 1's business (checked end-to-end elsewhere);
    /// the checkpoint here is CompCert's classic refinement on a stack
    /// large enough not to overflow.
    fn check(&self, source: &Ir, target: &Ir, fuel: u64) -> Result<(), RefinementError> {
        let (Some(b_src), Some(b_tgt)) = (source.run_main(fuel), target.run_main(fuel)) else {
            return Ok(());
        };
        refinement::check_classic(&b_src, &b_tgt)
    }
}

/// Per-pass wall-clock budgets, keyed by [`Pass::name`].
///
/// An empty set of budgets (the default) never fails. The text format
/// accepted by [`Budgets::parse`] is one `<pass-name> <ms>` pair per
/// line, with `#` comments — the format of the checked-in CI budget file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budgets {
    limits: BTreeMap<String, Duration>,
}

impl Budgets {
    /// No budgets: every pass may take arbitrarily long.
    pub fn none() -> Budgets {
        Budgets::default()
    }

    /// Sets the budget for one pass, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, pass: &str, limit: Duration) -> Budgets {
        self.set(pass, limit);
        self
    }

    /// Sets the budget for one pass.
    pub fn set(&mut self, pass: &str, limit: Duration) {
        self.limits.insert(pass.to_owned(), limit);
    }

    /// The budget for a pass, if one is set.
    pub fn get(&self, pass: &str) -> Option<Duration> {
        self.limits.get(pass).copied()
    }

    /// True when no pass has a budget.
    pub fn is_empty(&self) -> bool {
        self.limits.is_empty()
    }

    /// All `(pass, budget)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.limits.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Parses the budget-file format: one `<pass-name> <milliseconds>`
    /// pair per non-empty line; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    ///
    /// # Examples
    ///
    /// ```
    /// let budgets = compiler::pipeline::Budgets::parse("
    ///     machgen 250  # Table 1 suite, generous thresholds.
    ///     asmgen 100
    /// ").unwrap();
    /// assert_eq!(budgets.get("machgen"), Some(std::time::Duration::from_millis(250)));
    /// ```
    pub fn parse(text: &str) -> Result<Budgets, String> {
        let mut budgets = Budgets::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(pass), Some(ms), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "line {}: expected `<pass-name> <milliseconds>`, got `{raw}`",
                    lineno + 1
                ));
            };
            let ms: u64 = ms
                .parse()
                .map_err(|e| format!("line {}: bad milliseconds `{ms}`: {e}", lineno + 1))?;
            budgets.set(pass, Duration::from_millis(ms));
        }
        Ok(budgets)
    }
}

/// Configuration for a [`Pipeline`] run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which optimization passes the pipeline contains.
    pub options: Options,
    /// Run every pass's refinement checkpoint ([`Pass::check`]) on the
    /// concrete execution of its source and target. Expensive — the
    /// program is interpreted at every stage — but turns each of the
    /// paper's per-pass theorems into a runtime assertion.
    pub check_refinement: bool,
    /// Interpreter fuel for refinement checkpoints.
    pub check_fuel: u64,
    /// Per-pass wall-clock budgets; a pass that exceeds its budget fails
    /// the run with [`PipelineError::BudgetExceeded`].
    pub budgets: Budgets,
    /// Fan per-function passes out across worker threads. Output is
    /// byte-identical to serial mode.
    pub parallel: bool,
    /// Worker-thread count for [`PipelineConfig::parallel`]; `0` (the
    /// default) uses [`std::thread::available_parallelism`].
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            options: Options::default(),
            check_refinement: false,
            check_fuel: 20_000_000,
            budgets: Budgets::none(),
            parallel: false,
            workers: 0,
        }
    }
}

impl PipelineConfig {
    /// The default configuration with explicit [`Options`].
    pub fn with_options(options: Options) -> PipelineConfig {
        PipelineConfig {
            options,
            ..PipelineConfig::default()
        }
    }

    /// The worker-thread count a run will actually use.
    pub fn effective_workers(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// A [`Pipeline`] failure: the compilation itself failed, a pass ran past
/// its budget, or a refinement checkpoint found a discrepancy.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// A pass failed to compile the program.
    Compile(CompileError),
    /// A pass exceeded its wall-clock budget.
    BudgetExceeded {
        /// The pass that ran too long.
        pass: String,
        /// Its measured wall-clock time.
        elapsed: Duration,
        /// Its configured budget.
        budget: Duration,
    },
    /// A refinement checkpoint failed — the pass changed observable
    /// behavior or increased a stack weight (always a compiler bug).
    RefinementFailed {
        /// The pass whose checkpoint failed.
        pass: String,
        /// The discrepancy (boxed: it carries both behaviors).
        error: Box<RefinementError>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "{e}"),
            PipelineError::BudgetExceeded {
                pass,
                elapsed,
                budget,
            } => write!(
                f,
                "pass `{pass}` exceeded its budget: {:.3} ms > {:.3} ms",
                elapsed.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            PipelineError::RefinementFailed { pass, error } => {
                write!(f, "pass `{pass}` failed its refinement checkpoint: {error}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> PipelineError {
        PipelineError::Compile(e)
    }
}

/// The programs the driver retains to assemble [`Compiled`]. Each holds
/// only the functions this run compiled; reused ones are spliced in by
/// [`Snapshots::finish`].
#[derive(Default)]
struct Snapshots {
    cminor: Option<cminor::CmProgram>,
    rtl0: Option<rtl::RtlProgram>,
    rtl_latest: Option<rtl::RtlProgram>,
    mach: Option<mach::MachProgram>,
    asm: Option<asm::AsmProgram>,
}

impl Snapshots {
    /// Takes ownership of an IR the driver is done with.
    fn absorb(&mut self, ir: Ir) {
        match ir {
            Ir::Clight(_) => {}
            Ir::Cminor(p) => self.cminor = Some(p),
            Ir::Rtl(p) => {
                if self.rtl0.is_none() {
                    self.rtl0 = Some(p.clone());
                }
                self.rtl_latest = Some(p);
            }
            Ir::Mach(p) => self.mach = Some(p),
            Ir::Asm(p) => self.asm = Some(p),
        }
    }

    /// Assembles the whole programs, splicing in the `reused` functions.
    fn finish(self, reused: &[Option<&FnArtifacts>]) -> Result<Compiled, CompileError> {
        let missing =
            |stage: &str| CompileError::Internal(format!("pipeline produced no {stage} program"));
        let cminor = self.cminor.ok_or_else(|| missing("cminor"))?;
        let rtl = self.rtl0.ok_or_else(|| missing("rtl"))?;
        let rtl_opt = self.rtl_latest.ok_or_else(|| missing("optimized rtl"))?;
        let mach = self.mach.ok_or_else(|| missing("mach"))?;
        let asm = self.asm.ok_or_else(|| missing("asm"))?;
        let mach = mach::MachProgram {
            functions: splice(reused, mach.functions, |a| a.mach.clone()).collect(),
            ..mach
        };
        Ok(Compiled {
            cminor: cminor::CmProgram {
                functions: splice(reused, cminor.functions, |a| a.cminor.clone()).collect(),
                ..cminor
            },
            rtl: rtl::RtlProgram {
                functions: splice(reused, rtl.functions, |a| a.rtl.clone()).collect(),
                ..rtl
            },
            rtl_opt: rtl::RtlProgram {
                functions: splice(reused, rtl_opt.functions, |a| a.rtl_opt.clone()).collect(),
                ..rtl_opt
            },
            metric: mach.metric(),
            mach,
            asm: asm::AsmProgram {
                functions: splice(reused, asm.functions, |a| a.asm.clone()).collect(),
                ..asm
            },
        })
    }
}

/// The pass-list driver: owns the passes selected by a [`PipelineConfig`]
/// and runs them in order, emitting per-pass obs spans and size counters,
/// enforcing budgets, and (optionally) running refinement checkpoints.
pub struct Pipeline {
    config: PipelineConfig,
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// Builds the standard pass list for `config` (Figure 4's chain, with
    /// the optimization passes `config.options` enables).
    pub fn new(config: PipelineConfig) -> Pipeline {
        let mut passes: Vec<Box<dyn Pass>> = vec![Box::new(CminorGen), Box::new(RtlGen)];
        if config.options.inline {
            passes.push(Box::new(Inline));
        }
        if config.options.constprop {
            passes.push(Box::new(ConstProp));
        }
        if config.options.dce {
            passes.push(Box::new(Dce));
        }
        passes.push(Box::new(Tunnel));
        passes.push(Box::new(MachGen));
        passes.push(Box::new(AsmGen));
        Pipeline { config, passes }
    }

    /// The configuration this pipeline runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Whether [`Pipeline::run_reusing`] takes reused functions at all. It
    /// does not with refinement checkpoints or budgets configured: both
    /// are per-pass obligations over the whole program, so a warm cache
    /// must never let a function skip them.
    pub fn reuses_artifacts(&self) -> bool {
        !self.config.check_refinement && self.config.budgets.is_empty()
    }

    /// Runs every pass in order on `program` and assembles the
    /// [`Compiled`] artifact (all intermediate programs plus the
    /// per-target cost metric — `M(f) = SF(f) + 4` on
    /// [`asm::Target::Sz32`], `M(f) = SF(f)` on [`asm::Target::Rv`]).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run(&self, program: &clight::Program) -> Result<Compiled, PipelineError> {
        self.drive(program, &HashMap::new())
            .map(|(compiled, _)| compiled)
    }

    /// [`Pipeline::run`] that takes every function named in `reuse` from
    /// its artifacts instead of compiling it, returning the assembled
    /// [`Compiled`] plus the artifacts of the functions it did compile
    /// (for the caller to store).
    ///
    /// An entry is used verbatim, so the caller must have established (via
    /// content-addressed keys, see the module docs) that it was produced
    /// from an identical function under an identical program signature
    /// environment and optimization selection. `reuse` is ignored, and
    /// every function compiled and checked, unless
    /// [`Pipeline::reuses_artifacts`].
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]; compile errors come only from the functions
    /// actually compiled.
    pub fn run_reusing(
        &self,
        program: &clight::Program,
        reuse: &HashMap<String, Arc<FnArtifacts>>,
    ) -> Result<(Compiled, FreshArtifacts), PipelineError> {
        let (compiled, fresh) = self.drive(program, reuse)?;
        let fresh = fresh
            .into_iter()
            .map(|i| {
                let name = program.functions[i].name.clone();
                (name, Arc::new(FnArtifacts::of(&compiled, i)))
            })
            .collect();
        Ok((compiled, fresh))
    }

    /// The one compile driver behind [`Pipeline::run`] and
    /// [`Pipeline::run_reusing`]: runs every pass over the functions not
    /// reused, then splices the reused ones in. Returns the assembled
    /// program and the indices of the functions it compiled, which it
    /// also counts (with the reused ones) in the `compiler/fn_compiled`
    /// and `compiler/fn_reused` obs counters.
    fn drive(
        &self,
        program: &clight::Program,
        reuse: &HashMap<String, Arc<FnArtifacts>>,
    ) -> Result<(Compiled, Vec<usize>), PipelineError> {
        let _span = obs::span("compiler/compile");
        let reuses = self.reuses_artifacts();
        let reused: Vec<Option<&FnArtifacts>> = program
            .functions
            .iter()
            .map(|f| reuse.get(&f.name).filter(|_| reuses).map(|a| &**a))
            .collect();
        let compiled: Vec<usize> = (0..reused.len()).filter(|&i| reused[i].is_none()).collect();
        obs::counter("compiler/fn_reused", (reused.len() - compiled.len()) as u64);
        obs::counter("compiler/fn_compiled", compiled.len() as u64);
        let mut current = Ir::Clight(clight::Program {
            globals: program.globals.clone(),
            externals: program.externals.clone(),
            functions: compiled
                .iter()
                .map(|&i| program.functions[i].clone())
                .collect(),
        });

        let workers = self.config.effective_workers();
        let target = self.config.options.target;
        let mut snapshots = Snapshots::default();
        for pass in &self.passes {
            let pass = pass.as_ref();
            let _s = obs::span_dyn(|| span_name(pass, target));
            if pass.reports_input_size() {
                if let Some(n) = pass.size(&current) {
                    obs::counter("instrs_in", n);
                }
            }
            let ctx = PassContext {
                workers,
                target,
                pass,
                reused: &reused,
            };
            let started = Instant::now();
            let output = pass.run(&current, &ctx)?;
            let elapsed = started.elapsed();
            if let Some(n) = pass.size(&output) {
                obs::counter("instrs_out", n);
            }
            if let Some(budget) = self.config.budgets.get(pass.name()) {
                if elapsed > budget {
                    return Err(PipelineError::BudgetExceeded {
                        pass: pass.name().to_owned(),
                        elapsed,
                        budget,
                    });
                }
            }
            if self.config.check_refinement {
                pass.check(&current, &output, self.config.check_fuel)
                    .map_err(|error| PipelineError::RefinementFailed {
                        pass: pass.name().to_owned(),
                        error: Box::new(error),
                    })?;
            }
            snapshots.absorb(std::mem::replace(&mut current, output));
        }
        snapshots.absorb(current);
        let assembled = snapshots.finish(&reused).map_err(PipelineError::Compile)?;
        Ok((assembled, compiled))
    }
}
