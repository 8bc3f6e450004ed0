//! In-process searches through `mixedprec::AnalysisSystem::recommend`:
//! the `nas-a` and `nas-s-lattice` workloads, the independent oracle,
//! and the traced pass that captures every evaluated configuration and
//! replays it through the public layer calls.

use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, Trap, Vm};
use instrument::{rewrite_all_double, RewriteOptions, Rewriter};
use mixedprec::{AnalysisSystem, EvalMiddleware, JobSpec, Recommendation, WrapCtx};
use mpconfig::{Config, StructureTree};
use mpsearch::{EvalOutcome, EvalStats, Evaluator, RunControl};
use perfbench::{median, parse_row, parse_table, tail, Row, SeedOrder, Spans, Tally};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{Class, Workload};

use crate::{Metric, Outcome};

/// Worker threads of every search: fixed, never read from the
/// environment, so the load shape is the same on every host.
pub const THREADS: usize = 2;

/// Builds one NAS workload at a class: compile plus reference run.
pub type Build = fn(Class) -> Workload;

/// The seven NAS analogues, in Fig. 10 order.
pub const NAS: [(&str, Build); 7] = [
    ("bt", workloads::nas::bt),
    ("cg", workloads::nas::cg),
    ("ep", workloads::nas::ep),
    ("ft", workloads::nas::ft),
    ("lu", workloads::nas::lu),
    ("mg", workloads::nas::mg),
    ("sp", workloads::nas::sp),
];

/// One set of seven in-process searches.
#[derive(Clone, Copy)]
pub struct Suite {
    /// Problem class of every program and data set.
    pub class: Class,
    /// `--lattice=s,b` instead of the classic double/single search.
    pub lattice: bool,
    /// Also run the shadow-pruned copy of every search (the in-process
    /// replay of the `daemon-w` job set).
    pub shadow_copies: bool,
    /// The committed expected rows.
    pub expected: &'static str,
}

impl Suite {
    /// The job spec of one search: `craft analyze` defaults plus the
    /// suite's lattice, with the thread count fixed.
    pub fn spec(&self, bench: &str, shadow_prune: bool) -> JobSpec {
        JobSpec {
            bench: bench.to_string(),
            class: self.class.letter().to_string(),
            threads: Some(THREADS),
            lattice: if self.lattice { "s,b".into() } else { String::new() },
            shadow_prune,
            ..Default::default()
        }
    }
}

/// Evaluations seen below the search's per-run cache, in start order.
#[derive(Default)]
pub struct Capture {
    evals: Mutex<Vec<Captured>>,
}

struct Captured {
    cfg: Config,
    start: Instant,
    end: Instant,
    pass: bool,
}

impl Capture {
    fn take(&self) -> Vec<Captured> {
        let mut v = std::mem::take(&mut *self.evals.lock().expect("capture lock poisoned"));
        v.sort_by_key(|c| c.start);
        v
    }
}

struct Timing<'a> {
    inner: &'a dyn Evaluator,
    log: &'a Capture,
}

impl Evaluator for Timing<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        let start = Instant::now();
        let out = self.inner.evaluate_run(cfg, ctl);
        let end = Instant::now();
        let c = Captured { cfg: cfg.clone(), start, end, pass: out.pass };
        self.log.evals.lock().expect("capture lock poisoned").push(c);
        out
    }

    fn stats(&self) -> EvalStats {
        self.inner.stats()
    }
}

impl EvalMiddleware for Capture {
    fn wrap<'a>(&'a self, inner: &'a dyn Evaluator, _ctx: &WrapCtx<'a>) -> Box<dyn Evaluator + 'a> {
        Box::new(Timing { inner, log: self })
    }
}

/// One search of the suite, ready to run.
pub struct Entry {
    /// `bench.CLASS` as in the committed tables.
    pub label: String,
    /// The analysis system, built with no tracer and no middleware.
    pub sys: AnalysisSystem,
    /// The committed expected row.
    pub expected: Row,
    spec: JobSpec,
    verdicts: Vec<(String, bool)>,
    /// A timing middleware is attached (traced pass only).
    probed: bool,
}

/// Times of one set-up: its wall time and the per-layer parts.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    wall_s: f64,
    build_ms: f64,
    tree_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build every workload (compile plus reference run) and its analysis
/// system (structure tree).
fn setup(suite: &Suite) -> Result<(Vec<Entry>, SetupTimes), String> {
    let expected = parse_table(suite.expected)?;
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut out = Vec::new();
    let copies: &[bool] = if suite.shadow_copies { &[false, true] } else { &[false] };
    for &shadow in copies {
        for (bench, build) in NAS {
            let spec = suite.spec(bench, shadow);
            let t = Instant::now();
            let w = build(suite.class);
            times.build_ms += ms(t.elapsed());
            let label = format!("{bench}.{}", suite.class.letter().to_uppercase());
            let row = expected
                .iter()
                .find(|r| r.label == label.to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| format!("no expected row for {label}"))?;
            let opts = spec.options()?;
            let t = Instant::now();
            let sys = AnalysisSystem::with_options(w, opts);
            times.tree_ms += ms(t.elapsed());
            out.push(Entry {
                label,
                sys,
                expected: row,
                spec,
                verdicts: Vec::new(),
                probed: false,
            });
        }
    }
    times.wall_s = start.elapsed().as_secs_f64();
    Ok((out, times))
}

/// The Fig. 10 row exactly as `fig10_search` prints it.
fn render_row(e: &Entry, rec: &Recommendation) -> String {
    let row = rec.report.figure10_row(&e.label);
    if e.spec.lattice.is_empty() {
        return row;
    }
    let formats: Vec<String> = rec
        .report
        .format_breakdown(e.sys.tree())
        .into_iter()
        .map(|(tok, n)| format!("{tok}:{n}"))
        .collect();
    format!("{row}   [{}]", formats.join(" "))
}

/// The independent oracle: rewrite the final configuration, run it on
/// the tree-walking reference interpreter and apply the verifier.
fn oracle(w: &Workload, tree: &StructureTree, cfg: &Config) -> bool {
    let prog = w.program();
    let (inst, _) = Rewriter::new(prog, RewriteOptions::default()).rewrite(prog, tree, cfg);
    let mut vm = Vm::new(&inst, w.vm_opts());
    let out = vm.run();
    out.ok() && (w.verifier())(&vm)
}

/// The output check of one search: the row equals the expected row and
/// the oracle's verdict on the final configuration equals its `final`
/// column. The oracle is deterministic, so its verdict is memoized per
/// exact configuration text within a run.
fn check(e: &mut Entry, rec: &Recommendation) -> Result<(), String> {
    let text = render_row(e, rec);
    let row = parse_row(&text)?;
    if row != e.expected {
        return Err(format!("{}: row {text:?} differs from the expected row", e.label));
    }
    let verdict = match e.verdicts.iter().find(|(t, _)| *t == rec.config_text) {
        Some(&(_, v)) => v,
        None => {
            let v = oracle(e.sys.workload(), e.sys.tree(), &rec.report.final_config);
            e.verdicts.push((rec.config_text.clone(), v));
            v
        }
    };
    if verdict != row.pass {
        return Err(format!(
            "{}: oracle says {} but the final column says {}",
            e.label,
            if verdict { "pass" } else { "fail" },
            if row.pass { "pass" } else { "fail" }
        ));
    }
    Ok(())
}

fn recommend(e: &Entry) -> Result<Recommendation, String> {
    catch_unwind(AssertUnwindSafe(|| e.sys.recommend()))
        .map_err(|_| format!("{}: search panicked", e.label))
}

/// One sweep: every search once, in the seed's order. Returns the sweep
/// wall time and each search's wall time and result.
type SweepResult = (f64, Vec<(usize, f64, Result<Recommendation, String>)>);

fn sweep(entries: &[Entry], order: &[usize]) -> SweepResult {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(order.len());
    for &i in order {
        let t = Instant::now();
        let r = recommend(&entries[i]);
        out.push((i, t.elapsed().as_secs_f64(), r));
    }
    (t0.elapsed().as_secs_f64(), out)
}

/// Check every search of a sweep, counting each as one operation.
fn check_sweep(
    entries: &mut [Entry],
    results: &[(usize, f64, Result<Recommendation, String>)],
    tally: &mut Tally,
    errors: &mut Vec<String>,
) {
    for (i, _, r) in results {
        let res = r.as_ref().map_err(Clone::clone).and_then(|rec| check(&mut entries[*i], rec));
        if let Err(e) = &res {
            errors.push(e.clone());
        }
        tally.record(res.is_ok());
    }
}

/// The timed run: end-to-end metrics with no tracer and no middleware.
pub fn timed(suite: &Suite, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut entries, first) = setup(suite)?;
    if let Some(e) = entries.iter().find(|e| e.sys.tracer().is_some() || e.probed) {
        return Err(format!(
            "refusing to report timings: {} has a tracer or middleware attached",
            e.label
        ));
    }
    let mut setups = vec![first.wall_s];
    let mut order = SeedOrder::new(seed);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut sweeps, mut op_ms, mut tested) = (Vec::new(), Vec::new(), 0usize);
    let t0 = Instant::now();
    while sweeps.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (wall, results) = sweep(&entries, &order.permutation(entries.len()));
        sweeps.push(wall);
        for (_, s, r) in &results {
            op_ms.push(s * 1e3);
            if let Ok(rec) = r {
                tested += rec.report.configs_tested;
            }
        }
        check_sweep(&mut entries, &results, &mut tally, &mut errors);
        // Set-up is timed again after every sweep, so `setup_s` is a
        // median over the whole run, not over the first few hundred ms.
        setups.push(setup(suite)?.1.wall_s);
    }
    let metrics = crate::end_to_end(&setups, &sweeps, &op_ms, tested);
    Ok(Outcome { tally, metrics, errors, spans: None, notes: Vec::new() })
}

/// Per-sweep totals of the traced replay.
#[derive(Default, Clone)]
struct Layers {
    verify_ms: f64,
    profile_ms: f64,
    decode_ms: f64,
    bind_ms: f64,
    exec_ms: f64,
    steps: u64,
    fuel_capped: u64,
    rewrite_ms: f64,
    frag_hits: u64,
    frag_lookups: u64,
    tested: u64,
    evals: u64,
    cache_hits: u64,
    eval_ms: f64,
    search_ms: f64,
    self_ms: f64,
    pruned: u64,
    shadow_ms: f64,
    replay_mismatch: u64,
}

/// The evaluator's per-run fuel budget: 8 × the steps of the all-double
/// instrumented run, capped at the workload's fuel (as
/// `mpsearch::VmEvaluator` derives it).
fn fuel_budget(w: &Workload, tree: &StructureTree) -> u64 {
    let (base, _) = rewrite_all_double(w.program(), tree);
    let out = Vm::run_program(&base, w.vm_opts());
    match out.result {
        Ok(()) => out.stats.steps.saturating_mul(8).clamp(1, w.fuel),
        Err(_) => w.fuel,
    }
}

/// Replay the captured evaluations of one search, in start order,
/// through the public layer calls, each timed from outside.
fn replay(
    e: &Entry,
    evals: &[Captured],
    budget: u64,
    spans: &mut Spans,
    parent: usize,
    op: u64,
    l: &mut Layers,
) {
    let w = e.sys.workload();
    let prog = w.program();
    let tree = e.sys.tree();
    let verify = w.verifier();
    let rewriter = Rewriter::new(prog, RewriteOptions::default());
    let t = Instant::now();
    let _profile = e.sys.profile();
    l.profile_ms += ms(t.elapsed());
    spans.record("profile", t, Instant::now(), Some(parent), op);
    if e.spec.shadow_prune {
        let t = Instant::now();
        let _sp = e.sys.shadow_profile();
        l.shadow_ms += ms(t.elapsed());
        spans.record("shadow", t, Instant::now(), Some(parent), op);
    }
    for c in evals {
        let t = Instant::now();
        let (inst, _) = rewriter.rewrite(prog, tree, &c.cfg);
        let t_rw = Instant::now();
        let image = ExecImage::compile(&inst, &w.vm_opts().cost);
        let t_dec = Instant::now();
        let cimg = CompiledImage::from_image(&image);
        let t_bind = Instant::now();
        let mut opts = w.vm_opts();
        opts.fuel = budget;
        let mut vm = Vm::new(&inst, opts);
        let t_run = Instant::now();
        let out = vm.run_compiled(&cimg);
        let t_exec = Instant::now();
        let pass = out.ok() && verify(&vm);
        let t_ver = Instant::now();
        l.rewrite_ms += ms(t_rw - t);
        l.decode_ms += ms(t_dec - t_rw);
        l.bind_ms += ms(t_bind - t_dec);
        l.exec_ms += ms(t_exec - t_run);
        l.verify_ms += ms(t_ver - t_exec);
        l.steps += out.stats.steps;
        if budget < w.fuel && matches!(out.result, Err(Trap::FuelExhausted)) {
            l.fuel_capped += 1;
        }
        if pass != c.pass {
            l.replay_mismatch += 1;
        }
        let ev = spans.record("replay", t, t_ver, Some(parent), op);
        for (name, a, b) in [
            ("rewrite", t, t_rw),
            ("decode", t_rw, t_dec),
            ("bind", t_dec, t_bind),
            ("exec", t_run, t_exec),
            ("verify", t_exec, t_ver),
        ] {
            spans.record(name, a, b, Some(ev), op);
        }
    }
    let (hits, misses) = rewriter.cache_stats();
    l.frag_hits += hits;
    l.frag_lookups += hits + misses;
}

/// The traced pass: alternate an untraced sweep with a traced one (a
/// timing middleware on every search), replay each traced search's
/// evaluations layer by layer, and report per-layer metrics.
pub fn traced(suite: &Suite, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut plain, first) = setup(suite)?;
    let mut setups = vec![first];
    let (mut probed, _) = setup(suite)?;
    let capture = Arc::new(Capture::default());
    for e in &mut probed {
        let ns = e.spec.cache_namespace();
        e.sys.set_middleware(Arc::clone(&capture) as Arc<dyn EvalMiddleware>, ns);
        e.probed = true;
    }
    let budgets: Vec<u64> =
        probed.iter().map(|e| fuel_budget(e.sys.workload(), e.sys.tree())).collect();
    let mut spans = Spans::default();
    let mut order = SeedOrder::new(seed);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut untraced, mut traced_walls, mut sweeps) =
        (Vec::new(), Vec::new(), Vec::<Layers>::new());
    let mut eval_samples = Vec::new();
    let mut op = 0u64;
    let t0 = Instant::now();
    while sweeps.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let perm = order.permutation(plain.len());
        let (wall, results) = sweep(&plain, &perm);
        untraced.push(wall);
        check_sweep(&mut plain, &results, &mut tally, &mut errors);
        setups.push(setup(suite)?.1);

        let mut l = Layers::default();
        let mut traced_wall = 0.0;
        for &i in &perm {
            op += 1;
            let ts = Instant::now();
            let r = recommend(&probed[i]);
            let te = Instant::now();
            traced_wall += (te - ts).as_secs_f64();
            let evals = capture.take();
            let search = spans.record("search", ts, te, None, op);
            for c in &evals {
                spans.record("eval", c.start, c.end, Some(search), op);
                let d = ms(c.end - c.start);
                l.eval_ms += d;
                eval_samples.push(d);
            }
            l.search_ms += ms(te - ts);
            l.self_ms += spans.self_time(search) / 1e3;
            l.evals += evals.len() as u64;
            if let Ok(rec) = &r {
                l.tested += rec.report.configs_tested as u64;
                l.cache_hits += rec.report.cache_hits as u64;
                l.pruned += rec.report.pruned_by_shadow as u64;
            }
            let t_rp = Instant::now();
            let rp = spans.record("replay_search", t_rp, t_rp, None, op);
            replay(&probed[i], &evals, budgets[i], &mut spans, rp, op, &mut l);
            spans.list[rp].end_us = spans.at(Instant::now());
            let res = r.and_then(|rec| check(&mut probed[i], &rec));
            if let Err(e) = &res {
                errors.push(e.clone());
            }
            tally.record(res.is_ok());
        }
        traced_walls.push(traced_wall);
        if l.replay_mismatch > 0 {
            errors.push(format!(
                "{} replayed evaluations disagreed with the search",
                l.replay_mismatch
            ));
            tally.record(false);
        }
        sweeps.push(l);
    }
    let med = |f: &dyn Fn(&Layers) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let n = sweeps.len();
    let per = format!("per sweep, median of {n}");
    let ep = tail(&eval_samples, 90.0);
    let overhead = 100.0 * (median(&traced_walls) - median(&untraced)) / median(&untraced);
    let metrics = vec![
        Metric::new(
            "workloads.build_ms",
            median(&setups.iter().map(|s| s.build_ms).collect::<Vec<_>>()),
            "ms",
            format!("per set-up, median of {}", setups.len()),
        ),
        Metric::new("workloads.verify_ms", med(&|l| l.verify_ms), "ms", per.clone()),
        Metric::new(
            "mpconfig.tree_ms",
            median(&setups.iter().map(|s| s.tree_ms).collect::<Vec<_>>()),
            "ms",
            format!("per set-up, median of {}", setups.len()),
        ),
        Metric::new("fpvm.profile_ms", med(&|l| l.profile_ms), "ms", per.clone()),
        Metric::new("fpvm.decode_ms", med(&|l| l.decode_ms), "ms", per.clone()),
        Metric::new("fpvm.bind_ms", med(&|l| l.bind_ms), "ms", per.clone()),
        Metric::new("fpvm.exec_ms", med(&|l| l.exec_ms), "ms", per.clone()),
        Metric::new("fpvm.steps", med(&|l| l.steps as f64), "count", per.clone()),
        Metric::new(
            "fpvm.steps_per_us",
            med(&|l| ratio(l.steps as f64, l.exec_ms * 1e3)),
            "1/us",
            per.clone(),
        ),
        Metric::new("fpvm.fuel_capped", med(&|l| l.fuel_capped as f64), "count", per.clone()),
        Metric::new("instrument.rewrite_ms", med(&|l| l.rewrite_ms), "ms", per.clone()),
        Metric::new(
            "instrument.fragment_hit_ratio",
            med(&|l| ratio(l.frag_hits as f64, l.frag_lookups as f64)),
            "ratio",
            per.clone(),
        ),
        Metric::new("mpsearch.tested", med(&|l| l.tested as f64), "count", per.clone()),
        Metric::new("mpsearch.evals", med(&|l| l.evals as f64), "count", per.clone()),
        Metric::new(
            "mpsearch.cache_hit_ratio",
            med(&|l| ratio(l.cache_hits as f64, l.tested as f64)),
            "ratio",
            per.clone(),
        ),
        Metric::new(
            "mpsearch.eval_ms.p50",
            median(&eval_samples),
            "ms",
            format!("n={}", eval_samples.len()),
        ),
        Metric::new(
            "mpsearch.eval_ms.p90",
            ep.value,
            "ms",
            format!("p{:.1} of n={}", ep.pct, ep.n),
        ),
        Metric::new("mpsearch.self_ms", med(&|l| l.self_ms), "ms", per.clone()),
        Metric::new(
            "mpsearch.busy_ratio",
            med(&|l| ratio(l.eval_ms, THREADS as f64 * l.search_ms)),
            "ratio",
            per.clone(),
        ),
        Metric::new(
            "mpsearch.pruned_ratio",
            med(&|l| ratio(l.pruned as f64, l.tested as f64)),
            "ratio",
            per.clone(),
        ),
        Metric::new("mpshadow.shadow_ms", med(&|l| l.shadow_ms), "ms", per.clone()),
        Metric::new(
            "trace.overhead_pct",
            overhead,
            "%",
            format!("traced vs untraced sweep wall, medians of {n} each"),
        ),
    ];
    let (rw, dec, bind, exec, ver) = (
        med(&|l| l.rewrite_ms),
        med(&|l| l.decode_ms),
        med(&|l| l.bind_ms),
        med(&|l| l.exec_ms),
        med(&|l| l.verify_ms),
    );
    let replayed = rw + dec + bind + exec + ver;
    let notes = vec![
        format!(
            "replayed eval time {replayed:.1} ms per sweep: exec {:.1}%, rewrite+decode+bind {:.1}%, \
             verify {:.1}%",
            100.0 * exec / replayed,
            100.0 * (rw + dec + bind) / replayed,
            100.0 * ver / replayed
        ),
        format!(
            "tracing overhead: traced sweep {:.1} ms vs untraced {:.1} ms ({overhead:+.1}%)",
            1e3 * median(&traced_walls),
            1e3 * median(&untraced)
        ),
    ];
    Ok(Outcome { tally, metrics, errors, spans: Some(spans), notes })
}

/// The determinism self-check: run the suite's search set twice and
/// return the rows of each pass.
pub fn rows_twice(suite: &Suite) -> Result<[Vec<String>; 2], String> {
    let (entries, _) = setup(suite)?;
    let mut passes: [Vec<String>; 2] = Default::default();
    for pass in &mut passes {
        for e in &entries {
            let tag = if e.spec.shadow_prune { "   (shadow_prune)" } else { "" };
            pass.push(format!("{}{tag}", render_row(e, &recommend(e)?)));
        }
    }
    Ok(passes)
}
