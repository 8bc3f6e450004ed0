//! Executor robustness tests: end-to-end searches under deterministic
//! fault injection — transient faults must be absorbed (same final
//! configuration as the fault-free run), persistent faults must
//! quarantine, and the tracer's `exec.verdict.*` and `exec.retries`
//! counters must tell the same story as the [`SearchReport`].

use fpvm::isa::{FpAluOp, InstKind, Prec, Terminator, Xmm, RM};
use fpvm::{InsnId, Program};
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::{
    search, search_observed, Evaluator, ExecPolicy, FaultPlan, SearchHooks, SearchOptions,
    SearchReport,
};
use mptrace::Tracer;
use std::time::Duration;

/// Owns a program alongside the structure tree borrowed from it.
struct TreeBox {
    _prog: Program,
    tree: StructureTree,
}

/// A synthetic program: `n_funcs` functions of `insns_per_func` scalar
/// FP adds each (same shape as the unit tests inside `mpsearch`).
fn make_prog(n_funcs: usize, insns_per_func: usize) -> TreeBox {
    let mut p = Program::new(1 << 12);
    let m = p.add_module("m");
    for k in 0..n_funcs {
        let f = p.add_function(m, format!("f{k}"));
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        if k == 0 {
            p.entry = f;
        }
        for _ in 0..insns_per_func {
            p.push_insn(
                b,
                InstKind::FpArith {
                    op: FpAluOp::Add,
                    prec: Prec::Double,
                    packed: false,
                    dst: Xmm(0),
                    src: RM::Reg(Xmm(1)),
                },
            );
        }
        p.block_mut(b).term = Terminator::Ret;
    }
    let tree = StructureTree::build(&p);
    TreeBox { _prog: p, tree }
}

/// Passes iff no "sensitive" instruction is replaced.
struct SetEval {
    tb: TreeBox,
    sensitive: Vec<InsnId>,
}

impl Evaluator for SetEval {
    fn evaluate(&self, cfg: &Config) -> bool {
        !self.sensitive.iter().any(|&i| cfg.effective(&self.tb.tree, i) == Flag::Single)
    }
}

fn serial_opts() -> SearchOptions {
    SearchOptions {
        threads: 1,
        prioritize: false,
        exec: ExecPolicy { backoff: Duration::ZERO, ..Default::default() },
        ..Default::default()
    }
}

fn replaced(report: &SearchReport, tree: &StructureTree) -> Vec<u32> {
    let mut v: Vec<u32> =
        report.final_config.replaced_insns(tree).into_iter().map(|i| i.0).collect();
    v.sort_unstable();
    v
}

/// Assert that the tracer's executor counters equal the report's.
fn assert_counters_match(tracer: &Tracer, report: &SearchReport) {
    let snap = tracer.snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as usize;
    assert_eq!(counter("exec.verdict.crashed"), report.crashes);
    assert_eq!(counter("exec.verdict.timeout"), report.timeouts);
    assert_eq!(counter("exec.verdict.quarantined"), report.quarantined);
    assert_eq!(counter("exec.retries"), report.retries);
}

#[test]
fn transient_injected_faults_do_not_change_the_outcome() {
    let tb = make_prog(3, 4);
    let sensitive = vec![tb.tree.all_insns()[5]];
    let mk = || SetEval { tb: make_prog(3, 4), sensitive: sensitive.clone() };

    let clean = search(&tb.tree, &Config::new(), None, &mk(), &serial_opts());
    assert_eq!(clean.crashes, 0);
    assert_eq!(clean.timeouts, 0);

    // One forced panic and one simulated timeout, at fixed evaluation
    // indices. Both are transient (the fault fires once per index), so
    // the retry absorbs them.
    let tracer = Tracer::new();
    let hooks = SearchHooks {
        faults: FaultPlan { panic_at: vec![1], timeout_at: vec![3], ..Default::default() },
        tracer: Some(&tracer),
        ..Default::default()
    };
    let faulted = search_observed(&tb.tree, &Config::new(), None, &mk(), &serial_opts(), &hooks);

    assert_eq!(faulted.crashes, 1, "injected panic must be classified Crashed");
    assert_eq!(faulted.timeouts, 1, "injected timeout must be classified Timeout");
    assert_eq!(faulted.retries, 2, "each transient fault retries once");
    assert_eq!(faulted.quarantined, 0);
    assert_eq!(replaced(&faulted, &tb.tree), replaced(&clean, &tb.tree));
    assert_eq!(faulted.final_pass, clean.final_pass);
    assert_eq!(faulted.failed_insns, clean.failed_insns);
    assert_eq!(faulted.static_pct, clean.static_pct);

    // The telemetry tells the same story.
    assert_counters_match(&tracer, &faulted);
}

#[test]
fn repeatedly_wedging_config_is_quarantined() {
    let tb = make_prog(2, 4);
    let sensitive = vec![tb.tree.all_insns()[6]];
    let eval = SetEval { tb: make_prog(2, 4), sensitive };

    // Serial order: idx 0 tests the module (fails: contains the
    // sensitive insn), then idx 1..=3 are the three attempts of the
    // first function — all forced to panic, exhausting the retries.
    let tracer = Tracer::new();
    let hooks = SearchHooks {
        faults: FaultPlan { panic_at: vec![1, 2, 3], ..Default::default() },
        tracer: Some(&tracer),
        ..Default::default()
    };
    let report = search_observed(&tb.tree, &Config::new(), None, &eval, &serial_opts(), &hooks);

    assert_eq!(report.crashes, 3);
    // Quarantined once for the wedged function, and once more when its
    // (structurally distinct but effectively identical) single block is
    // re-encountered and short-circuited against the quarantine set.
    assert_eq!(report.quarantined, 2, "a config wedged on every attempt must quarantine");
    // The search still completes and still isolates the sensitive insn:
    // the quarantined aggregate folds into "failed" and is expanded.
    assert!(report.final_pass);
    assert_eq!(report.failed_insns, 1);

    assert_counters_match(&tracer, &report);
}

#[test]
fn natural_timeouts_are_not_retried_by_default() {
    // An injected fuel starvation produces a *real* FuelExhausted trap in
    // the VM; it is marked injected, so it retries and recovers. Natural
    // divergence (not injected) must not retry.
    use fpir::{f, fadd, for_, i, ld, set, st, v, CompileOptions, IrProgram};
    use fpvm::{Vm, VmOptions};
    use mpsearch::VmEvaluator;

    let mut ir = IrProgram::new("tiny");
    let xs = ir.array_f64_init("xs", (0..32).map(|k| k as f64).collect());
    let out = ir.array_f64("out", 1);
    let main = ir.func("main", &[], None, |ir, fr, _| {
        let a = ir.local_f(fr);
        let k = ir.local_i(fr);
        vec![
            set(a, f(0.0)),
            for_(k, i(0), i(32), vec![set(a, fadd(v(a), ld(xs, v(k))))]),
            st(out, i(0), v(a)),
        ]
    });
    ir.set_entry(main);
    let prog = fpir::compile(&ir, &CompileOptions::default());
    let tree = StructureTree::build(&prog);

    let mut vm = Vm::new(&prog, VmOptions::default());
    assert!(vm.run().ok());
    let sym = prog.symbol("out").unwrap();
    let want = vm.mem.read_f64_slice(sym, 1).unwrap()[0];

    let mk = || {
        VmEvaluator::new(&prog, &tree, move |vm: &Vm<'_>| {
            (vm.mem.read_f64_slice(sym, 1).unwrap()[0] - want).abs() < 1e-6
        })
    };

    let clean = search(&tree, &Config::new(), None, &mk(), &serial_opts());

    let eval = mk();
    let hooks = SearchHooks {
        faults: FaultPlan { fuel_starve_at: vec![0], ..Default::default() },
        ..Default::default()
    };
    let starved = search_observed(&tree, &Config::new(), None, &eval, &serial_opts(), &hooks);
    assert_eq!(starved.timeouts, 1, "starved run must classify as Timeout");
    assert!(starved.retries >= 1, "injected starvation is transient: must retry");
    assert_eq!(replaced(&starved, &tree), replaced(&clean, &tree));
    assert_eq!(starved.final_pass, clean.final_pass);
}
