//! Differential property test for the interpreter's const-gated step
//! hook: attaching an [`mptrace::profiler::InsnProfiler`] via
//! `run_image_with` must leave the primary execution bit-identical —
//! same result (including the exact trap), same statistics, same
//! registers, same memory — on random programs, and the profiler's
//! cycle/hit attribution must reconcile exactly with the run's
//! aggregate statistics. This is the executable form of the mptrace
//! overhead contract: the profiled loop only *reads* state the
//! interpreter already computed, and the unprofiled loop (exercised by
//! every other test in the suite via `run_image`) monomorphizes the
//! hook away entirely. The compiled backend's threaded tier, which
//! traced searches run (`run_compiled_with`), must attribute exactly the
//! same per-instruction profile.

use fpir::{
    f, fabs, fadd, fdiv, fmax, fmin, fmul, for_, fsqrt, fsub, i, irem, itof, ld, set, st, v,
    CompileOptions, IrProgram,
};
use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, InsnId, Observer, Program, Vm, VmOptions};
use mptrace::profiler::InsnProfiler;
use proptest::collection::vec;
use proptest::prelude::*;

/// A step observer that counts *every* dispatched op, including the
/// synthetic ones (id `u32::MAX`) the `InsnProfiler` deliberately drops,
/// so the profiler's attribution can be reconciled exactly.
#[derive(Default)]
struct CountAll {
    steps: u64,
    cycles: u64,
    in_range_hits: u64,
    in_range_cycles: u64,
    bound: u32,
}

impl Observer for CountAll {
    const STEPS: bool = true;
    fn step(&mut self, insn: InsnId, cost: u64) {
        self.steps += 1;
        self.cycles += cost;
        if insn.0 < self.bound {
            self.in_range_hits += 1;
            self.in_range_cycles += cost;
        }
    }
}

/// Build a numerically busy random program (same generator shape as
/// `tests/shadow_differential.rs`): a loop applying a chain of randomly
/// chosen FP ops to an accumulator and elements of a random input array.
fn build_program(vals: &[f64], ops: &[u8], iters: i64) -> Program {
    let mut ir = IrProgram::new("rand");
    let n = vals.len() as i64;
    let xs = ir.array_f64_init("xs", vals.to_vec());
    let out = ir.array_f64("out", 2);
    let ops = ops.to_vec();
    let main = ir.func("main", &[], None, move |ir, fr, _| {
        let s = ir.local_f(fr);
        let t = ir.local_f(fr);
        let k = ir.local_i(fr);
        let mut body = vec![set(t, ld(xs, irem(v(k), i(n))))];
        for (j, &op) in ops.iter().enumerate() {
            let e = match op % 8 {
                0 => fadd(v(s), v(t)),
                1 => fsub(v(s), v(t)),
                2 => fmul(v(s), v(t)),
                3 => fdiv(v(s), v(t)),
                4 => fmin(v(s), v(t)),
                5 => fmax(v(s), fmul(v(t), itof(v(k)))),
                6 => fsqrt(fabs(v(s))),
                _ => fadd(fmul(v(s), f(0.5)), fdiv(v(t), f(1.0 + j as f64))),
            };
            body.push(set(s, e));
        }
        vec![
            set(s, f(1.0)),
            set(t, f(0.0)),
            for_(k, i(0), i(iters), body),
            st(out, i(0), v(s)),
            st(out, i(1), v(t)),
        ]
    });
    ir.set_entry(main);
    fpir::compile(&ir, &CompileOptions::default())
}

/// Run `p` once unprofiled and once with an `InsnProfiler` attached, and
/// assert the primary architectural state is bit-identical while the
/// profiler reconciles with the run's aggregate statistics.
fn assert_profiler_is_invisible(p: &Program, opts: &VmOptions) {
    let image = ExecImage::compile(p, &opts.cost);

    let mut plain_vm = Vm::new(p, opts.clone());
    let plain_out = plain_vm.run_image(&image);

    let mut prof = InsnProfiler::new(p.insn_id_bound());
    let mut prof_vm = Vm::new(p, opts.clone());
    let prof_out = prof_vm.run_image_with(&image, &mut prof);

    assert_eq!(plain_out.result, prof_out.result, "result/trap diverges");
    assert_eq!(plain_out.stats.steps, prof_out.stats.steps, "steps diverge");
    assert_eq!(plain_out.stats.cycles, prof_out.stats.cycles, "cycles diverge");
    assert_eq!(plain_out.stats.fp_ops, prof_out.stats.fp_ops, "fp_ops diverge");
    assert_eq!(plain_vm.gpr, prof_vm.gpr, "gpr state diverges");
    assert_eq!(plain_vm.xmm, prof_vm.xmm, "xmm state diverges");
    let words = plain_vm.mem.len() / 8;
    assert_eq!(
        plain_vm.mem.read_u64_slice(0, words).unwrap(),
        prof_vm.mem.read_u64_slice(0, words).unwrap(),
        "memory diverges"
    );

    // The hook fires exactly once per dispatched op with that op's
    // modelled cost, so a count-everything observer must reproduce the
    // aggregate statistics exactly, and the profiler's attribution must
    // match the in-range portion of the dispatch stream.
    let mut all = CountAll { bound: p.insn_id_bound() as u32, ..CountAll::default() };
    let mut count_vm = Vm::new(p, opts.clone());
    let count_out = count_vm.run_image_with(&image, &mut all);
    assert_eq!(count_out.result, plain_out.result);
    assert_eq!(all.steps, count_out.stats.steps, "hook must fire once per retired step");
    assert_eq!(all.cycles, count_out.stats.cycles, "hook must see every modelled cycle");

    assert_eq!(prof.total_hits(), all.in_range_hits, "profiler hits != in-range dispatches");
    assert_eq!(prof.total_cycles(), all.in_range_cycles, "profiler cycles != in-range cost");
    for (id, s) in prof.iter() {
        assert!(s.hits > 0, "insn {id}: cycles attributed without a hit");
    }

    let mut thr_prof = InsnProfiler::new(p.insn_id_bound());
    let mut thr_vm = Vm::new(p, opts.clone());
    let thr_out = thr_vm.run_compiled_with(&CompiledImage::from_image(&image), &mut thr_prof);
    assert_eq!(thr_out.result, plain_out.result, "threaded: result/trap diverges");
    assert_eq!(thr_out.stats.steps, plain_out.stats.steps, "threaded: steps diverge");
    assert!(thr_prof.iter().eq(prof.iter()), "threaded tier attributes a different profile");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_profiler_leaves_primary_state_bit_identical(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        assert_profiler_is_invisible(&p, &opts);
    }

    #[test]
    fn step_profiler_is_invisible_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        let opts = VmOptions { fuel, ..VmOptions::default() };
        assert_profiler_is_invisible(&p, &opts);
    }
}
