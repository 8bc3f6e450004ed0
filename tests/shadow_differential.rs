//! Differential property test for the shadow-value engine: attaching a
//! [`mpshadow::ShadowEngine`] to the pre-decoded fast path must leave
//! the *primary* execution bit-identical — same result (including the
//! exact trap), same statistics, same registers, same memory — on
//! random programs. The observer receives copies of values only; this
//! test is the executable form of that guarantee.

use fpir::{
    f, fabs, fadd, fdiv, fmax, fmin, fmul, for_, fsqrt, fsub, i, irem, itof, ld, set, st, v,
    CompileOptions, IrProgram,
};
use fpvm::exec::ExecImage;
use fpvm::{Program, Vm, VmOptions};
use mpshadow::ShadowEngine;
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a numerically busy random program (same generator shape as
/// `tests/exec_differential.rs`): a loop applying a chain of randomly
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

/// Run `p` once unobserved and once with a `ShadowEngine` attached, and
/// assert the primary architectural state is bit-identical.
fn assert_shadow_is_invisible(p: &Program, opts: &VmOptions) {
    let image = ExecImage::compile(p, &opts.cost);

    let mut plain_vm = Vm::new(p, opts.clone());
    let plain_out = plain_vm.run_image(&image);

    let mut engine = ShadowEngine::new(p.insn_id_bound());
    let mut obs_vm = Vm::new(p, opts.clone());
    let obs_out = obs_vm.run_image_with(&image, &mut engine);

    assert_eq!(plain_out.result, obs_out.result, "result/trap diverges");
    assert_eq!(plain_out.stats.steps, obs_out.stats.steps, "steps diverge");
    assert_eq!(plain_out.stats.cycles, obs_out.stats.cycles, "cycles diverge");
    assert_eq!(plain_out.stats.fp_ops, obs_out.stats.fp_ops, "fp_ops diverge");
    assert_eq!(plain_vm.gpr, obs_vm.gpr, "gpr state diverges");
    assert_eq!(plain_vm.xmm, obs_vm.xmm, "xmm state diverges");
    let words = plain_vm.mem.len() / 8;
    assert_eq!(
        plain_vm.mem.read_u64_slice(0, words).unwrap(),
        obs_vm.mem.read_u64_slice(0, words).unwrap(),
        "memory diverges"
    );

    // The observed run must have produced a coherent profile: every
    // recorded instruction id lies inside the program's id bound.
    let profile = engine.into_profile();
    for (&id, s) in &profile.insns {
        assert!((id as usize) < p.insn_id_bound(), "stat for out-of-range insn {id}");
        assert!(s.count > 0 || s.cancels > 0, "empty stat retained for insn {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_observer_leaves_primary_state_bit_identical(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        assert_shadow_is_invisible(&p, &opts);
    }

    #[test]
    fn shadow_observer_is_invisible_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        let opts = VmOptions { fuel, ..VmOptions::default() };
        assert_shadow_is_invisible(&p, &opts);
    }
}
