//! Differential property tests for the numerical-health hooks of
//! `fpvm::exec::Observer` (`NUM_HEALTH`).
//!
//! Two claims are proven here:
//!
//! - *arming changes nothing*: a run with a live observer attached
//!   (`Vm::run_image_with` + `mptrace::NumProfiler`) is
//!   bit-identical — result, trap, stats, registers, memory, profile —
//!   to the unarmed run on **every** engine (reference interpreter,
//!   fast image, compiled fused, compiled threaded). This is what makes
//!   the "value hooks run on the fast path" rule in `fpvm::compiled`
//!   sound: whichever tier the unarmed run would have used, the armed
//!   one reproduces its outcome exactly;
//! - *the hooks actually fire*: on programs built to misbehave, the
//!   profiler records the expected NaN/saturation/flush events, so the
//!   zero-cost gate cannot silently compile the instrumentation out of
//!   the armed path too.
//!
//! The unarmed-hook-monomorphizes-away half of the contract (the `()`
//! observer) is covered by `run_image` itself being the
//! reference point here, plus the `{ep,cg}.orig.numhealth` rows of
//! `benches/interp_throughput.rs` staying within noise of the plain
//! rows.

use fpir::{
    f, fabs, fadd, fdiv, fmax, fmin, fmul, for_, fsqrt, fsub, i, irem, itof, ld, set, st, v,
    CompileOptions, IrProgram,
};
use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, Program, Vm, VmOptions};
use instrument::{rewrite, RewriteOptions};
use mpconfig::{Config, Flag, StructureTree};
use mptrace::numprof::NumProfiler;
use proptest::collection::vec;
use proptest::prelude::*;

/// A numerically busy random program: a loop applying a chain of
/// randomly chosen FP ops to an accumulator and a random input array
/// (same shape as `exec_differential.rs`).
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

/// Run `p` armed (observed fast path + live profiler) and unarmed on
/// every engine, and assert the armed run is bit-identical to each:
/// result (including the exact trap), statistics, registers, memory,
/// and profile. Returns the profiler for hook-liveness assertions.
fn assert_armed_is_bit_identical(p: &Program, opts: &VmOptions) -> NumProfiler {
    let image = ExecImage::compile(p, &opts.cost);
    let cimg = CompiledImage::from_image(&image);

    let mut prof = NumProfiler::new(p.insn_id_bound());
    let mut armed_vm = Vm::new(p, opts.clone());
    let armed_out = armed_vm.run_image_with(&image, &mut prof);

    let mut ref_vm = Vm::new(p, opts.clone());
    let ref_out = ref_vm.run();
    let mut fast_vm = Vm::new(p, opts.clone());
    let fast_out = fast_vm.run_image(&image);
    let mut comp_vm = Vm::new(p, opts.clone());
    let comp_out = comp_vm.run_compiled(&cimg);
    let mut thr_vm = Vm::new(p, opts.clone());
    let thr_out = thr_vm.run_compiled_with(&cimg, &mut ());

    let engines = [
        ("interp", &ref_vm, &ref_out),
        ("fast", &fast_vm, &fast_out),
        ("compiled", &comp_vm, &comp_out),
        ("threaded", &thr_vm, &thr_out),
    ];
    for (name, vm, out) in engines {
        assert_eq!(armed_out.result, out.result, "{name}: result/trap diverges from armed run");
        assert_eq!(armed_out.stats.steps, out.stats.steps, "{name}: steps diverge");
        assert_eq!(armed_out.stats.cycles, out.stats.cycles, "{name}: cycles diverge");
        assert_eq!(armed_out.stats.fp_ops, out.stats.fp_ops, "{name}: fp_ops diverge");
        assert_eq!(armed_vm.gpr, vm.gpr, "{name}: gpr state diverges");
        assert_eq!(armed_vm.xmm, vm.xmm, "{name}: xmm state diverges");
        let words = armed_vm.mem.len() / 8;
        assert_eq!(
            armed_vm.mem.read_u64_slice(0, words).unwrap(),
            vm.mem.read_u64_slice(0, words).unwrap(),
            "{name}: memory diverges"
        );
        match (&armed_out.profile, &out.profile) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                for id in 0..p.insn_id_bound() {
                    let id = fpvm::InsnId(id as u32);
                    assert_eq!(a.count(id), b.count(id), "{name}: profile diverges at {id:?}");
                }
            }
            _ => panic!("{name}: one engine produced a profile, the other did not"),
        }
    }
    prof
}

/// Rewrite `p` so every candidate carries `flag`, then run the armed
/// differential on the instrumented program.
fn instrumented(p: &Program, flag: Flag) -> Program {
    let tree = StructureTree::build(p);
    let mut cfg = Config::new();
    for id in tree.all_insns() {
        cfg.set_insn(id, flag);
    }
    let (q, _) = rewrite(p, &tree, &cfg, &RewriteOptions::default());
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn armed_run_is_bit_identical_on_random_programs(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        let prof = assert_armed_is_bit_identical(&p, &opts);
        let total: u64 = prof.iter().map(|(_, e)| e.total).sum();
        prop_assert!(total > 0, "observer saw no scalar FP results");
    }

    #[test]
    fn armed_run_is_bit_identical_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        let opts = VmOptions { fuel, ..VmOptions::default() };
        assert_armed_is_bit_identical(&p, &opts);
    }

    #[test]
    fn armed_run_is_bit_identical_on_instrumented_programs(
        vals in vec(-4.0f64..4.0, 1..6),
        ops in vec(0u8..255, 1..8),
        iters in 1i64..20,
        which in 0u8..4,
    ) {
        let p = build_program(&vals, &ops, iters);
        // Uniform reduced-format configs drive the FpTrunc quantize
        // hook; half/bf16/custom cover both named fast paths and the
        // generic one.
        let flag = match which {
            0 => Flag::Single,
            1 => Flag::Half,
            2 => Flag::Bf16,
            _ => Flag::Custom { mantissa_bits: 3, exp_bits: 4 },
        };
        let q = instrumented(&p, flag);
        let prof = assert_armed_is_bit_identical(&q, &VmOptions::default());
        if which != 0 {
            let quantizes: u64 = prof.iter_quant().map(|(_, _, e)| e.total).sum();
            prop_assert!(quantizes > 0, "reduced-format run recorded no quantizes");
        }
    }
}

/// A deterministic misbehaving program: huge and tiny magnitudes plus a
/// NaN-producing `0/0`-shaped chain, rewritten to half — so saturation,
/// flush-to-zero, and NaN production all provably reach the profiler.
#[test]
fn hooks_observe_saturation_flush_and_nan_at_half() {
    let mut ir = IrProgram::new("sick");
    let xs = ir.array_f64_init("xs", vec![3.0e6, 1.0e-7, 0.0]);
    let out = ir.array_f64("out", 3);
    let main = ir.func("main", &[], None, move |ir, fr, _| {
        let a = ir.local_f(fr);
        let b = ir.local_f(fr);
        vec![
            // 3e6 * 1 saturates half (max ~65504) after quantization.
            set(a, fmul(ld(xs, i(0)), f(1.0))),
            st(out, i(0), v(a)),
            // 1e-7 * 1e-7 is far below half's smallest subnormal: flush.
            set(b, fmul(ld(xs, i(1)), ld(xs, i(1)))),
            st(out, i(1), v(b)),
            // inf - inf: a NaN produced from non-NaN operands.
            set(a, fsub(fdiv(f(1.0), ld(xs, i(2))), fdiv(f(2.0), ld(xs, i(2))))),
            st(out, i(2), v(a)),
        ]
    });
    ir.set_entry(main);
    let p = fpir::compile(&ir, &CompileOptions::default());
    let q = instrumented(&p, Flag::Half);
    let prof = assert_armed_is_bit_identical(&q, &VmOptions::default());

    let mut sat = 0;
    let mut flush = 0;
    for (_, fmt, e) in prof.iter_quant() {
        assert_eq!(fmt, mpfmt::Format::Half, "only half quantizes expected");
        sat += e.sat;
        flush += e.flush;
    }
    let nan: u64 = prof.iter().map(|(_, e)| e.nan).sum();
    assert!(sat > 0, "no saturation observed: {prof:?}");
    assert!(flush > 0, "no flush-to-zero observed: {prof:?}");
    assert!(nan > 0, "no NaN production observed: {prof:?}");
}
