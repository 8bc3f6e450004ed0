//! Deterministic cross-run comparison with regression attribution.
//!
//! [`compare`] diffs two [`TraceSnapshot`]s (plus their optional
//! [`RunManifest`]s): counters, histogram quantiles, and per-insn model
//! cycles. Per-insn deltas are folded **up the structure tree** — the
//! same module → function → block → insn hierarchy the search
//! configures — by parsing each hot insn's structural label
//! (`module/func/b{block}@{addr}: {disasm}`), so a slowdown surfaces in
//! source terms: `function ep/vranlc: +1200 cycles (+12.0%), 3 insns
//! affected`. Output is byte-deterministic for fixed inputs; comparing
//! a run against itself yields zero deltas and no regressions.

use crate::registry::RunManifest;
use crate::snapshot::{HistStat, TraceSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Thresholds controlling what counts as a regression.
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Flag a counter increase above this percentage.
    pub counter_pct: f64,
    /// Flag a function-level cycle increase above this percentage.
    pub cycles_pct: f64,
    /// Flag a histogram quantile increase above this percentage. Log2
    /// buckets quantize quantiles to powers of two, so one bucket step
    /// is a 2x move; the default only fires on a real step.
    pub quantile_pct: f64,
    /// Ignore function-level cycle deltas smaller than this (noise
    /// floor).
    pub min_cycles: u64,
    /// How many top attributions to print.
    pub top: usize,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            counter_pct: 10.0,
            cycles_pct: 10.0,
            quantile_pct: 25.0,
            min_cycles: 1000,
            top: 10,
        }
    }
}

/// The result of a comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Human-readable report, deterministic for fixed inputs.
    pub text: String,
    /// One line per regression crossing its threshold; empty means the
    /// newer run is no worse.
    pub regressions: Vec<String>,
}

/// Upper bound of log2 bucket `k` (see [`crate::snapshot::HistStat`]).
fn bucket_upper(k: u32) -> u64 {
    match k {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// Quantile `q` in `[0,1]` of a log2-bucketed histogram: the upper
/// bound of the first bucket whose cumulative count reaches `q·count`.
pub fn hist_quantile(h: &HistStat, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let need = (q * h.count as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(b, c) in &h.buckets {
        cum += c;
        if cum >= need {
            return bucket_upper(b);
        }
    }
    h.buckets.last().map(|&(b, _)| bucket_upper(b)).unwrap_or(0)
}

/// Signed percent change from `a` to `b` (`None` when `a` is zero).
fn pct(a: f64, b: f64) -> Option<f64> {
    (a != 0.0).then(|| (b - a) / a * 100.0)
}

fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{p:+.1}%"),
        None => "new".into(),
    }
}

/// The `module/func` prefix of a structural insn label
/// (`module/func/b{block}@{addr}: {disasm}`); unlabeled or foreign
/// labels fold into `"(unattributed)"`.
fn label_function(label: &str) -> String {
    let path = label.split('@').next().unwrap_or("");
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some(m), Some(f)) if !m.is_empty() && !f.is_empty() => format!("{m}/{f}"),
        _ => "(unattributed)".into(),
    }
}

struct FuncDelta {
    cycles_a: u64,
    cycles_b: u64,
    insns_changed: usize,
}

/// Compare run `a` (baseline) against run `b` (candidate).
///
/// `label_a` / `label_b` name the runs in the report (directory paths,
/// run ids). Manifests, when available, contribute an identity header
/// and a wall-time line. Regressions are *increases in `b`* beyond the
/// thresholds in `opts`.
pub fn compare(
    a: &TraceSnapshot,
    b: &TraceSnapshot,
    label_a: &str,
    label_b: &str,
    ma: Option<&RunManifest>,
    mb: Option<&RunManifest>,
    opts: &CompareOptions,
) -> CompareReport {
    let mut out = String::with_capacity(2048);
    let mut regressions = Vec::new();
    let _ = writeln!(out, "compare: A = {label_a}");
    let _ = writeln!(out, "         B = {label_b}");

    if let (Some(ma), Some(mb)) = (ma, mb) {
        let _ = writeln!(out, "\n== identity ==");
        let eq = |x: &str, y: &str| if x == y { "same".to_string() } else { format!("{x} -> {y}") };
        let _ = writeln!(out, "  bench:       {}", eq(&ma.bench, &mb.bench));
        let _ = writeln!(out, "  class:       {}", eq(&ma.class, &mb.class));
        let _ = writeln!(out, "  config hash: {}", eq(&ma.config_hash, &mb.config_hash));
        let _ = writeln!(
            out,
            "  tol:         {}",
            eq(&format!("{:e}", ma.tol), &format!("{:e}", mb.tol))
        );
        let _ = writeln!(
            out,
            "  threads:     {}",
            eq(&ma.threads.to_string(), &mb.threads.to_string())
        );
        if !ma.git.is_empty() || !mb.git.is_empty() {
            let _ = writeln!(out, "  git:         {}", eq(&ma.git, &mb.git));
        }
        let _ = writeln!(
            out,
            "  wall:        {:.3}s -> {:.3}s ({})",
            ma.wall_us as f64 / 1e6,
            mb.wall_us as f64 / 1e6,
            fmt_pct(pct(ma.wall_us as f64, mb.wall_us as f64))
        );
    }

    // -- counters ----------------------------------------------------
    let mut counter_rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for k in keys {
        let va = a.counters.get(k).copied().unwrap_or(0);
        let vb = b.counters.get(k).copied().unwrap_or(0);
        if va == vb {
            continue;
        }
        let p = pct(va as f64, vb as f64);
        counter_rows.push((k.clone(), va, vb, p));
        if vb > va && p.is_none_or(|p| p > opts.counter_pct) {
            regressions.push(format!("counter {k}: {va} -> {vb} ({})", fmt_pct(p)));
        }
    }
    let _ = writeln!(out, "\n== counters ({} changed) ==", counter_rows.len());
    for (k, va, vb, p) in &counter_rows {
        let _ = writeln!(out, "  {k}: {va} -> {vb} ({})", fmt_pct(*p));
    }

    // -- histogram quantiles ----------------------------------------
    let hist_keys: std::collections::BTreeSet<&String> =
        a.hists.keys().chain(b.hists.keys()).collect();
    let mut hist_lines = 0usize;
    let mut hist_out = String::new();
    for k in hist_keys {
        let empty = HistStat { count: 0, sum: 0, buckets: Vec::new() };
        let ha = a.hists.get(k).unwrap_or(&empty);
        let hb = b.hists.get(k).unwrap_or(&empty);
        let qs: Vec<(&str, u64, u64)> = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)]
            .iter()
            .map(|&(n, q)| (n, hist_quantile(ha, q), hist_quantile(hb, q)))
            .collect();
        if qs.iter().all(|&(_, x, y)| x == y) && ha.count == hb.count {
            continue;
        }
        hist_lines += 1;
        let _ = write!(hist_out, "  {k}: count {} -> {}", ha.count, hb.count);
        for &(n, x, y) in &qs {
            let _ = write!(hist_out, ", {n} {x} -> {y}");
            if y > x {
                let p = pct(x as f64, y as f64);
                if p.is_none_or(|p| p > opts.quantile_pct) {
                    regressions.push(format!("hist {k} {n}: {x} -> {y} ({})", fmt_pct(p)));
                }
            }
        }
        hist_out.push('\n');
    }
    let _ = writeln!(out, "\n== histogram quantiles ({hist_lines} changed) ==");
    out.push_str(&hist_out);

    // -- per-insn cycles, folded up the structure tree ---------------
    let hot_a: BTreeMap<u32, (u64, &str)> =
        a.hot.iter().map(|h| (h.insn, (h.cycles, h.label.as_str()))).collect();
    let hot_b: BTreeMap<u32, (u64, &str)> =
        b.hot.iter().map(|h| (h.insn, (h.cycles, h.label.as_str()))).collect();
    let mut funcs: BTreeMap<String, FuncDelta> = BTreeMap::new();
    let insn_ids: std::collections::BTreeSet<u32> =
        hot_a.keys().chain(hot_b.keys()).copied().collect();
    for id in insn_ids {
        let (ca, la) = hot_a.get(&id).copied().unwrap_or((0, ""));
        let (cb, lb) = hot_b.get(&id).copied().unwrap_or((0, ""));
        let f = funcs
            .entry(label_function(if lb.is_empty() { la } else { lb }))
            .or_insert(FuncDelta { cycles_a: 0, cycles_b: 0, insns_changed: 0 });
        f.cycles_a += ca;
        f.cycles_b += cb;
        if ca != cb {
            f.insns_changed += 1;
        }
    }
    let mut rows: Vec<(String, FuncDelta)> =
        funcs.into_iter().filter(|(_, f)| f.cycles_a != f.cycles_b).collect();
    // Deterministic: largest absolute delta first, then name.
    rows.sort_by(|(na, fa), (nb, fb)| {
        let da = fa.cycles_b.abs_diff(fa.cycles_a);
        let db = fb.cycles_b.abs_diff(fb.cycles_a);
        db.cmp(&da).then_with(|| na.cmp(nb))
    });
    let _ = writeln!(out, "\n== cycle attribution ({} functions changed) ==", rows.len());
    for (name, f) in rows.iter().take(opts.top) {
        let delta = f.cycles_b as i128 - f.cycles_a as i128;
        let p = pct(f.cycles_a as f64, f.cycles_b as f64);
        let _ = writeln!(
            out,
            "  function {name}: {delta:+} cycles ({}), {} insn(s) affected",
            fmt_pct(p),
            f.insns_changed
        );
        if delta > 0 && delta as u64 >= opts.min_cycles && p.is_none_or(|p| p > opts.cycles_pct) {
            regressions.push(format!(
                "function {name}: {delta:+} cycles ({}), {} insn(s) affected",
                fmt_pct(p),
                f.insns_changed
            ));
        }
    }
    if rows.len() > opts.top {
        let _ = writeln!(out, "  ... and {} more", rows.len() - opts.top);
    }

    let _ = writeln!(out, "\n== verdict ==");
    if regressions.is_empty() {
        let _ = writeln!(out, "  no regressions (B is no worse than A at current thresholds)");
    } else {
        let _ = writeln!(out, "  {} regression(s):", regressions.len());
        for r in &regressions {
            let _ = writeln!(out, "  REGRESSION {r}");
        }
    }
    CompareReport { text: out, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HotInsn;

    fn base() -> TraceSnapshot {
        let mut s = TraceSnapshot::default();
        s.counters.insert("eval.runs".into(), 100);
        s.counters.insert("exec.verdict.pass".into(), 60);
        s.hists.insert(
            "eval.run_us".into(),
            HistStat { count: 10, sum: 1000, buckets: vec![(6, 8), (7, 2)] },
        );
        for (id, cycles, label) in [
            (1u32, 5000u64, "ep/vranlc/b0@0x10: mulsd f0, f1"),
            (2, 3000, "ep/vranlc/b0@0x18: addsd f0, f2"),
            (3, 8000, "ep/main/b2@0x40: divsd f3, f4"),
        ] {
            s.hot.push(HotInsn { insn: id, cycles, hits: cycles / 10, label: label.into() });
        }
        s
    }

    #[test]
    fn self_compare_is_clean_and_deterministic() {
        let s = base();
        let m = RunManifest { bench: "ep".into(), wall_us: 1, ..Default::default() };
        let r1 = compare(&s, &s, "x", "x", Some(&m), Some(&m), &CompareOptions::default());
        let r2 = compare(&s, &s, "x", "x", Some(&m), Some(&m), &CompareOptions::default());
        assert!(r1.regressions.is_empty(), "{:?}", r1.regressions);
        assert_eq!(r1.text, r2.text, "output must be byte-identical");
        assert!(r1.text.contains("no regressions"));
        assert!(r1.text.contains("counters (0 changed)"));
    }

    #[test]
    fn injected_insn_delta_attributed_to_its_function() {
        let a = base();
        let mut b = base();
        // Slow down both vranlc insns; leave main alone.
        b.hot[0].cycles += 900;
        b.hot[1].cycles += 600;
        let r = compare(&a, &b, "a", "b", None, None, &CompareOptions::default());
        assert!(
            r.text.contains("function ep/vranlc: +1500 cycles (+18.8%), 2 insn(s) affected"),
            "{}",
            r.text
        );
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("ep/vranlc"));
        assert!(!r.regressions.iter().any(|x| x.contains("ep/main")));
        // The reverse comparison is an improvement, not a regression.
        let r = compare(&b, &a, "b", "a", None, None, &CompareOptions::default());
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
        assert!(r.text.contains("function ep/vranlc: -1500 cycles"));
    }

    #[test]
    fn counter_and_quantile_regressions_respect_thresholds() {
        let a = base();
        let mut b = base();
        *b.counters.get_mut("eval.runs").unwrap() = 125; // +25%
        b.counters.insert("exec.retries".into(), 5); // new counter
        b.hists.insert(
            "eval.run_us".into(),
            HistStat { count: 10, sum: 4000, buckets: vec![(6, 2), (9, 8)] },
        );
        let r = compare(&a, &b, "a", "b", None, None, &CompareOptions::default());
        assert!(
            r.regressions.iter().any(|x| x.contains("counter eval.runs")),
            "{:?}",
            r.regressions
        );
        assert!(r.regressions.iter().any(|x| x.contains("exec.retries")));
        assert!(r.regressions.iter().any(|x| x.starts_with("hist eval.run_us")));
        // Raise thresholds: the +25% counter no longer fires.
        let lax = CompareOptions { counter_pct: 50.0, ..CompareOptions::default() };
        let r = compare(&a, &b, "a", "b", None, None, &lax);
        assert!(!r.regressions.iter().any(|x| x.contains("counter eval.runs")));
    }

    #[test]
    fn unlabeled_insns_fold_into_unattributed() {
        let mut a = TraceSnapshot::default();
        a.hot.push(HotInsn { insn: 1, cycles: 10, hits: 1, label: String::new() });
        let mut b = a.clone();
        b.hot[0].cycles = 5000;
        let r = compare(&a, &b, "a", "b", None, None, &CompareOptions::default());
        assert!(r.text.contains("function (unattributed): +4990 cycles"), "{}", r.text);
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        let h = HistStat { count: 10, sum: 0, buckets: vec![(0, 5), (4, 4), (10, 1)] };
        assert_eq!(hist_quantile(&h, 0.50), 0);
        assert_eq!(hist_quantile(&h, 0.90), 15);
        assert_eq!(hist_quantile(&h, 0.99), 1023);
        assert_eq!(hist_quantile(&HistStat { count: 0, sum: 0, buckets: vec![] }, 0.5), 0);
    }
}
