//! The benchmark's own logic, kept free of the system under test so it
//! can be unit-tested: percentiles, span self time, expected Fig. 10
//! rows, the failure tally and the seeded order of operations.

use std::time::Instant;

/// A timing percentile together with the percentile actually read and
/// the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile estimated, after the tail rule lowered it.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The median of `xs` (mean of the middle pair for even counts), or 0
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile rule. The percentile read is `want`, lowered to
/// the highest percentile that still has at least [`TAIL_SAMPLES`]
/// samples beyond it, and never below the median; `pct` says which.
///
/// The value is the Harrell–Davis estimate of that percentile: a
/// Beta-weighted mean of the order statistics around it. Latencies here
/// form one cluster per kernel (and per 50 ms poll of a live stream), and
/// a single order statistic jumps from one cluster to the next when the
/// percentile falls near their border; the weighted estimate moves
/// smoothly instead.
pub fn tail(xs: &[f64], want: f64) -> Pctl {
    let n = xs.len();
    if n == 0 {
        return Pctl { value: 0.0, pct: 0.0, n };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let most = n.saturating_sub(TAIL_SAMPLES) as f64 / n as f64;
    let p = (want / 100.0).min(most).max(0.5);
    Pctl { value: harrell_davis(&v, p), pct: 100.0 * p, n }
}

/// Harrell–Davis estimate of quantile `p` of the sorted samples `v`.
fn harrell_davis(v: &[f64], p: f64) -> f64 {
    let n = v.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cur = inc_beta(a, b, (i + 1) as f64 / n);
        sum += (cur - prev) * x;
        prev = cur;
    }
    sum
}

/// The regularized incomplete beta function `I_x(a, b)`, by its
/// continued fraction (modified Lentz).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let s = G[1..].iter().enumerate().fold(G[0], |s, (i, g)| s + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// Total length covered by a set of `(start, end)` intervals, counting
/// overlapping parts once.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One recorded span: a named interval, the span that caused it and the
/// search or job it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span times (`eval`, `rewrite`, `search`, ...).
    pub name: String,
    /// Start, microseconds since the pass began.
    pub start_us: f64,
    /// End, microseconds since the pass began.
    pub end_us: f64,
    /// Index of the parent span in the same [`Spans`] list.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one search or job.
    pub op: u64,
}

/// Spans kept in memory for the traced pass and written when it ends.
#[derive(Debug)]
pub struct Spans {
    /// Every span, in the order recorded.
    pub list: Vec<Span>,
    origin: Instant,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { list: Vec::new(), origin: Instant::now() }
    }
}

impl Spans {
    /// Microseconds from the start of the pass to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span between two instants and return its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.push(name, self.at(start), self.at(end), parent, op)
    }

    /// Record a span and return its index.
    pub fn push(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.list.push(Span { name: name.to_string(), start_us, end_us, parent, op });
        self.list.len() - 1
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover. Children that overlap each other (two workers
    /// evaluating at once) count once.
    pub fn self_time(&self, idx: usize) -> f64 {
        let s = &self.list[idx];
        let children: Vec<(f64, f64)> = self
            .list
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
            .collect();
        (s.end_us - s.start_us) - union_len(&children)
    }

    /// One JSON object per line: name, start, end, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.list {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"op\":{}}}\n",
                s.name, s.start_us, s.end_us, parent, s.op
            ));
        }
        out
    }
}

/// One Fig. 10 row, as `SearchReport::figure10_row` renders it, with the
/// optional lattice breakdown column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `bench.class`, class letter lower-cased (the daemon writes `bt.w`,
    /// the committed tables `bt.W`).
    pub label: String,
    /// Replacement candidates.
    pub candidates: usize,
    /// Configurations tested.
    pub tested: usize,
    /// Static replacement, as printed (`97.9%`).
    pub static_pct: String,
    /// Dynamic replacement, as printed.
    pub dynamic_pct: String,
    /// Final verification of the union configuration.
    pub pass: bool,
    /// Per-format breakdown (`s:32 b:15`), lattice searches only.
    pub breakdown: Option<String>,
}

/// Parse one Fig. 10 row.
pub fn parse_row(line: &str) -> Result<Row, String> {
    let (main, breakdown) = match line.find('[') {
        Some(i) => {
            let rest = line[i + 1..].trim_end();
            let inner =
                rest.strip_suffix(']').ok_or_else(|| format!("unclosed `[` in {line:?}"))?;
            (&line[..i], Some(inner.trim().to_string()))
        }
        None => (line, None),
    };
    let f: Vec<&str> = main.split_whitespace().collect();
    if f.len() != 6 {
        return Err(format!("expected 6 columns, got {} in {line:?}", f.len()));
    }
    let num = |s: &str| s.parse::<usize>().map_err(|e| format!("bad count {s:?} in {line:?}: {e}"));
    let pct = |s: &str| {
        let v = s.strip_suffix('%').ok_or_else(|| format!("bad percentage {s:?} in {line:?}"))?;
        v.parse::<f64>().map_err(|e| format!("bad percentage {s:?} in {line:?}: {e}"))?;
        Ok::<String, String>(s.to_string())
    };
    let pass = match f[5] {
        "pass" => true,
        "fail" => false,
        other => return Err(format!("bad final column {other:?} in {line:?}")),
    };
    Ok(Row {
        label: f[0].to_ascii_lowercase(),
        candidates: num(f[1])?,
        tested: num(f[2])?,
        static_pct: pct(f[3])?,
        dynamic_pct: pct(f[4])?,
        pass,
        breakdown,
    })
}

/// Parse an expected-rows file: blank lines, `#` comments, the column
/// header and dash rules are skipped; every other line must be a row.
pub fn parse_table(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("bench ") || t.starts_with("---") {
            continue;
        }
        rows.push(parse_row(line)?);
    }
    if rows.is_empty() {
        return Err("no rows".into());
    }
    Ok(rows)
}

/// Operations attempted and failed. An operation is one search or one
/// job; it fails if it panics, ends in a state other than `done`, is
/// shed, gets an HTTP error, or fails the output check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The seeded order of operations: SplitMix64 driving a Fisher–Yates
/// shuffle, so the same seed always gives the same order.
pub struct SeedOrder(u64);

impl SeedOrder {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SeedOrder(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reads_p90_when_ten_samples_lie_beyond_it() {
        // 200 samples: 20 lie beyond the 90th percentile.
        let p = tail(&ramp(200), 90.0);
        assert_eq!((p.pct, p.n), (90.0, 200));
        assert!((p.value - 180.5).abs() < 0.5, "{}", p.value);
        // 100 samples: exactly 10 lie beyond it.
        let p = tail(&ramp(100), 90.0);
        assert_eq!(p.pct, 90.0);
        assert!((p.value - 90.5).abs() < 0.5, "{}", p.value);
    }

    #[test]
    fn tail_lowers_the_percentile_to_keep_ten_samples_beyond() {
        // 50 samples: only 5 lie beyond p90, so the rule reads p80, the
        // highest percentile with 10 samples beyond it.
        let p = tail(&ramp(50), 90.0);
        assert_eq!(p.n, 50);
        assert!((p.pct - 80.0).abs() < 1e-9);
        assert!((p.value - 40.5).abs() < 0.5, "{}", p.value);
    }

    #[test]
    fn tail_never_reads_below_the_median_and_counts_samples() {
        let p = tail(&ramp(8), 90.0);
        assert_eq!((p.pct, p.n), (50.0, 8));
        assert!((p.value - 4.5).abs() < 0.1, "{}", p.value);
        assert_eq!(tail(&[], 90.0).n, 0);
        assert!((tail(&[7.0], 90.0).value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn tail_moves_smoothly_across_a_gap_between_clusters() {
        // 200 latencies in two clusters, 210 and 255, with the 90th
        // percentile near their border. Moving one sample across the
        // border moves a single order statistic by the whole gap; the
        // weighted estimate moves by a small part of it.
        let cluster = |high: usize| {
            let mut v = vec![210.0; 200 - high];
            v.extend(vec![255.0; high]);
            v
        };
        let (a, b) = (tail(&cluster(20), 90.0).value, tail(&cluster(21), 90.0).value);
        assert!(210.0 < a && a < b && b < 255.0, "{a} {b}");
        assert!(b - a < 45.0 / 4.0, "{a} {b}");
    }

    #[test]
    fn incomplete_beta_known_values() {
        for x in [0.1, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
            // I_x(a, b) = 1 - I_(1-x)(b, a)
            let (l, r) = (inc_beta(3.5, 40.0, x), 1.0 - inc_beta(40.0, 3.5, 1.0 - x));
            assert!((l - r).abs() < 1e-12, "{l} {r}");
        }
        assert!((inc_beta(20.0, 20.0, 0.5) - 0.5).abs() < 1e-12);
        // I_x(2, 1) = x^2
        assert!((inc_beta(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert_eq!((inc_beta(2.0, 3.0, 0.0), inc_beta(2.0, 3.0, 1.0)), (0.0, 1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_worker_spans_once() {
        let mut s = Spans::default();
        let search = s.push("search", 0.0, 100.0, None, 1);
        // Two workers: [10,50) and [30,70) overlap on [30,50).
        s.push("eval", 10.0, 50.0, Some(search), 1);
        s.push("eval", 30.0, 70.0, Some(search), 1);
        // A disjoint eval [80,90) and one running past the search's end.
        s.push("eval", 80.0, 90.0, Some(search), 1);
        s.push("eval", 95.0, 120.0, Some(search), 1);
        // Covered: [10,70) + [80,90) + [95,100) = 60 + 10 + 5 = 75.
        assert_eq!(s.self_time(search), 25.0);
        // A span of another parent does not count.
        let other = s.push("search", 0.0, 10.0, None, 2);
        assert_eq!(s.self_time(other), 10.0);
    }

    #[test]
    fn self_time_of_a_nested_chain() {
        let mut s = Spans::default();
        let eval = s.push("eval", 0.0, 10.0, None, 3);
        let rw = s.push("rewrite", 1.0, 3.0, Some(eval), 3);
        s.push("exec", 3.0, 9.0, Some(eval), 3);
        s.push("inner", 1.5, 2.0, Some(rw), 3);
        assert_eq!(s.self_time(eval), 2.0);
        assert_eq!(s.self_time(rw), 1.5);
        assert!(s.to_jsonl().lines().count() == 4);
    }

    #[test]
    fn union_len_ignores_empty_and_merges_touching() {
        assert_eq!(union_len(&[(0.0, 1.0), (1.0, 2.0), (5.0, 5.0)]), 2.0);
        assert_eq!(union_len(&[]), 0.0);
    }

    #[test]
    fn parses_classic_and_lattice_rows() {
        let r = parse_row("bt.W             47       16     97.9%     97.8%   fail").unwrap();
        assert_eq!(r.label, "bt.w");
        assert_eq!((r.candidates, r.tested, r.pass), (47, 16, false));
        assert_eq!((r.static_pct.as_str(), r.dynamic_pct.as_str()), ("97.9%", "97.8%"));
        assert_eq!(r.breakdown, None);
        let r =
            parse_row("cg.S             20       34     65.0%     34.0%   pass   [d:7 s:1 b:12]")
                .unwrap();
        assert!(r.pass);
        assert_eq!(r.breakdown.as_deref(), Some("d:7 s:1 b:12"));
        // The daemon's lower-case label parses to the same row.
        let a = parse_row("bt.w             47       16     97.9%     97.8%   fail").unwrap();
        let b = parse_row("bt.W             47       16     97.9%     97.8%   fail").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(parse_row("bt.W 47 16 97.9% 97.8%").is_err());
        assert!(parse_row("bt.W 47 16 97.9 97.8% fail").is_err());
        assert!(parse_row("bt.W 47 x 97.9% 97.8% fail").is_err());
        assert!(parse_row("bt.W 47 16 97.9% 97.8% maybe").is_err());
        assert!(parse_row("bt.S 47 74 100.0% 100.0% pass [s:32").is_err());
    }

    #[test]
    fn committed_expected_tables_parse() {
        for (text, n, lattice) in [
            (include_str!("../expected/nas-a.txt"), 7, false),
            (include_str!("../expected/nas-s-lattice.txt"), 7, true),
            (include_str!("../expected/daemon-w.txt"), 7, false),
        ] {
            let rows = parse_table(text).unwrap();
            assert_eq!(rows.len(), n);
            assert!(rows.iter().all(|r| r.breakdown.is_some() == lattice));
        }
        let a = parse_table(include_str!("../expected/nas-a.txt")).unwrap();
        let fails: Vec<&str> = a.iter().filter(|r| !r.pass).map(|r| r.label.as_str()).collect();
        assert_eq!(fails, ["bt.a", "lu.a", "sp.a"]);
        assert!(parse_table("# only a comment\n").is_err());
    }

    #[test]
    fn fail_ratio_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_ratio(), 0.25);
    }

    #[test]
    fn seed_order_is_a_repeatable_permutation() {
        let a = SeedOrder::new(7).permutation(14);
        let b = SeedOrder::new(7).permutation(14);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..14).collect::<Vec<_>>());
        assert_ne!(a, SeedOrder::new(8).permutation(14));
    }
}
