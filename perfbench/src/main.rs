//! `perfbench` — the repository's benchmark: the Fig. 10 search and the
//! `craftd` daemon, end to end and per layer. See `perfbench/NOTES.md`.
//!
//! ```text
//! perfbench --workload nas-a|nas-s-lattice|daemon-w --seed N --seconds S --trace 0|1
//! perfbench --check [--workload W]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of the traced pass. Every search and job is
//! checked against the committed expected rows. The last line of
//! standard output is one JSON object.

mod daemon;
mod inproc;

use inproc::Suite;
use perfbench::{median, tail, Spans, Tally};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Class;

const USAGE: &str = "usage: perfbench --workload nas-a|nas-s-lattice|daemon-w --seed N \
                     --seconds S --trace 0|1\n       perfbench --check [--workload W]";

const WORKLOADS: [&str; 3] = ["nas-a", "nas-s-lattice", "daemon-w"];

const NAS_A: Suite = Suite {
    class: Class::A,
    lattice: false,
    shadow_copies: false,
    expected: include_str!("../expected/nas-a.txt"),
};

const NAS_S_LATTICE: Suite = Suite {
    class: Class::S,
    lattice: true,
    shadow_copies: false,
    expected: include_str!("../expected/nas-s-lattice.txt"),
};

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and how the value was read.
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
        Metric { name, value, unit, note }
    }
}

/// What a run produced.
pub struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    errors: Vec<String>,
    /// The traced pass's spans, written when the pass ends.
    spans: Option<Spans>,
    /// Derived figures printed with the metrics.
    notes: Vec<String>,
}

/// The end-to-end metrics, common to every workload. An operation is one
/// search (`recommend` call) or one daemon job; a sweep is one pass over
/// the workload's operation set, run back to back.
fn end_to_end(setups: &[f64], sweeps: &[f64], op_ms: &[f64], tested: usize) -> Vec<Metric> {
    let busy: f64 = sweeps.iter().sum();
    let t = tail(op_ms, 90.0);
    vec![
        Metric::new("setup_s", median(setups), "s", format!("median of {} set-ups", setups.len())),
        Metric::new(
            "sweep_s",
            median(sweeps),
            "s",
            format!(
                "median of {} sweeps, range {:.4}..{:.4}",
                sweeps.len(),
                lo(sweeps),
                hi(sweeps)
            ),
        ),
        Metric::new(
            "configs_per_s",
            tested as f64 / busy,
            "1/s",
            format!("{tested} configurations tested in {busy:.3} s of sweeps"),
        ),
        Metric::new("job_ms.p50", median(op_ms), "ms", format!("median of n={}", op_ms.len())),
        Metric::new("job_ms.p90", t.value, "ms", format!("p{:.1} of n={}", t.pct, t.n)),
        Metric::new(
            "jobs_per_s",
            op_ms.len() as f64 / busy,
            "1/s",
            format!("{} operations in {busy:.3} s of sweeps", op_ms.len()),
        ),
    ]
}

fn lo(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn hi(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 0, seconds: 10.0, trace: false, check: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            a.check = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(format!("unknown workload `{val}`"));
                }
                a.workload = Some(val);
            }
            "--seed" => a.seed = val.parse().map_err(|e| format!("bad --seed {val:?}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("bad --seconds {val:?}: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_none() && !a.check {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Run a command and return its first output line, or `unknown`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    // Stop git from finding a repository above the working directory.
    let ceiling = cwd.parent().map(|p| p.display().to_string()).unwrap_or_default();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get().to_string());
    vec![
        ("nproc", nproc.unwrap_or_else(|_| "unknown".into())),
        ("rustc", first_line("rustc", &["--version"])),
        ("git describe", first_line("git", &["describe", "--always", "--dirty"])),
        ("search threads", inproc::THREADS.to_string()),
    ]
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = match (workload, trace) {
        ("nas-a", false) => inproc::timed(&NAS_A, seed, seconds)?,
        ("nas-s-lattice", false) => inproc::timed(&NAS_S_LATTICE, seed, seconds)?,
        ("daemon-w", false) => daemon::timed(seed, seconds)?,
        ("nas-a", true) => with_idle_daemon_layers(inproc::traced(&NAS_A, seed, seconds)?),
        ("nas-s-lattice", true) => {
            with_idle_daemon_layers(inproc::traced(&NAS_S_LATTICE, seed, seconds)?)
        }
        ("daemon-w", true) => {
            // Half the time on the in-process replay of the fourteen
            // jobs, half on daemon rounds for the craftd layer.
            let mut out = inproc::traced(&daemon::SUITE, seed, seconds / 2.0)?;
            let spans = out.spans.get_or_insert_with(Spans::default);
            let (craftd, tally, errors) = daemon::layer_metrics(seed, seconds / 2.0, spans)?;
            out.metrics.extend(craftd);
            out.tally.attempted += tally.attempted;
            out.tally.failed += tally.failed;
            out.errors.extend(errors);
            out
        }
        _ => unreachable!("workload names are checked when parsed"),
    };
    if !trace {
        out.metrics.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB", "VmHWM".into()));
    }
    Ok(out)
}

/// The `craftd` layer does no work outside `daemon-w`: report zeros so
/// every traced run names every per-layer metric.
fn with_idle_daemon_layers(mut out: Outcome) -> Outcome {
    for (name, unit) in [
        ("craftd.http_ms.p50", "ms"),
        ("craftd.http_ms.p90", "ms"),
        ("craftd.submit_ms", "ms"),
        ("craftd.run_ms", "ms"),
        ("craftd.queue_ms", "ms"),
        ("craftd.shared_hit_ratio", "ratio"),
        ("craftd.reuse_ratio", "ratio"),
        ("craftd.shed", "count"),
    ] {
        out.metrics.push(Metric::new(name, 0.0, unit, "no daemon in this workload".into()));
    }
    out
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && out.errors.is_empty() && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}

/// Run each workload's search set twice and diff the rows.
fn check(workload: Option<&str>) -> Result<bool, String> {
    let mut same = true;
    for name in WORKLOADS.iter().filter(|w| workload.is_none_or(|x| x == **w)) {
        let suite = match *name {
            "nas-a" => NAS_A,
            "nas-s-lattice" => NAS_S_LATTICE,
            _ => daemon::SUITE,
        };
        let [a, b] = inproc::rows_twice(&suite)?;
        for (x, y) in a.iter().zip(&b) {
            let mark = if x == y { "same" } else { "DIFFERENT" };
            println!("{name:<14} {mark:<9} {x}");
            if x != y {
                println!("{:<24} {y}", "");
                same = false;
            }
        }
    }
    Ok(same)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in host_facts() {
        println!("host {k}: {v}");
    }
    if args.check {
        return match check(args.workload.as_deref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                println!("determinism check failed: rows differ between two passes");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let started = Instant::now();
    let out = match run(workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &out.spans {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.list.len()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "workload {workload} seed {} trace {} ran {:.1} s",
        args.seed,
        args.trace as u8,
        started.elapsed().as_secs_f64()
    );
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    for m in &out.metrics {
        println!("{:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!("{}", json_line(&out));
    ExitCode::SUCCESS
}
