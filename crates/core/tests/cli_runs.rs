//! End-to-end tests of the run-registry workflow through the real
//! `craft` binary: a traced analysis must leave a complete run
//! directory behind, `report` must render the executor's verdicts from
//! it, `compare` must be deterministic and clean against itself, an
//! injected per-instruction cycle regression must be attributed to the
//! right function and fail the gate, and flags a subcommand does not
//! read must be refused before any work is done.

use mptrace::snapshot::TraceSnapshot;
use mptrace::stream::LiveLog;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn craft(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_craft")).args(args).output().expect("craft binary should run")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// A scratch directory under the target tmpdir, wiped on entry so
/// repeated test runs start clean.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a traced class-S analysis into `<root>/run` with the registry at
/// `<root>/registry`, returning the run directory.
fn traced_run(root: &Path) -> PathBuf {
    let run = root.join("run");
    let reg = root.join("registry");
    let out = craft(&[
        "analyze",
        "vecops",
        "s",
        &format!("--trace={}", run.display()),
        &format!("--registry={}", reg.display()),
    ]);
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    run
}

#[test]
fn traced_run_streams_and_registers() {
    let root = scratch("cli-traced-run");
    let run = traced_run(&root);

    for f in ["decisions.jsonl", "trace.jsonl", "live.jsonl", "manifest.json"] {
        assert!(run.join(f).is_file(), "run directory missing {f}");
    }

    // The live stream must parse cleanly and end in a drained `done`
    // progress record consistent with the manifest's summary.
    let log = LiveLog::from_file(run.join("live.jsonl")).unwrap();
    assert!(log.warning.is_none(), "unexpected warning: {:?}", log.warning);
    let last = log.latest_progress().expect("live stream has progress records");
    assert_eq!(last.progress.phase, "done");
    assert_eq!(last.progress.queue_depth, 0);
    assert_eq!(last.progress.in_flight, 0);

    let manifest = mptrace::registry::RunManifest::load(&run).unwrap().expect("manifest exists");
    assert_eq!(manifest.bench, "vecops");
    assert_eq!(manifest.class, "s");
    assert_eq!(manifest.config_hash.len(), 16);
    let summary = manifest.summary.expect("manifest carries a search summary");
    assert!(summary.final_pass);
    assert_eq!(last.progress.done, summary.tested as u64);

    // The registry index lists the run, and `craft runs` renders it.
    let reg_arg = format!("--registry={}", root.join("registry").display());
    let runs = craft(&["runs", &reg_arg]);
    assert!(runs.status.success());
    assert!(stdout(&runs).contains(&manifest.id), "craft runs omits the recorded id");

    // `craft watch` replays the finished stream (registry `latest`
    // resolution and the explicit path must agree).
    for target in [run.display().to_string(), "latest".into()] {
        let watch = craft(&["watch", &target, &reg_arg]);
        assert!(watch.status.success(), "watch {target} failed");
        let text = stdout(&watch);
        assert!(text.contains("phase timeline"), "watch output missing timeline:\n{text}");
        assert!(text.contains("done"), "watch output missing done phase:\n{text}");
    }
}

#[test]
fn report_degrades_gracefully_on_partial_run_dirs() {
    let root = scratch("cli-partial-report");
    let run = traced_run(&root);

    // Full directory reports everything.
    let full = craft(&["report", &run.display().to_string()]);
    assert!(full.status.success());
    assert!(stdout(&full).contains("summary"));
    assert!(stdout(&full).contains("verdicts"));
    assert!(stdout(&full).contains("trace"));

    // Without manifest.json the report still renders the trace and
    // names the missing artifact instead of failing.
    std::fs::remove_file(run.join("manifest.json")).unwrap();
    let partial = craft(&["report", &run.display().to_string()]);
    assert!(partial.status.success(), "partial run dir must still report");
    let text = stdout(&partial);
    assert!(text.contains("verdicts"), "trace verdicts missing:\n{text}");
    assert!(text.contains("absent from run directory"), "absence note missing:\n{text}");
    assert!(text.contains("manifest.json"), "missing artifact not named:\n{text}");

    // Without trace.jsonl the live stream is folded in its place.
    std::fs::remove_file(run.join("trace.jsonl")).unwrap();
    let folded = craft(&["report", &run.display().to_string()]);
    assert!(folded.status.success(), "live-only run dir must still report");
    assert!(stdout(&folded).contains("folded"), "live fallback note missing");

    // An empty directory has nothing to report: runtime error, exit 1.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let nothing = craft(&["report", &empty.display().to_string()]);
    assert_eq!(nothing.status.code(), Some(1));

    // A file is not a run directory: usage error naming the form.
    let file = craft(&["report", &run.join("live.jsonl").display().to_string()]);
    assert_eq!(file.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&file.stderr).contains("<run-dir>"));
}

#[test]
fn report_verdicts_match_an_injected_fault_drill() {
    let root = scratch("cli-fault-drill");
    let run = root.join("run");
    let out = craft(&[
        "analyze",
        "vecops",
        "s",
        "--threads=1",
        &format!("--trace={}", run.display()),
        &format!("--registry={}", root.join("registry").display()),
        // vecops.s evaluates only the module and then the union, so
        // both faults land on the module test: attempt 0 panics, its
        // first retry times out, and the second retry passes.
        "--inject-panic=0",
        "--inject-timeout=1",
    ]);
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout(&out).contains("1 timeouts, 1 crashes, 2 retries, 0 quarantined"),
        "analyze summary:\n{}",
        stdout(&out)
    );

    let report = craft(&["report", &run.display().to_string()]);
    assert!(report.status.success());
    let text = stdout(&report);
    let row = |name: &str| {
        text.lines()
            .find_map(|l| l.trim().strip_prefix(name).map(|n| n.trim().to_string()))
            .unwrap_or_else(|| panic!("no `{name}` row in report:\n{text}"))
    };
    assert_eq!(row("crashed"), "1");
    assert_eq!(row("timeout"), "1");
    assert!(text.contains("retries: 2 "), "retry count missing:\n{text}");
}

#[test]
fn unread_flags_are_usage_errors() {
    for (args, named) in [
        (&["analyze", "vecops", "s", "--events=x"][..], "--events"),
        (&["analyze", "vecops", "s", "--backend=fast"][..], "--backend"),
        (&["analyze", "vecops", "s", "--lattice", "s,b"][..], "--lattice"),
        (&["report", "--bogus"][..], "--bogus"),
    ] {
        let out = craft(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: stderr does not name {named}:\n{err}");
        assert!(out.stdout.is_empty(), "{args:?} did work before refusing:\n{}", stdout(&out));
    }
}

#[test]
fn compare_self_is_clean_and_deterministic() {
    let root = scratch("cli-compare-self");
    let run = traced_run(&root);
    let run = run.display().to_string();

    let first = craft(&["compare", &run, &run]);
    let second = craft(&["compare", &run, &run]);
    assert!(first.status.success(), "self-compare must exit 0");
    assert_eq!(stdout(&first), stdout(&second), "self-compare must be byte-identical");
    let text = stdout(&first);
    assert!(text.contains("no regressions"), "unexpected self-compare verdict:\n{text}");
    assert!(text.contains("counters (0 changed)"), "self-compare found counter drift:\n{text}");
}

#[test]
fn injected_cycle_regression_is_attributed_and_gates() {
    let root = scratch("cli-compare-inject");
    let run_a = traced_run(&root);

    // Clone the run and inject +50k interpreter cycles into two hot
    // instructions of vecops' main function.
    let run_b = root.join("run-b");
    std::fs::create_dir_all(&run_b).unwrap();
    let text = std::fs::read_to_string(run_a.join("trace.jsonl")).unwrap();
    let mut snap = TraceSnapshot::parse(&text).unwrap();
    let mut bumped = 0;
    for h in &mut snap.hot {
        if h.label.contains("/main/") && bumped < 2 {
            h.cycles += 50_000;
            bumped += 1;
        }
    }
    assert_eq!(bumped, 2, "expected at least two labelled hot insns in vecops/main");
    std::fs::write(run_b.join("trace.jsonl"), snap.to_jsonl()).unwrap();

    let a = run_a.display().to_string();
    let b = run_b.display().to_string();
    let out = craft(&["compare", &a, &b]);
    assert_eq!(out.status.code(), Some(1), "injected regression must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("function vecops.s/main: +100000 cycles"),
        "delta not attributed to vecops.s/main:\n{text}"
    );
    assert!(text.contains("2 insn(s) affected"), "wrong insn count:\n{text}");
    assert!(text.contains("REGRESSION"), "verdict section missing regression:\n{text}");

    // --warn-only reports the same text but exits 0, and the reverse
    // direction (B -> A) is an improvement, not a regression.
    let warn = craft(&["compare", &a, &b, "--warn-only"]);
    assert!(warn.status.success(), "--warn-only must not gate");
    let reverse = craft(&["compare", &b, &a]);
    assert!(reverse.status.success(), "an improvement must pass the gate");
}
