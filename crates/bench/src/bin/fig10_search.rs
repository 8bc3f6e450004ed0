//! Fig. 10 — NAS automatic search results: for each benchmark and class
//! (W and A), the number of replacement candidates, configurations
//! tested, static and dynamic replacement percentages, and the final
//! composed configuration's verification result.
//!
//! Robustness flags (all optional):
//!
//! * `--class=s|w|a|c` — run a single problem class instead of the
//!   default W and A pair;
//! * `--lattice=s,h|s,b|…` — descend the precision lattice instead of
//!   the classic double/single search: each level is tried in order and
//!   instructions settle at the narrowest format that still verifies.
//!   Rows gain a trailing per-format breakdown column;
//! * `--events=FILE` — append a JSONL event log of every search (one
//!   `search_started` record per benchmark separates the runs);
//! * `--inject-panic=IDX[,IDX…]` / `--inject-timeout=IDX[,IDX…]` —
//!   deterministically inject a worker panic / a simulated timeout at
//!   those evaluation indices of *each* search. The executor classifies
//!   the faulted attempts (`crashed` / `timeout`), retries, and the
//!   figure rows must come out identical to a fault-free run.

use craft_bench::header;
use mixedprec::{AnalysisOptions, AnalysisSystem};
use mpsearch::events::EventLog;
use mpsearch::{FaultPlan, SearchHooks, SearchOptions, SearchReport};
use workloads::{nas_all, Class};

fn parse_indices(spec: &str) -> Vec<u64> {
    spec.split(',').filter_map(|t| t.trim().parse().ok()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        args.iter().find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
    };
    let threads = SearchOptions::default_threads();
    let second_phase = args.iter().any(|a| a == "--second-phase");
    let lattice = opt("--lattice").map(|s| {
        mpconfig::parse_lattice(&s).unwrap_or_else(|e| {
            eprintln!("bad --lattice: {e}");
            std::process::exit(2);
        })
    });
    let classes: Vec<Class> = match opt("--class").as_deref() {
        None => vec![Class::W, Class::A],
        Some("s") => vec![Class::S],
        Some("w") => vec![Class::W],
        Some("a") => vec![Class::A],
        Some("c") => vec![Class::C],
        Some(other) => {
            eprintln!("unknown class `{other}` (s|w|a|c)");
            std::process::exit(2);
        }
    };
    let events = opt("--events").map(|path| {
        EventLog::to_file(&path).unwrap_or_else(|e| {
            eprintln!("cannot create event log {path}: {e}");
            std::process::exit(2);
        })
    });
    let faults = FaultPlan {
        panic_at: opt("--inject-panic").map(|s| parse_indices(&s)).unwrap_or_default(),
        timeout_at: opt("--inject-timeout").map(|s| parse_indices(&s)).unwrap_or_default(),
        ..Default::default()
    };
    println!(
        "Figure 10: NAS benchmark search results{}{}{}\n",
        if second_phase { " (with the second composition phase)" } else { "" },
        if faults.is_empty() { "" } else { " (fault injection on)" },
        match &lattice {
            Some(l) => format!(" [lattice: {}]", mpconfig::lattice_tokens(l)),
            None => String::new(),
        }
    );
    header(&SearchReport::figure10_header());
    let mut perf_notes = Vec::new();
    let mut fault_notes = Vec::new();
    for class in classes {
        for w in nas_all(class) {
            let label = format!("{}.{}", w.name, class.letter().to_uppercase());
            let sys = AnalysisSystem::with_options(
                w,
                AnalysisOptions {
                    search: SearchOptions {
                        threads,
                        second_phase,
                        lattice: lattice
                            .clone()
                            .unwrap_or_else(|| SearchOptions::default().lattice),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let hooks = SearchHooks {
                bench: label.clone(),
                faults: faults.clone(),
                events: events.as_ref(),
                ..Default::default()
            };
            let report = sys.run_search_with(&hooks);
            if lattice.is_some() {
                let formats: Vec<String> = report
                    .format_breakdown(sys.tree())
                    .into_iter()
                    .map(|(tok, n)| format!("{tok}:{n}"))
                    .collect();
                println!("{}   [{}]", report.figure10_row(&label), formats.join(" "));
            } else {
                println!("{}", report.figure10_row(&label));
            }
            perf_notes.push(report.perf_note(&label));
            let fnote = report.fault_note(&label);
            if !fnote.is_empty() {
                fault_notes.push(fnote);
            }
        }
    }
    println!("\nEvaluation-pipeline counters (where the search time went):");
    for note in &perf_notes {
        println!("{note}");
    }
    if !fault_notes.is_empty() {
        println!("\nExecutor robustness counters (faults absorbed without changing rows):");
        for note in &fault_notes {
            println!("{note}");
        }
    }
    println!("\n(candidates exclude `ignore`-flagged RNG instructions; dynamic % is");
    println!(" measured against an execution profile of the original binary;");
    println!(" pass --second-phase to compose a passing subset when the union fails)");
}
