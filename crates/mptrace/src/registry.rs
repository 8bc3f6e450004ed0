//! Persistent cross-run registry: per-run manifests plus an append-only
//! index.
//!
//! Every traced run directory gains a `manifest.json` describing what
//! ran (program, config hash, tolerance, threads, git describe) and how
//! it went (wall time, final search summary, bench baselines). A
//! [`Registry`] — `~/.craft/runs` by default, overridable with
//! `--registry DIR` or `CRAFT_REGISTRY` — records one line per run in
//! `index.jsonl`, giving `craft runs` / `craft compare latest` and the
//! bench gate a durable, greppable history across working trees.

use crate::json::{self, esc, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Final [`SearchReport`](https://docs.rs) figures worth keeping after
/// the run directory itself is gone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Candidate instructions considered.
    pub candidates: usize,
    /// Configurations evaluated.
    pub tested: usize,
    /// Static percentage of instructions lowered to single precision.
    pub static_pct: f64,
    /// Dynamic (execution-weighted) percentage lowered.
    pub dynamic_pct: f64,
    /// Whether the final recommended configuration verified.
    pub final_pass: bool,
    /// Evaluations that timed out.
    pub timeouts: usize,
    /// Evaluations that crashed.
    pub crashes: usize,
    /// Evaluation retries.
    pub retries: usize,
    /// Configurations quarantined after repeated faults.
    pub quarantined: usize,
    /// Configurations pruned by the shadow-value analysis.
    pub pruned_by_shadow: usize,
}

/// `manifest.json`: the identity and outcome of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Registry-unique run id (`{bench}-{unix}-{pid}-{n}`).
    pub id: String,
    /// Benchmark/program name (e.g. `"ep"`).
    pub bench: String,
    /// Workload class (e.g. `"s"`).
    pub class: String,
    /// Precision lattice the search descended, as comma-joined flag
    /// tokens (e.g. `"s,h,b"`). Empty means the classic two-level
    /// double/single search — both in new classic runs and in manifests
    /// written before the lattice existed.
    pub lattice: String,
    /// Cross-process trace/request id (`x-craft-trace`) that caused
    /// this run, as minted by `craft submit` or the daemon's intake.
    /// Empty for in-process runs and for manifests from before trace
    /// propagation existed — the id stitches one client request to the
    /// daemon log line, the job record, and the run-dir spans.
    pub trace_id: String,
    /// FNV-1a hash of the final configuration text, hex.
    pub config_hash: String,
    /// Verification tolerance used.
    pub tol: f64,
    /// Worker threads used by the search.
    pub threads: usize,
    /// `git describe --always --dirty` at run time (empty if
    /// unavailable).
    pub git: String,
    /// Unix seconds when the run started.
    pub created_unix: u64,
    /// Total wall time of the run, microseconds.
    pub wall_us: u64,
    /// Final search summary (absent if the run died before reporting).
    pub summary: Option<RunSummary>,
    /// Per-bench `min_ns` baselines recorded by `bench_gate --record`.
    pub bench_min_ns: BTreeMap<String, f64>,
}

/// File name of a run manifest inside its run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

impl RunManifest {
    /// Serialize as one JSON line (no trailing newline); round-trips
    /// byte-exactly through [`RunManifest::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"id\":");
        esc(&mut s, &self.id);
        s.push_str(",\"bench\":");
        esc(&mut s, &self.bench);
        s.push_str(",\"class\":");
        esc(&mut s, &self.class);
        s.push_str(",\"lattice\":");
        esc(&mut s, &self.lattice);
        s.push_str(",\"trace_id\":");
        esc(&mut s, &self.trace_id);
        s.push_str(",\"config_hash\":");
        esc(&mut s, &self.config_hash);
        let _ = write!(s, ",\"tol\":{:?},\"threads\":{}", self.tol, self.threads);
        s.push_str(",\"git\":");
        esc(&mut s, &self.git);
        let _ = write!(s, ",\"created_unix\":{},\"wall_us\":{}", self.created_unix, self.wall_us);
        match &self.summary {
            None => s.push_str(",\"summary\":null"),
            Some(r) => {
                let _ = write!(
                    s,
                    ",\"summary\":{{\"candidates\":{},\"tested\":{},\"static_pct\":{:?},\
                     \"dynamic_pct\":{:?},\"final_pass\":{},\"timeouts\":{},\"crashes\":{},\
                     \"retries\":{},\"quarantined\":{},\"pruned_by_shadow\":{}}}",
                    r.candidates,
                    r.tested,
                    r.static_pct,
                    r.dynamic_pct,
                    r.final_pass,
                    r.timeouts,
                    r.crashes,
                    r.retries,
                    r.quarantined,
                    r.pruned_by_shadow
                );
            }
        }
        s.push_str(",\"bench_min_ns\":{");
        for (i, (k, v)) in self.bench_min_ns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            esc(&mut s, k);
            let _ = write!(s, ":{v:?}");
        }
        s.push_str("}}");
        s
    }

    /// Parse a manifest produced by [`RunManifest::to_json`].
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let v = json::parse(text.trim())?;
        let st = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: missing \"{k}\""))
        };
        let n = |k: &str| -> Result<u64, String> {
            v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("manifest: missing \"{k}\""))
        };
        let summary = match v.get("summary") {
            Some(Value::Null) | None => None,
            Some(r) => {
                let rn = |k: &str| -> Result<u64, String> {
                    r.get(k)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("manifest summary: missing \"{k}\""))
                };
                let rf = |k: &str| -> Result<f64, String> {
                    r.get(k)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("manifest summary: missing \"{k}\""))
                };
                Some(RunSummary {
                    candidates: rn("candidates")? as usize,
                    tested: rn("tested")? as usize,
                    static_pct: rf("static_pct")?,
                    dynamic_pct: rf("dynamic_pct")?,
                    final_pass: r
                        .get("final_pass")
                        .and_then(Value::as_bool)
                        .ok_or("manifest summary: missing \"final_pass\"")?,
                    timeouts: rn("timeouts")? as usize,
                    crashes: rn("crashes")? as usize,
                    retries: rn("retries")? as usize,
                    quarantined: rn("quarantined")? as usize,
                    pruned_by_shadow: rn("pruned_by_shadow")? as usize,
                })
            }
        };
        let mut bench_min_ns = BTreeMap::new();
        if let Some(Value::Obj(fields)) = v.get("bench_min_ns") {
            for (k, b) in fields {
                bench_min_ns
                    .insert(k.clone(), b.as_f64().ok_or("manifest: bad bench_min_ns value")?);
            }
        }
        Ok(RunManifest {
            id: st("id")?,
            bench: st("bench")?,
            class: st("class")?,
            // Absent in manifests written before the precision lattice;
            // empty means the classic double/single search.
            lattice: st("lattice").unwrap_or_default(),
            // Absent in manifests written before trace propagation;
            // empty means no client request is linked to the run.
            trace_id: st("trace_id").unwrap_or_default(),
            config_hash: st("config_hash")?,
            tol: v.get("tol").and_then(Value::as_f64).ok_or("manifest: missing \"tol\"")?,
            threads: n("threads")? as usize,
            git: st("git")?,
            created_unix: n("created_unix")?,
            wall_us: n("wall_us")?,
            summary,
            bench_min_ns,
        })
    }

    /// Write `manifest.json` into `run_dir`.
    pub fn save(&self, run_dir: impl AsRef<Path>) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(run_dir.as_ref().join(MANIFEST_FILE), text)
    }

    /// Read `run_dir/manifest.json`, if present.
    pub fn load(run_dir: impl AsRef<Path>) -> Result<Option<RunManifest>, String> {
        let path = run_dir.as_ref().join(MANIFEST_FILE);
        match std::fs::read_to_string(&path) {
            Ok(text) => RunManifest::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

/// One line of the registry's `index.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Run id (matches the run's manifest).
    pub id: String,
    /// Absolute path of the run directory at record time.
    pub path: PathBuf,
    /// Benchmark name.
    pub bench: String,
    /// Unix seconds when the run started.
    pub created_unix: u64,
    /// Run wall time, microseconds.
    pub wall_us: u64,
    /// Whether the final configuration verified.
    pub final_pass: bool,
}

impl IndexEntry {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"id\":");
        esc(&mut s, &self.id);
        s.push_str(",\"path\":");
        esc(&mut s, &self.path.display().to_string());
        s.push_str(",\"bench\":");
        esc(&mut s, &self.bench);
        let _ = write!(
            s,
            ",\"created_unix\":{},\"wall_us\":{},\"final_pass\":{}}}",
            self.created_unix, self.wall_us, self.final_pass
        );
        s
    }

    fn parse(v: &Value) -> Result<IndexEntry, String> {
        let st = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("index: missing \"{k}\""))
        };
        let n = |k: &str| -> Result<u64, String> {
            v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("index: missing \"{k}\""))
        };
        Ok(IndexEntry {
            id: st("id")?,
            path: PathBuf::from(st("path")?),
            bench: st("bench")?,
            created_unix: n("created_unix")?,
            wall_us: n("wall_us")?,
            final_pass: v
                .get("final_pass")
                .and_then(Value::as_bool)
                .ok_or("index: missing \"final_pass\"")?,
        })
    }
}

/// A registry directory holding `index.jsonl`.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

/// Process-wide run counter, for id uniqueness within one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Allocate a fresh run id: `{bench}-{unix}-{pid}-{n}`.
pub fn new_run_id(bench: &str, created_unix: u64) -> String {
    let n = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{bench}-{created_unix}-{}-{n}", std::process::id())
}

/// Unix seconds now (0 if the clock is before the epoch).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// FNV-1a (64-bit) over `text`, rendered as 16 hex digits. Used for the
/// manifest's `config_hash`.
pub fn fnv1a64(text: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

impl Registry {
    /// Open (creating if needed) a registry at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Registry> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Registry { dir })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Resolve the registry directory: `explicit` flag, then the
    /// `CRAFT_REGISTRY` environment variable, then `$HOME/.craft/runs`.
    /// Returns `None` when nothing resolves (e.g. `HOME` unset).
    pub fn resolve(explicit: Option<&str>) -> Option<PathBuf> {
        if let Some(d) = explicit {
            return Some(PathBuf::from(d));
        }
        if let Ok(d) = std::env::var("CRAFT_REGISTRY") {
            if !d.is_empty() {
                return Some(PathBuf::from(d));
            }
        }
        std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".craft").join("runs"))
    }

    /// Append one run to `index.jsonl`.
    pub fn record(&self, manifest: &RunManifest, run_dir: impl AsRef<Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = run_dir.as_ref();
        let entry = IndexEntry {
            id: manifest.id.clone(),
            path: std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()),
            bench: manifest.bench.clone(),
            created_unix: manifest.created_unix,
            wall_us: manifest.wall_us,
            final_pass: manifest.summary.as_ref().is_some_and(|s| s.final_pass),
        };
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("index.jsonl"))?;
        writeln!(f, "{}", entry.to_json())
    }

    /// All recorded runs in record order, tolerating a truncated final
    /// index line. Returns `(entries, warning)`.
    pub fn entries(&self) -> Result<(Vec<IndexEntry>, Option<String>), String> {
        let path = self.dir.join("index.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), None));
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let (lines, warning) = json::parse_jsonl_tolerant(&text)?;
        let mut entries = Vec::with_capacity(lines.len());
        for (lineno, v) in &lines {
            entries.push(IndexEntry::parse(v).map_err(|e| format!("line {lineno}: {e}"))?);
        }
        Ok((entries, warning))
    }

    /// The most recently recorded run, optionally restricted to one
    /// bench.
    pub fn latest(&self, bench: Option<&str>) -> Result<Option<IndexEntry>, String> {
        let (entries, _) = self.entries()?;
        Ok(entries.into_iter().rev().find(|e| bench.is_none_or(|b| e.bench == b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(id: &str, bench: &str, pass: bool) -> RunManifest {
        RunManifest {
            id: id.into(),
            bench: bench.into(),
            class: "s".into(),
            lattice: "s,h,b".into(),
            trace_id: "tr-1700000000-1-0".into(),
            config_hash: fnv1a64("double main()"),
            tol: 1e-6,
            threads: 4,
            git: "abc1234-dirty".into(),
            created_unix: 1_700_000_000,
            wall_us: 123_456,
            summary: Some(RunSummary {
                candidates: 20,
                tested: 55,
                static_pct: 40.0,
                dynamic_pct: 61.5,
                final_pass: pass,
                timeouts: 1,
                crashes: 0,
                retries: 2,
                quarantined: 0,
                pruned_by_shadow: 7,
            }),
            bench_min_ns: [("interp/ep.orig.fast".to_string(), 1234.5f64)].into(),
        }
    }

    #[test]
    fn manifest_round_trip_is_byte_exact() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), text);
        // No summary (crashed run) round-trips too.
        let m = RunManifest { summary: None, ..m };
        assert_eq!(RunManifest::parse(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn legacy_manifest_with_backend_key_still_parses() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Manifests written while the execution backend was a setting
        // carry a "backend" key; it is ignored on read.
        let legacy = text.replace(",\"class\":\"s\"", ",\"class\":\"s\",\"backend\":\"compiled\"");
        assert!(legacy.contains("\"backend\":\"compiled\""));
        assert_eq!(RunManifest::parse(&legacy).unwrap(), m);
    }

    #[test]
    fn legacy_manifest_without_lattice_parses_as_classic() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Simulate a manifest written before the precision lattice.
        let legacy = text.replace(",\"lattice\":\"s,h,b\"", "");
        assert!(!legacy.contains("lattice"));
        let back = RunManifest::parse(&legacy).unwrap();
        assert_eq!(back.lattice, "");
        assert_eq!(RunManifest { lattice: String::new(), ..m }, back);
    }

    #[test]
    fn legacy_manifest_without_trace_id_parses_with_empty_trace() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Simulate a manifest written before trace propagation.
        let legacy = text.replace(",\"trace_id\":\"tr-1700000000-1-0\"", "");
        assert!(!legacy.contains("trace_id"));
        let back = RunManifest::parse(&legacy).unwrap();
        assert_eq!(back.trace_id, "");
        assert_eq!(RunManifest { trace_id: String::new(), ..m }, back);
    }

    #[test]
    fn save_load_and_index_round_trip() {
        let dir = std::env::temp_dir().join(format!("mptrace-reg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run_a = dir.join("runs").join("a");
        let run_b = dir.join("runs").join("b");
        std::fs::create_dir_all(&run_a).unwrap();
        std::fs::create_dir_all(&run_b).unwrap();

        let ma = manifest("ep-1-1-0", "ep", true);
        let mb = manifest("cg-2-1-1", "cg", false);
        ma.save(&run_a).unwrap();
        mb.save(&run_b).unwrap();
        assert_eq!(RunManifest::load(&run_a).unwrap().unwrap(), ma);
        assert_eq!(RunManifest::load(dir.join("missing")).unwrap(), None);

        let reg = Registry::open(dir.join("registry")).unwrap();
        reg.record(&ma, &run_a).unwrap();
        reg.record(&mb, &run_b).unwrap();
        let (entries, warn) = reg.entries().unwrap();
        assert!(warn.is_none());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "ep-1-1-0");
        assert!(entries[0].final_pass);
        assert!(!entries[1].final_pass);
        assert_eq!(reg.latest(None).unwrap().unwrap().id, "cg-2-1-1");
        assert_eq!(reg.latest(Some("ep")).unwrap().unwrap().id, "ep-1-1-0");
        assert_eq!(reg.latest(Some("nope")).unwrap(), None);

        // A torn final index line is tolerated with a warning.
        let idx = reg.dir().join("index.jsonl");
        let mut text = std::fs::read_to_string(&idx).unwrap();
        text.push_str("{\"id\":\"torn");
        std::fs::write(&idx, text).unwrap();
        let (entries, warn) = reg.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(warn.is_some());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_ids_are_unique_and_hash_is_stable() {
        assert_ne!(new_run_id("ep", 5), new_run_id("ep", 5));
        assert_eq!(fnv1a64(""), "cbf29ce484222325");
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
    }
}
