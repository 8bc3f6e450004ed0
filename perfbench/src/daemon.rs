//! The `daemon-w` workload: a fresh in-process `craftd::Server` per
//! round, driven over real HTTP by two closed-loop keep-alive clients.

use craftd::http::Client;
use craftd::{DaemonConfig, Server};
use mptrace::json;
use perfbench::{median, parse_row, parse_table, tail, Row, SeedOrder, Spans, Tally};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::inproc::{Suite, NAS, THREADS};
use crate::{Metric, Outcome};

/// The job set: the seven NAS jobs at class W, each once plain and once
/// with `shadow_prune`.
pub const SUITE: Suite = Suite {
    class: workloads::Class::W,
    lattice: false,
    shadow_copies: true,
    expected: include_str!("../expected/daemon-w.txt"),
};

/// Closed-loop users, each one keep-alive client.
const CLIENTS: usize = 2;

/// What one job looked like from the client.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// When `POST /jobs` was sent.
    pub start: Instant,
    /// `POST /jobs` to the terminal record of `/jobs/<id>/live`, ms.
    pub job_ms: f64,
    /// `POST /jobs` latency, ms.
    pub submit_ms: f64,
    /// `GET /jobs/<id>` latency, ms.
    pub get_ms: f64,
    /// `JobRecord.wall_us`, ms.
    pub run_ms: f64,
    /// `JobRecord.cache_hits`.
    pub cache_hits: u64,
    /// Configurations tested.
    pub tested: u64,
}

/// One round: daemon start, the closed loop over all fourteen jobs,
/// daemon drain.
#[derive(Default)]
pub struct Round {
    /// Bind, start and first `/healthz` answer, seconds.
    pub setup_s: f64,
    /// Wall time of the closed loop, seconds.
    pub loop_s: f64,
    /// Jobs that completed and passed the output check.
    pub jobs: Vec<JobSample>,
    /// Requests answered 429.
    pub shed: u64,
    /// Requests sent on the keep-alive clients.
    pub requests: u64,
    /// Of those, requests that rode an already-open connection.
    pub reused: u64,
    /// One entry per job.
    pub tally: Tally,
    /// Why each failed job failed.
    pub errors: Vec<String>,
}

struct Sched {
    order: Vec<(usize, bool)>,
    taken: Vec<bool>,
    plain_done: Vec<bool>,
}

impl Sched {
    /// The first job not yet taken whose plain copy (if it is the shadow
    /// copy) has finished; `Some(None)` means wait, `None` means all
    /// jobs are taken.
    fn next(&mut self) -> Option<Option<usize>> {
        let mut pending = false;
        for (k, &(bench, shadow)) in self.order.iter().enumerate() {
            if self.taken[k] {
                continue;
            }
            pending = true;
            if !shadow || self.plain_done[bench] {
                self.taken[k] = true;
                return Some(Some(k));
            }
        }
        pending.then_some(None)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run one job from submit to record and check it.
fn run_job(
    client: &mut Client,
    addr: &str,
    body: &str,
    expected: &Row,
) -> Result<JobSample, (String, bool)> {
    let t0 = Instant::now();
    let (status, resp) = client.request("POST", "/jobs", Some(body)).map_err(|e| (e, false))?;
    let submit_ms = ms(t0.elapsed());
    if status == 429 {
        return Err(("job shed (429)".into(), true));
    }
    if status != 202 {
        return Err((format!("POST /jobs answered {status}: {resp}"), false));
    }
    let v = json::parse(&resp).map_err(|e| (e, false))?;
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .ok_or(("no job id".to_string(), false))?
        .to_string();
    let mut live = String::new();
    let status = Client::new(addr)
        .stream("GET", &format!("/jobs/{id}/live"), None, &mut |s: &str| live.push_str(s))
        .map_err(|e| (e, false))?;
    let job_ms = ms(t0.elapsed());
    if status != 200 {
        return Err((format!("GET /jobs/{id}/live answered {status}"), false));
    }
    let last_phase = live
        .lines()
        .rev()
        .filter_map(|l| json::parse(l).ok())
        .find(|r| r.get("kind").and_then(json::Value::as_str) == Some("progress"))
        .and_then(|r| r.get("phase").and_then(json::Value::as_str).map(str::to_string));
    if last_phase.as_deref() != Some("done") {
        return Err((format!("{id}: live stream ended without a done record"), false));
    }
    let t = Instant::now();
    let (status, rec) =
        client.request("GET", &format!("/jobs/{id}"), None).map_err(|e| (e, false))?;
    let get_ms = ms(t.elapsed());
    if status != 200 {
        return Err((format!("GET /jobs/{id} answered {status}"), false));
    }
    let v = json::parse(&rec).map_err(|e| (e, false))?;
    let state = v.get("state").and_then(json::Value::as_str).unwrap_or("");
    if state != "done" {
        return Err((format!("{id}: ended {state}: {rec}"), false));
    }
    let fig10 = v.get("fig10").and_then(json::Value::as_str).unwrap_or("");
    let row = parse_row(fig10).map_err(|e| (e, false))?;
    if &row != expected {
        return Err((format!("{id}: row {fig10:?} differs from the expected row"), false));
    }
    let num = |k: &str| v.get(k).and_then(json::Value::as_u64).unwrap_or(0);
    Ok(JobSample {
        start: t0,
        job_ms,
        submit_ms,
        get_ms,
        run_ms: num("wall_us") as f64 / 1e3,
        cache_hits: num("cache_hits"),
        tested: row.tested as u64,
    })
}

/// `GET /healthz` on an open connection; `Ok` once it answers 200.
fn healthz(mut conn: TcpStream) -> Result<(), String> {
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    conn.read_to_string(&mut resp).map_err(|e| format!("read: {e}"))?;
    match resp.split_ascii_whitespace().nth(1) {
        Some("200") => Ok(()),
        _ => Err(format!("unexpected answer {:?}", resp.lines().next().unwrap_or(""))),
    }
}

/// One round on a fresh daemon with a fresh data directory.
pub fn round(data_dir: &Path, seed_order: &mut SeedOrder) -> Result<Round, String> {
    let expected = parse_table(SUITE.expected)?;
    let _ = std::fs::remove_dir_all(data_dir);
    let t0 = Instant::now();
    let cfg = DaemonConfig {
        data_dir: data_dir.to_path_buf(),
        workers: THREADS,
        max_running: 2,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let stop = server.stop_handle();
    let mgr = Arc::clone(server.manager());
    // Connect before the accept loop starts, so its first accept finds
    // the probe and set-up does not depend on where the loop's 50 ms
    // idle poll happens to be.
    let probe = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"));
    let handle = std::thread::spawn(move || server.run());
    let health = probe.and_then(healthz);
    let setup_s = t0.elapsed().as_secs_f64();

    let perm = seed_order.permutation(NAS.len());
    let mut order: Vec<(usize, bool)> = perm.iter().map(|&b| (b, false)).collect();
    order.extend(seed_order.permutation(NAS.len()).into_iter().map(|b| (b, true)));
    let n = order.len();
    let sched =
        Mutex::new(Sched { order, taken: vec![false; n], plain_done: vec![false; NAS.len()] });
    let cond = Condvar::new();
    let result = Mutex::new(Round::default());
    let t_loop = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = Client::new(addr.as_str());
                let mut requests = 0u64;
                loop {
                    let k = {
                        let mut st = sched.lock().expect("scheduler lock poisoned");
                        loop {
                            match st.next() {
                                None => break None,
                                Some(Some(k)) => break Some(k),
                                Some(None) => st = cond.wait(st).expect("scheduler lock poisoned"),
                            }
                        }
                    };
                    let Some(k) = k else { break };
                    let (bench, shadow) = sched.lock().expect("scheduler lock poisoned").order[k];
                    let spec = SUITE.spec(NAS[bench].0, shadow);
                    let label = format!("{}.w", NAS[bench].0);
                    let exp = expected.iter().find(|r| r.label == label).cloned();
                    let r = match exp {
                        Some(exp) => run_job(&mut client, &addr, &spec.to_json(), &exp),
                        None => Err((format!("no expected row for {label}"), false)),
                    };
                    requests += 2;
                    {
                        let mut res = result.lock().expect("result lock poisoned");
                        match r {
                            Ok(j) => {
                                res.jobs.push(j);
                                res.tally.record(true);
                            }
                            Err((e, shed)) => {
                                res.shed += shed as u64;
                                res.errors.push(format!(
                                    "{label}{}: {e}",
                                    if shadow { "+shadow" } else { "" }
                                ));
                                res.tally.record(false);
                            }
                        }
                    }
                    let mut st = sched.lock().expect("scheduler lock poisoned");
                    if !shadow {
                        st.plain_done[bench] = true;
                    }
                    cond.notify_all();
                }
                let mut res = result.lock().expect("result lock poisoned");
                res.requests += requests;
                res.reused += client.reused() as u64;
            });
        }
    });
    let loop_s = t_loop.elapsed().as_secs_f64();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let served = handle.join().map_err(|_| "daemon thread panicked".to_string())?;
    // Connection threads hold the job engine until their clients hang
    // up; wait for them so no daemon thread outlives its round.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&mgr) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(mgr);
    let _ = std::fs::remove_dir_all(data_dir);
    served.map_err(|e| format!("daemon: {e}"))?;
    let mut res = result.into_inner().expect("result lock poisoned");
    res.setup_s = setup_s;
    res.loop_s = loop_s;
    if let Err(e) = health {
        res.errors.push(format!("healthz failed: {e}"));
    }
    Ok(res)
}

fn data_dir(seed: u64) -> PathBuf {
    PathBuf::from(format!("perfbench/out/daemon-{}-{seed}", std::process::id()))
}

fn rounds(seed: u64, seconds: f64) -> Result<Vec<Round>, String> {
    let mut order = SeedOrder::new(seed);
    let dir = data_dir(seed);
    let mut out = Vec::new();
    let t0 = Instant::now();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(round(&dir, &mut order)?);
    }
    Ok(out)
}

fn fold(rounds: &[Round]) -> (Tally, Vec<String>) {
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    for r in rounds {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
        errors.extend(r.errors.iter().cloned());
    }
    (tally, errors)
}

/// The timed run: end-to-end metrics. A sweep is one round's closed
/// loop; the set-up is the daemon start of each round.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rounds = rounds(seed, seconds)?;
    let (tally, errors) = fold(&rounds);
    let jobs: Vec<&JobSample> = rounds.iter().flat_map(|r| &r.jobs).collect();
    let job_ms: Vec<f64> = jobs.iter().map(|j| j.job_ms).collect();
    let tested = jobs.iter().map(|j| j.tested as usize).sum();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let sweeps: Vec<f64> = rounds.iter().map(|r| r.loop_s).collect();
    let metrics = crate::end_to_end(&setups, &sweeps, &job_ms, tested);
    Ok(Outcome { tally, metrics, errors, spans: None, notes: Vec::new() })
}

/// The `craftd` layer metrics of the traced pass, from daemon rounds
/// run for `seconds`. Each job adds a `job` span with `submit`,
/// `follow` and `get` children, timed from the client.
pub fn layer_metrics(
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<(Vec<Metric>, Tally, Vec<String>), String> {
    let rounds = rounds(seed, seconds)?;
    let (tally, errors) = fold(&rounds);
    let jobs: Vec<&JobSample> = rounds.iter().flat_map(|r| &r.jobs).collect();
    for (op, j) in (1_000_000u64..).zip(&jobs) {
        let s0 = spans.at(j.start);
        let (sub, end) = (s0 + j.submit_ms * 1e3, s0 + j.job_ms * 1e3);
        let job = spans.push("job", s0, end + j.get_ms * 1e3, None, op);
        spans.push("submit", s0, sub, Some(job), op);
        spans.push("follow", sub, end, Some(job), op);
        spans.push("get", end, end + j.get_ms * 1e3, Some(job), op);
    }
    let n = format!("n={}", jobs.len());
    let col =
        |f: &dyn Fn(&JobSample) -> f64| median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>());
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let hits: u64 = jobs.iter().map(|j| j.cache_hits).sum();
    let tested: u64 = jobs.iter().map(|j| j.tested).sum();
    let requests: u64 = rounds.iter().map(|r| r.requests).sum();
    let reused: u64 = rounds.iter().map(|r| r.reused).sum();
    let shed: u64 = rounds.iter().map(|r| r.shed).sum();
    let http_ms: Vec<f64> = jobs.iter().flat_map(|j| [j.submit_ms, j.get_ms]).collect();
    let ht = tail(&http_ms, 90.0);
    let metrics = vec![
        Metric::new("craftd.http_ms.p50", median(&http_ms), "ms", format!("n={}", http_ms.len())),
        Metric::new("craftd.http_ms.p90", ht.value, "ms", format!("p{:.1} of n={}", ht.pct, ht.n)),
        Metric::new("craftd.submit_ms", col(&|j| j.submit_ms), "ms", format!("median, {n}")),
        Metric::new("craftd.run_ms", col(&|j| j.run_ms), "ms", format!("median, {n}")),
        Metric::new("craftd.queue_ms", col(&|j| j.job_ms - j.run_ms), "ms", format!("median, {n}")),
        Metric::new(
            "craftd.shared_hit_ratio",
            ratio(hits, tested),
            "ratio",
            format!("{hits} cache hits / {tested} tested"),
        ),
        Metric::new(
            "craftd.reuse_ratio",
            ratio(reused, requests),
            "ratio",
            format!("{reused} reused / {requests} requests"),
        ),
        Metric::new("craftd.shed", shed as f64, "count", format!("over {} rounds", rounds.len())),
    ];
    Ok((metrics, tally, errors))
}
