//! # craftd — the sharded multi-tenant tuning-search daemon
//!
//! A long-running service wrapping the mixed-precision analysis
//! system: tenants `POST` tuning jobs over HTTP, the daemon shards
//! candidate-configuration evaluation across one shared work-stealing
//! [`WorkerPool`](mpsearch::WorkerPool), streams each job's live
//! telemetry to followers, and persists completed jobs into the same
//! run-registry format the `craft` CLI writes — so `craft report` /
//! `watch` / `compare` work on daemon runs unchanged.
//!
//! The protocol (all bodies JSON; connections are HTTP/1.1 keep-alive —
//! a client can issue its whole request sequence over one connection,
//! except that a live follow ends its connection when the job does):
//!
//! | Method & path          | Meaning                                     |
//! |------------------------|---------------------------------------------|
//! | `POST /jobs`           | Submit a [`JobSpec`] body → `202 {"id":…}`, `400` invalid, `429` queue full (shed), `503` draining |
//! | `GET /jobs`            | All job records                             |
//! | `GET /jobs/<id>`       | One job's status record                     |
//! | `GET /jobs/<id>/live`  | Chunked follow of the job's `live.jsonl` until it finishes |
//! | `GET /jobs/<id>/metrics` | The job's trace as Prometheus text, labelled `job`/`bench`/`lattice`; running jobs fold `live.jsonl` into a partial snapshot, `503 + Retry-After` until the first delta exists |
//! | `GET /jobs/<id>/decisions` | The job's `decisions.jsonl` verbatim — per-instruction precision decision provenance; `503 + Retry-After` while the job is still running, `404` if it finished without recording any |
//! | `GET /metrics`         | Unified exposition: daemon series (jobs, queue, cache, request telemetry) + every job's series, labelled — including the `craft_fp_*` numerical-health family for `num_health` jobs |
//! | `GET /healthz`         | Liveness probe                              |
//! | `POST /admin/drain`    | Begin graceful drain                        |
//!
//! Multi-tenancy is enforced by bounded intake (submissions past
//! `queue_cap` are shed with `429`), a fixed runner count
//! (`max_running`), one shared evaluation pool sized independently of
//! job demand, daemon-default fuel/wall quotas for jobs that bring
//! none, and a cross-job evaluation cache namespaced by each job's
//! verdict-determining options (see [`cache::SharedEvalCache`]).
//!
//! ## Latency
//!
//! A job costs its search plus sub-millisecond HTTP overhead: nothing
//! on the path from submit to result sleeps. The accept loop blocks in
//! `accept()`, and a drain watcher wakes it at shutdown. Every socket
//! is `TCP_NODELAY`, and every HTTP message is one write (see
//! [`http`]). A live follow wakes on the job manager's condvar the
//! moment its job ends. After each job the runner returns freed heap
//! pages to the OS, so overlapping jobs do not inflate resident memory.
//!
//! ## Observability
//!
//! Every request is counted (aggregate + per-route/status) and timed
//! into log2 latency histograms on the daemon-lifetime tracer;
//! connection, in-flight, keep-alive-reuse, and parse-error series ride
//! along (see DESIGN.md §16 for the naming scheme). Requests carrying an
//! `x-craft-trace` header have the id stamped through the job record,
//! manifest, run-dir spans, and the structured daemon log
//! (`daemon.log.jsonl`, see [`obs`]), so one id stitches a client call
//! to everything it caused.

#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod obs;

pub use cache::SharedEvalCache;
pub use jobs::{DaemonConfig, JobManager, JobRecord, JobState, SubmitError};

use mixedprec::JobSpec;
use mptrace::sinks;
use mptrace::stream::LiveTail;
use obs::{Level, LogRecord};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a live follow holds back intermediate deltas (it
/// forwards the job's final delta as soon as the job ends), and how
/// often the drain watcher polls the stop flag a signal handler raises.
/// Neither sits between a submit and its result.
const POLL: Duration = Duration::from_millis(50);

/// The daemon: a bound listener plus the job engine behind it.
pub struct Server {
    mgr: Arc<JobManager>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the job engine with `cfg`.
    pub fn bind(addr: &str, cfg: DaemonConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            mgr: JobManager::start(cfg)?,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The job engine.
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.mgr
    }

    /// A handle that makes [`Server::run`] begin a graceful drain when
    /// set (wired to SIGTERM by the binary, or set directly by tests).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serve until the stop handle is raised (or `POST /admin/drain`
    /// arrives) *and* the drain completes. Read endpoints keep working
    /// while in-flight jobs finish; queued jobs are persisted as
    /// `pending`; then this returns.
    ///
    /// The accept loop blocks in `accept()`. A watcher thread starts the
    /// drain, waits for it to complete, and then wakes the loop with a
    /// connection of its own.
    pub fn run(self) -> std::io::Result<()> {
        let drained = Arc::new(AtomicBool::new(false));
        let wake = loopback(self.listener.local_addr()?);
        let watcher = {
            let (mgr, stop, drained) =
                (Arc::clone(&self.mgr), Arc::clone(&self.stop), Arc::clone(&drained));
            std::thread::spawn(move || {
                // `POST /admin/drain` wakes this wait at once; the stop
                // flag, raised from a signal handler, can only be polled.
                while !mgr.wait_draining(POLL) {
                    if stop.load(Ordering::SeqCst) {
                        mgr.drain();
                    }
                }
                mgr.wait_drained();
                drained.store(true, Ordering::SeqCst);
                loop {
                    match TcpStream::connect(wake) {
                        Ok(_) => break,
                        // The listener is gone: nothing left to wake.
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => break,
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
        };
        loop {
            let conn = match self.listener.accept() {
                Ok((conn, _peer)) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            if drained.load(Ordering::SeqCst) {
                break;
            }
            // Responses are single writes; with Nagle on, a follow's
            // chunks would still wait for the client's delayed ACK.
            let _ = conn.set_nodelay(true);
            let mgr = Arc::clone(&self.mgr);
            std::thread::spawn(move || handle_connection(conn, &mgr));
        }
        let _ = watcher.join();
        Ok(())
    }
}

/// Where a connection to `addr` reaches the listener bound there: a
/// wildcard bind is reached through loopback.
fn loopback(mut addr: std::net::SocketAddr) -> std::net::SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Serve one connection: parse requests and respond until the client
/// goes away, asks `Connection: close`, a live follow consumes the
/// connection, or a request is malformed (framing can no longer be
/// trusted after one).
fn handle_connection(mut conn: TcpStream, mgr: &Arc<JobManager>) {
    mgr.connection_opened();
    serve_connection(&mut conn, mgr);
    mgr.connection_closed();
}

fn serve_connection(conn: &mut TcpStream, mgr: &Arc<JobManager>) {
    let mut served = 0u64;
    loop {
        let request = match http::read_request(conn) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                // A garbage request must not take the connection loop
                // (let alone the daemon) down: count it, warn-log it,
                // answer 400, and drop only this connection — framing
                // can no longer be trusted after a parse failure.
                mgr.count_parse_error(&e);
                let body = error_json(&e);
                let _ = http::respond_json(conn, 400, &body);
                return;
            }
        };
        if served > 0 {
            mgr.keepalive_reused();
        }
        served += 1;
        mgr.request_begin();
        let t0 = Instant::now();
        let outcome = route(conn, mgr, &request);
        let latency_us = t0.elapsed().as_micros() as u64;
        mgr.request_end();
        match outcome {
            Ok((status, keep)) => {
                mgr.observe_request(route_key(&request), status, latency_us);
                let mut rec = LogRecord::now(Level::Info, "request")
                    .s("method", &request.method)
                    .s("path", &request.path)
                    .u("status", status as u64)
                    .u("us", latency_us);
                if let Some(trace) = &request.trace {
                    rec = rec.s("trace", trace);
                }
                mgr.log_event(rec);
                if !keep || request.close {
                    return;
                }
            }
            // `Err` = the client went away mid-response; nothing to
            // clean up either way.
            Err(_) => return,
        }
    }
}

/// Stable per-route key used in metric names (`http.requests.<key>.<status>`,
/// `http.latency_us.<key>`).
fn route_key(req: &http::Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => "post_jobs",
        ("GET", ["jobs"]) => "get_jobs",
        ("GET", ["jobs", _]) => "get_job",
        ("GET", ["jobs", _, "live"]) => "get_job_live",
        ("GET", ["jobs", _, "metrics"]) => "get_job_metrics",
        ("GET", ["jobs", _, "decisions"]) => "get_job_decisions",
        ("GET", ["metrics"]) => "get_metrics",
        ("GET", ["healthz"]) => "healthz",
        ("POST", ["admin", "drain"]) => "drain",
        _ => "other",
    }
}

fn error_json(msg: &str) -> String {
    let mut s = String::from("{\"error\":");
    mptrace::json::esc(&mut s, msg);
    s.push('}');
    s
}

/// Route one request. Returns `(status, connection still usable)` —
/// usable is `false` after a live follow, whose chunked response
/// declares `Connection: close`.
fn route(
    conn: &mut TcpStream,
    mgr: &Arc<JobManager>,
    req: &http::Request,
) -> std::io::Result<(u16, bool)> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    if let ("GET", ["jobs", id, "live"]) = (req.method.as_str(), segments.as_slice()) {
        return stream_live(conn, mgr, id).map(|status| (status, false));
    }
    let done = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(conn, 200, "text/plain", b"ok\n").map(|()| 200),
        ("GET", ["metrics"]) => {
            let text = unified_metrics(mgr);
            http::respond(conn, 200, "text/plain; version=0.0.4", text.as_bytes()).map(|()| 200)
        }
        ("POST", ["jobs"]) => {
            let body = String::from_utf8_lossy(&req.body);
            let spec = match JobSpec::parse(&body) {
                Ok(s) => s,
                Err(e) => {
                    return http::respond_json(conn, 400, &error_json(&e)).map(|()| (400, true))
                }
            };
            match mgr.submit(spec, req.trace.clone()) {
                Ok(id) => {
                    let mut s = String::from("{\"id\":");
                    mptrace::json::esc(&mut s, &id);
                    s.push('}');
                    http::respond_json(conn, 202, &s).map(|()| 202)
                }
                Err(SubmitError::Invalid(e)) => {
                    http::respond_json(conn, 400, &error_json(&e)).map(|()| 400)
                }
                Err(SubmitError::QueueFull) => http::respond_json(
                    conn,
                    429,
                    &error_json("job queue is full — daemon is shedding load, retry later"),
                )
                .map(|()| 429),
                Err(SubmitError::Draining) => {
                    http::respond_json(conn, 503, &error_json("daemon is draining")).map(|()| 503)
                }
            }
        }
        ("GET", ["jobs"]) => {
            let jobs = mgr.jobs();
            let mut s = String::from("[");
            for (i, j) in jobs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&j.to_json());
            }
            s.push(']');
            http::respond_json(conn, 200, &s).map(|()| 200)
        }
        ("GET", ["jobs", id]) => match mgr.job(id) {
            Some(j) => http::respond_json(conn, 200, &j.to_json()).map(|()| 200),
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("GET", ["jobs", id, "metrics"]) => match mgr.job(id) {
            Some(j) => {
                let dir = mgr.job_dir(id);
                match job_snapshot(&dir) {
                    Some(snap) => {
                        let labels = job_labels(&j);
                        let pairs: Vec<(&str, &str)> =
                            labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                        let text = sinks::prometheus_labeled(&snap, &pairs);
                        http::respond(conn, 200, "text/plain; version=0.0.4", text.as_bytes())
                            .map(|()| 200)
                    }
                    // Running (or still-queued) job with no deltas yet:
                    // tell the scraper to come back, not that the job is
                    // unknown.
                    None if !j.state.is_terminal() => http::respond_with(
                        conn,
                        503,
                        "application/json",
                        &[("Retry-After", "1")],
                        error_json("job has produced no telemetry yet — retry").as_bytes(),
                    )
                    .map(|()| 503),
                    None => http::respond_json(conn, 404, &error_json("job produced no trace"))
                        .map(|()| 404),
                }
            }
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("GET", ["jobs", id, "decisions"]) => match mgr.job(id) {
            Some(j) => {
                let path = mgr.job_dir(id).join("decisions.jsonl");
                match std::fs::read(&path) {
                    // Verbatim JSONL: one decision record per line, the
                    // same bytes `craft explain` reads from a run dir.
                    Ok(body) => http::respond(conn, 200, "application/jsonl", &body).map(|()| 200),
                    // The file is written at job completion: a job that
                    // is still queued/running has no decisions yet.
                    Err(_) if !j.state.is_terminal() => http::respond_with(
                        conn,
                        503,
                        "application/json",
                        &[("Retry-After", "1")],
                        error_json("job has not decided yet — retry").as_bytes(),
                    )
                    .map(|()| 503),
                    Err(_) => {
                        http::respond_json(conn, 404, &error_json("job recorded no decisions"))
                            .map(|()| 404)
                    }
                }
            }
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("POST", ["admin", "drain"]) => {
            mgr.drain();
            http::respond_json(conn, 200, "{\"draining\":true}").map(|()| 200)
        }
        (m, _) if m != "GET" && m != "POST" => {
            http::respond_json(conn, 405, &error_json("method not allowed")).map(|()| 405)
        }
        _ => http::respond_json(conn, 404, &error_json("no such endpoint")).map(|()| 404),
    };
    done.map(|status| (status, true))
}

/// The job's constant label set for Prometheus expositions.
fn job_labels(j: &JobRecord) -> Vec<(&'static str, String)> {
    let lattice =
        if j.spec.lattice.is_empty() { "classic".to_string() } else { j.spec.lattice.clone() };
    vec![("job", j.id.clone()), ("bench", j.spec.bench.clone()), ("lattice", lattice)]
}

/// The unified `GET /metrics` body: the daemon-lifetime series first
/// (with `# TYPE` headers), then every known job's series labelled
/// `job`/`bench`/`lattice`, comment lines stripped so each
/// metric family is declared at most once.
fn unified_metrics(mgr: &Arc<JobManager>) -> String {
    mgr.publish_gauges();
    let mut text = sinks::prometheus(&mgr.tracer().snapshot());
    for j in mgr.jobs() {
        let Some(snap) = job_snapshot(&mgr.job_dir(&j.id)) else { continue };
        let labels = job_labels(&j);
        let pairs: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let labeled = sinks::prometheus_labeled(&snap, &pairs);
        for line in labeled.lines().filter(|l| !l.starts_with('#')) {
            text.push_str(line);
            text.push('\n');
        }
    }
    text
}

/// Fold whatever trace artifacts the job has so far into a snapshot:
/// the final `trace.jsonl` once it exists, otherwise the `live.jsonl`
/// delta chain folded into a partial snapshot. `None` until the stream
/// has at least one delta — an empty exposition would be
/// indistinguishable from a dead job.
fn job_snapshot(dir: &std::path::Path) -> Option<mptrace::snapshot::TraceSnapshot> {
    let trace = dir.join("trace.jsonl");
    if let Ok(text) = std::fs::read_to_string(&trace) {
        if let Ok((snap, _)) = mptrace::snapshot::TraceSnapshot::parse_tolerant(&text) {
            return Some(snap);
        }
    }
    mptrace::stream::LiveLog::from_file(dir.join("live.jsonl"))
        .ok()
        .filter(|log| !log.deltas.is_empty())
        .map(|log| log.final_snapshot())
}

/// `GET /jobs/<id>/live`: follow the job's `live.jsonl` with a
/// byte-offset [`LiveTail`] and forward complete lines as chunks until
/// the job reaches a terminal state. Between forwards the follow waits
/// on the job manager's state condvar, so it wakes the moment the job
/// ends; the runner drops the job's stream sink (flushing the final
/// delta) before it changes the state, so the read after that wake
/// holds the last delta. Torn trailing lines stay in the tail's carry
/// buffer, so followers only ever see whole records.
fn stream_live(conn: &mut TcpStream, mgr: &Arc<JobManager>, id: &str) -> std::io::Result<u16> {
    let Some(job) = mgr.job(id) else {
        return http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404);
    };
    let live_path = mgr.job_dir(id).join("live.jsonl");
    let mut tail = LiveTail::new(&live_path);
    let mut ch = http::Chunked::start(conn, 200, "application/jsonl")?;
    let mut terminal = job.state.is_terminal();
    loop {
        if tail.poll().is_err() {
            // A corrupt stream is terminal for the follower; what was
            // already forwarded remains valid.
            break;
        }
        let raw = tail.take_raw();
        ch.chunk(raw.as_bytes())?;
        if terminal {
            break;
        }
        terminal = mgr.wait_terminal(id, POLL);
    }
    ch.finish().map(|()| 200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_after_the_stop_handle_with_no_traffic() {
        let data_dir = std::env::temp_dir().join(format!("craftd-lib-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let cfg = DaemonConfig { data_dir: data_dir.clone(), ..Default::default() };
        let server = Server::bind("127.0.0.1:0", cfg).unwrap();
        let stop = server.stop_handle();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.run().map_err(|e| e.to_string())));
        stop.store(true, Ordering::SeqCst);
        let outcome = rx.recv_timeout(Duration::from_secs(10)).expect("run() still blocked");
        assert_eq!(outcome, Ok(()));
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}
