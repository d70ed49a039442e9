//! The experiment service: a long-running daemon (`simd`) that accepts
//! serialized [`RunSpec`]s over TCP, schedules them across a worker
//! pool, and memoizes results keyed on the spec's [cache
//! key](RunSpec::cache_key) — (bench parameters, seed, faults,
//! code-version).
//!
//! # Protocol
//!
//! Newline-delimited JSON, one request per connection. The client
//! sends a single request line:
//!
//! ```text
//! {"op":"run","spec":{...RunSpec...}}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! and reads event lines until the connection closes. A `run` streams:
//!
//! ```text
//! {"event":"accepted","key":"<fnv64 of the cache key>","cached":<bool>}
//! {"event":"progress","done":N,"total":N}          (throttled; misses only)
//! {"event":"result","cached":<bool>,"wall_ms":<f64>,"runs_executed":N}
//! {...RunResult...}                                 (the payload line)
//! ```
//!
//! Failures replace the last two lines with
//! `{"event":"error","message":"..."}`. `status` answers with one
//! `{"event":"status",...}` line carrying the run counter, cache size,
//! and a [`Metrics::snapshot_json`] of server telemetry.
//!
//! # Memoization contract
//!
//! The cache maps `RunSpec::cache_key(code_version)` to the *serialized
//! payload line*, so a hit is byte-identical to the miss that populated
//! it. The key leaves out the worker counts: the determinism contract
//! (same config + seed → same bytes at any parallelism) makes
//! `threads`/`sweep_threads` safe to share. Benches whose rows embed
//! wall-clock timings (scaling, collectives — see
//! [`BenchSpec::cacheable`](crate::spec::BenchSpec::cacheable)) are
//! never memoized: every submission re-runs and answers
//! `"cached":false`, so their `--check` regression gates always see
//! fresh numbers. Concurrent submissions of the same cacheable key
//! dedupe: the second waits on the first's in-flight slot instead of
//! re-running. `runs_executed` counts only actual simulations — the
//! run-counter oracle CI uses to prove a resubmission never re-ran.

use crate::exec;
use crate::jsonlint::{self, Json};
use crate::spec::{RunResult, RunSpec};
use mpiq_dessim::metrics::Metrics;
use mpiq_dessim::Time;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default listen address; override with `simd --addr`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// How the daemon is configured (see `simd --help`).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections (each runs jobs inline).
    pub workers: usize,
    /// Version stamp mixed into every cache key, so results cached by
    /// one build are never served for another.
    pub code_version: String,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: 2,
            code_version: default_code_version(),
        }
    }
}

/// The default code-version stamp: crate version plus the git commit
/// when available (`0.1.0+4f2a9c1`), crate version alone otherwise.
pub fn default_code_version() -> String {
    let pkg = env!("CARGO_PKG_VERSION");
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    match rev {
        Some(rev) if !rev.is_empty() => format!("{pkg}+{rev}"),
        _ => pkg.to_string(),
    }
}

/// FNV-1a over the cache key: a short stable fingerprint for log lines
/// and the `accepted` event (the full key is the JSON itself).
pub fn fingerprint(key: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

enum Slot {
    /// A worker is computing this key; waiters block on `cache_ready`.
    InFlight,
    /// The serialized payload line, served byte-identically to every hit.
    Done(Arc<String>),
}

struct State {
    cache: Mutex<HashMap<String, Slot>>,
    cache_ready: Condvar,
    jobs: Mutex<VecDeque<TcpStream>>,
    jobs_ready: Condvar,
    runs_executed: AtomicU64,
    shutdown: AtomicBool,
    metrics: Mutex<Metrics>,
}

/// Recover from a poisoned mutex: a panicking job is already reported
/// to its client, and every value the locks guard stays consistent
/// under panic (worst case an `InFlight` slot, which the panicking
/// worker clears).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The experiment server. [`Server::bind`] then [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    cfg: ServiceConfig,
    state: Arc<State>,
}

impl Server {
    /// Bind the listen socket (pass port 0 for an ephemeral port, then
    /// read the real one back with [`Server::local_addr`]).
    pub fn bind(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut metrics = Metrics::disabled();
        metrics.enable();
        Ok(Server {
            listener,
            cfg,
            state: Arc::new(State {
                cache: Mutex::new(HashMap::new()),
                cache_ready: Condvar::new(),
                jobs: Mutex::new(VecDeque::new()),
                jobs_ready: Condvar::new(),
                runs_executed: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                metrics: Mutex::new(metrics),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections and serve until a `shutdown` request.
    /// Blocks; run it on a dedicated thread when embedding (tests do).
    pub fn serve(self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        for i in 0..self.cfg.workers.max(1) {
            let state = Arc::clone(&self.state);
            let cfg = self.cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("simd-worker-{i}"))
                    .spawn(move || worker_loop(&state, &cfg))?,
            );
        }
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    lock(&self.state.jobs).push_back(stream);
                    self.state.jobs_ready.notify_one();
                }
                Err(_) => continue,
            }
        }
        // Wake every worker so they observe the shutdown flag and exit.
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.jobs_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop(state: &State, cfg: &ServiceConfig) {
    loop {
        let stream = {
            let mut jobs = lock(&state.jobs);
            loop {
                if let Some(s) = jobs.pop_front() {
                    break s;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                jobs = state
                    .jobs_ready
                    .wait(jobs)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        handle(state, cfg, stream);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    debug_assert!(jsonlint::validate(line).is_ok(), "server emitted invalid JSON: {line}");
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

fn send_error(stream: &mut TcpStream, message: &str) {
    send_line(
        stream,
        &format!("{{\"event\":\"error\",\"message\":{}}}", crate::report::json_str(message)),
    );
}

fn handle(state: &State, cfg: &ServiceConfig, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // A client that stops reading must not park a worker forever on a
    // blocking write while its key is still in flight; a timed-out
    // write fails `send_line`, which drops the stream.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut line = String::new();
    if BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    })
    .read_line(&mut line)
    .is_err()
    {
        return;
    }
    let doc = match jsonlint::parse(line.trim()) {
        Ok(doc) => doc,
        Err(e) => return send_error(&mut stream, &format!("bad request: {e}")),
    };
    match doc.get("op").and_then(Json::as_str) {
        Some("run") => {
            let Some(spec_doc) = doc.get("spec") else {
                return send_error(&mut stream, "run request is missing \"spec\"");
            };
            match RunSpec::from_json_value(spec_doc) {
                Ok(spec) => handle_run(state, cfg, &mut stream, &spec),
                Err(e) => send_error(&mut stream, &format!("bad spec: {e}")),
            }
        }
        Some("status") => {
            let cache_entries = lock(&state.cache).len();
            send_line(
                &mut stream,
                &format!(
                    "{{\"event\":\"status\",\"runs_executed\":{},\"cache_entries\":{},\
                     \"workers\":{},\"code_version\":{},\"metrics\":{}}}",
                    state.runs_executed.load(Ordering::SeqCst),
                    cache_entries,
                    cfg.workers,
                    crate::report::json_str(&cfg.code_version),
                    lock(&state.metrics).snapshot_json(),
                ),
            );
        }
        Some("shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.jobs_ready.notify_all();
            send_line(&mut stream, "{\"event\":\"shutdown\"}");
            // Nudge the acceptor out of `incoming()` so serve() returns.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
        }
        _ => send_error(&mut stream, "unknown op (want run, status, or shutdown)"),
    }
}

fn handle_run(state: &State, cfg: &ServiceConfig, stream: &mut TcpStream, spec: &RunSpec) {
    let start = Instant::now();
    let key = spec.cache_key(&cfg.code_version);
    let cacheable = spec.bench.cacheable();
    // Claim the key: hit, join an in-flight run, or take the miss.
    // Wall-clock benches bypass the cache entirely — their rows embed
    // timings no other run can legitimately reproduce.
    let (payload, cached) = if cacheable {
        let mut cache = lock(&state.cache);
        loop {
            match cache.get(&key) {
                Some(Slot::Done(payload)) => break (Some(Arc::clone(payload)), true),
                Some(Slot::InFlight) => {
                    cache = state
                        .cache_ready
                        .wait(cache)
                        .unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    cache.insert(key.clone(), Slot::InFlight);
                    break (None, false);
                }
            }
        }
    } else {
        (None, false)
    };
    if !send_line(
        stream,
        &format!(
            "{{\"event\":\"accepted\",\"key\":\"{}\",\"cached\":{cached}}}",
            fingerprint(&key)
        ),
    ) {
        // Client went away before we ran anything; release the claim.
        if cacheable && !cached {
            lock(&state.cache).remove(&key);
            state.cache_ready.notify_all();
        }
        return;
    }

    let payload = match payload {
        Some(p) => p,
        None => {
            state.runs_executed.fetch_add(1, Ordering::SeqCst);
            // Stream progress, at most ~20 events per job.
            let progress_stream = Mutex::new(stream.try_clone().ok());
            let last_emit = Mutex::new(Instant::now());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                exec::execute_with(spec, &|done, total| {
                    let mut last = lock(&last_emit);
                    if done < total && last.elapsed() < Duration::from_millis(100) {
                        return;
                    }
                    *last = Instant::now();
                    let mut sink = lock(&progress_stream);
                    if let Some(s) = sink.as_mut() {
                        if !send_line(
                            s,
                            &format!("{{\"event\":\"progress\",\"done\":{done},\"total\":{total}}}"),
                        ) {
                            // Stalled or vanished client: stop streaming
                            // so the worker never blocks on it again; the
                            // run still finishes and (when cacheable)
                            // populates the cache for other waiters.
                            *sink = None;
                        }
                    }
                })
            }));
            let outcome = match outcome {
                Ok(r) => r,
                Err(_) => Err("internal error: job panicked".to_string()),
            };
            match outcome {
                Ok(result) => {
                    let payload = Arc::new(result.to_json());
                    if cacheable {
                        lock(&state.cache).insert(key.clone(), Slot::Done(Arc::clone(&payload)));
                        state.cache_ready.notify_all();
                    }
                    let mut m = lock(&state.metrics);
                    m.add("service.runs", 1);
                    m.add(if cacheable { "service.cache.miss" } else { "service.uncacheable" }, 1);
                    m.record("service.run.wall", Time::from_ns(start.elapsed().as_nanos() as u64));
                    payload
                }
                Err(message) => {
                    // Failed runs are not cached; the next submission retries.
                    if cacheable {
                        lock(&state.cache).remove(&key);
                        state.cache_ready.notify_all();
                    }
                    lock(&state.metrics).add("service.errors", 1);
                    return send_error(stream, &message);
                }
            }
        }
    };
    if cached {
        lock(&state.metrics).add("service.cache.hit", 1);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if send_line(
        stream,
        &format!(
            "{{\"event\":\"result\",\"cached\":{cached},\"wall_ms\":{},\"runs_executed\":{}}}",
            crate::report::json_f64(wall_ms),
            state.runs_executed.load(Ordering::SeqCst),
        ),
    ) {
        send_line(stream, &payload);
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// What a [`submit`] call brings back.
#[derive(Debug)]
pub struct Submission {
    /// The deserialized result.
    pub result: RunResult,
    /// The raw payload line — byte-identical across cache hits.
    pub payload: String,
    /// Did the server serve this from cache?
    pub cached: bool,
    /// Server-side wall time for this request, milliseconds.
    pub wall_ms: f64,
    /// The server's run counter after this request.
    pub runs_executed: u64,
    /// Every event line received before the payload, in order.
    pub transcript: Vec<String>,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("cannot reach server at {addr}: {e}"))
}

fn request(addr: &str, body: &str) -> Result<Vec<String>, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(format!("{body}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send to {addr} failed: {e}"))?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("read from {addr} failed: {e}"))?;
        if line.is_empty() {
            continue;
        }
        // Every line the server sends must be valid JSON.
        jsonlint::validate(&line).map_err(|e| format!("server sent invalid JSON: {e}"))?;
        lines.push(line);
    }
    if lines.is_empty() {
        return Err(format!("server at {addr} closed the connection without replying"));
    }
    Ok(lines)
}

/// Submit a spec and wait for the result, reporting progress events
/// through `progress(done, total)`.
pub fn submit_with(
    addr: &str,
    spec: &RunSpec,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<Submission, String> {
    let lines = request(addr, &format!("{{\"op\":\"run\",\"spec\":{}}}", spec.to_json()))?;
    let mut cached = false;
    let mut wall_ms = 0.0;
    let mut runs_executed = 0;
    let mut transcript = Vec::new();
    let mut payload: Option<String> = None;
    let mut saw_result = false;
    for line in lines {
        if saw_result && payload.is_none() {
            payload = Some(line);
            continue;
        }
        let doc = jsonlint::parse(&line).expect("validated above");
        match doc.get("event").and_then(Json::as_str) {
            Some("error") => {
                let msg = doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("(no message)")
                    .to_string();
                return Err(format!("server: {msg}"));
            }
            Some("progress") => {
                if let (Some(done), Some(total)) = (
                    doc.get("done").and_then(Json::as_u64),
                    doc.get("total").and_then(Json::as_u64),
                ) {
                    progress(done, total);
                }
            }
            Some("result") => {
                cached = matches!(doc.get("cached"), Some(Json::Bool(true)));
                wall_ms = doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                runs_executed = doc.get("runs_executed").and_then(Json::as_u64).unwrap_or(0);
                saw_result = true;
            }
            _ => {}
        }
        transcript.push(line);
    }
    let payload = payload.ok_or("server closed the stream before sending a payload")?;
    let result = RunResult::from_json(&payload)?;
    Ok(Submission { result, payload, cached, wall_ms, runs_executed, transcript })
}

/// [`submit_with`] without progress reporting.
pub fn submit(addr: &str, spec: &RunSpec) -> Result<Submission, String> {
    submit_with(addr, spec, &mut |_, _| {})
}

/// Fetch the server's status line (validated JSON).
pub fn status(addr: &str) -> Result<String, String> {
    let lines = request(addr, "{\"op\":\"status\"}")?;
    lines
        .into_iter()
        .find(|l| {
            jsonlint::parse(l)
                .ok()
                .and_then(|d| d.get("event").and_then(Json::as_str).map(|e| e == "status"))
                .unwrap_or(false)
        })
        .ok_or_else(|| "server sent no status event".to_string())
}

/// Ask the server to exit.
pub fn shutdown(addr: &str) -> Result<(), String> {
    request(addr, "{\"op\":\"shutdown\"}").map(|_| ())
}

// ---------------------------------------------------------------------------
// Thin-client glue
// ---------------------------------------------------------------------------

/// Run a spec the way a bin does: locally unless `--server ADDR` was
/// given, in which case submit it and narrate cache status plus
/// progress on stderr.
pub fn run_for_cli(bin: &str, server: Option<&str>, spec: &RunSpec) -> Result<RunResult, String> {
    match server {
        None => exec::execute(spec),
        Some(addr) => {
            let sub = submit_with(addr, spec, &mut |done, total| {
                eprintln!("{bin}: server progress {done}/{total}");
            })?;
            eprintln!(
                "{bin}: served by {addr} in {:.1} ms ({})",
                sub.wall_ms,
                if sub.cached { "cache hit" } else { "cache miss" }
            );
            Ok(sub.result)
        }
    }
}

/// Print a result the way every bin does: CSV header + rows (or the
/// preformatted text block) on stdout, notes on stderr. Returns
/// `false` when the result carries failures (printed to stderr) so the
/// bin can exit non-zero.
pub fn emit(result: &RunResult, out: Option<&std::path::Path>) -> std::io::Result<bool> {
    if !result.header.is_empty() {
        println!("{}", result.header);
    }
    for row in &result.rows {
        println!("{}", row.csv);
    }
    if !result.text.is_empty() {
        print!("{}", result.text);
    }
    for note in &result.notes {
        eprintln!("{note}");
    }
    if let Some(path) = out {
        let rows: Vec<Vec<(String, String)>> =
            result.rows.iter().map(|r| r.fields.clone()).collect();
        crate::report::write_json_dyn(path, &rows)?;
        eprintln!("wrote {} rows to {}", rows.len(), path.display());
    }
    for f in &result.failures {
        eprintln!("FAIL: {f}");
    }
    Ok(result.failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchSpec;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            bench: BenchSpec::Breakeven { max_queue: 2 },
            seed: None,
            faults: None,
            threads: 0,
            sweep_threads: 1,
        }
    }

    fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            code_version: "test-version".to_string(),
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound");
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, handle)
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(fingerprint(""), "cbf29ce484222325");
        assert_eq!(fingerprint("a"), fingerprint("a"));
        assert_ne!(fingerprint("a"), fingerprint("b"));
    }

    #[test]
    fn run_status_and_shutdown_round_trip() {
        let (addr, handle) = start_server();
        let addr = addr.to_string();
        let spec = tiny_spec();

        let first = submit(&addr, &spec).expect("first run");
        assert!(!first.cached);
        assert_eq!(first.runs_executed, 1);
        assert_eq!(first.result.bench, "breakeven");
        assert_eq!(first.result.rows.len(), 3);

        // Byte-identical cache hit, no second execution.
        let second = submit(&addr, &spec).expect("second run");
        assert!(second.cached);
        assert_eq!(second.runs_executed, 1);
        assert_eq!(second.payload, first.payload);

        // A different seed is a different key.
        let mut reseeded = tiny_spec();
        reseeded.seed = Some(7);
        let third = submit(&addr, &reseeded).expect("third run");
        assert!(!third.cached);
        assert_eq!(third.runs_executed, 2);

        let status_line = status(&addr).expect("status");
        let doc = jsonlint::parse(&status_line).expect("valid");
        assert_eq!(doc.get("runs_executed").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("cache_entries").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("code_version").and_then(Json::as_str),
            Some("test-version")
        );
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some());

        shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread exits");
    }

    #[test]
    fn wall_clock_benches_always_re_run() {
        let (addr, handle) = start_server();
        let addr = addr.to_string();
        // Collectives rows carry a wall_ms cell, so the result is not
        // byte-reproducible and must never be served from cache.
        let spec = RunSpec {
            bench: BenchSpec::Collectives {
                ranks: vec![4],
                ops: vec!["barrier".to_string()],
                topos: vec!["hub".to_string()],
                modes: vec!["host".to_string()],
                len: 0,
                iters: 1,
            },
            seed: None,
            faults: None,
            threads: 1,
            sweep_threads: 1,
        };

        let first = submit(&addr, &spec).expect("first run");
        let second = submit(&addr, &spec).expect("second run");
        assert!(!first.cached && !second.cached);
        assert_eq!(second.runs_executed, 2, "an uncacheable spec must re-run");

        let status_line = status(&addr).expect("status");
        let doc = jsonlint::parse(&status_line).expect("valid");
        assert_eq!(doc.get("cache_entries").and_then(Json::as_u64), Some(0));

        shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread exits");
    }

    #[test]
    fn bad_requests_get_json_errors() {
        let (addr, handle) = start_server();
        let addr = addr.to_string();

        let lines = request(&addr, "{\"op\":\"run\"}").expect("reply");
        assert!(lines[0].contains("\"event\":\"error\""), "{lines:?}");
        assert!(lines[0].contains("missing"), "{lines:?}");

        let lines = request(&addr, "{\"op\":\"dance\"}").expect("reply");
        assert!(lines[0].contains("unknown op"), "{lines:?}");

        // A spec that fails mid-run reports the error and is not cached.
        let mut bad = tiny_spec();
        bad.faults = Some("gibberish".to_string());
        let err = submit(&addr, &bad).expect_err("bad faults");
        assert!(err.contains("--faults"), "{err}");
        let status_line = status(&addr).expect("status");
        let doc = jsonlint::parse(&status_line).expect("valid");
        assert_eq!(doc.get("cache_entries").and_then(Json::as_u64), Some(0));

        shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread exits");
    }
}
