//! The corpus-sharding **fleet coordinator**: drive a set of daemon
//! workers (Unix-socket or TCP, see [`crate::transport`]) through one
//! corpus manifest and merge their verdicts back into manifest order.
//!
//! The coordinator is deliberately dumb about analysis and careful
//! about scheduling:
//!
//! * **Size-aware sharding.** Entries are handed out largest-first
//!   (greedy LPT on source size, the only cost signal available before
//!   running): whichever worker frees up takes the biggest remaining
//!   entry, so one slow giant does not serialize the tail of the run.
//! * **Warm starts.** Each worker is optionally seeded with an
//!   `sct-cache` snapshot ([`crate::client::Client::seed`]) before its
//!   first entry, so a fresh fleet begins with the accumulated arena
//!   and verdict memo of previous runs.
//! * **Failure containment.** A worker that dies mid-entry has the
//!   entry requeued for the survivors (bounded by
//!   [`FleetOptions::max_attempts`]); the worker thread tries one
//!   reconnect and retires if the daemon is really gone. Only a
//!   deterministic job failure (the daemon ran the entry and reported
//!   `failed`, e.g. an assemble error) is terminal without retry —
//!   it would fail identically everywhere.
//! * **Determinism.** Workers run entries with the caller's
//!   [`JobSpec`] verbatim, and the merged [`EntryOutcome::line`]s are byte-identical to a
//!   single-process batch over the same manifest (the fleet-smoke CI
//!   leg diffs them), whatever the sharding.
//!
//! Per-worker dispatch/retry counters and shard-latency histograms
//! (tagged with the daemon job id of the slowest shard) land in the
//! coordinator's own [`sct_telemetry`] registry under the
//! `fleet_*{worker="i"}` families.

use crate::client::{Client, ClientError};
use crate::service::JobSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One corpus entry: a display name (the path a batch run would print)
/// and the `.sasm` source to analyze.
#[derive(Clone, Debug)]
pub struct ManifestEntry {
    /// The name verdict lines lead with (typically the file path).
    pub name: String,
    /// Assembly source text.
    pub source: String,
}

/// How to run the fleet.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Worker daemon addresses — `HOST:PORT` or Unix socket paths
    /// ([`crate::transport::Endpoint::parse`] rules). Must be
    /// non-empty.
    pub workers: Vec<String>,
    /// Shared authentication token; sent as the opening `hello` on
    /// every connection when set (tokenless daemons accept it as a
    /// no-op).
    pub token: Option<String>,
    /// Encoded `sct-cache` snapshot shipped to each worker before its
    /// first entry (warm start). `None` = cold workers.
    pub seed: Option<Vec<u8>>,
    /// The job spec every entry is submitted with (mode, bound,
    /// strategy, symbolic registers, state budget).
    pub spec: JobSpec,
    /// Submission attempts per entry before it is recorded as failed
    /// (first try included). Minimum 1.
    pub max_attempts: u32,
    /// How long to wait for one entry's terminal status before
    /// treating the worker as wedged and requeueing.
    pub job_timeout: Duration,
    /// Transport-level failures one worker may burn across the whole
    /// run — failed dispatches and failed reconnects both count —
    /// before the thread retires and leaves its queue share to the
    /// survivors. Bounds how long a flapping daemon (reachable, but
    /// dropping every job) can keep reclaiming requeued entries.
    /// Minimum 1.
    pub worker_retry_budget: u32,
    /// Base delay of the per-worker retry backoff: doubles per
    /// consecutive failure (capped at 32×) with ±50% deterministic
    /// jitter, so workers recovering from a shared daemon restart
    /// don't reconnect in lockstep. Reset by any successful entry.
    pub retry_backoff: Duration,
    /// Per-read socket timeout on every worker connection. A daemon
    /// that accepts but never answers (wedged accept loop, half-dead
    /// host) surfaces as a timed-out read — requeued under the normal
    /// retry budget — instead of blocking its coordinator thread
    /// forever. Status polls round-trip in milliseconds on a healthy
    /// daemon whatever the job length, so this only needs to cover
    /// network latency, not analysis time. `None` disables the bound
    /// (the pre-timeout behaviour).
    pub read_timeout: Option<Duration>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            workers: Vec::new(),
            token: None,
            seed: None,
            spec: JobSpec::default(),
            max_attempts: 3,
            job_timeout: Duration::from_secs(600),
            worker_retry_budget: 8,
            retry_backoff: Duration::from_millis(200),
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// The delay before a worker's next attempt after `consecutive`
/// failures in a row: exponential (`base * 2^(consecutive-1)`, capped
/// at 32× base) scaled by a deterministic xorshift jitter in
/// `[0.5, 1.5)` keyed on the worker id and its failure count — no RNG
/// dependency, reproducible in tests, and no two workers share a
/// schedule.
fn backoff_delay(base: Duration, consecutive: u32, wid: usize, salt: u32) -> Duration {
    let exp = 1u32 << consecutive.saturating_sub(1).min(5);
    let mut x = (wid as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((salt as u64) << 17 | 0x243F);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    base.saturating_mul(exp)
        .mul_f64(0.5 + (x % 1024) as f64 / 1024.0)
}

/// What happened to one manifest entry.
#[derive(Clone, Debug)]
pub struct EntryOutcome {
    /// The entry's manifest name.
    pub name: String,
    /// The merged verdict line (exactly what a batch run prints), when
    /// the entry completed.
    pub line: Option<String>,
    /// Whether the verdict was insecure.
    pub flagged: bool,
    /// Terminal failure message (job failed deterministically, or the
    /// entry exhausted its attempts / outlived every worker).
    pub error: Option<String>,
    /// Submission attempts consumed.
    pub attempts: u32,
    /// Index (into [`FleetOptions::workers`]) of the worker that
    /// completed the entry.
    pub worker: Option<usize>,
}

/// The merged result of a fleet run: one outcome per manifest entry,
/// in manifest order.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-entry outcomes, index-aligned with the input manifest.
    pub outcomes: Vec<EntryOutcome>,
    /// Entries requeued after a worker error (sum over workers of the
    /// `fleet_retry_total` counters).
    pub retries: u64,
}

impl FleetReport {
    /// Entries whose verdict was insecure.
    pub fn flagged(&self) -> usize {
        self.outcomes.iter().filter(|o| o.flagged).count()
    }

    /// Entries that ended in a terminal failure.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }
}

/// Why a fleet run could not start.
#[derive(Debug)]
pub enum FleetError {
    /// [`FleetOptions::workers`] was empty.
    NoWorkers,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "no workers configured"),
        }
    }
}

impl std::error::Error for FleetError {}

/// The per-file report line, shared verbatim by one-shot, daemon, and
/// fleet output so CI can diff the three.
pub fn report_line(
    file: &str,
    verdict: impl std::fmt::Display,
    states: usize,
    schedules: usize,
    strategy: &str,
    truncated: bool,
) -> String {
    format!(
        "{file}: {verdict} ({states} states, {schedules} schedules explored, strategy {strategy}{})",
        if truncated { ", truncated" } else { "" }
    )
}

/// A queued (or requeued) entry: manifest index plus attempts so far.
#[derive(Clone, Copy, Debug)]
struct Queued {
    index: usize,
    attempts: u32,
}

/// Shared run state the worker threads operate on.
struct SharedRun<'a> {
    manifest: &'a [ManifestEntry],
    options: &'a FleetOptions,
    queue: Mutex<Vec<Queued>>,
    results: Mutex<Vec<Option<EntryOutcome>>>,
    retries: AtomicU64,
    progress: &'a (dyn Fn(String) + Sync),
}

impl SharedRun<'_> {
    /// Pop the largest remaining entry (greedy LPT on source bytes).
    fn pop_largest(&self) -> Option<Queued> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let at = queue
            .iter()
            .enumerate()
            .max_by_key(|(_, q)| self.manifest[q.index].source.len())?
            .0;
        Some(queue.swap_remove(at))
    }

    fn requeue(&self, item: Queued) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push(item);
    }

    fn record(&self, index: usize, outcome: EntryOutcome) {
        let mut results = self.results.lock().unwrap_or_else(|e| e.into_inner());
        results[index] = Some(outcome);
    }

    /// Every manifest entry has a recorded outcome.
    fn complete(&self) -> bool {
        self.results
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .all(|slot| slot.is_some())
    }

    fn say(&self, line: String) {
        (self.progress)(line);
    }
}

/// Connect to `addr`, bound its reads, authenticate, health-check,
/// and (on a first connect) ship the warm-start snapshot.
fn prepare_worker(
    shared: &SharedRun<'_>,
    wid: usize,
    addr: &str,
    first: bool,
) -> Result<Client, ClientError> {
    let client = Client::connect_addr(addr)?;
    // Bound reads before the first request: a worker that accepts the
    // connection and then never answers anything must not wedge this
    // thread on its very first hello.
    if let Some(timeout) = shared.options.read_timeout {
        client.set_read_timeout(Some(timeout))?;
    }
    let mut client = client;
    if let Some(token) = &shared.options.token {
        client.hello(token.clone())?;
    }
    // Heartbeat on reconnect: answered on the daemon's connection
    // thread, so a pong proves the daemon is alive (maybe busy) rather
    // than wedged; a read timeout here burns the retry budget. First
    // connects skip it — their first real request surfaces the same
    // failures through the budgeted dispatch path, and skipping keeps
    // the flap-versus-dead distinction visible in the retry counter.
    if !first {
        client.ping()?;
    }
    if first {
        if let Some(snapshot) = &shared.options.seed {
            let (nodes, verdicts) = client.seed(snapshot)?;
            shared.say(format!(
                "worker {wid} ({addr}): seeded {nodes} nodes, {verdicts} verdicts"
            ));
        }
    }
    Ok(client)
}

/// Run one entry to a terminal status on an established connection.
fn run_entry(
    client: &mut Client,
    entry: &ManifestEntry,
    spec: &JobSpec,
    timeout: Duration,
) -> Result<crate::client::JobView, ClientError> {
    let id = client.submit_source(entry.name.clone(), entry.source.clone(), spec.clone())?;
    client.wait(id, timeout)
}

/// One worker thread: pull largest-remaining entries until the queue
/// drains or the daemon is unreachable.
fn worker_loop(shared: &SharedRun<'_>, wid: usize, addr: &str) {
    let telemetry = sct_telemetry::enabled();
    let budget = shared.options.worker_retry_budget.max(1);
    let base = shared.options.retry_backoff;
    // Transport failures burned so far (the budget's numerator) and
    // the current failure streak (the backoff exponent; a success
    // resets it).
    let mut spent: u32 = 0;
    let mut streak: u32 = 0;
    // First connections burn the same retry budget as mid-run
    // failures: a daemon that is down (or answers the health ping
    // with silence) at startup gets bounded, backed-off retries —
    // not an instant retirement that strands its queue share.
    let mut client = loop {
        match prepare_worker(shared, wid, addr, true) {
            Ok(c) => break c,
            Err(e) => {
                shared.say(format!("worker {wid} ({addr}): unreachable ({e})"));
                spent += 1;
                streak += 1;
                if spent >= budget {
                    shared.say(format!(
                        "worker {wid} ({addr}): retry budget exhausted ({budget})"
                    ));
                    return;
                }
                std::thread::sleep(backoff_delay(base, streak, wid, spent));
            }
        }
    };
    loop {
        let Some(mut item) = shared.pop_largest() else {
            // An empty queue is not the end of the run: a peer may
            // still hold an in-flight entry that dies and gets
            // requeued. Exit only once every entry has an outcome
            // (a dying worker always records or requeues its entry
            // first, so this converges).
            if shared.complete() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let entry = &shared.manifest[item.index];
        item.attempts += 1;
        if telemetry {
            sct_telemetry::counter(&sct_telemetry::names::fleet_dispatch(wid)).inc();
        }
        shared.say(format!(
            "worker {wid} ({addr}): {} (attempt {})",
            entry.name, item.attempts
        ));
        let started = Instant::now();
        match run_entry(&mut client, entry, &shared.options.spec, shared.options.job_timeout) {
            Ok(view) => {
                if telemetry {
                    sct_telemetry::histogram(&sct_telemetry::names::fleet_shard(wid))
                        .observe_ns_tagged(
                            sct_telemetry::saturating_ns(started.elapsed()),
                            view.id.as_u64(),
                        );
                }
                // A deterministically failed job (assemble error, ...)
                // fails identically on every worker: terminal, no retry.
                // Anything else terminal-but-incomplete (failed without
                // a message, an externally cancelled job) is terminal
                // too — retrying a cancelled entry would resurrect work
                // someone asked to stop.
                let outcome = match (&view.verdict, &view.stats) {
                    (Some(verdict), Some(stats)) => EntryOutcome {
                        name: entry.name.clone(),
                        line: Some(report_line(
                            &entry.name,
                            verdict,
                            stats.states,
                            stats.schedules,
                            stats.strategy,
                            stats.truncated,
                        )),
                        flagged: verdict.is_insecure(),
                        error: None,
                        attempts: item.attempts,
                        worker: Some(wid),
                    },
                    _ => EntryOutcome {
                        name: entry.name.clone(),
                        line: None,
                        flagged: false,
                        error: Some(view.error.unwrap_or_else(|| {
                            format!("job ended {} without a report", view.status)
                        })),
                        attempts: item.attempts,
                        worker: Some(wid),
                    },
                };
                shared.record(item.index, outcome);
                streak = 0;
            }
            Err(e) => {
                shared.retries.fetch_add(1, Ordering::Relaxed);
                spent += 1;
                streak += 1;
                if telemetry {
                    sct_telemetry::counter(&sct_telemetry::names::fleet_retry(wid)).inc();
                }
                if item.attempts >= shared.options.max_attempts.max(1) {
                    shared.say(format!(
                        "worker {wid} ({addr}): {} failed after {} attempts ({e})",
                        entry.name, item.attempts
                    ));
                    shared.record(
                        item.index,
                        EntryOutcome {
                            name: entry.name.clone(),
                            line: None,
                            flagged: false,
                            error: Some(format!("{} attempts exhausted: {e}", item.attempts)),
                            attempts: item.attempts,
                            worker: None,
                        },
                    );
                } else {
                    shared.say(format!(
                        "worker {wid} ({addr}): requeueing {} ({e})",
                        entry.name
                    ));
                    shared.requeue(item);
                }
                // Reconnect under the worker's retry budget, backing
                // off exponentially (with jitter) per consecutive
                // failure so a recovering daemon isn't hammered in
                // lockstep. A worker that exhausts the budget — or
                // whose daemon stays dead through it — retires, and
                // the requeued entries go to the survivors.
                loop {
                    if spent >= budget {
                        shared.say(format!(
                            "worker {wid} ({addr}): retry budget exhausted ({budget})"
                        ));
                        return;
                    }
                    let delay = backoff_delay(base, streak, wid, spent);
                    shared.say(format!(
                        "worker {wid} ({addr}): backing off {delay:?} (failure {spent}/{budget})"
                    ));
                    std::thread::sleep(delay);
                    match prepare_worker(shared, wid, addr, false) {
                        Ok(c) => {
                            client = c;
                            break;
                        }
                        Err(e) => {
                            shared.say(format!("worker {wid} ({addr}): reconnect failed ({e})"));
                            spent += 1;
                            streak += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Shard `manifest` across [`FleetOptions::workers`] and merge the
/// verdicts. `progress` receives human-readable per-worker lines as
/// the run advances (callers typically forward them to stderr);
/// verdict lines come back in the report, in manifest order.
pub fn run_fleet(
    manifest: &[ManifestEntry],
    options: &FleetOptions,
    progress: impl Fn(String) + Sync,
) -> Result<FleetReport, FleetError> {
    if options.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let shared = SharedRun {
        manifest,
        options,
        queue: Mutex::new(
            (0..manifest.len())
                .map(|index| Queued { index, attempts: 0 })
                .collect(),
        ),
        results: Mutex::new(vec![None; manifest.len()]),
        retries: AtomicU64::new(0),
        progress: &progress,
    };
    std::thread::scope(|scope| {
        for (wid, addr) in options.workers.iter().enumerate() {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, wid, addr.as_str()));
        }
    });
    let results = shared
        .results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let outcomes = results
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            // Entries left unrecorded mean every worker retired while
            // work remained.
            slot.unwrap_or_else(|| EntryOutcome {
                name: manifest[index].name.clone(),
                line: None,
                flagged: false,
                error: Some("no live workers left for this entry".to_string()),
                attempts: 0,
                worker: None,
            })
        })
        .collect();
    Ok(FleetReport {
        outcomes,
        retries: shared.retries.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_worker_list_is_an_error() {
        let err = run_fleet(&[], &FleetOptions::default(), |_| {});
        assert!(matches!(err, Err(FleetError::NoWorkers)));
    }

    #[test]
    fn unreachable_workers_leave_entries_unserved() {
        let manifest = [ManifestEntry {
            name: "a.sasm".to_string(),
            source: "start:\n    fence\n".to_string(),
        }];
        let options = FleetOptions {
            workers: vec!["/nonexistent/fleet-test.sock".to_string()],
            // First connects retry under the budget now; keep the
            // test fast with a tiny budget and backoff.
            worker_retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            ..FleetOptions::default()
        };
        let lines = Mutex::new(Vec::new());
        let report = run_fleet(&manifest, &options, |l| {
            lines.lock().unwrap().push(l);
        })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.failed(), 1);
        assert!(report.outcomes[0].error.as_deref().unwrap().contains("no live workers"));
        let lines = lines.into_inner().unwrap();
        assert!(
            lines.iter().any(|l| l.contains("unreachable")),
            "progress missing the unreachable notice: {lines:?}"
        );
    }

    #[test]
    fn largest_entries_are_dealt_first() {
        let manifest: Vec<ManifestEntry> = [("small", 4), ("big", 64), ("medium", 16)]
            .into_iter()
            .map(|(name, lines)| ManifestEntry {
                name: name.to_string(),
                source: "    fence\n".repeat(lines),
            })
            .collect();
        let options = FleetOptions::default();
        let shared = SharedRun {
            manifest: &manifest,
            options: &options,
            queue: Mutex::new(
                (0..manifest.len())
                    .map(|index| Queued { index, attempts: 0 })
                    .collect(),
            ),
            results: Mutex::new(vec![None; manifest.len()]),
            retries: AtomicU64::new(0),
            progress: &|_| {},
        };
        let order: Vec<&str> = std::iter::from_fn(|| shared.pop_largest())
            .map(|q| manifest[q.index].name.as_str())
            .collect();
        assert_eq!(order, ["big", "medium", "small"]);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let base = Duration::from_millis(200);
        for wid in 0..4 {
            let mut prev_nominal = 0u128;
            for streak in 1..=8u32 {
                let d = backoff_delay(base, streak, wid, streak);
                let nominal = base.as_millis() << (streak - 1).min(5);
                // Jitter stays within ±50% of the nominal delay.
                assert!(
                    d.as_millis() >= nominal / 2 && d.as_millis() < nominal + nominal / 2,
                    "worker {wid} streak {streak}: {d:?} outside [{}, {}) ms",
                    nominal / 2,
                    nominal + nominal / 2,
                );
                // The nominal schedule is monotone and caps at 32x.
                assert!(nominal >= prev_nominal);
                assert!(nominal <= base.as_millis() * 32);
                prev_nominal = nominal;
            }
        }
        // Deterministic: same inputs, same delay.
        assert_eq!(backoff_delay(base, 3, 1, 5), backoff_delay(base, 3, 1, 5));
        // Distinct workers on the same streak don't share a schedule.
        assert_ne!(backoff_delay(base, 3, 0, 5), backoff_delay(base, 3, 1, 5));
    }

    #[test]
    fn retry_budget_retires_a_flapping_worker() {
        // A daemon that accepts connections and then hangs up before
        // answering: every dispatch fails, the connection "recovers",
        // and without a budget the worker would reclaim its requeued
        // entry forever. The budget must retire it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flapping = std::thread::spawn(move || {
            // Accept-and-drop until the coordinator gives up.
            while let Ok((stream, _)) = listener.accept() {
                drop(stream);
            }
        });
        let manifest = [ManifestEntry {
            name: "a.sasm".to_string(),
            source: ".entry l\nl:\n    fence\n    ret\n".to_string(),
        }];
        let options = FleetOptions {
            workers: vec![addr.to_string()],
            max_attempts: u32::MAX, // never fail the entry; only the budget can end this
            worker_retry_budget: 3,
            retry_backoff: Duration::from_millis(1),
            ..FleetOptions::default()
        };
        let lines = Mutex::new(Vec::new());
        let report = run_fleet(&manifest, &options, |l| {
            lines.lock().unwrap().push(l);
        })
        .unwrap();
        drop(flapping); // detached; the listener dies with the test process
        assert_eq!(report.failed(), 1);
        let lines = lines.into_inner().unwrap();
        assert!(
            lines.iter().any(|l| l.contains("retry budget exhausted")),
            "progress missing the budget notice: {lines:?}"
        );
        assert!(report.retries >= 1);
    }

    #[test]
    fn silent_worker_times_out_instead_of_hanging() {
        // A daemon that accepts the connection and then never writes a
        // byte. Without a read timeout the coordinator thread blocks in
        // its first read forever; with one, the read errors, the retry
        // budget burns down, and the run terminates.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            loop {
                match done_rx.try_recv() {
                    Ok(()) | Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
                    Err(std::sync::mpsc::TryRecvError::Empty) => {}
                }
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream); // keep it open, never answer
                }
            }
        });
        let manifest = [ManifestEntry {
            name: "a.sasm".to_string(),
            source: ".entry l\nl:\n    fence\n    ret\n".to_string(),
        }];
        let options = FleetOptions {
            workers: vec![addr.to_string()],
            max_attempts: u32::MAX,
            worker_retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            read_timeout: Some(Duration::from_millis(100)),
            ..FleetOptions::default()
        };
        let started = Instant::now();
        let report = run_fleet(&manifest, &options, |_| {}).unwrap();
        let _ = done_tx.send(());
        assert_eq!(report.failed(), 1);
        // Bounded by (budget) reads of 100 ms plus tiny backoffs — far
        // under the 600 s job timeout a hang would consume.
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "silent worker stalled the coordinator for {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn report_line_matches_the_batch_format() {
        assert_eq!(
            report_line("x.sasm", "SECURE", 12, 3, "lifo", false),
            "x.sasm: SECURE (12 states, 3 schedules explored, strategy lifo)"
        );
        assert_eq!(
            report_line("x.sasm", "SECURE", 12, 3, "lifo", true),
            "x.sasm: SECURE (12 states, 3 schedules explored, strategy lifo, truncated)"
        );
    }
}
