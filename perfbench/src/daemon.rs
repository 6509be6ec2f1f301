//! `daemon_submit`: an in-process `Server` on a Unix socket in the
//! working directory, and one `Client` in a closed loop (one request
//! outstanding) that submits the `ci_gate` corpus, with more generated
//! programs, in v1 and v4 mode over and over, polling each job's status
//! until its verdict is in.
//! Set-up starts the daemon and warms its memo with one pass.

use crate::corpus::{self, flip_verdict, Entry, Expected, Reference, Workdir, MODES};
use crate::host::{HostSpeed, Timed};
use crate::probe;
use crate::report::Outcome;
use crate::stats::{hist, hist_delta, hist_quantile_ns, median, quantile};
use pitchfork::fleet::report_line;
use pitchfork::{AnalysisSession, Client, JobSpec, JobStatus, Server, SessionService};
use sct_telemetry::names;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Submissions per throughput chunk, and per latency-percentile window.
const CHUNK: usize = 20;
const WINDOW: usize = 500;
/// How long one verdict may take before the run gives up on it.
const WAIT: Duration = Duration::from_secs(60);
/// Least time between host-speed samples.
const SPEED_EVERY: Duration = Duration::from_millis(10);

/// One submission and the verdict line it must come back with.
struct Submission {
    name: String,
    source: String,
    spec: JobSpec,
    expected: Expected,
}

fn submissions(entries: &[Entry], reference: &Reference) -> Vec<Submission> {
    let mut out = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        for (m, mode) in MODES.iter().enumerate() {
            out.push(Submission {
                name: e.name.clone(),
                source: e.versions[0].clone(),
                spec: JobSpec {
                    mode: *mode,
                    bound: Some(e.bounds[m]),
                    symbolic: e.symbolic.clone(),
                    ..JobSpec::default()
                },
                expected: reference.get(i, 0, m).clone(),
            });
        }
    }
    out
}

/// A running daemon and its one client.
struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    fn start(work: &Path) -> Result<Daemon, String> {
        let sock = work.join("pitchfork.sock");
        let session = AnalysisSession::builder()
            .build()
            .map_err(|e| e.to_string())?;
        let server =
            Server::bind(&sock, SessionService::new(session)).map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(&sock).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { server, client })
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        self.server.shutdown();
        self.server.wait();
    }

    /// One submit→done round trip: its latency and the verdict line the
    /// daemon answered with.
    fn submit(
        &mut self,
        s: &Submission,
    ) -> (Duration, Result<(String, pitchfork::ExploreStats), String>) {
        let start = Instant::now();
        let answer = self
            .client
            .submit_source(s.name.clone(), s.source.clone(), s.spec.clone())
            .and_then(|id| loop {
                let view = self.client.status(id)?;
                if view.status.is_terminal() {
                    break Ok(view);
                }
                if start.elapsed() > WAIT {
                    break Err(pitchfork::ClientError::Timeout);
                }
                // Poll again at once. `Client::wait` sleeps 10 ms between
                // polls, and any sleep rounds a round trip up to a whole
                // number of sleeps plus the host's wake-up latency: the
                // percentiles would step with the sleep and hide the
                // service and protocol costs this workload measures.
                std::thread::yield_now();
            });
        let latency = start.elapsed();
        let result = match answer {
            Err(e) => Err(format!("client: {e}")),
            Ok(view) => match (view.status, view.verdict, view.stats) {
                (JobStatus::Done, Some(verdict), Some(stats)) => Ok((
                    report_line(
                        &s.name,
                        verdict,
                        stats.states,
                        stats.schedules,
                        stats.strategy,
                        stats.truncated,
                    ),
                    stats,
                )),
                (status, ..) => Err(format!(
                    "job ended {status}: {}",
                    view.error.unwrap_or_default()
                )),
            },
        };
        (latency, result)
    }
}

/// Daemon lines must equal the in-process lines.
fn check_line(line: &str, expected: &Expected) -> Result<(), String> {
    if line == expected.line {
        Ok(())
    } else {
        Err(format!(
            "daemon said `{line}`, in-process `{}`",
            expected.line
        ))
    }
}

/// What one pass over the submissions measured.
struct Pass {
    latencies: Vec<Timed>,
    counts: [u64; 5],
    frontier_peak: usize,
}

fn pass(
    daemon: &mut Daemon,
    subs: &[Submission],
    speed: &mut HostSpeed,
    out: &mut Outcome,
) -> Pass {
    let mut p = Pass {
        latencies: Vec::with_capacity(subs.len()),
        counts: [0; 5],
        frontier_peak: 0,
    };
    for s in subs {
        let (latency, result) = daemon.submit(s);
        p.latencies.push((Instant::now(), latency));
        speed.tick();
        let checked = result.and_then(|(line, stats)| {
            let c = &mut p.counts;
            c[0] += stats.states as u64;
            c[1] += stats.steps as u64;
            c[2] += stats.deduped as u64;
            c[3] += stats.solver_queries as u64;
            c[4] += stats.solver_memo_misses as u64;
            p.frontier_peak = p.frontier_peak.max(stats.frontier_peak);
            check_line(&line, &s.expected)
        });
        out.verdict(checked, || format!("{} {}", s.name, s.spec.mode));
    }
    p
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let pinned = crate::host::pin_to_one_cpu();
    let one_arena = crate::host::one_malloc_arena();
    let work = Workdir::new("daemon_submit");
    let entries = corpus::generate(seed, corpus::DAEMON_GENERATED);
    let (reference, failures) = corpus::reference(&entries);
    let mut out = Outcome {
        size: format!(
            "{} submissions per pass ({} entries in v1 and v4 mode), 1 client, \
             pinned to one CPU: {pinned}, one malloc arena: {one_arena}",
            2 * entries.len(),
            entries.len(),
        ),
        ..Outcome::default()
    };
    for f in failures {
        out.verdict(Err(f), || "reference".into());
    }
    out.self_check(
        check_line(
            &flip_verdict(&reference.get(0, 0, 0).line),
            reference.get(0, 0, 0),
        )
        .is_err(),
        || "the line check accepted a planted wrong verdict".into(),
    );

    // Set-up: generate the submissions, start the daemon, warm its memo.
    let mut speed = HostSpeed::new(SPEED_EVERY);
    let mut setups = Vec::new();
    let mut hashes = Vec::new();
    let mut running = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        if let Some((d, _)) = running.take() {
            Daemon::stop(d);
        }
        sct_symx::retire_arena();
        let start = Instant::now();
        let made = corpus::generate(seed, corpus::DAEMON_GENERATED);
        hashes.push(corpus::hash(&made));
        let subs = submissions(&made, &reference);
        let daemon = Daemon::start(work.path());
        let mut daemon = match daemon {
            Ok(d) => d,
            Err(e) => {
                out.verdict(Err(e), || "daemon start".into());
                return out;
            }
        };
        pass(&mut daemon, &subs, &mut speed, &mut out);
        setups.push((Instant::now(), start.elapsed()));
        speed.sample();
        running = Some((daemon, subs));
    }
    let (mut daemon, subs) = running.expect("at least one set-up");
    hashes.push(corpus::hash(&entries));
    out.self_check(hashes.iter().all(|h| *h == hashes[0]), || {
        format!("inputs hash differently for one seed: {hashes:x?}")
    });

    if !trace {
        let mut latencies = Vec::new();
        let start = Instant::now();
        while latencies.is_empty() || start.elapsed().as_secs_f64() < seconds {
            latencies.extend(pass(&mut daemon, &subs, &mut speed, &mut out).latencies);
        }
        daemon.stop();
        out.end_to_end(&speed, &setups, &latencies, CHUNK, WINDOW);
        return out;
    }

    probe::measure(seed, &mut out);
    let hists = [
        names::JOB_QUEUE_WAIT,
        names::JOB_RUN,
        names::STATE_EXPAND,
        names::SOLVER_CHECK_HIT,
        names::SOLVER_CHECK_MISS,
    ];
    let start = Instant::now();
    let mut overhead = Vec::new();
    let mut counts: Option<[u64; 5]> = None;
    let mut layers: Vec<[f64; 9]> = Vec::new();
    let mut frontier_peak = 0;
    while overhead.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let plain = pass(&mut daemon, &subs, &mut speed, &mut out);
        let before = hists.map(hist);
        let service_before = daemon.client.stats();
        let traced = pass(&mut daemon, &subs, &mut speed, &mut out);
        let service_after = daemon.client.stats();
        let after = hists.map(hist);
        let d: Vec<_> = (0..hists.len())
            .map(|i| hist_delta(&before[i], &after[i]))
            .collect();
        let (arena_nodes, jobs_done) = match (service_before, service_after) {
            (Ok(b), Ok(a)) => (a.arena_nodes as f64, a.jobs_done - b.jobs_done),
            _ => (f64::NAN, 0),
        };
        out.self_check(jobs_done == subs.len() as u64, || {
            format!(
                "the daemon reports {jobs_done} jobs done for {} submissions",
                subs.len()
            )
        });
        for c in [plain.counts, traced.counts] {
            out.self_check(counts.is_none_or(|k| k == c), || {
                format!("layer counts differ between passes: {c:?} vs {counts:?}")
            });
            counts.get_or_insert(c);
        }
        frontier_peak = traced.frontier_peak;
        let wall = |p: &Pass| {
            p.latencies
                .iter()
                .map(|(_, d)| d)
                .sum::<Duration>()
                .as_secs_f64()
        };
        overhead.push(wall(&traced) / wall(&plain) - 1.0);
        let roundtrip_ns: Vec<f64> = traced
            .latencies
            .iter()
            .map(|(_, l)| l.as_nanos() as f64)
            .collect();
        let job_run_p50 = hist_quantile_ns(&d[1], 0.5);
        let states = traced.counts[0] as f64;
        let run_s = d[1].sum_ns as f64 * 1e-9;
        layers.push([
            hist_quantile_ns(&d[0], 0.5),
            job_run_p50,
            quantile(&roundtrip_ns, 0.5) - job_run_p50,
            hist_quantile_ns(&d[2], 0.5),
            hist_quantile_ns(&d[3], 0.5),
            hist_quantile_ns(&d[4], 0.5),
            d[4].sum_ns as f64,
            states / run_s.max(1e-9),
            arena_nodes,
        ]);
    }
    daemon.stop();
    let c = counts.expect("at least one pass");
    let med = |k: usize| median(&layers.iter().map(|l| l[k]).collect::<Vec<_>>());
    out.set("service.queue_wait_p50_ns", med(0));
    out.set("service.job_run_p50_ns", med(1));
    out.set("protocol.roundtrip_p50_ns", med(2));
    out.set("explorer.state_expand_p50_ns", med(3));
    out.set("solver.check_hit_p50_ns", med(4));
    out.set("solver.check_miss_p50_ns", med(5));
    out.set("solver.check_miss_total_ns", med(6));
    out.set("explorer.states_per_s", med(7));
    out.set("symx.arena_nodes", med(8));
    out.set("explorer.states", c[0] as f64);
    out.set("explorer.steps", c[1] as f64);
    out.set("explorer.deduped", c[2] as f64);
    out.set(
        "explorer.dedup_ratio",
        c[2] as f64 / (c[0] + c[2]).max(1) as f64,
    );
    out.set("explorer.frontier_peak", frontier_peak as f64);
    out.set("solver.queries", c[3] as f64);
    out.set("solver.memo_misses", c[4] as f64);
    out.set("solver.memo_hits", c[3].saturating_sub(c[4]) as f64);
    out.set(
        "solver.memo_hit_ratio",
        c[3].saturating_sub(c[4]) as f64 / c[3].max(1) as f64,
    );
    out.set("trace.overhead_frac", median(&overhead));
    // The daemon assembles inside its own request handling and keeps no
    // baseline or snapshot; those layers are measured on ci_gate.
    for name in [
        "asm.assemble_ns",
        "asm.bytes_per_s",
        "incremental.plan_ns",
        "incremental.manifest_ns",
        "incremental.reused",
        "incremental.reanalyzed",
        "incremental.skip_ratio",
        "cache.load_ns",
        "cache.save_ns",
        "cache.snapshot_bytes",
        "cache.nodes_loaded",
    ] {
        out.set(name, 0.0);
    }
    out
}
