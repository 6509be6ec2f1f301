//! Property tests for the wire protocol: encode → parse round-trips
//! for every request/response shape, and the parser survives arbitrary
//! garbage — truncations, byte flips, random bytes — without panicking
//! (returning an error the server maps to `Response::Error`).

use pitchfork::observe::OwnedEvent;
use pitchfork::protocol::{Request, Response, WireViolation};
use pitchfork::service::{JobMode, JobSpec, JobStatus, ServiceStats};
use pitchfork::{ExploreStats, StrategyKind, Verdict};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_string(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..24);
    (0..len)
        .map(|_| {
            // Bias toward the characters that stress the codec: quotes,
            // backslashes, newlines, non-ASCII, control characters.
            match rng.gen_range(0..8) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\t',
                4 => 'é',
                5 => '∀',
                6 => char::from_u32(rng.gen_range(1..0x20)).unwrap(),
                _ => char::from_u32(rng.gen_range(0x20..0x7f)).unwrap(),
            }
        })
        .collect()
}

fn random_spec(rng: &mut SmallRng) -> JobSpec {
    let modes = [JobMode::V1, JobMode::V4, JobMode::Alias, JobMode::V2];
    let regs = [
        sct_core::reg::names::RA,
        sct_core::reg::names::RB,
        sct_core::reg::names::RC,
    ];
    JobSpec {
        mode: modes[rng.gen_range(0..modes.len())],
        bound: rng.gen_bool(0.5).then(|| rng.gen_range(0..4096)),
        strategy: rng
            .gen_bool(0.5)
            .then(|| StrategyKind::ALL[rng.gen_range(0..StrategyKind::ALL.len())]),
        symbolic: (0..rng.gen_range(0..3)).map(|i| regs[i]).collect(),
        max_states: rng.gen_bool(0.5).then(|| rng.gen_range(1..10_000_000)),
        deadline_ms: rng.gen_bool(0.5).then(|| rng.gen_range(1..3_600_000)),
    }
}

fn random_request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..11) {
        0 => Request::Submit {
            name: random_string(rng),
            source: random_string(rng),
            spec: random_spec(rng),
        },
        1 => Request::Status { id: rng.gen() },
        2 => Request::Events {
            id: rng.gen(),
            since: rng.gen(),
        },
        3 => Request::Stats,
        4 => Request::Retire,
        5 => Request::Metrics,
        6 => Request::Hello {
            token: random_string(rng),
        },
        7 => Request::Cancel { id: rng.gen() },
        9 => Request::Ping,
        8 => Request::Seed {
            chunk: pitchfork::protocol::hex_encode(
                &(0..rng.gen_range(0..64))
                    .map(|_| rng.gen_range(0..256) as u8)
                    .collect::<Vec<u8>>(),
            ),
            last: rng.gen_bool(0.5),
        },
        _ => Request::Shutdown,
    }
}

fn random_verdict(rng: &mut SmallRng) -> Verdict {
    match rng.gen_range(0..3) {
        0 => Verdict::Secure,
        1 => Verdict::Insecure {
            witnesses: rng.gen_range(0..1000),
        },
        _ => Verdict::Unknown {
            explored: rng.gen_range(0..1_000_000),
        },
    }
}

fn random_explore_stats(rng: &mut SmallRng) -> ExploreStats {
    ExploreStats {
        strategy: StrategyKind::ALL[rng.gen_range(0..StrategyKind::ALL.len())].name(),
        first_witness_states: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
        first_witness_depth: rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000)),
        states: rng.gen_range(0..1_000_000),
        deduped: rng.gen_range(0..1_000_000),
        frontier_peak: rng.gen_range(0..10_000),
        schedules: rng.gen_range(0..1_000_000),
        steps: rng.gen_range(0..10_000_000),
        solver_queries: rng.gen_range(0..100_000),
        solver_memo_hits: rng.gen_range(0..100_000),
        solver_memo_misses: rng.gen_range(0..100_000),
        solver_memo_evicted: rng.gen_range(0..100_000),
        arena_lock_waits: rng.gen_range(0..100_000),
        memo_lock_waits: rng.gen_range(0..100_000),
        local_cache_hits: rng.gen_range(0..10_000_000),
        truncated: rng.gen_bool(0.5),
        deadline_exceeded: rng.gen_bool(0.5),
    }
}

fn random_event(rng: &mut SmallRng) -> OwnedEvent {
    match rng.gen_range(0..4) {
        0 => OwnedEvent::StateExpanded {
            states: rng.gen_range(0..1_000_000),
            frontier: rng.gen_range(0..10_000),
            rob_depth: rng.gen_range(0..250),
        },
        1 => OwnedEvent::ViolationFound {
            states: rng.gen_range(0..1_000_000),
            pc: rng.gen_range(0..10_000),
            observation: random_string(rng),
        },
        2 => OwnedEvent::ItemFinished {
            name: random_string(rng),
            flagged: rng.gen_bool(0.5),
            states: rng.gen_range(0..1_000_000),
        },
        _ => OwnedEvent::EpochRetired {
            epoch: rng.gen_range(0..255),
            rehydrated: rng.gen_range(0..1_000_000),
        },
    }
}

fn random_violation(rng: &mut SmallRng) -> WireViolation {
    WireViolation {
        pc: rng.gen_range(0..10_000),
        observation: random_string(rng),
        schedule: random_string(rng),
        trace: (0..rng.gen_range(0..4)).map(|_| random_string(rng)).collect(),
        constraints: (0..rng.gen_range(0..4)).map(|_| random_string(rng)).collect(),
    }
}

fn random_service_stats(rng: &mut SmallRng) -> ServiceStats {
    ServiceStats {
        jobs_submitted: rng.gen(),
        jobs_done: rng.gen(),
        jobs_failed: rng.gen(),
        queued: rng.gen(),
        epochs_retired: rng.gen(),
        jobs_since_retire: rng.gen(),
        arena_nodes: rng.gen(),
        arena_epoch: rng.gen(),
        memo_entries: rng.gen(),
        memo_capacity: rng.gen(),
        memo_hits: rng.gen(),
        memo_misses: rng.gen(),
        memo_evicted: rng.gen(),
        memo_stale_dropped: rng.gen(),
        last_reload_nodes: rng.gen(),
        last_reload_verdicts: rng.gen(),
        in_flight: rng.gen(),
        arena_lock_waits: rng.gen(),
        memo_lock_waits: rng.gen(),
        local_cache_hits: rng.gen(),
        queue_wait_ms_total: rng.gen(),
        run_ms_total: rng.gen(),
        jobs_timed: rng.gen(),
        events_dropped: rng.gen(),
        jobs_cancelled: rng.gen(),
        budget_clamped_jobs: rng.gen(),
        seed_nodes_added: rng.gen(),
        seed_verdicts_imported: rng.gen(),
        jobs_timed_out: rng.gen(),
        jobs_replayed: rng.gen(),
    }
}

fn random_metric(rng: &mut SmallRng) -> sct_telemetry::MetricSnapshot {
    use sct_telemetry::{MetricKind, MetricSnapshot};
    let names = [
        sct_telemetry::names::SOLVER_CHECK_HIT,
        sct_telemetry::names::SOLVER_CHECK_MISS,
        sct_telemetry::names::STATE_EXPAND,
        sct_telemetry::names::JOB_RUN,
        "fleet_shard_ns{worker=\"3\"}",
    ];
    let name = names[rng.gen_range(0..names.len())].to_string();
    match rng.gen_range(0..3) {
        0 => MetricSnapshot {
            name,
            kind: MetricKind::Counter,
            value: rng.gen(),
            sum_ns: 0,
            max_ns: 0,
            max_job: 0,
            buckets: Vec::new(),
        },
        1 => MetricSnapshot {
            name,
            kind: MetricKind::Gauge,
            value: rng.gen(),
            sum_ns: 0,
            max_ns: 0,
            max_job: 0,
            buckets: Vec::new(),
        },
        _ => {
            let buckets: Vec<u64> =
                (0..sct_telemetry::BUCKETS).map(|_| rng.gen_range(0..1_000_000)).collect();
            MetricSnapshot {
                name,
                kind: MetricKind::Histogram,
                value: buckets.iter().sum(),
                sum_ns: rng.gen(),
                max_ns: rng.gen(),
                max_job: rng.gen(),
                buckets,
            }
        }
    }
}

fn random_response(rng: &mut SmallRng) -> Response {
    match rng.gen_range(0..8) {
        0 => Response::Accepted { id: rng.gen() },
        1 => {
            let statuses = [
                JobStatus::Queued,
                JobStatus::Running,
                JobStatus::Done,
                JobStatus::Failed,
                JobStatus::Cancelled,
                JobStatus::TimedOut,
            ];
            Response::Verdicts {
                id: rng.gen(),
                status: statuses[rng.gen_range(0..statuses.len())],
                verdict: rng.gen_bool(0.7).then(|| random_verdict(rng)),
                stats: rng.gen_bool(0.7).then(|| random_explore_stats(rng)),
                violations: (0..rng.gen_range(0..3))
                    .map(|_| random_violation(rng))
                    .collect(),
                error: rng.gen_bool(0.3).then(|| random_string(rng)),
                elapsed_ms: rng.gen_bool(0.5).then(|| rng.gen()),
                clamped_states: rng.gen_bool(0.3).then(|| rng.gen()),
            }
        }
        2 => Response::EventBatch {
            id: rng.gen(),
            events: (0..rng.gen_range(0..5)).map(|_| random_event(rng)).collect(),
            next: rng.gen(),
            done: rng.gen_bool(0.5),
            dropped: rng.gen(),
        },
        3 => Response::Stats {
            stats: random_service_stats(rng),
        },
        4 => Response::Metrics {
            stats: random_service_stats(rng),
            metrics: (0..rng.gen_range(0..6)).map(|_| random_metric(rng)).collect(),
        },
        5 => Response::Seeded {
            nodes: rng.gen(),
            verdicts: rng.gen(),
        },
        6 => Response::Pong {
            in_flight: rng.gen(),
            queued: rng.gen(),
        },
        _ => Response::Error {
            message: random_string(rng),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every request round-trips through its wire line, and the line
    /// never contains a raw newline (the framing delimiter).
    #[test]
    fn requests_round_trip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "framing broken: {line:?}");
        prop_assert_eq!(Request::parse(&line).unwrap(), request);
    }

    /// Every response round-trips through its wire line.
    #[test]
    fn responses_round_trip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let response = random_response(&mut rng);
        let line = response.to_line();
        prop_assert!(!line.contains('\n'), "framing broken: {line:?}");
        prop_assert_eq!(Response::parse(&line).unwrap(), response);
    }

    /// Truncating a valid request line anywhere yields a parse error —
    /// never a panic, never a silently different request.
    #[test]
    fn truncated_requests_error(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let line = random_request(&mut rng).to_line();
        let cut = rng.gen_range(0..line.len());
        if line.is_char_boundary(cut) {
            prop_assert!(Request::parse(&line[..cut]).is_err());
        }
    }

    /// Random byte flips in a valid response line never panic the
    /// parser (they may still parse, to a possibly different value —
    /// JSON has redundancy — but most flips must surface as errors).
    #[test]
    fn mutated_responses_never_panic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let line = random_response(&mut rng).to_line();
        let mut bytes = line.into_bytes();
        for _ in 0..rng.gen_range(1..4) {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0..256) as u8;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = Response::parse(&text); // must return, not panic
        }
    }

    /// Pure garbage — random bytes, random printable soup — never
    /// panics either side of the codec.
    #[test]
    fn garbage_never_panics(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0..256);
        let soup: String = (0..len)
            .filter_map(|_| char::from_u32(rng.gen_range(0..0x2000)))
            .collect();
        let _ = Request::parse(&soup);
        let _ = Response::parse(&soup);
    }
}
