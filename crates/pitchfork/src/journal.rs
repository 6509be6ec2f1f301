//! Crash-safe write-ahead job journal for the daemon
//! (`pitchfork --serve --journal PATH`).
//!
//! The daemon appends one line-JSON record per job lifecycle step:
//!
//! ```text
//! {"ev":"submitted","id":3,"line":"{\"req\":\"submit\",...}"}
//! {"ev":"started","id":3}
//! {"ev":"finished","id":3,"status":"done"}
//! ```
//!
//! The `submitted` record embeds the job's **complete wire submit
//! line** (the same bytes a client sent, including any baseline
//! object), so replay needs no second serialization format and
//! inherits the wire protocol's forward/backward tolerance. `started`
//! marks the job as having begun execution — a journal whose last
//! word on a job is `started` identifies a run the process died
//! under. `finished` retires the record whatever the terminal status
//! (done, failed, cancelled, timed-out): terminal jobs are never
//! re-run.
//!
//! On restart, [`Journal::replay`] scans the file and returns every
//! job that was submitted but never finished — queued jobs the daemon
//! died holding and started jobs it died running — in submission (id)
//! order. The server re-submits them as fresh jobs and rewrites the
//! journal compacted (only the replayed jobs' `submitted` records),
//! so the file never grows without bound across restarts. Because a
//! re-run starts from the same submit line, its verdict is
//! byte-identical to what the uninterrupted run would have produced
//! (the exploration is deterministic for a fixed spec).
//!
//! Torn tails are expected, not errors: a process dying mid-append
//! leaves a final line that is not valid JSON (and a torn `submitted`
//! line means the client never got its `Accepted` answer, so dropping
//! the job is the correct contract). Replay skips any unparseable
//! line and keeps scanning. Appends go through one `write_all` per
//! line with the newline included, so concurrent writers cannot
//! interleave partial records; the `partial-write` fault point of
//! [`sct_faults`] deliberately truncates an append to exercise the
//! torn-tail path.

use crate::protocol::{Json, ProtocolError, Request};
use crate::service::{JobBaseline, JobSpec};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// A job recovered from the journal: everything needed to re-submit
/// it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayJob {
    /// The id the job had in the previous daemon life (for logging;
    /// the re-submission gets a fresh id).
    pub old_id: u64,
    /// Job name.
    pub name: String,
    /// Assembly source text.
    pub source: String,
    /// The full job spec (mode, bound, strategy, budget,
    /// deadline, symbolic registers).
    pub spec: JobSpec,
    /// Baseline for diff-aware submissions, when the original carried
    /// one.
    pub baseline: Option<JobBaseline>,
    /// `true` when the previous daemon died *while running* this job
    /// (a `started` record with no `finished`); `false` when it died
    /// with the job still queued.
    pub interrupted: bool,
}

/// An append-only handle on the journal file. One daemon owns it for
/// its whole life; appends are serialized by the caller (the server
/// wraps it in a mutex).
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Scan an existing journal and return the jobs that were
    /// submitted but never finished, in submission order. A missing
    /// file is an empty replay (first boot). Unparseable lines — torn
    /// tails from a crash mid-append — are skipped.
    pub fn replay(path: &Path) -> io::Result<Vec<ReplayJob>> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        // id → (submit record, started?) for jobs not yet finished.
        let mut live: BTreeMap<u64, (ReplayJob, bool)> = BTreeMap::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_record(&line) {
                Ok(Record::Submitted(job)) => {
                    live.insert(job.old_id, (*job, false));
                }
                Ok(Record::Started(id)) => {
                    if let Some((_, started)) = live.get_mut(&id) {
                        *started = true;
                    }
                }
                Ok(Record::Finished(id)) => {
                    live.remove(&id);
                }
                // Torn tail or foreign garbage: skip, keep scanning.
                Err(_) => {}
            }
        }
        Ok(live
            .into_values()
            .map(|(mut job, started)| {
                job.interrupted = started;
                job
            })
            .collect())
    }

    /// Open the journal for appending, truncating whatever was there —
    /// the caller has already replayed the old contents and re-submits
    /// live jobs under fresh records, which compacts the file.
    pub fn create(path: &Path) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record a submission: `id` plus the job's complete wire submit
    /// line (exactly what [`Request::Submit`]/`SubmitDiff` encode to).
    pub fn submitted(&mut self, id: u64, submit_line: &str) -> io::Result<()> {
        self.append(Json::Obj(vec![
            ("ev".into(), Json::Str("submitted".into())),
            ("id".into(), Json::Int(id as i128)),
            ("line".into(), Json::Str(submit_line.to_string())),
        ]))
    }

    /// Record that a job began executing.
    pub fn started(&mut self, id: u64) -> io::Result<()> {
        self.append(Json::Obj(vec![
            ("ev".into(), Json::Str("started".into())),
            ("id".into(), Json::Int(id as i128)),
        ]))
    }

    /// Record a job reaching a terminal status (`done`, `failed`,
    /// `cancelled`, `timed-out`). Whatever the status, the job is
    /// settled and will not be replayed.
    pub fn finished(&mut self, id: u64, status: &str) -> io::Result<()> {
        self.append(Json::Obj(vec![
            ("ev".into(), Json::Str("finished".into())),
            ("id".into(), Json::Int(id as i128)),
            ("status".into(), Json::Str(status.to_string())),
        ]))
    }

    /// Append one record as a single `write_all` (line + newline in
    /// one syscall, so records from a crash-interrupted writer are
    /// torn, never interleaved). The `partial-write` fault point
    /// truncates the buffer to its first half to simulate exactly that
    /// crash.
    fn append(&mut self, record: Json) -> io::Result<()> {
        let mut line = record.to_line();
        line.push('\n');
        let bytes = line.as_bytes();
        if sct_faults::enabled() && sct_faults::should_fire(sct_faults::FaultPoint::PartialWrite) {
            let half = &bytes[..bytes.len() / 2];
            self.file.write_all(half)?;
            return self.file.flush();
        }
        self.file.write_all(bytes)?;
        self.file.flush()
    }
}

enum Record {
    Submitted(Box<ReplayJob>),
    Started(u64),
    Finished(u64),
}

fn parse_record(line: &str) -> Result<Record, ProtocolError> {
    let json = Json::parse(line)?;
    let id = json.u64_field("id")?;
    match json.str_field("ev")? {
        "submitted" => {
            let submit_line = json.str_field("line")?;
            match Request::parse(submit_line)? {
                Request::Submit { name, source, spec } => Ok(Record::Submitted(Box::new(ReplayJob {
                    old_id: id,
                    name,
                    source,
                    spec,
                    baseline: None,
                    interrupted: false,
                }))),
                Request::SubmitDiff {
                    name,
                    source,
                    spec,
                    baseline,
                } => Ok(Record::Submitted(Box::new(ReplayJob {
                    old_id: id,
                    name,
                    source,
                    spec,
                    baseline: Some(baseline),
                    interrupted: false,
                }))),
                _ => Err(ProtocolError::new("journal line is not a submit")),
            }
        }
        "started" => Ok(Record::Started(id)),
        "finished" => Ok(Record::Finished(id)),
        other => Err(ProtocolError::new(format!("unknown journal event `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::JobMode;

    fn spec() -> JobSpec {
        JobSpec {
            mode: JobMode::V1,
            bound: Some(12),
            strategy: None,
            max_states: Some(5_000),
            deadline_ms: Some(30_000),
            symbolic: vec![sct_core::reg::names::RA],
        }
    }

    fn submit_line(name: &str) -> String {
        Request::Submit {
            name: name.into(),
            source: ".entry L1\nL1:\n    ret\n".into(),
            spec: spec(),
        }
        .to_line()
    }

    #[test]
    fn unfinished_jobs_replay_in_id_order() {
        let dir = std::env::temp_dir().join(format!("sct-journal-{}", std::process::id()));
        let path = dir.join("order.journal");
        let mut j = Journal::create(&path).unwrap();
        j.submitted(1, &submit_line("a")).unwrap();
        j.submitted(2, &submit_line("b")).unwrap();
        j.submitted(3, &submit_line("c")).unwrap();
        j.started(1).unwrap();
        j.finished(1, "done").unwrap();
        j.started(2).unwrap();
        // Job 2 started but never finished; job 3 never started.
        drop(j);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].old_id, 2);
        assert!(replay[0].interrupted);
        assert_eq!(replay[1].old_id, 3);
        assert!(!replay[1].interrupted);
        assert_eq!(replay[1].name, "c");
        assert_eq!(replay[1].spec, spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sct-journal-torn-{}", std::process::id()));
        let path = dir.join("torn.journal");
        let mut j = Journal::create(&path).unwrap();
        j.submitted(1, &submit_line("whole")).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let torn = Json::Obj(vec![
            ("ev".into(), Json::Str("submitted".into())),
            ("id".into(), Json::Int(2)),
            ("line".into(), Json::Str(submit_line("torn"))),
        ])
        .to_line();
        f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        drop(f);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].name, "whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty_replay() {
        let path = std::env::temp_dir().join("sct-journal-definitely-missing.journal");
        let _ = std::fs::remove_file(&path);
        assert!(Journal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn baseline_submissions_round_trip() {
        use crate::report::Verdict;
        let dir = std::env::temp_dir().join(format!("sct-journal-base-{}", std::process::id()));
        let path = dir.join("base.journal");
        let line = Request::SubmitDiff {
            name: "gate".into(),
            source: ".entry L1\nL1:\n    ret\n".into(),
            spec: spec(),
            baseline: JobBaseline {
                fingerprint: 77,
                verdict: Verdict::Secure,
                states: 9,
                schedules: 2,
                strategy: "bfs".into(),
                truncated: false,
            },
        }
        .to_line();
        let mut j = Journal::create(&path).unwrap();
        j.submitted(5, &line).unwrap();
        drop(j);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.len(), 1);
        let b = replay[0].baseline.as_ref().expect("baseline survives");
        assert_eq!(b.fingerprint, 77);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
