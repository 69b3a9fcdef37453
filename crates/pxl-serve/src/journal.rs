//! The durable job journal: a write-ahead JSONL file that makes the
//! server crash-safe.
//!
//! Two kinds of lines share the file. *Journal records* (discriminated by
//! a `"journal"` field) capture intent before the server acts on it: a
//! `submit` record is appended before the submission is acknowledged, a
//! `checkpoint` record after each durable snapshot. *Event lines* are the
//! [`JobEvent`] stream the server emits anyway (discriminated by
//! `"event"`), which double as the commit log: a `done` or `failed` event
//! marks its job terminal.
//!
//! Recovery is a pure replay: submits minus terminal events = the jobs
//! that were admitted but never finished, each paired with its latest
//! checkpoint (if any). A crash can tear the trailing line mid-write;
//! [`replay`] tolerates any unparseable line, counting it in
//! [`Recovery::torn_lines`] rather than refusing to start.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use pxl_flow::RunSpec;
use pxl_sim::json::JsonValue;

use crate::protocol::{JobEvent, JobKind};

/// An open journal file in append mode.
pub struct Journal {
    file: File,
    flush_every_record: bool,
}

impl Journal {
    /// Opens (creating if absent, appending if present) the journal at
    /// `path`. With `flush_every_record`, every line is fsynced before
    /// [`Journal::record`] returns — the write-ahead guarantee survives
    /// power loss, at a syscall per record.
    ///
    /// A file whose last line was torn by a crash gets a `'\n'` first, so
    /// the torn tail stays one unparseable line instead of swallowing
    /// this lifetime's first record.
    ///
    /// # Errors
    ///
    /// The open failure, as a message.
    pub fn open(path: &Path, flush_every_record: bool) -> Result<Journal, String> {
        let fail = |e: std::io::Error| format!("open journal {}: {e}", path.display());
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(fail)?;
        if file.metadata().map_err(fail)?.len() > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))
                .and_then(|_| file.read_exact(&mut last))
                .map_err(fail)?;
            if last[0] != b'\n' {
                file.write_all(b"\n").map_err(fail)?;
            }
        }
        Ok(Journal {
            file,
            flush_every_record,
        })
    }

    /// Appends one line with a single write, so a record is never split
    /// from its newline. Write failures are swallowed (a full disk must
    /// not take running simulations down; durability degrades instead).
    pub fn record(&mut self, line: &str) {
        let _ = self.file.write_all(format!("{line}\n").as_bytes());
        if self.flush_every_record {
            let _ = self.file.sync_data();
        }
    }
}

/// The write-ahead record for an admitted submission.
pub fn submit_line(job: u64, tenant: &str, kind: JobKind, spec: &RunSpec) -> String {
    JsonValue::Object(vec![
        ("journal".to_owned(), JsonValue::Str("submit".to_owned())),
        ("job".to_owned(), JsonValue::num_u64(job)),
        ("tenant".to_owned(), JsonValue::Str(tenant.to_owned())),
        ("kind".to_owned(), JsonValue::Str(kind.label().to_owned())),
        ("spec".to_owned(), spec.to_json_value()),
    ])
    .to_json()
}

/// The record for a durable checkpoint: `file` is the snapshot's file
/// name inside the server's checkpoint directory.
pub fn checkpoint_line(job: u64, cycle: u64, file: &str) -> String {
    JsonValue::Object(vec![
        (
            "journal".to_owned(),
            JsonValue::Str("checkpoint".to_owned()),
        ),
        ("job".to_owned(), JsonValue::num_u64(job)),
        ("cycle".to_owned(), JsonValue::num_u64(cycle)),
        ("file".to_owned(), JsonValue::Str(file.to_owned())),
    ])
    .to_json()
}

/// A job the journal says was admitted but never reached a terminal
/// event.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job id from its submit record.
    pub job: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The job kind.
    pub kind: JobKind,
    /// The submitted spec.
    pub spec: RunSpec,
    /// The latest checkpoint on record: `(cycle, file name)`.
    pub checkpoint: Option<(u64, String)>,
}

/// What a journal replay found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Admitted-but-unfinished jobs, in ascending id order.
    pub jobs: Vec<RecoveredJob>,
    /// One past the highest job id ever admitted (1 for an empty
    /// journal), so recovered servers never reuse an id.
    pub next_job: u64,
    /// Lines that did not parse — normally 0 or 1 (the torn tail of a
    /// crashed write).
    pub torn_lines: u64,
}

/// Replays the journal at `path`. A missing file is an empty journal,
/// not an error; unparseable lines — invalid UTF-8 included, such as a
/// multi-byte character torn by a crash — are counted, not fatal.
pub fn replay(path: &Path) -> Recovery {
    let mut recovery = Recovery {
        jobs: Vec::new(),
        next_job: 1,
        torn_lines: 0,
    };
    let Ok(bytes) = std::fs::read(path) else {
        return recovery;
    };
    let mut pending: Vec<RecoveredJob> = Vec::new();
    for raw in bytes.split(|&b| b == b'\n') {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_line(line),
            Err(_) => None,
        };
        match parsed {
            Some(Line::Submit(job)) => {
                recovery.next_job = recovery.next_job.max(job.job + 1);
                pending.push(*job);
            }
            Some(Line::Checkpoint { job, cycle, file }) => {
                // Later records supersede earlier ones: the latest
                // checkpoint is the one to resume from.
                if let Some(p) = pending.iter_mut().find(|p| p.job == job) {
                    p.checkpoint = Some((cycle, file));
                }
            }
            Some(Line::Terminal(job)) => pending.retain(|p| p.job != job),
            Some(Line::Other) => {}
            None => recovery.torn_lines += 1,
        }
    }
    pending.sort_by_key(|p| p.job);
    recovery.jobs = pending;
    recovery
}

enum Line {
    Submit(Box<RecoveredJob>),
    Checkpoint {
        job: u64,
        cycle: u64,
        file: String,
    },
    /// A `done` or `failed` event: the job is finished for good.
    Terminal(u64),
    /// Any other well-formed line (non-terminal events).
    Other,
}

fn parse_line(line: &str) -> Option<Line> {
    let value = JsonValue::parse(line).ok()?;
    if let Some(record) = value.get("journal").and_then(JsonValue::as_str) {
        let job = value.get("job").and_then(JsonValue::as_u64)?;
        return match record {
            "submit" => {
                let tenant = value.get("tenant").and_then(JsonValue::as_str)?.to_owned();
                let kind = JobKind::from_label(value.get("kind").and_then(JsonValue::as_str)?)?;
                let spec = RunSpec::from_json_value(value.get("spec")?).ok()?;
                Some(Line::Submit(Box::new(RecoveredJob {
                    job,
                    tenant,
                    kind,
                    spec,
                    checkpoint: None,
                })))
            }
            "checkpoint" => Some(Line::Checkpoint {
                job,
                cycle: value.get("cycle").and_then(JsonValue::as_u64)?,
                file: value.get("file").and_then(JsonValue::as_str)?.to_owned(),
            }),
            _ => None,
        };
    }
    match JobEvent::from_json_value(&value).ok()? {
        JobEvent::Done { job, .. } | JobEvent::Failed { job, .. } => Some(Line::Terminal(job.0)),
        _ => Some(Line::Other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_apps::Scale;
    use pxl_dse::{DesignPoint, Measurement, PointArch};

    fn spec() -> RunSpec {
        RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 2),
        )
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pxl-journal-{name}-{}", std::process::id()));
        p
    }

    fn done_line(job: u64) -> String {
        JobEvent::Done {
            job: crate::protocol::JobId(job),
            cached: false,
            result: Measurement {
                kernel_ps: 1,
                whole_ps: 2,
                energy_j: 0.0,
                lut: 0,
                bram18: 0,
            },
            trace_events: None,
            resumed_from_cycle: None,
        }
        .to_json()
    }

    #[test]
    fn replay_recovers_unfinished_jobs_with_latest_checkpoint() {
        let path = temp_path("replay");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, true).unwrap();
        j.record(&submit_line(1, "a", JobKind::Sim, &spec()));
        j.record(&submit_line(2, "b", JobKind::Dse, &spec()));
        j.record(&checkpoint_line(2, 250_000, "job-2.ckpt.json"));
        j.record(&checkpoint_line(2, 500_000, "job-2.ckpt.json"));
        j.record(&done_line(1));
        drop(j);

        let rec = replay(&path);
        assert_eq!(rec.torn_lines, 0);
        assert_eq!(rec.next_job, 3);
        assert_eq!(rec.jobs.len(), 1, "job 1 is done, only job 2 recovers");
        assert_eq!(rec.jobs[0].job, 2);
        assert_eq!(rec.jobs[0].tenant, "b");
        assert_eq!(rec.jobs[0].kind, JobKind::Dse);
        assert_eq!(
            rec.jobs[0].checkpoint,
            Some((500_000, "job-2.ckpt.json".to_owned())),
            "the latest checkpoint wins"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_counted_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, false).unwrap();
        j.record(&submit_line(7, "a", JobKind::Sim, &spec()));
        drop(j);
        // Simulate a crash mid-write: an incomplete JSON object tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"journal\":\"submit\",\"job\":8,\"ten");
        std::fs::write(&path, text).unwrap();

        let rec = replay(&path);
        assert_eq!(rec.torn_lines, 1);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].job, 7);
        assert_eq!(rec.next_job, 8, "the torn submit never counts");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_an_empty_recovery() {
        let rec = replay(Path::new("/nonexistent/journal.jsonl"));
        assert!(rec.jobs.is_empty());
        assert_eq!(rec.next_job, 1);
        assert_eq!(rec.torn_lines, 0);
    }

    #[test]
    fn reopening_appends_instead_of_truncating() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, false).unwrap();
        j.record(&submit_line(1, "a", JobKind::Sim, &spec()));
        drop(j);
        let mut j = Journal::open(&path, false).unwrap();
        j.record(&done_line(1));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "both lifetimes' lines survive");
        assert!(replay(&path).jobs.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Appenders racing on one file: a record written as two writes (line,
    /// then newline) interleaves with the others' records within a few
    /// thousand appends; one write per record never does.
    #[test]
    fn concurrent_appenders_never_split_a_record() {
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut j = Journal::open(&path, false).unwrap();
                    for n in 0..2000 {
                        j.record(&submit_line(w * 10_000 + n + 1, "a", JobKind::Sim, &spec()));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let rec = replay(&path);
        assert_eq!(rec.torn_lines, 0, "every record stays on its own line");
        assert_eq!(rec.jobs.len(), 8000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_after_a_torn_tail_keeps_the_next_record() {
        let path = temp_path("torn-reopen");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, false).unwrap();
        j.record(&submit_line(1, "a", JobKind::Sim, &spec()));
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"journal\":\"submit\",\"job\":2,\"ten");
        std::fs::write(&path, text).unwrap();

        let mut j = Journal::open(&path, false).unwrap();
        j.record(&submit_line(3, "b", JobKind::Sim, &spec()));
        drop(j);
        let rec = replay(&path);
        assert_eq!(rec.torn_lines, 1, "the torn tail is its own line");
        let ids: Vec<u64> = rec.jobs.iter().map(|r| r.job).collect();
        assert_eq!(ids, vec![1, 3], "the next lifetime's submit survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_multibyte_tail_is_one_torn_line() {
        let path = temp_path("torn-utf8");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, false).unwrap();
        j.record(&submit_line(1, "a", JobKind::Sim, &spec()));
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = submit_line(2, "caf\u{e9}", JobKind::Sim, &spec());
        let cut = torn.find('\u{e9}').unwrap() + 1; // inside the 2-byte 'é'
        bytes.extend_from_slice(&torn.as_bytes()[..cut]);
        std::fs::write(&path, bytes).unwrap();

        let rec = replay(&path);
        assert_eq!(rec.torn_lines, 1);
        assert_eq!(rec.jobs.len(), 1, "the intact record still recovers");
        assert_eq!(rec.jobs[0].job, 1);
        let _ = std::fs::remove_file(&path);
    }
}
