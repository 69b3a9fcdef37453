//! Parses [`pxl_sim::Tracer::to_jsonl`] output back into trace records.
//!
//! Lexing is delegated to the general [`pxl_sim::json::JsonValue`] reader
//! and decoding to [`TraceRecord::from_json_value`], the same table-driven
//! decoder snapshot restore uses, so every event kind the simulator emits
//! (`link_xfer` included) reads back here.

use pxl_sim::json::JsonValue;
use pxl_sim::TraceRecord;

/// Parses one JSONL trace line into a [`TraceRecord`].
///
/// # Errors
///
/// Returns a message naming the malformed or missing piece.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("not a JSON object: {e}: {line}"))?;
    if value.as_object().is_none() {
        return Err(format!("not a JSON object: {line}"));
    }
    TraceRecord::from_json_value(&value)
}

/// Parses a whole JSONL trace dump (blank lines ignored).
///
/// # Errors
///
/// Reports the first malformed line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_sim::{Time, TraceEvent};

    #[test]
    fn every_kind_round_trips() {
        let events = [
            TraceEvent::TaskDispatch {
                unit: 1,
                ty: 2,
                task: 3,
            },
            TraceEvent::TaskComplete {
                unit: 1,
                ty: 2,
                busy_ps: 40,
                task: 3,
            },
            TraceEvent::Spawn {
                unit: 1,
                ty: 2,
                parent: 3,
                child: 4,
            },
            TraceEvent::StealRequest {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealGrant {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealFail {
                thief: 1,
                victim: 2,
            },
            TraceEvent::PStoreAlloc {
                tile: 1,
                occupancy: 2,
            },
            TraceEvent::PStoreJoin {
                tile: 1,
                slot: 2,
                task: 3,
                from: 4,
            },
            TraceEvent::PStoreDealloc {
                tile: 1,
                occupancy: 2,
            },
            TraceEvent::CacheHit { port: 1, level: 1 },
            TraceEvent::CacheMiss { port: 1, level: 2 },
            TraceEvent::CacheEvict { port: 1, level: 1 },
            TraceEvent::DramSaturated {
                epoch: 9,
                committed_ps: 77,
            },
            TraceEvent::FaultInjected { spec: 0, unit: 3 },
            TraceEvent::FaultRecovered { spec: 0, unit: 3 },
            TraceEvent::FaultUnrecovered { spec: 1, unit: 3 },
            TraceEvent::WatchdogStall {
                unit: 2,
                idle_ps: 500,
            },
            TraceEvent::LinkXfer {
                src_chip: 1,
                dst_chip: 0,
                class: 2,
                wait_ps: 640,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let record = TraceRecord {
                at: Time::from_ps(100 + i as u64),
                seq: i as u64,
                event,
            };
            let parsed =
                parse_line(&record.to_json()).unwrap_or_else(|e| panic!("{}: {e}", event.kind()));
            assert_eq!(parsed, record, "round-trip mismatch for {}", event.kind());
        }
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse_line("not json").unwrap_err().contains("not a JSON"));
        assert!(parse_line("[1,2]")
            .unwrap_err()
            .contains("not a JSON object"));
        assert!(parse_line("{\"t_ps\":1}").unwrap_err().contains("kind"));
        assert!(parse_line("{\"t_ps\":1,\"seq\":0,\"kind\":\"spawn\"}")
            .unwrap_err()
            .contains("missing field"));
        assert!(parse_line("{\"kind\":\"spawn\",\"unit\":-1}")
            .unwrap_err()
            .contains("unsigned"));
        assert!(parse_jsonl("{\"t_ps\":1,\"seq\":0,\"kind\":\"nope\"}\n")
            .unwrap_err()
            .starts_with("line 1:"));
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = "\n{\"t_ps\":5,\"seq\":0,\"kind\":\"steal_fail\",\"thief\":1,\"victim\":0}\n\n";
        let records = parse_jsonl(text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].at, Time::from_ps(5));
    }
}
