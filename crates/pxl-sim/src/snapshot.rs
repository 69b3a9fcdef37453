//! Versioned, checksummed snapshot envelopes for engine checkpoint/restore.
//!
//! A [`Snapshot`] wraps one engine's complete serialized state (the
//! `payload`, an arbitrary [`JsonValue`] tree the engine itself builds) in
//! an envelope carrying a format version, the engine kind, and an FNV-1a
//! checksum of the canonical payload text:
//!
//! ```json
//! {"snapshot_version":2,"engine":"flex","checksum":"9cf9109812c7fc2a","payload":{...}}
//! ```
//!
//! Payloads record only state that differs from a freshly built engine
//! (cache arrays list their live ways, P-Stores their entries below the
//! high-water mark), so encoding, decoding and restore scale with what a
//! run touched rather than with configured capacity.
//!
//! The envelope is what makes restore *safe* rather than merely possible:
//! [`Snapshot::from_json`] rejects a blob written by a different snapshot
//! format version ([`SnapshotError::VersionMismatch`]) or corrupted in
//! transit or on disk ([`SnapshotError::ChecksumMismatch`]) before any
//! engine ever sees the payload, and [`Snapshot::expect_engine`] rejects a
//! payload aimed at a different engine kind. The determinism contract —
//! a run restored from any epoch-boundary snapshot is byte-identical to an
//! uninterrupted run — is the engines' job; this module guarantees they
//! only ever restore bytes that round-tripped intact.
//!
//! Engines build and pick apart payloads with the field vocabulary in
//! [`crate::json`]; a reader's [`FieldError`] becomes
//! [`SnapshotError::Malformed`] through `?`.

use std::fmt;

use crate::hash;
use crate::json::{self, FieldError, JsonValue};

/// Version stamp written into every envelope. Bump when the payload
/// schema of any engine changes incompatibly. Version 2 made cache arrays
/// and P-Stores sparse; version-1 blobs are refused like any other
/// foreign version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot blob was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob was written by a different snapshot format version.
    VersionMismatch {
        /// The version found in the envelope.
        found: u64,
    },
    /// The payload does not hash to the checksum in the envelope.
    ChecksumMismatch {
        /// The checksum the envelope claims.
        claimed: String,
        /// The checksum the payload actually hashes to.
        actual: String,
    },
    /// The payload belongs to a different engine kind.
    EngineMismatch {
        /// The engine kind doing the restore.
        expected: String,
        /// The engine kind in the envelope.
        found: String,
    },
    /// The blob is not a well-formed envelope, or a payload field is
    /// missing or has the wrong type.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot version {found} is not the supported version {SNAPSHOT_VERSION}"
            ),
            SnapshotError::ChecksumMismatch { claimed, actual } => write!(
                f,
                "snapshot checksum mismatch: envelope claims {claimed}, payload hashes to {actual}"
            ),
            SnapshotError::EngineMismatch { expected, found } => write!(
                f,
                "snapshot was taken from engine {found:?}, cannot restore into {expected:?}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FieldError> for SnapshotError {
    fn from(err: FieldError) -> Self {
        malformed(err)
    }
}

/// Builds a [`SnapshotError::Malformed`] from anything displayable.
pub fn malformed(msg: impl fmt::Display) -> SnapshotError {
    SnapshotError::Malformed(msg.to_string())
}

/// A complete engine state at an epoch boundary, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The engine kind that produced the payload (`"flex"`, `"lite"`,
    /// `"central"`, `"cpu"`).
    pub engine: String,
    /// The engine-defined state tree.
    pub payload: JsonValue,
}

impl Snapshot {
    /// Wraps `payload` for engine kind `engine`.
    pub fn new(engine: impl Into<String>, payload: JsonValue) -> Snapshot {
        Snapshot {
            engine: engine.into(),
            payload,
        }
    }

    /// The FNV-1a 64 checksum of the canonical payload text, as 16
    /// lower-case hex digits.
    pub fn checksum(&self) -> String {
        checksum_of(&self.payload.to_json())
    }

    /// Renders the sealed envelope as one deterministic JSON object. The
    /// payload is rendered once: the checksum is taken over that text and
    /// the same text is spliced into the envelope.
    pub fn to_json(&self) -> String {
        let payload = self.payload.to_json();
        let mut out = String::with_capacity(payload.len() + 128);
        out.push_str("{\"snapshot_version\":");
        out.push_str(&SNAPSHOT_VERSION.to_string());
        out.push_str(",\"engine\":");
        json::write_string(&mut out, &self.engine);
        out.push_str(",\"checksum\":\"");
        out.push_str(&checksum_of(&payload));
        out.push_str("\",\"payload\":");
        out.push_str(&payload);
        out.push('}');
        out
    }

    /// Parses and verifies an envelope produced by [`Snapshot::to_json`].
    /// The payload tree is moved out of the parsed envelope, not copied.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`] for a foreign format version,
    /// [`SnapshotError::ChecksumMismatch`] when the payload does not hash
    /// to the envelope's checksum, [`SnapshotError::Malformed`] for
    /// anything that does not parse as an envelope.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
        let value = JsonValue::parse(text).map_err(malformed)?;
        let version = json::get_word(&value, "snapshot_version")?;
        if version != SNAPSHOT_VERSION as u64 {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let engine = json::get_str(&value, "engine")?.to_owned();
        let claimed = json::get_str(&value, "checksum")?.to_owned();
        let payload = match value {
            JsonValue::Object(members) => members
                .into_iter()
                .find_map(|(k, v)| (k == "payload").then_some(v)),
            _ => None,
        }
        .ok_or_else(|| malformed("missing payload"))?;
        let actual = checksum_of(&payload.to_json());
        if actual != claimed {
            return Err(SnapshotError::ChecksumMismatch { claimed, actual });
        }
        Ok(Snapshot { engine, payload })
    }

    /// Checks that the payload was taken from engine kind `kind`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] otherwise.
    pub fn expect_engine(&self, kind: &str) -> Result<(), SnapshotError> {
        if self.engine == kind {
            Ok(())
        } else {
            Err(SnapshotError::EngineMismatch {
                expected: kind.to_owned(),
                found: self.engine.clone(),
            })
        }
    }
}

/// The FNV-1a 64 checksum of a rendered payload, as 16 lower-case hex
/// digits.
fn checksum_of(payload: &str) -> String {
    hash::content_address(hash::fnv64(payload.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{arr_u64, get_words, num, obj};

    fn payload() -> JsonValue {
        obj(vec![
            ("now_ps", num(12_345)),
            ("deque", arr_u64([1, u64::MAX, 3])),
            ("name", JsonValue::Str("pe0".to_owned())),
        ])
    }

    #[test]
    fn seal_and_reopen_round_trips_exactly() {
        let snap = Snapshot::new("flex", payload());
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text, "re-sealing is byte-stable");
        assert!(back.expect_engine("flex").is_ok());
        assert_eq!(
            back.expect_engine("cpu"),
            Err(SnapshotError::EngineMismatch {
                expected: "cpu".to_owned(),
                found: "flex".to_owned(),
            })
        );
        // u64::MAX (beyond f64 precision) survives the round trip exactly.
        assert_eq!(
            get_words::<u64>(&back.payload, "deque").unwrap()[1],
            u64::MAX
        );
    }

    fn with_version(text: &str, version: u64) -> String {
        text.replace(
            &format!("\"snapshot_version\":{SNAPSHOT_VERSION}"),
            &format!("\"snapshot_version\":{version}"),
        )
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = with_version(&Snapshot::new("flex", payload()).to_json(), 999);
        let err = Snapshot::from_json(&text).unwrap_err();
        assert_eq!(err, SnapshotError::VersionMismatch { found: 999 });
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn version_one_envelopes_are_refused() {
        let text = with_version(&Snapshot::new("flex", payload()).to_json(), 1);
        assert_eq!(
            Snapshot::from_json(&text).unwrap_err(),
            SnapshotError::VersionMismatch { found: 1 }
        );
    }

    #[test]
    fn envelope_is_rendered_canonically() {
        let snap = Snapshot::new("fl\"ex", payload());
        let text = snap.to_json();
        let tree = JsonValue::Object(vec![
            (
                "snapshot_version".to_owned(),
                num(u64::from(SNAPSHOT_VERSION)),
            ),
            ("engine".to_owned(), JsonValue::Str(snap.engine.clone())),
            ("checksum".to_owned(), JsonValue::Str(snap.checksum())),
            ("payload".to_owned(), snap.payload.clone()),
        ]);
        assert_eq!(text, tree.to_json());
        assert_eq!(Snapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn corrupted_payload_is_rejected_by_checksum() {
        let text = Snapshot::new("flex", payload()).to_json();
        // Flip one digit inside the payload without touching the envelope.
        let corrupted = text.replace("12345", "12346");
        assert_ne!(corrupted, text);
        let err = Snapshot::from_json(&corrupted).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn malformed_envelopes_name_the_problem() {
        assert!(matches!(
            Snapshot::from_json("not json").unwrap_err(),
            SnapshotError::Malformed(_)
        ));
        assert!(Snapshot::from_json("{}")
            .unwrap_err()
            .to_string()
            .contains("snapshot_version"));
        let no_payload = format!(
            "{{\"snapshot_version\":{SNAPSHOT_VERSION},\"engine\":\"flex\",\"checksum\":\"00\"}}"
        );
        assert!(Snapshot::from_json(&no_payload)
            .unwrap_err()
            .to_string()
            .contains("payload"));
    }
}
