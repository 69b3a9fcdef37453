//! Content-addressed result cache for design-space exploration.
//!
//! Every evaluation is keyed by its full canonical spec string — workload,
//! seed/profile tag, design-point spec and fidelity — and addressed by the
//! stable [`pxl_sim::hash`] FNV-1a of that key. The cache persists as
//! JSONL (one `{"key","spec",...}` object per line, appended as results
//! arrive), so an interrupted sweep resumes where it stopped and a re-run
//! over the same space is pure cache hits.
//!
//! Matching is done on the *full spec string*, not the hash, so a hash
//! collision can never return the wrong measurement; the 16-hex-digit
//! content address is the compact identity used in file names and reports.
//!
//! Lines are written and read through [`pxl_sim::json`]. Floating-point
//! objectives are written with Rust's shortest-round-trip `Display` and
//! re-parsed exactly, so a reloaded cache reproduces byte-identical
//! reports.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pxl_sim::hash::{content_address, fnv64};
use pxl_sim::json::{self, FieldError, JsonValue};

/// What one evaluation measured: the two runtimes, energy, and the
/// per-tile FPGA footprint objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Kernel (device-only) runtime in picoseconds.
    pub kernel_ps: u64,
    /// Whole-application runtime in picoseconds.
    pub whole_ps: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Tile LUTs (0 when no resource model applies, e.g. the CPU).
    pub lut: u64,
    /// Tile RAM18 blocks (0 when no resource model applies).
    pub bram18: u64,
}

/// The measurement's members in canonical order; `energy_j` in
/// shortest-round-trip form, so re-rendering a parsed payload is
/// byte-identical.
fn measurement_members(m: &Measurement) -> Vec<(String, JsonValue)> {
    vec![
        ("kernel_ps".to_owned(), json::num(m.kernel_ps)),
        ("whole_ps".to_owned(), json::num(m.whole_ps)),
        ("energy_j".to_owned(), JsonValue::num_f64(m.energy_j)),
        ("lut".to_owned(), json::num(m.lut)),
        ("bram18".to_owned(), json::num(m.bram18)),
    ]
}

/// Renders a [`Measurement`] as a canonical JSON object: the job server's
/// result payload, and the body of every cache line.
pub fn measurement_to_json_value(m: &Measurement) -> JsonValue {
    JsonValue::Object(measurement_members(m))
}

/// Reads the measurement members of `value` (other members are ignored).
///
/// # Errors
///
/// A [`FieldError`] naming the missing or malformed member.
pub fn measurement_from_json_value(value: &JsonValue) -> Result<Measurement, FieldError> {
    Ok(Measurement {
        kernel_ps: json::get_word(value, "kernel_ps")?,
        whole_ps: json::get_word(value, "whole_ps")?,
        energy_j: json::get_f64(value, "energy_j")?,
        lut: json::get_word(value, "lut")?,
        bram18: json::get_word(value, "bram18")?,
    })
}

/// A persistent, content-addressed map from evaluation specs to
/// [`Measurement`]s.
///
/// # Examples
///
/// ```
/// use pxl_dse::{Measurement, ResultCache};
///
/// let mut cache = ResultCache::in_memory();
/// let m = Measurement {
///     kernel_ps: 10,
///     whole_ps: 20,
///     energy_j: 0.5,
///     lut: 100,
///     bram18: 4,
/// };
/// assert!(cache.get("bench=queens arch=flex tiles=1").is_none());
/// cache.insert("bench=queens arch=flex tiles=1", m);
/// assert_eq!(cache.get("bench=queens arch=flex tiles=1"), Some(m));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<String, Measurement>,
    path: Option<PathBuf>,
    hits: usize,
    misses: usize,
    loaded: usize,
}

impl ResultCache {
    /// A cache that lives only for this process.
    pub fn in_memory() -> Self {
        ResultCache {
            entries: HashMap::new(),
            path: None,
            hits: 0,
            misses: 0,
            loaded: 0,
        }
    }

    /// Opens (or creates) a JSONL-backed cache at `path`, loading any
    /// entries already on disk. Unparsable lines are skipped — a truncated
    /// final line from an interrupted run does not poison the cache.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message if the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref().to_path_buf();
        let mut cache = ResultCache {
            entries: HashMap::new(),
            path: Some(path.clone()),
            hits: 0,
            misses: 0,
            loaded: 0,
        };
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            for line in text.lines() {
                if let Some((spec, m)) = parse_line(line) {
                    cache.entries.insert(spec, m);
                    cache.loaded += 1;
                }
            }
        }
        Ok(cache)
    }

    /// The 16-hex-digit content address of a spec.
    pub fn address(spec: &str) -> String {
        content_address(fnv64(spec.as_bytes()))
    }

    /// Looks up a spec, counting the hit or miss.
    pub fn get(&mut self, spec: &str) -> Option<Measurement> {
        match self.entries.get(spec) {
            Some(m) => {
                self.hits += 1;
                Some(*m)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a measurement, appending it to the backing file when one is
    /// configured (append failures are reported, not fatal — the in-memory
    /// entry still lands).
    pub fn insert(&mut self, spec: &str, m: Measurement) -> Result<(), String> {
        self.entries.insert(spec.to_owned(), m);
        if let Some(path) = &self.path {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            writeln!(file, "{}", render_line(spec, &m))
                .map_err(|e| format!("appending to {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Entries currently held (loaded + inserted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries loaded from the backing file at open.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Resets the hit/miss counters (e.g. between exploration passes).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Renders one cache line: `{"key":"<16hex>","spec":"...","kernel_ps":...}`.
fn render_line(spec: &str, m: &Measurement) -> String {
    let mut members = vec![
        ("key".to_owned(), JsonValue::Str(ResultCache::address(spec))),
        ("spec".to_owned(), JsonValue::Str(spec.to_owned())),
    ];
    members.extend(measurement_members(m));
    JsonValue::Object(members).to_json()
}

/// Parses one cache line back into `(spec, measurement)`; `None` for
/// malformed or truncated lines.
fn parse_line(line: &str) -> Option<(String, Measurement)> {
    let value = JsonValue::parse(line).ok()?;
    let spec = json::get_str(&value, "spec").ok()?;
    // An edited spec with a stale key means the line no longer describes
    // what it claims — drop it.
    if json::get_str(&value, "key").ok()? != ResultCache::address(spec) {
        return None;
    }
    let m = measurement_from_json_value(&value).ok()?;
    Some((spec.to_owned(), m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(kernel: u64, energy: f64) -> Measurement {
        Measurement {
            kernel_ps: kernel,
            whole_ps: kernel * 2,
            energy_j: energy,
            lut: 1234,
            bram18: 18,
        }
    }

    #[test]
    fn lines_round_trip_exactly() {
        let spec = "workload=queens/8 seed=42 arch=flex tiles=4 fidelity=full";
        let before = m(987_654_321, 0.012345678901234567);
        let line = render_line(spec, &before);
        let (spec2, after) = parse_line(&line).unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(after, before);
        // f64 round-trips bit-exactly through Display/parse.
        assert_eq!(after.energy_j.to_bits(), before.energy_j.to_bits());
        // And re-rendering is byte-identical.
        assert_eq!(render_line(&spec2, &after), line);
    }

    #[test]
    fn content_addresses_are_stable_across_runs() {
        // A fixed spec must hash to the same address forever — this is the
        // property that makes the on-disk cache reusable.
        assert_eq!(
            ResultCache::address("arch=flex tiles=1 pes=4"),
            ResultCache::address("arch=flex tiles=1 pes=4"),
        );
        assert_eq!(ResultCache::address("x").len(), 16);
        assert_ne!(
            ResultCache::address("arch=flex tiles=1 pes=4"),
            ResultCache::address("arch=flex tiles=2 pes=4"),
        );
    }

    #[test]
    fn in_memory_hit_and_miss_accounting() {
        let mut c = ResultCache::in_memory();
        assert!(c.get("a").is_none());
        c.insert("a", m(1, 0.25)).unwrap();
        assert_eq!(c.get("a"), Some(m(1, 0.25)));
        assert!(c.get("b").is_none());
        assert_eq!((c.hits(), c.misses()), (1, 2));
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn persists_and_reloads_across_opens() {
        let dir = std::env::temp_dir().join(format!("pxl-dse-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persists_and_reloads.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut c = ResultCache::open(&path).unwrap();
        assert_eq!(c.loaded(), 0);
        c.insert("spec-one", m(100, 1.5)).unwrap();
        c.insert("spec-two", m(200, 0.125)).unwrap();
        drop(c);

        let mut c = ResultCache::open(&path).unwrap();
        assert_eq!(c.loaded(), 2);
        assert_eq!(c.get("spec-one"), Some(m(100, 1.5)));
        assert_eq!(c.get("spec-two"), Some(m(200, 0.125)));

        // A truncated trailing line (interrupted run) is skipped, the rest
        // survives.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{text}{{\"key\":\"dead\",\"spe")).unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.loaded(), 2);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tampered_keys_are_rejected() {
        let line = render_line("honest-spec", &m(5, 0.5));
        let tampered = line.replace("honest-spec", "edited-spec");
        assert!(parse_line(&tampered).is_none(), "stale content address");
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"key\":\"x\"}").is_none());
    }

    #[test]
    fn specs_with_escapes_survive() {
        let spec = "weird \"quoted\" \\ spec\twith\nnoise";
        let line = render_line(spec, &m(7, 2.0));
        let (spec2, _) = parse_line(&line).unwrap();
        assert_eq!(spec2, spec);
    }
}
