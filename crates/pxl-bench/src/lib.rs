//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section V).
//!
//! Each experiment has a binary (`tables`, `fig6`, `table4`, `fig7`,
//! `table5`, `fig8`, `fig9`) plus `all`, which runs everything and emits
//! `EXPERIMENTS.md`-ready output. Every run is named by a
//! [`pxl_flow::RunSpec`] and performed by [`pxl_flow::execute`], which
//! validates the output against the golden reference and reports
//! *whole-program* time (host initialization plus kernel), matching the
//! paper's methodology: "performance numbers are obtained by comparing
//! whole program execution time, which include initialization and data
//! transfers". The shared machinery here is reporting: benchmark lookup,
//! host stamps, geometric means and markdown tables.

pub mod dse;
pub mod experiments;

use pxl_apps::{by_name, Benchmark, Scale};

/// The run outcome and its JSONL writer, re-exported for the harness's
/// reporting code.
pub use pxl_flow::{write_jsonl, RunOutcome};

/// A host/build identifier for stamping benchmark result rows, so
/// longitudinal `bench_results.jsonl` files collected from different
/// machines or builds can be told apart: `<host>/v<crate version>`. The
/// host part is the first of `PXL_HOST_ID` (explicit override),
/// `HOSTNAME` and the kernel's hostname that is non-empty once restricted
/// to JSON-safe identifier characters, else `unknown-host`. Shells such as
/// bash set `HOSTNAME` without exporting it, so the kernel's name is what
/// usually names the machine.
pub fn host_build_id() -> String {
    let env = |key| std::env::var(key).ok();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/hostname").ok();
    let host = pick_host([env("PXL_HOST_ID"), env("HOSTNAME"), kernel]);
    format!("{host}/v{}", env!("CARGO_PKG_VERSION"))
}

/// Restricts each candidate to JSON-safe identifier characters
/// (`[A-Za-z0-9._-]`) and returns the first that keeps any; `unknown-host`
/// when none does.
fn pick_host(candidates: impl IntoIterator<Item = Option<String>>) -> String {
    candidates
        .into_iter()
        .flatten()
        .map(|raw| {
            raw.chars()
                .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                .collect::<String>()
        })
        .find(|host| !host.is_empty())
        .unwrap_or_else(|| "unknown-host".to_owned())
}

/// Prefixes one `{...}` JSONL record with a `"host"` member without
/// touching the (byte-stable) record format itself.
pub fn stamp_host(record: &str, host: &str) -> String {
    debug_assert!(record.starts_with('{'), "JSONL records are objects");
    format!("{{\"host\":\"{host}\",{}", &record[1..])
}

/// [`write_jsonl`] with every record stamped by [`stamp_host`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_jsonl_stamped(
    path: &std::path::Path,
    outcomes: &[RunOutcome],
    host: &str,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for out in outcomes {
        writeln!(f, "{}", stamp_host(&out.to_jsonl(), host))?;
    }
    f.into_inner()?.flush()
}

/// Looks up a benchmark by name at the harness's evaluation scale.
///
/// # Panics
///
/// Panics on unknown names.
pub fn bench(name: &str, scale: Scale) -> Box<dyn Benchmark> {
    by_name(name, scale).unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

/// The ten benchmark names in Table II order.
pub const ALL_BENCHES: [&str; 10] = [
    "nw",
    "quicksort",
    "cilksort",
    "queens",
    "knapsack",
    "uts",
    "bbgemm",
    "bfsqueue",
    "spmvcrs",
    "stencil2d",
];

/// Benchmarks implemented on the Zedboard prototype. The paper notes "a few
/// benchmarks that rely on fine-grained cache accesses were not
/// implemented" on the Zynq-7000 (no coherent-cache interface on the
/// fabric); the fine-grained-sharing benchmarks here are `knapsack` (atomic
/// best-bound) and `bfsqueue` (atomic frontier queue).
pub const ZEDBOARD_BENCHES: [&str; 8] = [
    "nw",
    "quicksort",
    "cilksort",
    "queens",
    "uts",
    "bbgemm",
    "spmvcrs",
    "stencil2d",
];

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// The shared simulation worker pool, re-exported so existing harness code
/// (and downstream users of `pxl_bench::parallel_map`) keep working; the one
/// implementation now lives in [`pxl_sim::pool`] where `pxl-dse` shares it.
pub use pxl_sim::pool::parallel_map;

pub use dse::BenchEvaluator;

/// Renders a markdown-style table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&fmt_row(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        &widths,
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_build_id_is_json_safe_and_versioned() {
        let id = host_build_id();
        assert!(id.ends_with(&format!("/v{}", env!("CARGO_PKG_VERSION"))));
        assert!(
            !id.contains('"') && !id.contains('\\'),
            "must embed safely in a JSON string: {id:?}"
        );
        assert_eq!(
            stamp_host("{\"bench\":\"uts\"}", "ci-runner/v0.1.0"),
            "{\"host\":\"ci-runner/v0.1.0\",\"bench\":\"uts\"}"
        );
    }

    #[test]
    fn host_is_the_first_candidate_that_survives_sanitising() {
        let some = |s: &str| Some(s.to_owned());
        assert_eq!(pick_host([some("ci-1"), some("box"), some("vm\n")]), "ci-1");
        assert_eq!(pick_host([None, None, some("vm\n")]), "vm");
        assert_eq!(pick_host([some("\"\\"), some("my host!"), None]), "myhost");
        assert_eq!(pick_host([None, some(""), None]), "unknown-host");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    fn parallel_map_is_reexported_from_pxl_sim() {
        // The shared pool must stay reachable under the harness's old path.
        let jobs: Vec<_> = (0..4usize).map(|i| move || i * i).collect();
        assert_eq!(parallel_map(jobs), vec![0, 1, 4, 9]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bench"],
            &[vec!["1".into(), "x".into()], vec!["22".into(), "yy".into()]],
        );
        assert!(t.contains("| a  | bench |"));
        assert!(t.lines().count() == 4);
    }
}
