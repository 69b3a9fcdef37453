//! Pareto fronts over the exploration objectives, with knee-point
//! selection.
//!
//! Every objective is minimized: whole-application runtime, energy, and
//! the two dominant FPGA footprint axes (LUTs and RAM18 blocks). A point
//! is on the front iff no other evaluated point [`dominates`] it. The
//! **knee point** — the front member closest (L2) to the per-front
//! normalized origin — is the "build this one unless you have a reason not
//! to" answer the report leads with.

use crate::cache::Measurement;
use crate::space::DesignPoint;
use pxl_sim::json::write_string;

/// The minimized objective vector of a measurement:
/// `(whole_ps, energy_j, lut, bram18)`.
pub fn objectives(m: &Measurement) -> (u64, f64, u64, u64) {
    (m.whole_ps, m.energy_j, m.lut, m.bram18)
}

/// Whether `a` Pareto-dominates `b`: no worse on every objective and
/// strictly better on at least one.
pub fn dominates(a: &Measurement, b: &Measurement) -> bool {
    let no_worse = a.whole_ps <= b.whole_ps
        && a.energy_j <= b.energy_j
        && a.lut <= b.lut
        && a.bram18 <= b.bram18;
    let better =
        a.whole_ps < b.whole_ps || a.energy_j < b.energy_j || a.lut < b.lut || a.bram18 < b.bram18;
    no_worse && better
}

/// One non-dominated design on a benchmark's front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// The design point.
    pub point: DesignPoint,
    /// What it measured.
    pub measurement: Measurement,
    /// Whether this is the front's knee point.
    pub knee: bool,
}

/// The Pareto front of one benchmark's evaluated points.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    /// The benchmark the front belongs to.
    pub benchmark: String,
    /// Non-dominated points, sorted by ascending whole-application runtime
    /// (ties broken by energy, then spec string — fully deterministic).
    pub points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// Builds the front from every evaluated `(point, measurement)` pair of
    /// one benchmark.
    pub fn build(benchmark: impl Into<String>, evaluated: &[(DesignPoint, Measurement)]) -> Self {
        let mut points: Vec<FrontPoint> = evaluated
            .iter()
            .filter(|(_, m)| !evaluated.iter().any(|(_, other)| dominates(other, m)))
            .map(|(point, measurement)| FrontPoint {
                point: point.clone(),
                measurement: *measurement,
                knee: false,
            })
            .collect();
        points.sort_by(|a, b| {
            a.measurement
                .whole_ps
                .cmp(&b.measurement.whole_ps)
                .then(
                    a.measurement
                        .energy_j
                        .partial_cmp(&b.measurement.energy_j)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then_with(|| a.point.spec().cmp(&b.point.spec()))
        });
        points.dedup_by(|a, b| a.point == b.point);
        if let Some(knee) = knee_index(&points) {
            points[knee].knee = true;
        }
        ParetoFront {
            benchmark: benchmark.into(),
            points,
        }
    }

    /// The knee point, when the front is non-empty.
    pub fn knee(&self) -> Option<&FrontPoint> {
        self.points.iter().find(|p| p.knee)
    }

    /// One JSONL line per front point:
    /// `{"benchmark":...,"spec":...,"knee":...,<objectives>}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str("{\"benchmark\":");
            write_string(&mut out, &self.benchmark);
            out.push_str(",\"spec\":");
            write_string(&mut out, &p.point.spec());
            out.push_str(&format!(
                ",\"knee\":{},\"kernel_ps\":{},\"whole_ps\":{},\"energy_j\":{},\"lut\":{},\"bram18\":{}}}\n",
                p.knee,
                p.measurement.kernel_ps,
                p.measurement.whole_ps,
                p.measurement.energy_j,
                p.measurement.lut,
                p.measurement.bram18,
            ));
        }
        out
    }
}

/// Index of the knee point: minimize the L2 norm of the objectives after
/// normalizing each to `[0, 1]` over the front (degenerate objectives —
/// identical across the front — contribute zero).
fn knee_index(points: &[FrontPoint]) -> Option<usize> {
    if points.is_empty() {
        return None;
    }
    let objs: Vec<[f64; 4]> = points
        .iter()
        .map(|p| {
            let (t, e, l, b) = objectives(&p.measurement);
            [t as f64, e, l as f64, b as f64]
        })
        .collect();
    let mut lo = objs[0];
    let mut hi = objs[0];
    for o in &objs {
        for i in 0..4 {
            lo[i] = lo[i].min(o[i]);
            hi[i] = hi[i].max(o[i]);
        }
    }
    let norm_sq = |o: &[f64; 4]| -> f64 {
        (0..4)
            .map(|i| {
                let span = hi[i] - lo[i];
                if span > 0.0 {
                    let x = (o[i] - lo[i]) / span;
                    x * x
                } else {
                    0.0
                }
            })
            .sum()
    };
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, o) in objs.iter().enumerate() {
        let d = norm_sq(o);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PointArch;

    fn point(tiles: usize) -> DesignPoint {
        DesignPoint {
            arch: PointArch::Flex,
            tiles,
            pes_per_tile: 4,
            cache_kb: 32,
            task_queue_entries: 1024,
            pstore_entries: 4096,
            cluster: None,
            platform: pxl_arch::Platform::Coherent,
        }
    }

    fn m(whole: u64, energy: f64, lut: u64) -> Measurement {
        Measurement {
            kernel_ps: whole,
            whole_ps: whole,
            energy_j: energy,
            lut,
            bram18: lut / 1000,
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates(&m(10, 1.0, 100), &m(20, 2.0, 200)));
        assert!(dominates(&m(10, 1.0, 100), &m(10, 1.0, 200)));
        assert!(!dominates(&m(10, 1.0, 100), &m(10, 1.0, 100)), "equal");
        // Trade-off: faster but bigger — neither dominates.
        assert!(!dominates(&m(10, 1.0, 900), &m(30, 1.0, 100)));
        assert!(!dominates(&m(30, 1.0, 100), &m(10, 1.0, 900)));
    }

    #[test]
    fn front_keeps_exactly_the_non_dominated_points() {
        // Hand-checkable: c is dominated by a; a, b, d trade off.
        let evaluated = vec![
            (point(1), m(30, 1.0, 1_000)), // a: small and slow
            (point(4), m(10, 2.0, 4_000)), // b: fast and big
            (point(2), m(35, 1.5, 2_000)), // c: dominated by a
            (point(8), m(20, 1.2, 3_000)), // d: middle trade-off
        ];
        let front = ParetoFront::build("queens", &evaluated);
        let tiles: Vec<usize> = front.points.iter().map(|p| p.point.tiles).collect();
        // Sorted by runtime: b (10), d (20), a (30); c gone.
        assert_eq!(tiles, vec![4, 8, 1]);
        // Front invariants: no member dominated by any evaluated point, and
        // every non-member dominated by some member.
        for fp in &front.points {
            assert!(!evaluated.iter().any(|(_, o)| dominates(o, &fp.measurement)));
        }
        assert!(front
            .points
            .iter()
            .any(|fp| dominates(&fp.measurement, &m(35, 1.5, 2_000))));
    }

    #[test]
    fn knee_balances_the_objectives() {
        let evaluated = vec![
            (point(1), m(100, 1.0, 1_000)),  // cheap extreme
            (point(8), m(10, 10.0, 10_000)), // fast extreme
            (point(4), m(20, 2.0, 2_000)),   // balanced
        ];
        let front = ParetoFront::build("uts", &evaluated);
        assert_eq!(front.points.len(), 3);
        let knee = front.knee().unwrap();
        assert_eq!(knee.point.tiles, 4, "the balanced point is the knee");
        assert_eq!(front.points.iter().filter(|p| p.knee).count(), 1);
    }

    #[test]
    fn single_point_front_is_its_own_knee() {
        let front = ParetoFront::build("nw", &[(point(2), m(5, 0.5, 500))]);
        assert_eq!(front.points.len(), 1);
        assert!(front.points[0].knee);
        let empty = ParetoFront::build("nw", &[]);
        assert!(empty.knee().is_none());
    }

    #[test]
    fn jsonl_lists_front_points_with_knee_flag() {
        let front = ParetoFront::build(
            "queens",
            &[(point(1), m(30, 1.0, 1_000)), (point(4), m(10, 2.0, 4_000))],
        );
        let jsonl = front.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.contains("\"benchmark\":\"queens\"")));
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"knee\":true")).count(),
            1
        );
        assert!(lines[0].contains("arch=flex tiles=4"));
    }

    #[test]
    fn duplicate_points_collapse() {
        let evaluated = vec![(point(1), m(10, 1.0, 1_000)), (point(1), m(10, 1.0, 1_000))];
        let front = ParetoFront::build("bfsqueue", &evaluated);
        assert_eq!(front.points.len(), 1);
    }
}
