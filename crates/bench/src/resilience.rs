//! `repro resilience` — coverage under node failure vs. detection delay.
//!
//! For every single-node crash on Internet2 and a sweep of heartbeat
//! detection windows, compile the crash into the manifest timeline the
//! resilient replay executes ([`nwdp_engine::plan_manifest_epochs`]: one
//! epoch before detection, one greedy-repaired epoch after) and take the
//! exact traffic-weighted coverage step function of that timeline
//! ([`nwdp_engine::coverage_timeline`]): the gap while the crash is
//! undetected, the residual gap after repair (the crashed node's own
//! ingress/egress units), and the integrated coverage-time lost. The CSV
//! shows the paper-style trade-off: detection delay buys blindness
//! linearly, repair caps the damage at the unrecoverable share.

use crate::output::{f2, f3, f4, Table};
use crate::scenario::{default_caps, NidsContext, Scale};
use nwdp_core::nids::NidsLpConfig;
use nwdp_core::resilience::{greedy_repair, FailureSchedule, HealthConfig};
use nwdp_engine::{coverage_timeline, plan_manifest_epochs, ResilienceConfig};
use nwdp_topo::NodeId;

/// Replay fraction at which every swept crash strikes.
const FAIL_AT: f64 = 0.25;

/// One (detection window, crashed node) measurement.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Worst-case detection delay (heartbeat interval × miss threshold),
    /// in replay fractions.
    pub detection_window: f64,
    pub node: usize,
    /// The coverage step function over the replay clock, sampled at its
    /// breakpoints (start, failure, repair, end of replay).
    pub coverage: Vec<(f64, f64)>,
    /// Traffic-weighted coverage gap while the crash is undetected.
    pub blind_gap: f64,
    /// Gap remaining after greedy repair (unrecoverable units).
    pub residual_gap: f64,
    /// Integral of lost coverage over the whole replay.
    pub lost_coverage_time: f64,
    /// Measure moved onto survivors by the repair.
    pub moved_measure: f64,
    /// Worst surviving-node load after repair / its greedy bound.
    pub load_after: f64,
    pub load_bound: f64,
}

/// Sweep detection windows × all single-node Internet2 crashes.
pub fn run(scale: Scale) -> Vec<ResiliencePoint> {
    let ctx = NidsContext::internet2();
    let dep = ctx.deployment(9);
    let (_assignment, manifest) = ctx.manifests(&dep);
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, default_caps());
    let windows: &[f64] = match scale {
        Scale::Quick => &[0.01, 0.05, 0.2],
        Scale::Full => &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2],
    };
    // The direct repair depends only on the crashed node, not the window.
    let repairs: Vec<_> = (0..dep.num_nodes)
        .map(|j| greedy_repair(&dep, &manifest, &cfg.caps, &[NodeId(j)]))
        .collect();
    let mut points = Vec::new();
    for &w in windows {
        // Two missed beats of interval w/2 = a worst-case window of w.
        let health = HealthConfig { heartbeat_interval: w / 2.0, miss_threshold: 2 };
        for (j, repair) in repairs.iter().enumerate() {
            let node = NodeId(j);
            let schedule = FailureSchedule::single_crash(node, FAIL_AT);
            let res = ResilienceConfig { caps: &cfg.caps, schedule: &schedule, health };
            let epochs = plan_manifest_epochs(&dep, &manifest, &res);
            // Breakpoints: the run's start, the crash, the repair; the
            // last level holds to the end of the replay.
            let mut coverage = coverage_timeline(&dep, &res, &epochs);
            let at_crash = coverage.iter().find(|&&(t, _)| t == FAIL_AT).expect("crash breakpoint");
            let blind_gap = 1.0 - at_crash.1;
            let last = coverage.last().expect("timeline starts at 0").1;
            coverage.push((1.0, last));
            let lost_coverage_time =
                coverage.windows(2).map(|w| (w[1].0 - w[0].0) * (1.0 - w[0].1)).sum();
            points.push(ResiliencePoint {
                detection_window: w,
                node: j,
                coverage,
                blind_gap,
                residual_gap: 1.0 - last,
                lost_coverage_time,
                moved_measure: repair.moved_measure,
                load_after: repair.max_load_after,
                load_bound: repair.load_bound,
            });
        }
    }
    points
}

/// Per-crash CSV: one row per (window, node).
pub fn table(points: &[ResiliencePoint]) -> Table {
    let mut t = Table::new(
        "Coverage under single-node crash vs detection delay (Internet2, crash at t=0.25)",
        &[
            "detect_window",
            "node",
            "blind_gap",
            "residual_gap",
            "lost_cov_time",
            "moved_measure",
            "load_after",
            "load_bound",
        ],
    );
    for p in points {
        t.row(vec![
            f3(p.detection_window),
            p.node.to_string(),
            f4(p.blind_gap),
            f4(p.residual_gap),
            f4(p.lost_coverage_time),
            f3(p.moved_measure),
            f2(p.load_after),
            f2(p.load_bound),
        ]);
    }
    t
}

/// Replay-clock coverage time series: one row per breakpoint of each
/// (window, node) crash's coverage step function — the CSV counterpart of
/// the `resilience.coverage` obs series.
pub fn coverage_timeseries(points: &[ResiliencePoint]) -> Table {
    let mut t = Table::new(
        "Coverage over the replay clock per crash (step-function breakpoints)",
        &["detect_window", "node", "t", "coverage"],
    );
    for p in points {
        for &(at, cov) in &p.coverage {
            t.row(vec![f3(p.detection_window), p.node.to_string(), f4(at), f4(cov)]);
        }
    }
    t
}

/// Summary CSV: worst and mean lost coverage-time per detection window.
pub fn summary(points: &[ResiliencePoint]) -> Table {
    let mut t = Table::new(
        "Lost coverage-time vs detection window (summary over crashed nodes)",
        &["detect_window", "mean_lost_cov_time", "max_lost_cov_time", "max_residual_gap"],
    );
    let mut windows: Vec<f64> = points.iter().map(|p| p.detection_window).collect();
    windows.sort_by(f64::total_cmp);
    windows.dedup();
    for w in windows {
        let group: Vec<&ResiliencePoint> =
            points.iter().filter(|p| p.detection_window == w).collect();
        let mean = group.iter().map(|p| p.lost_coverage_time).sum::<f64>() / group.len() as f64;
        let max = group.iter().map(|p| p.lost_coverage_time).fold(0.0f64, f64::max);
        let res = group.iter().map(|p| p.residual_gap).fold(0.0f64, f64::max);
        t.row(vec![f3(w), f4(mean), f4(max), f4(res)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_in_detection_window() {
        let pts = run(Scale::Quick);
        assert_eq!(pts.len(), 3 * 11, "3 windows x 11 Internet2 nodes");
        let ctx = NidsContext::internet2();
        let dep = ctx.deployment(9);
        let (_assignment, manifest) = ctx.manifests(&dep);
        let caps = NidsLpConfig::homogeneous(dep.num_nodes, default_caps()).caps;
        let unrecoverable: Vec<f64> = (0..dep.num_nodes)
            .map(|j| {
                greedy_repair(&dep, &manifest, &caps, &[NodeId(j)]).unrecoverable_traffic_fraction
            })
            .collect();
        for p in &pts {
            assert!(p.blind_gap > 0.0 && p.blind_gap < 1.0);
            assert!(p.residual_gap <= p.blind_gap + 1e-12);
            assert!(p.load_after <= p.load_bound + 1e-9);
            // The residual gap is exactly the unrecoverable traffic
            // fraction (the crashed node's ingress/egress units).
            assert!(
                (p.residual_gap - unrecoverable[p.node]).abs() < 1e-9,
                "residual {} vs unrecoverable {}",
                p.residual_gap,
                unrecoverable[p.node]
            );
            // The repair lands on the detection grid, and the lost
            // coverage-time integrates the two steps in closed form.
            let health =
                HealthConfig { heartbeat_interval: p.detection_window / 2.0, miss_threshold: 2 };
            let repair_at = p.coverage[2].0;
            assert!((repair_at - health.detect_at(FAIL_AT)).abs() < 1e-12);
            let closed = (repair_at - FAIL_AT) * p.blind_gap + (1.0 - repair_at) * p.residual_gap;
            assert!(
                (p.lost_coverage_time - closed).abs() < 1e-12,
                "lost {} vs closed form {closed}",
                p.lost_coverage_time
            );
        }
        // Longer detection windows can only lose more coverage-time for
        // the same crash.
        for j in 0..11 {
            let series: Vec<f64> =
                pts.iter().filter(|p| p.node == j).map(|p| p.lost_coverage_time).collect();
            assert_eq!(series.len(), 3);
            assert!(series[0] <= series[1] + 1e-12 && series[1] <= series[2] + 1e-12);
        }
        let s = summary(&pts);
        assert_eq!(s.rows.len(), 3);
    }

    #[test]
    fn coverage_series_reproduces_the_blind_window() {
        let pts = run(Scale::Quick);
        for p in &pts {
            // Breakpoints: 0, fail (0.25), repair, 1 — repair may merge
            // with fail for an instant detector, never with the ends.
            assert!(p.coverage.len() >= 3 && p.coverage.len() <= 4, "{:?}", p.coverage);
            assert_eq!(p.coverage.first().unwrap(), &(0.0, 1.0), "full coverage before crash");
            let blind = p.coverage.iter().find(|(t, _)| *t == FAIL_AT).expect("crash breakpoint");
            assert!((blind.1 - (1.0 - p.blind_gap)).abs() < 1e-12);
            let end = p.coverage.last().unwrap();
            assert_eq!(end.0, 1.0);
            assert!((end.1 - (1.0 - p.residual_gap)).abs() < 1e-12, "repair holds to the end");
            // The step function only moves at breakpoints and never dips
            // below the repaired level.
            for w in p.coverage.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
        let t = coverage_timeseries(&pts);
        assert_eq!(t.rows.len(), pts.iter().map(|p| p.coverage.len()).sum::<usize>());
    }
}
