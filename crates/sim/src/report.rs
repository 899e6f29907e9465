//! Plain-text rendering of experiment results in the paper's layout.

use std::fmt::Write as _;

use workload::PredicateDist;

use crate::delivery::MulticastMode;
use crate::experiments::{Fig10Result, Fig7Result, Fig8Result, TableRow};

fn dist_label(d: PredicateDist) -> &'static str {
    match d {
        PredicateDist::Uniform => "uniform",
        PredicateDist::Gaussian => "gaussian",
    }
}

fn mode_label(m: MulticastMode) -> &'static str {
    match m {
        MulticastMode::NetworkSupported => "net",
        MulticastMode::ApplicationLevel => "app",
        MulticastMode::SparseMode => "sparse",
    }
}

/// Renders Table 1/2 rows in the paper's column layout.
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>9} {:>10} {:>10} {:>10}",
        "Node", "Sub'n", "Dist'n", "Unicast", "Broadcast", "Ideal"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>9} {:>10.0} {:>10.0} {:>10.0}",
            r.nodes,
            r.subscriptions,
            dist_label(r.dist),
            r.unicast,
            r.broadcast,
            r.ideal
        );
    }
    out
}

/// Renders a Figure 7/9 result: one block per multicast mode, one row
/// per K, one column per algorithm.
pub fn render_group_sweep(title: &str, res: &Fig7Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "baselines: unicast={:.0} broadcast={:.0} ideal={:.0}",
        res.baselines.unicast, res.baselines.broadcast, res.baselines.ideal
    );
    for mode in [
        MulticastMode::NetworkSupported,
        MulticastMode::ApplicationLevel,
    ] {
        let series: Vec<_> = res.series.iter().filter(|s| s.mode == mode).collect();
        if series.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "-- {} multicast (improvement % over unicast)",
            mode_label(mode)
        );
        let _ = write!(out, "{:>5}", "K");
        for s in &series {
            let _ = write!(out, " {:>13}", s.algorithm);
        }
        let _ = writeln!(out);
        // lint: allow(no-literal-index): the empty case `continue`d above
        let ks: Vec<usize> = series[0].points.iter().map(|&(k, _)| k).collect();
        for (row, &k) in ks.iter().enumerate() {
            let _ = write!(out, "{k:>5}");
            for s in &series {
                let _ = write!(out, " {:>13.1}", s.points[row].1);
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Renders the Figure 8 result (No-Loss parameter sensitivity).
pub fn render_fig8(res: &Fig8Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: No-Loss parameter sensitivity (improvement % over unicast)"
    );
    let _ = writeln!(out, "-- by number of rectangles kept");
    let _ = writeln!(out, "{:>8} {:>13}", "rects", "improvement");
    for &(r, i) in &res.by_rects {
        let _ = writeln!(out, "{r:>8} {i:>13.1}");
    }
    let _ = writeln!(out, "-- by number of iterations");
    let _ = writeln!(out, "{:>8} {:>13}", "iters", "improvement");
    for &(n, i) in &res.by_iterations {
        let _ = writeln!(out, "{n:>8} {i:>13.1}");
    }
    out
}

/// Renders the Figure 10 result (quality and runtime vs cell budget).
pub fn render_fig10(res: &Fig10Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10: quality and runtime vs number of cells");
    for s in &res.series {
        let _ = writeln!(out, "-- {}", s.algorithm);
        let _ = writeln!(
            out,
            "{:>8} {:>13} {:>10}",
            "cells", "improvement", "seconds"
        );
        for p in &s.points {
            let _ = writeln!(
                out,
                "{:>8} {:>13.1} {:>10.3}",
                p.cells, p.improvement, p.seconds
            );
        }
    }
    out
}

/// Renders the Figure 11 view: quality as a function of time, merged
/// across algorithms and sorted by time.
pub fn render_fig11(res: &Fig10Result) -> String {
    let mut rows: Vec<(f64, f64, &str, usize)> = res
        .series
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(move |p| (p.seconds, p.improvement, s.algorithm.as_str(), p.cells))
        })
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("seconds are never NaN"));
    let mut out = String::new();
    let _ = writeln!(out, "Figure 11: solution quality as a function of time");
    let _ = writeln!(
        out,
        "{:>10} {:>13} {:>14} {:>8}",
        "seconds", "improvement", "algorithm", "cells"
    );
    for (sec, impr, alg, cells) in rows {
        let _ = writeln!(out, "{sec:>10.3} {impr:>13.1} {alg:>14} {cells:>8}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::BaselineCosts;
    use crate::experiments::{CellSweepPoint, CellSweepSeries, GroupSweepSeries};

    fn baselines() -> BaselineCosts {
        BaselineCosts {
            unicast: 7139.0,
            broadcast: 8536.0,
            ideal: 1763.0,
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![TableRow {
            nodes: 100,
            subscriptions: 5000,
            dist: PredicateDist::Uniform,
            unicast: 31351.0,
            broadcast: 1430.0,
            ideal: 1334.0,
        }];
        let s = render_table("Table 1", &rows);
        assert!(s.contains("Table 1"));
        assert!(s.contains("31351"));
        assert!(s.contains("uniform"));
    }

    #[test]
    fn group_sweep_renders_modes_and_columns() {
        let res = Fig7Result {
            baselines: baselines(),
            series: vec![
                GroupSweepSeries {
                    algorithm: "forgy".into(),
                    mode: MulticastMode::NetworkSupported,
                    points: vec![(10, 40.0), (20, 55.0)],
                },
                GroupSweepSeries {
                    algorithm: "forgy".into(),
                    mode: MulticastMode::ApplicationLevel,
                    points: vec![(10, 35.0), (20, 50.0)],
                },
            ],
        };
        let s = render_group_sweep("Figure 7", &res);
        assert!(s.contains("net multicast"));
        assert!(s.contains("app multicast"));
        assert!(s.contains("forgy"));
        assert!(s.contains("55.0"));
    }

    #[test]
    fn fig8_and_fig10_render() {
        let f8 = Fig8Result {
            baselines: baselines(),
            by_rects: vec![(1000, 20.0)],
            by_iterations: vec![(8, 25.0)],
        };
        let s = render_fig8(&f8);
        assert!(s.contains("rects"));
        assert!(s.contains("iters"));

        let f10 = Fig10Result {
            baselines: baselines(),
            series: vec![CellSweepSeries {
                algorithm: "mst".into(),
                points: vec![CellSweepPoint {
                    cells: 1000,
                    improvement: 44.0,
                    seconds: 1.25,
                }],
            }],
        };
        let s = render_fig10(&f10);
        assert!(s.contains("mst"));
        assert!(s.contains("1.250"));
        let s = render_fig11(&f10);
        assert!(s.contains("quality as a function of time"));
        assert!(s.contains("44.0"));
    }
}
