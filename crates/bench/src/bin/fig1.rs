//! Figure 1: (a) a section of the triangular lattice `G_Δ`; (b) expanded
//! and contracted particles on it. Regenerated as `results/fig1.svg`.
//!
//! Accepts the shared runtime flags (`--checkpoint-dir`, `--resume`,
//! `--audit-every`, `--deadline-ms`, `--no-telemetry`, …) for uniformity
//! across the experiment bins; figure generation is fast and stateless,
//! so of the runtime's supervision only panic isolation applies here. The
//! cell outcome is recorded in `results/fig1-cells.json`, and a minimal
//! telemetry stream (manifest + one render event) lands in the
//! git-ignored `target/smoke-logs/fig1-fig1.telemetry.jsonl` in every
//! mode, as the chain sweeps' streams do.

use std::fmt::Write as _;

use sops_chains::RunManifest;
use sops_lattice::{Node, DIRECTIONS};
use sops_runtime::{run_cells, write_cell_report, SweepOptions};

fn render_fig1() -> String {
    const SCALE: f64 = 36.0;
    const MARGIN: f64 = 24.0;

    // Panel (a): a 6×4 patch of bare lattice. Panel (b): the same patch
    // with three contracted particles and one expanded particle.
    let mut nodes = Vec::new();
    for y in 0..4 {
        for x in 0..6 {
            nodes.push(Node::new(x, y));
        }
    }
    let contracted = [Node::new(1, 1), Node::new(3, 2), Node::new(4, 1)];
    let expanded = (Node::new(2, 1), Node::new(2, 2)); // tail, head

    let in_patch = |n: Node| (0..6).contains(&n.x) && (0..4).contains(&n.y);
    let bounds = {
        let (mut max_x, mut max_y) = (0.0f64, 0.0f64);
        for &n in &nodes {
            let (x, y) = n.to_cartesian();
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        (max_x, max_y)
    };
    let panel_w = bounds.0 * SCALE + 2.0 * MARGIN;
    let height = bounds.1 * SCALE + 2.0 * MARGIN;
    let width = 2.0 * panel_w + MARGIN;
    let tx = |x: f64, panel: usize| x * SCALE + MARGIN + panel as f64 * (panel_w + MARGIN);
    let ty = |y: f64| height - (y * SCALE + MARGIN);

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}">"#
    );
    let _ = writeln!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );

    for panel in 0..2usize {
        // Lattice edges.
        for &n in &nodes {
            let (ax, ay) = n.to_cartesian();
            for d in DIRECTIONS {
                let m = n.neighbor(d);
                if in_patch(m) && n < m {
                    let (bx, by) = m.to_cartesian();
                    let _ = writeln!(
                        svg,
                        r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#cccccc" stroke-width="1.5"/>"##,
                        tx(ax, panel),
                        ty(ay),
                        tx(bx, panel),
                        ty(by)
                    );
                }
            }
        }
        // Lattice vertices.
        for &n in &nodes {
            let (x, y) = n.to_cartesian();
            let _ = writeln!(
                svg,
                r##"<circle cx="{:.1}" cy="{:.1}" r="2.5" fill="#999999"/>"##,
                tx(x, panel),
                ty(y)
            );
        }
    }

    // Panel (b) particles.
    for &n in &contracted {
        let (x, y) = n.to_cartesian();
        let _ = writeln!(
            svg,
            r##"<circle cx="{:.1}" cy="{:.1}" r="9" fill="#222222"/>"##,
            tx(x, 1),
            ty(y)
        );
    }
    let (t, h) = expanded;
    let (tx0, ty0) = t.to_cartesian();
    let (hx0, hy0) = h.to_cartesian();
    let _ = writeln!(
        svg,
        r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#222222" stroke-width="6"/>"##,
        tx(tx0, 1),
        ty(ty0),
        tx(hx0, 1),
        ty(hy0)
    );
    for (x, y) in [(tx0, ty0), (hx0, hy0)] {
        let _ = writeln!(
            svg,
            r##"<circle cx="{:.1}" cy="{:.1}" r="9" fill="#222222"/>"##,
            tx(x, 1),
            ty(y)
        );
    }
    let _ = writeln!(
        svg,
        r##"<text x="{:.0}" y="{:.0}" font-family="sans-serif" font-size="14">(a)</text>"##,
        MARGIN,
        height - 4.0
    );
    let _ = writeln!(
        svg,
        r##"<text x="{:.0}" y="{:.0}" font-family="sans-serif" font-size="14">(b)</text>"##,
        panel_w + 2.0 * MARGIN,
        height - 4.0
    );
    svg.push_str("</svg>\n");
    svg
}

fn main() {
    let opts = SweepOptions::from_args();
    println!("Figure 1: lattice section (a) and contracted/expanded particles (b)");
    let outcomes = run_cells(vec!["fig1"], &opts, |_, ctx| {
        let svg = render_fig1();
        sops_bench::save("fig1.svg", &svg);
        // Stateless render: the stream carries a manifest line plus one
        // event record, keeping the log layout uniform across bins.
        let manifest = RunManifest {
            run: "fig1/fig1".to_string(),
            seed: 0,
            lambda: 1.0,
            gamma: 1.0,
            n: 0,
            steps: 0,
        };
        if let Some(mut sink) = opts.telemetry_sink(
            &sops_bench::uncommitted_dir(),
            "fig1",
            "fig1",
            &manifest,
            None,
        )? {
            sink.record_line(&format!(
                "{{\"kind\":\"event\",\"event\":\"rendered\",\"svg_bytes\":{}}}",
                svg.len()
            ))?;
            for line in ctx.event_lines() {
                sink.record_line(&line)?;
            }
        }
        Ok(svg.len())
    });
    write_cell_report(&sops_bench::out_dir(), "fig1", &outcomes);
}
