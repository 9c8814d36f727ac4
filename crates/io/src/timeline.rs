//! NSIGHT-Systems-style textual timelines from profiler spans (Fig. 4).
//!
//! The paper's Fig. 4 shows two lanes per run — compute kernels and
//! memory/communication — over a window of viscosity-solver iterations,
//! contrasting manual memory (P2P transfers between kernels) with unified
//! memory (CPU↔GPU page migrations and larger launch gaps). This renderer
//! reproduces that view in fixed-width text from `gpusim` spans.

use gpusim::{Span, TimeCategory};
use std::fmt::Write as _;

/// Character used for each category in the timeline lanes.
fn glyph(cat: TimeCategory) -> char {
    match cat {
        TimeCategory::Kernel => 'K',
        TimeCategory::LaunchGap => '.',
        TimeCategory::MemcpyH2D => 'h',
        TimeCategory::MemcpyD2H => 'd',
        TimeCategory::P2P => 'P',
        TimeCategory::PageMigration => 'U',
        TimeCategory::Pack => 'p',
        TimeCategory::Collective => 'C',
        TimeCategory::MpiWait => 'w',
        TimeCategory::Other => '?',
    }
}

fn is_compute_lane(cat: TimeCategory) -> bool {
    matches!(cat, TimeCategory::Kernel | TimeCategory::LaunchGap)
}

/// Render spans within `[t0, t1]` µs as a two-lane timeline of `width`
/// characters, plus a legend and per-category totals for the window.
pub fn render_timeline(spans: &[Span], t0: f64, t1: f64, width: usize, label: &str) -> String {
    assert!(t1 > t0, "empty window");
    let width = width.max(20);
    let mut lane_compute = vec![' '; width];
    let mut lane_mem = vec![' '; width];
    let dt = (t1 - t0) / width as f64;
    let mut totals = [0.0f64; 10];

    for s in spans {
        if s.t1 <= t0 || s.t0 >= t1 {
            continue;
        }
        let a = ((s.t0.max(t0) - t0) / dt) as usize;
        let b = (((s.t1.min(t1) - t0) / dt).ceil() as usize).min(width);
        let lane = if is_compute_lane(s.cat) {
            &mut lane_compute
        } else {
            &mut lane_mem
        };
        let g = glyph(s.cat);
        for c in lane.iter_mut().take(b.max(a + 1).min(width)).skip(a) {
            *c = g;
        }
        totals[s.cat.index()] += s.t1.min(t1) - s.t0.max(t0);
    }

    let mut out = String::new();
    let _ = writeln!(out, "── {label} ── window {:.1}–{:.1} µs", t0, t1);
    let _ = writeln!(out, "GPU    |{}|", lane_compute.iter().collect::<String>());
    let _ = writeln!(out, "MEM/IO |{}|", lane_mem.iter().collect::<String>());
    let mut parts = vec![];
    for cat in TimeCategory::ALL {
        let tot = totals[cat.index()];
        if tot > 0.0 {
            parts.push(format!("{}={} {:.1}µs", glyph(cat), cat.label(), tot));
        }
    }
    let _ = writeln!(out, "legend: {}", parts.join("  "));
    out
}

/// Export spans as a Chrome-tracing (`chrome://tracing` / Perfetto) JSON
/// file: one complete event per span, with the category and phase as
/// metadata. Times are virtual µs.
pub fn export_chrome_trace(
    spans: &[Span],
    rank: usize,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        // Two "threads" per rank: GPU lane and MEM/IO lane (matches the
        // textual renderer).
        let tid = if is_compute_lane(s.cat) { 0 } else { 1 };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}{}",
            s.name,
            s.cat.label(),
            s.t0,
            s.dur(),
            rank,
            tid,
            comma
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::Phase;

    fn span(t0: f64, t1: f64, cat: TimeCategory) -> Span {
        Span {
            t0,
            t1,
            cat,
            phase: Phase::Compute,
            name: "x",
        }
    }

    #[test]
    fn kernels_and_transfers_on_separate_lanes() {
        let spans = vec![
            span(0.0, 50.0, TimeCategory::Kernel),
            span(50.0, 60.0, TimeCategory::P2P),
            span(60.0, 100.0, TimeCategory::Kernel),
        ];
        let s = render_timeline(&spans, 0.0, 100.0, 50, "test");
        let lines: Vec<&str> = s.lines().collect();
        let gpu_lane = lines[1].split('|').nth(1).unwrap();
        let mem_lane = lines[2].split('|').nth(1).unwrap();
        assert!(gpu_lane.contains('K'));
        assert!(!gpu_lane.contains('P'));
        assert!(mem_lane.contains('P'));
        assert!(s.contains("P=P2P"));
    }

    #[test]
    fn spans_outside_window_ignored() {
        let spans = vec![span(1000.0, 2000.0, TimeCategory::Kernel)];
        let s = render_timeline(&spans, 0.0, 100.0, 40, "w");
        assert!(!s.lines().nth(1).unwrap().contains('K'));
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let spans = vec![
            span(0.0, 10.0, TimeCategory::Kernel),
            span(10.0, 12.0, TimeCategory::P2P),
        ];
        let dir = crate::Scratch::new("trace");
        let path = dir.file("t.json");
        export_chrome_trace(&spans, 3, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"cat\":\"P2P\""));
        assert!(text.contains("\"pid\":3"));
        // Kernel on tid 0, transfer on tid 1.
        assert!(text.contains("\"tid\":0"));
        assert!(text.contains("\"tid\":1"));
        // No trailing comma before the closing bracket.
        assert!(!text.contains(",\n]"));
    }

    #[test]
    fn page_migrations_visible_in_um_story() {
        let spans = vec![
            span(0.0, 10.0, TimeCategory::Kernel),
            span(10.0, 40.0, TimeCategory::PageMigration),
            span(40.0, 50.0, TimeCategory::Kernel),
        ];
        let s = render_timeline(&spans, 0.0, 50.0, 50, "um");
        assert!(s.lines().nth(2).unwrap().matches('U').count() > 10);
    }
}
