//! The metric table and the one-line JSON result.
//!
//! Every metric the benchmark can emit is declared here with its unit;
//! the result line is checked against this table (every name present,
//! nothing else, units as declared) and parsed back strictly before it
//! is printed. `BENCHMARK.json` at the repository root lists the same
//! table, which a unit test keeps in sync.

use crate::stats::{chunk_median, percentile, tail_percentile};
use mas_bench::json::Json;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("cache_hit_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mhd.advance_ms", "ms"),
    ("mhd.cfl_ms", "ms"),
    ("mhd.advect_ms", "ms"),
    ("mhd.momentum_ms", "ms"),
    ("mhd.visc_ms", "ms"),
    ("mhd.conduct_ms", "ms"),
    ("mhd.source_ms", "ms"),
    ("mhd.induction_ms", "ms"),
    ("mhd.boundary_ms", "ms"),
    ("mhd.pcg_iters_per_step", "count"),
    ("mhd.sts_ops_per_step", "count"),
    ("stdpar.launch_us", "us"),
    ("stdpar.launches_per_step", "count"),
    ("stdpar.tiles_per_step", "count"),
    ("stdpar.speedup_2t", "ratio"),
    ("gpusim.model_step_us", "model_us"),
    ("gpusim.model_mpi_frac", "ratio"),
    ("gpusim.kernel_bytes_per_step", "B"),
    ("halo.state_us", "us"),
    ("halo.cc_us", "us"),
    ("minimpi.allreduce_us", "us"),
    ("supervisor.health_us", "us"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes", "B"),
    ("serve.stats_rtt_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.run_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.steps_executed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values collected by a run, in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`. The name must be in one of the tables.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the metric table"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Record the p50 of `samples` (in time order) through the
    /// percentile helper: the median over `chunks` consecutive slices of
    /// each slice's p50. Omitted when no slice supports it.
    pub fn put_p50(&mut self, name: &'static str, samples: &[f64], chunks: usize) {
        self.put_percentile(name, samples, 50.0, chunks);
    }

    /// Record percentile `p` of `samples`, sliced as in
    /// [`Metrics::put_p50`]. Omitted when no slice supports it.
    pub fn put_percentile(&mut self, name: &'static str, samples: &[f64], p: f64, chunks: usize) {
        let pct = |s: &[f64]| percentile(s, p).map(|p| p.value);
        if let Some(v) = chunk_median(samples, chunks, pct) {
            self.put(name, v);
        }
    }

    /// Record the tail of `samples`, sliced as in [`Metrics::put_p50`]:
    /// per slice, the highest percentile that `guaranteed / chunks`
    /// samples support with at least ten beyond it. `guaranteed` is the
    /// count the workload always collects, so the percentile is the same
    /// on every run and commit. Omitted when no slice supports it.
    pub fn put_tail(
        &mut self,
        name: &'static str,
        samples: &[f64],
        guaranteed: usize,
        chunks: usize,
    ) {
        if let Some(p) = tail_percentile(guaranteed / chunks.max(1)) {
            self.put_percentile(name, samples, p, chunks);
        }
    }

    /// Look up a recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Keep only the metrics of `table`, in table order.
    pub fn select(&self, table: &[(&'static str, &str)]) -> Metrics {
        Metrics(
            table
                .iter()
                .filter_map(|&(n, _)| self.get(n).map(|v| (n, v)))
                .collect(),
        )
    }
}

/// The outcome of one benchmark invocation.
pub struct Outcome {
    /// Operations attempted (runs, jobs, hash checks).
    pub attempted: u64,
    /// Attempts that failed, were rejected, or mismatched their hash.
    pub failed: u64,
    /// Collected metric values.
    pub metrics: Metrics,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            metrics: Metrics::default(),
        }
    }
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Render the result line for `table`, after checking that every metric
/// of `table` is present, finite and — for the end-to-end table — not
/// zero. Returns the line and the list of problems (empty when sound).
pub fn result_line(out: &Outcome, table: &[(&'static str, &str)]) -> (String, Vec<String>) {
    let mut problems = Vec::new();
    let chosen = out.metrics.select(table);
    for &(name, _) in table {
        match chosen.get(name) {
            None => problems.push(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => problems.push(format!("metric {name} = {v}")),
            Some(v) if v == 0.0 && table == END_TO_END => {
                problems.push(format!("end-to-end metric {name} is 0"))
            }
            Some(_) => {}
        }
    }
    let correct = out.failed == 0 && problems.is_empty();
    let metrics = chosen
        .0
        .iter()
        .map(|&(name, value)| {
            let unit = unit_of(name).expect("selected from a table");
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let line = doc
        .pretty()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    if let Err(e) = parse_result_line(&line, table) {
        problems.push(format!("result line does not parse back: {e}"));
    }
    (line, problems)
}

/// Strict parse of a result line: exactly the four top-level keys, and
/// in `metrics` exactly the names of `table`, each with exactly a
/// numeric `value` and the declared `unit`.
pub fn parse_result_line(line: &str, table: &[(&str, &str)]) -> Result<Json, String> {
    let doc = Json::parse(line)?;
    let top = doc.as_obj().ok_or("result is not an object")?;
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("top-level keys {keys:?}"));
    }
    for key in ["attempted", "failed"] {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{key} is not a whole number"))?;
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    if names != want {
        return Err(format!("metric names {names:?} != {want:?}"));
    }
    for ((name, m), &(_, unit)) in metrics.iter().zip(table) {
        let pairs = m.as_obj().ok_or(format!("{name} is not an object"))?;
        if pairs.len() != 2
            || m.get("value").and_then(Json::as_f64).is_none()
            || m.get("unit").and_then(Json::as_str) != Some(unit)
        {
            return Err(format!("{name} is not {{value, unit: {unit}}}"));
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(table: &[(&'static str, &str)]) -> Outcome {
        let mut out = Outcome::new(3, 0);
        for (i, &(n, _)) in table.iter().enumerate() {
            out.metrics.put(n, 1.25 + i as f64);
        }
        out
    }

    #[test]
    fn complete_outcome_renders_and_parses_back() {
        for table in [END_TO_END, PER_LAYER] {
            let (line, problems) = result_line(&full(table), table);
            assert!(problems.is_empty(), "{problems:?}");
            assert!(!line.contains('\n'));
            let doc = parse_result_line(&line, table).unwrap();
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn missing_or_zero_metric_is_a_problem() {
        let mut out = full(END_TO_END);
        out.metrics.0.retain(|(n, _)| *n != "job_ms_tail");
        out.metrics.put("setup_s", 0.0);
        let (line, problems) = result_line(&out, END_TO_END);
        assert!(
            problems.iter().any(|p| p.contains("job_ms_tail")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("setup_s")),
            "{problems:?}"
        );
        assert!(line.contains("\"correct\": false"));
    }

    #[test]
    fn strict_parse_rejects_drift() {
        let (line, _) = result_line(&full(END_TO_END), END_TO_END);
        let bad_unit = line.replacen("\"unit\": \"ms\"", "\"unit\": \"s\"", 1);
        assert!(parse_result_line(&bad_unit, END_TO_END).is_err());
        let extra = line.replacen("{ \"correct\"", "{ \"x\": 1, \"correct\"", 1);
        assert_ne!(extra, line);
        assert!(parse_result_line(&extra, END_TO_END).is_err());
        assert!(parse_result_line(&line, PER_LAYER).is_err(), "wrong table");
    }

    #[test]
    fn benchmark_json_declares_the_same_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }
}
