//! Order statistics, the failure tally, and the metric catalogue shared by
//! every workload.

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every workload reports all of them with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("traces_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// Every traced run reports all of them; a layer the workload never calls
/// reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.rng_ns_per_gate_sample", "ns"),
    ("sim.simulate_ns_per_gate_sample", "ns"),
    ("tvla.accumulate_ns_per_gate_sample", "ns"),
    ("tvla.ns_per_tuple_update", "ns"),
    ("campaign.fold_ms", "ms"),
    ("campaign.overhead_pct", "%"),
    ("campaign.phase_coverage_pct", "%"),
    ("campaign.gate_samples", "count"),
    ("pool.busy_pct", "%"),
    ("cognition.s", "s"),
    ("cognition.campaigns", "count"),
    ("ml.fit_s", "s"),
    ("xai.rules_s", "s"),
    ("xai.rows_explained", "count"),
    ("core.rank_ms", "ms"),
    ("masking.transform_ms", "ms"),
    ("masking.cells_added", "count"),
    ("netlist.decompose_ms", "ms"),
    ("mitigation_s", "s"),
    ("reduction_pct", "%"),
    ("dist.submit_us", "us"),
    ("dist.complete_us", "us"),
    ("dist.lease_us", "us"),
    ("proto.frame_us", "us"),
    ("proto.bytes", "B"),
    ("dist.execute_ms", "ms"),
    ("dist.cache_hit_ratio", "ratio"),
    ("dist.coalesced_ratio", "ratio"),
    ("dist.leases", "count"),
    ("dist.requeued", "count"),
    ("hit_latency_p50_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("coverage.setup_pct", "%"),
    ("coverage.wall_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
];

/// Builds the metric list for one mode from `values`, in catalogue order.
/// Names the workload did not set report 0 (a layer it never calls).
///
/// # Errors
///
/// A name outside the catalogue, or a non-finite value, is a benchmark bug.
pub fn catalogue(
    catalogue: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<Metric>, String> {
    for (name, value) in values {
        if !catalogue.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not in this mode's catalogue"));
        }
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
    }
    Ok(catalogue
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect())
}

/// Attempted and failed operations. A failed output check is a failed
/// operation; nothing is ever dropped from the count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Samples a nearest-rank percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which the `q` percentile has
/// [`MIN_BEYOND`] samples above it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(n, q) >= MIN_BEYOND)
        .expect("some count satisfies any q < 1")
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q` percentile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a tail that thin is noise.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, q);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// [`percentile`] for a metric that must be reported.
///
/// # Errors
///
/// Names the metric and the sample count when the tail is too thin.
pub fn required_percentile(name: &str, values: &[f64], q: f64) -> Result<f64, String> {
    percentile(values, q).ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than {MIN_BEYOND} beyond the {q} percentile",
            values.len()
        )
    })
}

/// Median over consecutive windows of `window` samples of each window's
/// [`percentile`]; a trailing partial window is left out. A host that slows
/// down for a few seconds moves the percentiles of the windows it covers,
/// not the median over all of them, as it would move a pooled tail.
///
/// # Errors
///
/// Names the metric when there is no full window, or when a window leaves
/// fewer than [`MIN_BEYOND`] samples beyond its percentile.
pub fn windowed_percentile(
    name: &str,
    values: &[f64],
    window: usize,
    q: f64,
) -> Result<f64, String> {
    let per_window = values
        .chunks_exact(window)
        .map(|w| required_percentile(name, w, q))
        .collect::<Result<Vec<f64>, String>>()?;
    if per_window.is_empty() {
        return Err(format!(
            "{name}: {} samples make no full window of {window}",
            values.len()
        ));
    }
    Ok(median(&per_window))
}

/// Renders the result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank of p90 among 99 is 90: only nine samples lie beyond it.
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(min_samples_for(0.9), 100);
        // The median needs twenty samples.
        assert_eq!(min_samples_for(0.5), 20);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        assert!(required_percentile("x", &v, 0.5).is_err());
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // Three windows of 100; the middle one is twice as slow.
        let v: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 100 + 1) * if i / 100 == 1 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(windowed_percentile("x", &v, 100, 0.9), Ok(90.0));
        // The pooled p90 lands in the slow window's tail instead.
        assert_eq!(percentile(&v, 0.9), Some(140.0));
        // A trailing partial window is left out, not pooled.
        let mut w = v.clone();
        w.extend([1e9; 99]);
        assert_eq!(windowed_percentile("x", &w, 100, 0.9), Ok(90.0));
        // Every window needs ten samples beyond its percentile.
        assert!(windowed_percentile("x", &v, 99, 0.9).is_err());
        assert!(windowed_percentile("x", &v[..99], 100, 0.9).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&v, 0.5);
        v.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&v, 0.5));
        assert_eq!(p, Some(99.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_ratio(), 0.25);
        let line = result_line(t, &[]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
    }

    #[test]
    fn catalogue_fills_unset_layers_with_zero_and_rejects_strangers() {
        let m = catalogue(&END_TO_END, &[("wall_s", 1.5)]).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m.iter().find(|m| m.name == "wall_s").unwrap().value, 1.5);
        assert_eq!(m.iter().find(|m| m.name == "setup_s").unwrap().value, 0.0);
        assert!(catalogue(&END_TO_END, &[("cognition.s", 1.0)]).is_err());
        assert!(catalogue(&END_TO_END, &[("wall_s", f64::NAN)]).is_err());
    }

    #[test]
    fn result_line_keeps_all_digits() {
        let t = Tally {
            attempted: 1,
            failed: 0,
        };
        let value = 1.0 / 3.0 + 1e-12;
        let m = [Metric {
            name: "wall_s",
            unit: "s",
            value,
        }];
        let line = result_line(t, &m);
        let start = line.find("\"value\": ").unwrap() + 9;
        let len = line[start..].find(',').unwrap();
        // The printed number reads back as the exact measured value.
        assert_eq!(line[start..start + len].parse::<f64>().unwrap(), value);
        assert!(line.ends_with("\"unit\": \"s\"}}}"));
    }

    /// `(section, name, unit)` triples of `BENCHMARK.json`, scanned without a
    /// JSON library: every metric object there is one `{"name": …}` line.
    fn benchmark_json_metrics() -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let field = |line: &str, key: &str| -> Option<String> {
            let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = line[start..].find('"')?;
            Some(line[start..start + len].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix('"') {
                if let Some(end) = rest.find('"') {
                    if rest[end..].starts_with("\": [") {
                        section = rest[..end].to_string();
                    }
                }
            }
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((section.clone(), name, unit));
            }
        }
        out
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let listed = benchmark_json_metrics();
        let of = |section: &str| -> Vec<(String, String)> {
            listed
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(of("end_to_end"), ours(&END_TO_END));
        assert_eq!(of("per_layer"), ours(&PER_LAYER));
    }
}
