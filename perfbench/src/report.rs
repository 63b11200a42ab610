//! Metric names, units and the one-line JSON result.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("serial_ncps", "node-cycles/s"),
    ("parallel_ncps", "node-cycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Host times come from
/// the traced pass; the guest counts at the end repeat exactly.
pub const PER_LAYER: [(&str, &str); 44] = [
    // Outside-driven serial loop: the four layers sum to its wall-clock.
    ("node.tick_ns", "ns/node-cycle"),
    ("node.tick_share", "ratio"),
    ("pipeline.host_ns_per_inst", "ns/inst"),
    ("noc.deliver_ns", "ns/msg"),
    ("noc.deliver_share", "ratio"),
    ("noc.inject_ns", "ns/node-cycle"),
    ("noc.inject_share", "ratio"),
    ("system.loop_ns", "ns/cycle"),
    ("system.loop_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    // Traced set-up.
    ("workloads.gen_setup_s", "s"),
    ("node.assemble_s", "s"),
    // Parallel engine's own HostProfile.
    ("engine.skip_frac", "ratio"),
    ("engine.epochs", "count"),
    ("engine.epoch_cycles_mean", "cycles"),
    ("engine.barrier_wait_frac", "ratio"),
    ("engine.imbalance", "ratio"),
    ("engine.worker_tick_frac", "ratio"),
    ("engine.exchange_frac", "ratio"),
    ("engine.merge_frac", "ratio"),
    ("engine.inject_replay_frac", "ratio"),
    ("engine.quiescence_frac", "ratio"),
    ("engine.checks_frac", "ratio"),
    ("engine.capture_replay_frac", "ratio"),
    ("trace.observer_overhead", "ratio"),
    // Guest counts (see `guest::guest_counts`).
    ("system.sim_cycles", "cycles"),
    ("system.app_cycles", "cycles"),
    ("pipeline.app_insts", "count"),
    ("pipeline.prot_insts", "count"),
    ("pipeline.mem_stall_frac", "ratio"),
    ("cache.l1d_miss_rate", "ratio"),
    ("cache.l2_miss_rate", "ratio"),
    ("cache.remote_miss_p50", "cycles"),
    ("cache.remote_miss_p95", "cycles"),
    ("protocol.handlers", "count"),
    ("protocol.occupancy_peak", "ratio"),
    ("protocol.dispatch_wait_p95", "cycles"),
    ("mem.sdram_wait_p95", "cycles"),
    ("mem.ecc_corrected", "count"),
    ("noc.msgs", "count"),
    ("noc.bytes", "bytes"),
    ("noc.link_util_peak", "ratio"),
    ("noc.retransmits", "count"),
    ("workloads.sync_ops", "count"),
];

/// Named values in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Set `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// Fold several same-named samples into their per-name median.
    pub fn median_of(samples: &[Metrics]) -> Metrics {
        let mut out = Metrics::new();
        if let Some(first) = samples.first() {
            for (name, _) in first.iter() {
                let values: Vec<f64> = samples.iter().filter_map(|m| m.get(name)).collect();
                out.set(name, median(&values));
            }
        }
        out
    }
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether a metric name uses only the characters the result format
/// allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render the result line. Every `declared` metric must be present and
/// finite, and nothing else may be.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        if !valid_name(name) {
            return Err(format!(
                "metric name {name:?} has a character the format forbids"
            ));
        }
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((extra, _)) = metrics
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtp::core::json;

    fn all_declared() -> impl Iterator<Item = (&'static str, &'static str)> {
        END_TO_END.into_iter().chain(PER_LAYER)
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for (name, unit) in all_declared() {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        let mut names: Vec<&str> = all_declared().map(|(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(section)
                .and_then(|v| v.as_arr())
                .expect(section)
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = declared
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section}");

            let mut m = Metrics::new();
            for &(name, _) in declared {
                m.set(name, 1.5);
            }
            let line = render(true, 1, 0, &m, declared).unwrap();
            let parsed = json::parse(&line).expect("result line is JSON");
            let printed = parsed.get("metrics").and_then(|v| v.as_obj()).unwrap();
            assert_eq!(printed.len(), declared.len());
            for (name, unit) in &listed {
                let entry = parsed.get("metrics").and_then(|v| v.get(name)).unwrap();
                assert_eq!(
                    entry.get("unit").and_then(|u| u.as_str()),
                    Some(unit.as_str())
                );
                assert_eq!(entry.get("value").and_then(|v| v.as_f64()), Some(1.5));
            }
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn render_rejects_missing_extra_and_non_finite_values() {
        let declared = [("a", "s")];
        let mut m = Metrics::new();
        assert!(render(true, 1, 0, &m, &declared).is_err());
        m.set("a", f64::NAN);
        assert!(render(true, 1, 0, &m, &declared).is_err());
        m.set("a", 2.0);
        assert!(render(true, 1, 0, &m, &declared).is_ok());
        m.set("b", 1.0);
        assert!(render(true, 1, 0, &m, &declared).is_err());
    }

    #[test]
    fn median_and_per_name_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mk = |v| {
            let mut m = Metrics::new();
            m.set("x", v);
            m
        };
        let med = Metrics::median_of(&[mk(5.0), mk(1.0), mk(3.0)]);
        assert_eq!(med.get("x"), Some(3.0));
    }
}
