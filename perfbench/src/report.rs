//! Metric collection, output checks, and the one-line JSON result.

use std::process::ExitCode;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them (see the README for what each means on each workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("attack_s", "s"),
    ("ticks_per_s", "1/s"),
    ("tenant_calls_per_s", "1/s"),
    ("read_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. A metric of a layer the
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("datagen.generate_s", "s"),
    ("mf.source_train_s", "s"),
    ("mf.target_train_s", "s"),
    ("mf.pairs_per_s", "1/s"),
    ("gnn.train_s", "s"),
    ("gnn.epochs", "count"),
    ("gnn.pairs_per_s", "1/s"),
    ("cluster.tree_build_s", "s"),
    ("recsys.reward_query_s", "s"),
    ("recsys.reward_batch_p50_us", "us"),
    ("ann.index_build_s", "s"),
    ("ann.reward_query_s", "s"),
    ("ann.recall20", "ratio"),
    ("gnn.inject_s", "s"),
    ("gnn.injections", "count"),
    ("core.env_clone_s", "s"),
    ("core.env_clones", "count"),
    ("recsys.eval_s", "s"),
    ("core.policy_s", "s"),
    ("core.reward_rounds", "count"),
    ("core.reward_hit_rounds", "count"),
    ("core.metered_queries", "count"),
    ("pipeline.hr20", "ratio"),
    ("pipeline.hr20_no_attack", "ratio"),
    ("serve.launch_s", "s"),
    ("serve.retrain_tick_p50_ms", "ms"),
    ("serve.plain_tick_p50_us", "us"),
    ("serve.models_built", "count"),
    ("serve.tenant_inject_p50_us", "us"),
    ("serve.tenant_query_p50_us", "us"),
    ("serve.tenant_call_p99_us", "us"),
    ("serve.tenant_queries_live", "count"),
    ("serve.tenant_queries_stale", "count"),
    ("serve.tenant_queries_cold", "count"),
    ("serve.organic_served", "count"),
    ("serve.organic_shed", "count"),
    ("serve.interactions_applied", "count"),
    ("serve.reads_with_consumed", "count"),
    ("serve.read_batch_s", "s"),
    ("par.read_speedup", "ratio"),
    ("trace.attack_overhead_s", "s"),
];

/// What one run measured and checked.
pub struct Report {
    trace: bool,
    values: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report { trace, values: Vec::new(), checks: Vec::new(), attempted: 0, failed: 0 }
    }

    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Records a metric; `unit` must match the declared one.
    pub fn set(&mut self, name: &'static str, unit: &str, value: f64) {
        let declared = END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name);
        assert_eq!(declared.map(|d| d.1), Some(unit), "metric {name} is not declared as {unit}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records one output check and prints its result.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        let detail = detail.into();
        println!("check {:<34} {}  {detail}", name, if pass { "PASS" } else { "FAIL" });
        self.checks.push((name.to_string(), pass, detail));
    }

    /// Counts operations of the measured phase.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints every metric of the run's mode by name and unit, then the
    /// JSON result line. Exits non-zero when a metric is missing or not
    /// finite, so a broken run never reports a number.
    pub fn finish(self) -> ExitCode {
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut json = Vec::new();
        for &(name, unit) in table {
            let found = self.values.iter().find(|(n, _)| *n == name).map(|v| v.1);
            let value = match found {
                Some(v) if v.is_finite() => v,
                // Per-layer metrics of layers the workload never enters.
                None if self.trace => 0.0,
                _ => {
                    eprintln!("perfbench: metric {name} missing or not finite ({found:?})");
                    return ExitCode::from(3);
                }
            };
            println!("metric {name:<28} {value:>16.6} {unit}");
            json.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        let correct = !self.checks.is_empty() && self.checks.iter().all(|c| c.1);
        println!(
            "operations attempted {} failed {}; checks {}/{} passed",
            self.attempted,
            self.failed,
            self.checks.iter().filter(|c| c.1).count(),
            self.checks.len()
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        ExitCode::SUCCESS
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
