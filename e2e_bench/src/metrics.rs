//! Every metric the benchmark reports, with its unit and direction; the
//! end-to-end ones also carry the regression bound. `BENCHMARK.json`
//! lists the same metrics, and a self-test holds the two together.

use crate::workload::{ALGO_TAGS, STEP_BUCKETS};
use std::sync::LazyLock;

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

pub static END_TO_END: LazyLock<Vec<MetricDef>> = LazyLock::new(|| {
    vec![
        // Timings on the shared two-core host still spread by up to
        // 0.1 of their median between runs, even over the quietest
        // windows, and a run that is slow from start to end cannot be
        // filtered out (see README.md). Their bounds are therefore the
        // largest the benchmark allows.
        e2e("latency_ms_p50", "ms", "lower", 0.25),
        e2e("latency_ms_p90", "ms", "lower", 0.25),
        e2e("throughput_ips", "1/s", "higher", 0.25),
        e2e("max_qps_at_slo", "1/s", "higher", 0.25),
        e2e("setup_s", "s", "lower", 0.25),
        e2e("memory_bytes", "bytes", "lower", 0.05),
        e2e("success_ratio", "ratio", "higher", 0.05),
    ]
});

pub static PER_LAYER: LazyLock<Vec<MetricDef>> = LazyLock::new(|| {
    let mut v = vec![
        layer("models.build_s", "s", "lower"),
        layer("compress.apply_s", "s", "lower"),
        layer("compress.weight_bytes", "bytes", "lower"),
        layer("compress.sparsity", "ratio", "higher"),
        layer("passes.compile_s", "s", "lower"),
        layer("passes.steps", "count", "lower"),
        layer("passes.fused_steps", "count", "higher"),
    ];
    // Selection counts have no better direction; the field is required.
    v.extend(
        ALGO_TAGS
            .iter()
            .map(|t| layer(format!("passes.selected.{t}"), "count", "higher")),
    );
    v.extend([
        layer("passes.regret_s.b1", "s", "lower"),
        layer("passes.regret_s.b8", "s", "lower"),
        layer("plan.vs_best_forced.b1", "ratio", "lower"),
        layer("plan.vs_best_forced.b8", "ratio", "lower"),
        layer("engine.prepare_s", "s", "lower"),
        layer("engine.first_run_s", "s", "lower"),
    ]);
    v.extend(
        STEP_BUCKETS
            .iter()
            .map(|b| layer(format!("engine.step_s.{b}"), "s", "lower")),
    );
    v.extend([
        layer("plan.peak_bytes", "bytes", "lower"),
        layer("engine.arena_bytes", "bytes", "lower"),
        layer("engine.arena_reuse_bytes", "bytes", "higher"),
        layer("guard.panics_contained", "count", "lower"),
        layer("guard.demotions", "count", "lower"),
        layer("engine.plan_kept_ratio", "ratio", "higher"),
        layer("tensor.gemm_gflops", "GFLOP/s", "higher"),
        layer("tensor.gemm_flops", "count", "lower"),
        layer("tensor.bytes_packed", "bytes", "lower"),
        layer("tensor.winograd_tiles", "count", "lower"),
        layer("tensor.ternary_calls", "count", "higher"),
        layer("parallel.speedup.b8", "ratio", "higher"),
        layer("parallel.busy_ratio", "ratio", "higher"),
        layer("serve.queue_wait_ms_p50", "ms", "lower"),
        layer("serve.queue_wait_ms_p90", "ms", "lower"),
        layer("serve.mean_batch", "count", "higher"),
        layer("serve.padding_ratio", "ratio", "higher"),
        layer("serve.shed", "count", "lower"),
        layer("serve.failed", "count", "lower"),
        layer("serve.gen_lateness_ms_p90", "ms", "lower"),
        layer("obs.trace_overhead", "ratio", "lower"),
    ]);
    v
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = benchmark_json();
        let entries = text.matches("\"name\"").count();
        assert_eq!(
            entries,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names every workload and metric once"
        );
        for m in END_TO_END.iter() {
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics carry a bound")
            );
            assert!(text.contains(&want), "missing {want}");
        }
        for m in PER_LAYER.iter() {
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&want), "missing {want}");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn benchmark_json_states_the_serving_ladder() {
        let text = benchmark_json();
        let ladder: Vec<String> = crate::serve::LADDER_QPS
            .iter()
            .map(|q| format!("{q}"))
            .collect();
        assert!(text.contains(&format!("rates {} qps", ladder.join("/"))));
        assert!(text.contains(&format!("reference {} qps", crate::serve::REF_QPS)));
        assert!(text.contains(&format!("p90 limit {} ms", crate::serve::LIMIT_MS)));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name.as_str())
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
