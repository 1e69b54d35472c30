//! The benchmark's metric names. `BENCHMARK.json` at the repository root
//! lists the same names, units and bounds; a unit test keeps the two in
//! step.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `(name, unit, bound)`: what a user of the system sees. `bound` is the
/// relative worsening that counts as a regression.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("throughput_rps", "req/s", 0.25),
    ("latency_p99_us", "us", 0.25),
    ("route_accuracy", "share", 0.15),
];

/// `(name, unit)` of every per-layer metric, in ledger order.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("gateway.http.parse_us", "us"),
    ("gateway.render_us", "us"),
    ("gateway.session_hit_share", "share"),
    ("gateway.wire_overhead_us", "us"),
    ("gateway.non200_share", "share"),
    ("service.platform.serve_one_hit_us", "us"),
    ("service.platform.serve_one_miss_us", "us"),
    ("service.platform.overhead_hit_us", "us"),
    ("service.platform.overhead_miss_us", "us"),
    ("service.platform.batched_share", "share"),
    ("service.platform.runs_per_request", "count"),
    ("service.platform.batch_delay_us", "us"),
    ("service.platform.delay_raises", "count"),
    ("service.platform.delay_drops", "count"),
    ("service.platform.busy_share", "share"),
    ("service.platform.town_p99_us", "us"),
    ("service.store.lookup_us", "us"),
    ("service.store.insert_us", "us"),
    ("service.store.entries", "count"),
    ("service.executor.truth_hit_share", "share"),
    ("service.executor.dedup_share", "share"),
    ("service.cache.candidate_hit_share", "share"),
    ("service.artifacts.hit_share", "share"),
    ("service.artifacts.evictions", "count"),
    ("mining.candidates_us", "us"),
    ("mining.origin_artifacts_us", "us"),
    ("mining.mpr_us", "us"),
    ("mining.mfp_us", "us"),
    ("mining.ldr_us", "us"),
    ("mining.ws_shortest_us", "us"),
    ("mining.ws_fastest_us", "us"),
    ("mining.minings_per_request", "count"),
    ("roadnet.dijkstra_us", "us"),
    ("roadnet.astar_us", "us"),
    ("roadnet.yen_k4_us", "us"),
    ("core.evaluate_us", "us"),
    ("service.resolver.machine_us", "us"),
    ("core.resolution.agreement_share", "share"),
    ("core.resolution.confident_share", "share"),
    ("core.resolution.fallback_share", "share"),
    ("core.resolution.reused_truth_share", "share"),
    ("core.resolution.crowd_share", "share"),
    ("core.taskgen.generate_task_us", "us"),
    ("core.taskgen.questions_per_task", "count"),
    ("traj.calibrate_path_us", "us"),
    ("core.worker_selection.knowledge_model_us", "us"),
    ("core.worker_selection.select_us", "us"),
    ("core.worker_selection.workers_per_task", "count"),
    ("crowd.desk.ask_us", "us"),
    ("crowd.quota_rejection_share", "share"),
    ("crowd.starved_share", "share"),
    ("crowd_questions_per_request", "count"),
    ("durable.wal.append_us", "us"),
    ("durable.wal.sync_us", "us"),
    ("durable.wal.bytes_per_commit", "count"),
    ("durable.wal.shed_share", "share"),
    ("durable.wal.read_us_per_event", "us"),
    ("durable.recover_ms_per_100k", "ms"),
    ("durable.snapshot_write_ms", "ms"),
    ("durable.snapshot_read_ms", "ms"),
    ("process.cpu_ms_per_request", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.trace_overhead_share", "share"),
    ("bench.slice_spread", "share"),
    ("bench.host_steal_share", "share"),
    ("latency_p50_us", "us"),
];

/// A per-layer ledger being filled in: every name starts at 0 and a
/// name outside [`PER_LAYER`] is a bug.
#[derive(Debug, Clone)]
pub struct Ledger(Vec<Metric>);

impl Default for Ledger {
    fn default() -> Self {
        Ledger(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.value = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .value
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn share(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn higher_is_better(name: &str) -> bool {
        matches!(name, "throughput_rps" | "route_accuracy")
    }

    /// Every `{"name": "...", "unit": "..."` pair of one array of the
    /// contract file, in order.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |k: &str| {
                    crate::json::field(obj, k)
                        .unwrap_or_else(|| panic!("{k} missing in {obj}"))
                        .trim_matches('"')
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_constants() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e = declared(json, "end_to_end");
        assert_eq!(
            e2e,
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        );
        for (name, _, bound) in END_TO_END {
            let at = json.find(&format!("\"{name}\"")).unwrap();
            let obj = &json[at..at + json[at..].find('}').unwrap()];
            assert_eq!(
                crate::json::field(obj, "bound")
                    .unwrap()
                    .parse::<f64>()
                    .unwrap(),
                bound,
                "{name}"
            );
            let better = crate::json::field(obj, "better").unwrap();
            assert_eq!(better == "\"higher\"", higher_is_better(name), "{name}");
        }
        let layers = declared(json, "per_layer");
        assert_eq!(
            layers,
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        );
        for w in crate::workloads::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in PER_LAYER
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|&(n, u, _)| (n, u)))
        {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .chain(END_TO_END.iter().map(|&(n, _, _)| n))
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
    }
}
