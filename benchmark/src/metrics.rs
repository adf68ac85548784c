//! The metric registry: every name the harness may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (plus
//! direction and regression bound); `check.sh` fails when the two drift.
//! `reference.json` beside this package says which layer each per-layer
//! metric belongs to and what it should move, and records the reference
//! numbers; a test below fails when it and the code drift.
//! A run that cannot produce one of these values is a harness bug and
//! panics rather than printing a partial result.

use std::collections::BTreeMap;

use crate::json::Json;

/// End-to-end metrics, measured by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_p50_ms", "ms"),
    ("space_factor", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), by module. `0` means "not applicable
/// on this workload" (e.g. sector crypto on a profile without disk
/// encryption, buffer hits on the LSM).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_lag_p99_ms", "ms"),
    ("env.calib_ms", "ms"),
    ("env.trace_overhead_frac", "ratio"),
    ("server.batch_p99_ms", "ms"),
    ("server.erase_p50_ms", "ms"),
    ("server.erase_p99_ms", "ms"),
    ("server.throughput_kops", "kops/s"),
    ("server.cpu_us_per_op", "us"),
    ("server.over_limit_ops", "count"),
    ("server.verify_s", "s"),
    ("server.wire.encode_ns_per_op", "ns"),
    ("server.wire.decode_ns_per_op", "ns"),
    ("server.wire.bytes_per_op", "B"),
    ("server.gateway.self_us_per_batch", "us"),
    ("server.gateway.connect_us", "us"),
    ("server.gateway.shed_count", "count"),
    ("engine.concurrent.self_us_per_batch", "us"),
    ("engine.concurrent.submit_us_per_batch", "us"),
    ("engine.concurrent.shards_per_batch", "count"),
    ("engine.concurrent.shard_ops_max_over_mean", "ratio"),
    ("engine.concurrent.shard_sim_max_over_mean", "ratio"),
    ("engine.frontend.submit_us_per_op", "us"),
    ("engine.frontend.self_us_per_op", "us"),
    ("engine.frontend.sim_us_per_op", "us"),
    ("engine.frontend.error_replies", "count"),
    ("engine.erasure.reversible_us", "us"),
    ("engine.erasure.deleted_us", "us"),
    ("engine.erasure.strong_us", "us"),
    ("engine.erasure.permanent_us", "us"),
    ("engine.erasure.restore_us", "us"),
    ("policy.check_ns", "ns"),
    ("policy.checks_per_op", "count"),
    ("policy.epoch_bumps", "count"),
    ("policy.est_share", "ratio"),
    ("policy.metadata_bytes", "B"),
    ("audit.append_ns_per_record", "ns"),
    ("audit.records_per_op", "count"),
    ("audit.est_share", "ratio"),
    ("audit.bytes_per_op", "B"),
    ("audit.verify_ms", "ms"),
    ("crypto.tuple_ns_per_byte", "ns"),
    ("crypto.vault_apply_ns_per_op", "ns"),
    ("crypto.bytes_per_op", "B"),
    ("crypto.est_share", "ratio"),
    ("crypto.sector_ns_per_byte", "ns"),
    ("storage.read_us", "us"),
    ("storage.update_us", "us"),
    ("storage.insert_us", "us"),
    ("storage.delete_us", "us"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("storage.pages_written_per_op", "count"),
    ("storage.wal_records_per_op", "count"),
    ("storage.est_share", "ratio"),
    ("storage.maintain_lazy_ms", "ms"),
    ("storage.maintain_full_ms", "ms"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.write_amp", "ratio"),
    ("storage.dead_entries", "count"),
    ("storage.disk_bytes", "B"),
    ("core.compliance_report_ms", "ms"),
    ("core.violations", "count"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render `values` as the `metrics` object of a result line: every
/// registry entry, in registry order, each with its unit.
///
/// Panics when a registered metric is missing or an unregistered one is
/// present — the result line must carry exactly the named metrics.
pub fn render(registry: &[(&'static str, &'static str)], values: &Values) -> Json {
    for name in values.keys() {
        assert!(
            registry.iter().any(|(n, _)| n == name),
            "metric {name} is not in the registry"
        );
    }
    let mut out = Json::obj();
    for (name, unit) in registry {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let value = if *unit == "count" && value.fract() == 0.0 {
            Json::Int(value as i64)
        } else {
            Json::Num(value)
        };
        out = out.set(name, Json::obj().set("value", value).set("unit", *unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn render_refuses_a_partial_result() {
        let mut values = Values::new();
        values.insert("setup_s", 1.0);
        render(END_TO_END, &values);
    }

    #[test]
    fn reference_json_agrees_with_the_code() {
        use crate::workloads::SPECS;
        let doc = Json::parse(include_str!("../reference.json")).expect("reference.json parses");
        let members = |of: &Json, key: &str| match of.get(key) {
            Some(Json::Obj(members)) => members.clone(),
            other => panic!("reference.json: {key} is not an object: {other:?}"),
        };
        let keys = |of: &Json, key: &str| -> Vec<String> {
            members(of, key).into_iter().map(|(k, _)| k).collect()
        };
        let strings = |of: &Json, key: &str| -> Vec<String> {
            match of.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|item| match item {
                        Json::Str(s) => s.clone(),
                        other => panic!("reference.json: {key} holds {other:?}"),
                    })
                    .collect(),
                other => panic!("reference.json: {key} is not a list: {other:?}"),
            }
        };
        let registered = |registry: &[(&str, &str)]| -> Vec<String> {
            registry.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(
            doc.get("calib_ms").and_then(Json::as_f64),
            Some(crate::env::CALIB_REFERENCE_MS)
        );

        // Every workload: its frozen numbers as the code holds them, and
        // reference numbers for every metric.
        assert_eq!(keys(&doc, "workloads"), SPECS.map(|s| s.name.to_string()));
        for spec in &SPECS {
            let entry = doc.get("workloads").and_then(|w| w.get(spec.name)).unwrap();
            // Printed and parsed back, so whole numbers compare as the
            // file holds them.
            let frozen = Json::parse(&spec.frozen().to_string()).unwrap();
            assert_eq!(entry.get("frozen"), Some(&frozen), "{}", spec.name);
            assert_eq!(keys(entry, "end_to_end"), registered(END_TO_END));
            assert_eq!(keys(entry, "per_layer_seed_7"), registered(PER_LAYER));
        }

        // Every per-layer metric: its layer, and what it should move where.
        let layers = members(&doc, "per_layer");
        assert_eq!(keys(&doc, "per_layer"), registered(PER_LAYER));
        for ((name, unit), (_, entry)) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(entry.get("unit"), Some(&Json::from(*unit)), "{name}");
            let Some(Json::Str(layer)) = entry.get("layer") else {
                panic!("{name} names no layer");
            };
            assert!(name.starts_with(&format!("{layer}.")), "{name} in {layer}");
            for moved in strings(entry, "moves") {
                assert!(
                    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == moved),
                    "{name} moves unknown metric {moved}"
                );
            }
            for workload in strings(entry, "on") {
                assert!(
                    SPECS.iter().any(|s| s.name == workload),
                    "{name} on unknown workload {workload}"
                );
            }
        }
    }
}
