//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, its clock, and which end-to-end metric it should move on which
//! workload. `BENCHMARK.json` mirrors the names and units; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Values of one pass or one summary, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub const WORKLOADS: [&str; 3] = ["img_pfs", "sql_pushdown", "stats_dag"];

/// Which clock a metric reads. Deterministic metrics (simulated time,
/// counts, data sizes) must repeat exactly for one seed; host metrics are
/// medians of host-clock seconds or rates (`host_s`, `setup_s` and
/// `bench.trace_overhead_s` on the reference clock of `refclock`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Det,
    Host,
}

/// `bound`, `better` and `moves` document the benchmark; the self-tests
/// hold them against `BENCHMARK.json` and the catalogue itself.
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported with `--trace 0`. `error_rate` is 0 on a correct program, so it
/// travels as the result line's `attempted`/`failed` and as the per-layer
/// `bench.error_rate`, not as a bounded metric.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "virtual_s",
        unit: "sim_s",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.2,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[cfg_attr(not(test), allow(dead_code))]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// `(end-to-end metric, workloads)` this layer metric should move.
    pub moves: &'static [(&'static str, &'static [&'static str])],
}

const ALL: &[&str] = &WORKLOADS;
const IMG: &[&str] = &["img_pfs"];
const SQL: &[&str] = &["sql_pushdown"];
const DAG: &[&str] = &["stats_dag"];
const IMG_DAG: &[&str] = &["img_pfs", "stats_dag"];
const SQL_IMG: &[&str] = &["sql_pushdown", "img_pfs"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    moves: &'static [(&'static str, &'static [&'static str])],
) -> Layer {
    Layer {
        name,
        unit,
        clock,
        better,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Det, Host};

/// Reported with `--trace 1`, on every workload. A metric a workload does
/// not exercise reads 0 there (e.g. cache counters on `img_pfs`).
pub const PER_LAYER: [Layer; 53] = [
    layer("wrfgen.generate_s", "s", Host, Lower, &[("setup_s", ALL)]),
    layer("wrfgen.raw_mib", "MiB", Det, Lower, &[("setup_s", ALL)]),
    layer("wrfgen.stored_mib", "MiB", Det, Lower, &[("setup_s", ALL)]),
    layer(
        "scifmt.encode_mib_s",
        "MiB/s",
        Host,
        Higher,
        &[("setup_s", ALL)],
    ),
    layer(
        "scifmt.decode_mib_s",
        "MiB/s",
        Host,
        Higher,
        &[("host_s", SQL_IMG)],
    ),
    layer(
        "scifmt.codec_decode_s",
        "s",
        Host,
        Lower,
        &[("host_s", SQL_IMG)],
    ),
    layer(
        "scifmt.chunk_cache_hits",
        "count",
        Det,
        Higher,
        &[("host_s", SQL_IMG)],
    ),
    layer(
        "scifmt.chunk_cache_misses",
        "count",
        Det,
        Lower,
        &[("host_s", SQL_IMG)],
    ),
    layer(
        "scirng.crc32c_mib_s",
        "MiB/s",
        Host,
        Higher,
        &[("host_s", SQL), ("setup_s", ALL)],
    ),
    layer(
        "scirng.verified_mib",
        "MiB",
        Det,
        Lower,
        &[("host_s", SQL), ("setup_s", ALL)],
    ),
    layer("simnet.events", "count", Det, Lower, &[("host_s", IMG_DAG)]),
    layer(
        "simnet.host_us_per_event",
        "us",
        Host,
        Lower,
        &[("host_s", IMG_DAG)],
    ),
    layer(
        "simnet.flow_gib_admitted",
        "GiB",
        Det,
        Lower,
        &[("host_s", IMG_DAG)],
    ),
    layer(
        "simnet.cache_hits",
        "count",
        Det,
        Higher,
        &[("virtual_s", DAG), ("host_s", DAG)],
    ),
    layer(
        "simnet.cache_misses",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG), ("host_s", DAG)],
    ),
    layer(
        "simnet.cache_evictions",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG), ("host_s", DAG)],
    ),
    layer(
        "simnet.cache_hit_ratio",
        "ratio",
        Det,
        Higher,
        &[("virtual_s", DAG), ("host_s", DAG)],
    ),
    layer(
        "mapreduce.cache_locality_maps",
        "count",
        Det,
        Higher,
        &[("virtual_s", DAG), ("host_s", DAG)],
    ),
    layer("pfs.input_mib", "MiB", Det, Lower, &[("virtual_s", ALL)]),
    layer("hdfs.write_mib", "MiB", Det, Lower, &[("virtual_s", IMG)]),
    layer("hdfs.shuffle_mib", "MiB", Det, Lower, &[("virtual_s", DAG)]),
    layer(
        "mapreduce.phase_startup_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.phase_read_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.phase_decompress_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.phase_compute_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.phase_shuffle_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.phase_write_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", ALL)],
    ),
    layer(
        "mapreduce.map_task_p50_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", IMG)],
    ),
    layer(
        "mapreduce.map_task_tail_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", IMG)],
    ),
    layer(
        "mapreduce.map_task_tail_pct",
        "pct",
        Det,
        Higher,
        &[("virtual_s", IMG)],
    ),
    layer(
        "mapreduce.overlap_saved_s",
        "sim_s",
        Det,
        Higher,
        &[("virtual_s", IMG)],
    ),
    layer(
        "mapreduce.map_tasks",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.map_attempts",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.task_retries",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.attempt_yield",
        "ratio",
        Det,
        Higher,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.stages_run",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.lineage_recomputes",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.shuffle_partitions_lost",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer(
        "mapreduce.rerun_tasks",
        "count",
        Det,
        Lower,
        &[("virtual_s", DAG)],
    ),
    layer("mapreduce.user_fn_s", "s", Host, Lower, &[("host_s", IMG)]),
    layer(
        "mapreduce.run_self_s",
        "s",
        Host,
        Lower,
        &[("host_s", IMG_DAG)],
    ),
    layer("scidp.explore_s", "s", Host, Lower, &[("host_s", IMG)]),
    layer("scidp.mapping_s", "s", Host, Lower, &[("host_s", IMG)]),
    layer(
        "scidp.setup_virtual_s",
        "sim_s",
        Det,
        Lower,
        &[("virtual_s", IMG)],
    ),
    layer(
        "scidp.chunks_skipped",
        "count",
        Det,
        Higher,
        &[("virtual_s", SQL), ("host_s", SQL)],
    ),
    layer(
        "scidp.prune_ratio",
        "ratio",
        Det,
        Higher,
        &[("virtual_s", SQL), ("host_s", SQL)],
    ),
    layer(
        "scidp.pushdown_mib_avoided",
        "MiB",
        Det,
        Higher,
        &[("virtual_s", SQL), ("host_s", SQL)],
    ),
    layer(
        "scidp.vectorised_rows",
        "count",
        Det,
        Higher,
        &[("virtual_s", SQL), ("host_s", SQL)],
    ),
    layer(
        "rframe.sqldf_mrows_s",
        "Mrows/s",
        Host,
        Higher,
        &[("host_s", SQL)],
    ),
    layer("rframe.plot_images_s", "s", Host, Lower, &[("host_s", IMG)]),
    layer("scidp.images", "count", Det, Higher, &[("host_s", IMG)]),
    layer(
        "bench.trace_overhead_s",
        "s",
        Host,
        Lower,
        &[("host_s", ALL)],
    ),
    layer("bench.error_rate", "ratio", Det, Lower, &[]),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

pub fn layer_clock(name: &str) -> Option<Clock> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.clock)
}

/// The `q` quantile of the values, interpolating between closest ranks
/// (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the given metrics, in
/// catalogue order. Fails on a name outside the catalogue or a value JSON
/// cannot carry.
pub fn metrics_json(values: &[(&'static str, f64)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(values.len());
    for &(name, v) in values {
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} is not in the catalogue"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_names() -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names = all_names();
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            names.len(),
            "duplicate metric or workload name"
        );
    }

    #[test]
    fn every_metric_has_a_unit() {
        for n in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            let u = unit_of(n).expect("catalogued");
            assert!(!u.is_empty() && u.len() <= 16, "{n}: unit {u:?}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{n}: unit {u:?}"
            );
        }
    }

    #[test]
    fn layer_mappings_name_existing_metrics_and_workloads() {
        for l in &PER_LAYER {
            for (e2e, wls) in l.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *e2e),
                    "{}: unknown end-to-end metric {e2e}",
                    l.name
                );
                assert!(!wls.is_empty(), "{}: mapping without workloads", l.name);
                for w in *wls {
                    assert!(WORKLOADS.contains(w), "{}: unknown workload {w}", l.name);
                }
            }
        }
    }

    #[test]
    fn bounds_are_within_contract() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }

    /// `BENCHMARK.json` (at the repository root) lists exactly these
    /// metrics with these units and bounds, and these workloads.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.split_whitespace().collect();
        let mut listed = 0;
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{}}}",
                m.name, m.unit, m.bound
            );
            assert!(compact.contains(&entry), "missing {entry}");
            listed += 1;
        }
        for l in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                l.name,
                l.unit,
                l.better.name()
            );
            assert!(compact.contains(&entry), "missing {entry}");
            listed += 1;
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "missing {w}"
            );
            listed += 1;
        }
        assert_eq!(
            compact.matches("{\"name\":").count(),
            listed,
            "extra entries"
        );
    }

    #[test]
    fn median_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
        let j = metrics_json(&[("host_s", 1.5)]).expect("valid");
        assert_eq!(j, "{\"host_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
        assert!(metrics_json(&[("nope", 1.0)]).is_err());
        assert!(metrics_json(&[("host_s", f64::NAN)]).is_err());
    }
}
