//! Predicate-pushdown benchmark: how much scan time do chunk zone maps
//! save when the WHERE clause is pushed below the PFS read?
//!
//! The dataset is a vertical ramp — values in chunk `l` live in
//! `[l, l+1)` — chunked one level at a time, so a `value >= cutoff`
//! predicate maps to an exact fraction of prunable chunks. The same
//! `run_sql_scan` executes with pushdown off (full scan: read, decompress,
//! convert, then filter) and on (zone-map skip before the read, columnar
//! delivery of survivors), and the committed outputs are asserted
//! byte-identical at every selectivity.
//!
//! Gates (the `pushdown-smoke` CI job runs `--quick`):
//!  * 1% selectivity: >= 2x speedup and >= 90% of chunks skipped;
//!  * zone-map stamping adds < 1% to the container size.
//!
//! Results go to stdout as a table and to `BENCH_pushdown.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin pushdown [--quick]`

use mapreduce::{counter_keys as keys, Cluster};
use pfs::PfsConfig;
use scidp::{run_sql_scan, SqlScanConfig};
use scidp_bench::{fmt_s, fmt_x, quick_mode, row};
use scifmt::{Array, Codec, SncBuilder};
use simnet::{ClusterSpec, CostModel};

const DIR: &str = "push";
const PATH: &str = "push/f.snc";

fn dims(quick: bool) -> (usize, usize, usize) {
    if quick {
        (32, 128, 128)
    } else {
        (128, 128, 128)
    }
}

/// The ramp container: chunk `l` holds values in `[l, l+1)`, so zone maps
/// give the planner perfect per-chunk bounds along the ramp. Intra-chunk
/// values are hash noise, not a smooth gradient, so the container
/// compresses like real field data rather than collapsing to nothing.
fn build_container(levels: usize, lat: usize, lon: usize, zone_maps: bool) -> Vec<u8> {
    let data: Vec<f32> = (0..levels * lat * lon)
        .map(|i| {
            let l = (i / (lat * lon)) as f32;
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let intra = ((h >> 40) & 0xff_ffff) as f32 / (1u32 << 24) as f32;
            l + intra
        })
        .collect();
    let full = Array::from_f32(vec![levels, lat, lon], data).expect("ramp array");
    let mut b = SncBuilder::new();
    b.zone_maps(zone_maps);
    b.add_var(
        "",
        "V",
        &[("lev", levels), ("lat", lat), ("lon", lon)],
        &[1, lat, lon],
        Codec::ShuffleLz { elem: 4 },
        full,
    )
    .expect("add ramp var");
    b.finish()
}

fn fresh_cluster(container: &[u8]) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: 4,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    // Small fixed task overhead (as in the overlap bench) so the sweep
    // measures the read/decompress/convert pipeline, not JVM startup.
    let cost = CostModel {
        scale: 1024.0,
        task_startup_s: 0.1,
        ..CostModel::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 18, 1, cost);
    c.pfs
        .borrow_mut()
        .create(PATH.to_string(), container.to_vec());
    c
}

fn run_scan(
    container: &[u8],
    sql: &str,
    pushdown: bool,
) -> (mapreduce::JobResult, Vec<(String, Vec<u8>)>) {
    let mut c = fresh_cluster(container);
    let cfg = SqlScanConfig {
        pushdown,
        n_reducers: 2,
        ..SqlScanConfig::new(["V"], sql)
    };
    let r = run_sql_scan(&mut c, &format!("lustre://{DIR}"), &cfg).expect("sql scan");
    let out = c.read_hdfs_dir("sql_out").unwrap();
    (r, out)
}

fn main() {
    let quick = quick_mode();
    let (levels, lat, lon) = dims(quick);

    // Zone-map write overhead: same container with and without stamping.
    let container = build_container(levels, lat, lon, true);
    let plain = build_container(levels, lat, lon, false);
    let zm_bytes = container.len() - plain.len();
    let zm_frac = zm_bytes as f64 / plain.len() as f64;
    println!(
        "pushdown: {levels} chunks of [1,{lat},{lon}] f32; zone maps add {zm_bytes} B ({:.3}% of {} B)",
        zm_frac * 100.0,
        plain.len()
    );
    assert!(
        zm_frac < 0.01,
        "zone-map stamping must cost < 1% of container size, got {:.3}%",
        zm_frac * 100.0
    );
    println!();

    // Selectivity sweep: cutoff picks the matching fraction of the ramp.
    // The query aggregates (the vectorised fold path) so the measurement
    // is the scan pipeline — read, decompress, convert, filter — and not
    // the shuffle/commit cost of materialising every matching row, which
    // no amount of input pruning can remove.
    let selectivities = [0.01, 0.10, 0.50, 1.00];
    println!(
        "{}",
        row(&[
            "select".into(),
            "full scan".into(),
            "pushdown".into(),
            "speedup".into(),
            "skipped".into(),
            "avoided B".into(),
            "vec rows".into(),
            "output ok".into(),
        ])
    );
    let mut results = Vec::new();
    for &sel in &selectivities {
        let cutoff = levels as f64 * (1.0 - sel);
        let sql = format!(
            "SELECT COUNT(value), SUM(value), MIN(value), MAX(value) FROM df WHERE value >= {cutoff}"
        );
        let (full, full_out) = run_scan(&container, &sql, false);
        let (push, push_out) = run_scan(&container, &sql, true);
        assert_eq!(
            push_out, full_out,
            "selectivity {sel}: pushdown changed the committed bytes"
        );
        let skipped = push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP);
        let speedup = full.elapsed() / push.elapsed();
        println!(
            "{}",
            row(&[
                format!("{:.0}%", sel * 100.0),
                fmt_s(full.elapsed()),
                fmt_s(push.elapsed()),
                fmt_x(speedup),
                format!("{skipped:.0}/{levels}"),
                format!("{:.0}", push.counters.get(keys::PUSHDOWN_BYTES_AVOIDED)),
                format!("{:.0}", push.counters.get(keys::VECTORISED_ROWS)),
                "yes".into(),
            ])
        );
        results.push((sel, full.elapsed(), push.elapsed(), speedup, push));
    }

    // The 1% point is the headline: most chunks prove themselves
    // irrelevant from 26 bytes of metadata each.
    for (sel, _, _, speedup, push) in &results {
        if *sel <= 0.01 {
            let skip_frac = push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP) / levels as f64;
            assert!(
                skip_frac >= 0.9,
                "1% selectivity must skip >= 90% of chunks, got {:.1}%",
                skip_frac * 100.0
            );
            assert!(
                *speedup >= 2.0,
                "1% selectivity must gain >= 2x, got {speedup:.3}"
            );
        }
        if (*sel - 1.0).abs() < f64::EPSILON {
            assert!(
                *speedup >= 0.8,
                "100% selectivity must not regress badly, got {speedup:.3}"
            );
        }
    }

    // JSON artifact.
    let sweep_json = results
        .iter()
        .map(|(sel, fe, pe, speedup, push)| {
            format!(
                "{{\"selectivity\":{sel},\"full_scan_s\":{fe:.6},\"pushdown_s\":{pe:.6},\"speedup\":{speedup:.4},\"chunks_total\":{levels},\"chunks_skipped\":{:.0},\"pushdown_bytes_avoided\":{:.0},\"vectorised_rows\":{:.0},\"zone_map_bytes\":{:.0},\"output_identical\":true}}",
                push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
                push.counters.get(keys::PUSHDOWN_BYTES_AVOIDED),
                push.counters.get(keys::VECTORISED_ROWS),
                push.counters.get(keys::ZONE_MAP_BYTES),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"chunks\": {levels},\n  \"chunk_shape\": [1, {lat}, {lon}],\n  \"zone_map_overhead_bytes\": {zm_bytes},\n  \"zone_map_overhead_frac\": {zm_frac:.6},\n  \"sweep\": [{sweep_json}]\n}}\n"
    );
    std::fs::write("BENCH_pushdown.json", &json).expect("write BENCH_pushdown.json");
    println!();
    println!("wrote BENCH_pushdown.json");
}
