//! Predicate & hyperslab pushdown, end to end: zone-map pruning and the
//! columnar delivery path must never change the committed output — clean,
//! with a shared chunk cache, or under (transient, repairable) faults —
//! while actually skipping reads when the zone maps allow it.

use scidp_suite::baselines::StagedDataset;
use scidp_suite::mapreduce::{counter_keys as keys, Cluster, JobResult};
use scidp_suite::prelude::*;
use scidp_suite::scidp::{run_sql_scan, ScidpError, SqlScanConfig};

fn world(seed: u64) -> (Cluster, StagedDataset) {
    let spec = WrfSpec {
        seed,
        ..WrfSpec::tiny(2)
    };
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    (cluster, ds)
}

fn scan(c: &mut Cluster, uri: &str, sql: &str, pushdown: bool, chunk_split: usize) -> JobResult {
    let cfg = SqlScanConfig {
        pushdown,
        chunk_split,
        ..SqlScanConfig::new(["QR"], sql)
    };
    run_sql_scan(c, uri, &cfg).unwrap()
}

/// The core equivalence property, swept over dataset seeds: with and
/// without pushdown the committed bytes are identical, under every cache
/// configuration and under transient corruption.
#[test]
fn pushdown_matches_full_scan_clean_cached_and_faulted() {
    // tiny(2) has levels 0..4 chunked 2-at-a-time, so `lev >= 2` prunes
    // exactly half the chunks from dimension geometry alone; the value
    // queries exercise the data-dependent zone maps.
    let queries = [
        "SELECT * FROM df WHERE lev >= 2",
        "SELECT lev, lat, value FROM df WHERE value >= 0.0001 AND lon < 3",
        "SELECT * FROM df WHERE value < 0.0 OR lev = 3",
    ];
    for seed in 1u64..=3 {
        for sql in queries {
            // Clean full scan is the reference output.
            let (mut full, ds) = world(seed);
            let r_full = scan(&mut full, &ds.pfs_uri(), sql, false, 1);
            let reference = full.read_hdfs_dir("sql_out").unwrap();
            assert!(!reference.is_empty(), "seed {seed}: {sql}: no output");
            assert_eq!(
                r_full.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
                0.0,
                "full scan must not prune"
            );

            // Clean pushdown.
            let (mut push, ds2) = world(seed);
            let r_push = scan(&mut push, &ds2.pfs_uri(), sql, true, 1);
            assert_eq!(
                push.read_hdfs_dir("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: pushdown changed the committed bytes"
            );
            assert!(
                r_push.counters.get(keys::ZONE_MAP_BYTES) > 0.0,
                "pushdown runs account their zone-map metadata"
            );
            if r_push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP) > 0.0 {
                assert!(
                    r_push.counters.get(keys::PUSHDOWN_BYTES_AVOIDED) > 0.0,
                    "skipped chunks must report avoided bytes"
                );
            }

            // Shared-cache configuration: finer splits make fetchers share
            // chunks through the cache. Pushdown and full scan see the
            // same splits, so their outputs must still match each other.
            let (mut full_c, ds3) = world(seed);
            scan(&mut full_c, &ds3.pfs_uri(), sql, false, 2);
            let reference_split = full_c.read_hdfs_dir("sql_out").unwrap();
            let (mut push_c, ds4) = world(seed);
            let r_pc = scan(&mut push_c, &ds4.pfs_uri(), sql, true, 2);
            assert_eq!(
                push_c.read_hdfs_dir("sql_out").unwrap(),
                reference_split,
                "seed {seed}: {sql}: cached pushdown diverged"
            );
            assert!(r_pc.counters.get(keys::VECTORISED_ROWS) >= 0.0);

            // Transient corruption: the verify/repair machine re-reads the
            // corrupt chunk, so both paths still commit the clean bytes.
            // (Persistent media faults quarantine the chunk and fail both
            // paths typed — covered by the integrity suite.)
            let (mut faulty_full, ds5) = world(seed);
            faulty_full
                .sim
                .faults
                .install(FaultPlan::none().corrupt_read(ds5.info.files[0].clone(), 1));
            scan(&mut faulty_full, &ds5.pfs_uri(), sql, false, 1);
            assert_eq!(
                faulty_full.read_hdfs_dir("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: repaired full scan diverged"
            );
            let (mut faulty_push, ds6) = world(seed);
            faulty_push
                .sim
                .faults
                .install(FaultPlan::none().corrupt_read(ds6.info.files[0].clone(), 1));
            scan(&mut faulty_push, &ds6.pfs_uri(), sql, true, 1);
            assert_eq!(
                faulty_push.read_hdfs_dir("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: repaired pushdown diverged"
            );
        }
    }
}

/// Geometry-derived pruning is deterministic: `lev >= 2` on tiny(2) must
/// skip exactly the lower chunk of each of the two files.
#[test]
fn dimension_predicate_prunes_exact_chunk_count() {
    let (mut c, ds) = world(7);
    let r = scan(
        &mut c,
        &ds.pfs_uri(),
        "SELECT * FROM df WHERE lev >= 2",
        true,
        1,
    );
    assert_eq!(
        r.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
        2.0,
        "one pruned chunk per file"
    );
    assert!(r.counters.get(keys::PUSHDOWN_BYTES_AVOIDED) > 0.0);
    // The pruned chunks' decompressed rows never reach the filter.
    let spec = &ds.spec;
    let rows_kept = (spec.levels / 2) * spec.lat * spec.lon * ds.info.files.len();
    assert_eq!(r.counters.get(keys::VECTORISED_ROWS), rows_kept as f64);
}

/// A predicate naming a column the variable cannot produce is a typed
/// planning error, not a silent empty result.
#[test]
fn pushdown_on_absent_column_is_a_typed_error() {
    let (mut c, ds) = world(7);
    let cfg = SqlScanConfig::new(["QR"], "SELECT * FROM df WHERE bogus > 1");
    let err = run_sql_scan(&mut c, &ds.pfs_uri(), &cfg).unwrap_err();
    match err {
        ScidpError::PushdownColumn { column, variable } => {
            assert_eq!(column, "bogus");
            assert_eq!(variable, "QR");
        }
        other => panic!("expected PushdownColumn, got {other}"),
    }
    // The same query without pushdown is an ordinary execution error path
    // (sqldf reports the unknown column per task), not a planning error —
    // but planning must catch it before any task runs.
}

/// Containers written without zone maps (the v1-compatible layout) still
/// scan correctly under pushdown — value predicates simply prune nothing.
#[test]
fn unstamped_container_scans_with_zero_value_skips() {
    let build = |zone_maps: bool| {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.zone_maps(zone_maps);
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
            &[2, 8, 5],
            Codec::ShuffleLz { elem: 4 },
            full,
        )
        .unwrap();
        b.finish()
    };
    // Values run 0.0..119.5 in lev-major order; `value >= 100` lives
    // entirely in the last chunk, so a stamped container prunes 2 of 3.
    let sql = "SELECT * FROM df WHERE value >= 100.0";
    let run = |zone_maps: bool, pushdown: bool| {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(4, &wspec);
        c.pfs.borrow_mut().create("plain/f.snc", build(zone_maps));
        let cfg = SqlScanConfig {
            pushdown,
            ..SqlScanConfig::new(["QR"], sql)
        };
        let r = run_sql_scan(&mut c, "lustre://plain", &cfg).unwrap();
        (c.read_hdfs_dir("sql_out").unwrap(), r)
    };
    let (reference, _) = run(true, false);
    let (stamped_out, stamped) = run(true, true);
    let (plain_out, plain) = run(false, true);
    assert_eq!(stamped_out, reference, "stamped pushdown diverged");
    assert_eq!(plain_out, reference, "unstamped pushdown diverged");
    assert_eq!(stamped.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 2.0);
    assert_eq!(
        plain.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
        0.0,
        "no zone maps, no value pruning"
    );
}

/// Edge geometries flow through the columnar path unchanged: a partial
/// tail chunk, an all-NaN chunk (zone map reports every element null),
/// and a single-element variable.
#[test]
fn boundary_allnull_and_single_element_chunks() {
    let build = || {
        // QR: [5,4,3] chunked [2,4,3] — chunks at lev {0-1, 2-3, 4};
        // the middle chunk is all-NaN, the tail chunk is partial.
        let mut data: Vec<f32> = (0..5 * 4 * 3).map(|i| i as f32).collect();
        for v in data.iter_mut().skip(2 * 4 * 3).take(2 * 4 * 3) {
            *v = f32::NAN;
        }
        let qr = Array::from_f32(vec![5, 4, 3], data).unwrap();
        let qs = Array::from_f32(vec![1, 1, 1], vec![42.0]).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 5), ("lat", 4), ("lon", 3)],
            &[2, 4, 3],
            Codec::ShuffleLz { elem: 4 },
            qr,
        )
        .unwrap();
        b.add_var(
            "",
            "QS",
            &[("lev", 1), ("lat", 1), ("lon", 1)],
            &[1, 1, 1],
            Codec::ShuffleLz { elem: 4 },
            qs,
        )
        .unwrap();
        b.finish()
    };
    let sql = "SELECT * FROM df WHERE value >= 10.0";
    let run = |pushdown: bool| {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(4, &wspec);
        c.pfs.borrow_mut().create("edge/f.snc", build());
        let cfg = SqlScanConfig {
            pushdown,
            variables: vec!["QR".into(), "QS".into()],
            ..SqlScanConfig::new(["QR"], sql)
        };
        let r = run_sql_scan(&mut c, "lustre://edge", &cfg).unwrap();
        (c.read_hdfs_dir("sql_out").unwrap(), r)
    };
    let (reference, _) = run(false);
    let (out, r) = run(true);
    assert_eq!(out, reference, "edge-geometry pushdown diverged");
    // The all-NaN chunk can never satisfy `value >= 10` (NaN fails every
    // ordered comparison) so it is pruned; the first chunk (values 0..23)
    // and the partial tail chunk (48..59) both contain matches, and QS's
    // single element (42) survives: exactly one chunk skipped.
    assert_eq!(r.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 1.0);
}

/// The four query shapes of the benchmark's `sql_pushdown` workload: two
/// value thresholds, a level window plus threshold, and a WHERE-less
/// aggregate.
const SCAN_QUERIES: [&str; 4] = [
    "SELECT lev, lat, lon, value FROM df WHERE value >= 3.0",
    "SELECT lev, lat, lon, value FROM df WHERE value >= 2.5",
    "SELECT lev, lat, lon, value FROM df WHERE lev >= 40 AND value >= 2.125",
    "SELECT COUNT(*) AS n, SUM(value) AS s, MIN(value) AS lo, MAX(value) AS hi FROM df",
];

/// Committed output of the four scan queries on a small grid, pinned by
/// digest (with and without pushdown, which must agree): the scan's byte
/// path (CRC, LZ decode, frame assembly, `sqldf`, CSV serialisation) may
/// get faster but must keep every committed byte.
#[test]
fn scan_queries_commit_pinned_bytes() {
    let spec = WrfSpec {
        n_vars: 1,
        seed: 7,
        ..WrfSpec::scaled(16, 16, 2)
    };
    for pushdown in [false, true] {
        let mut c = paper_cluster(4, &spec);
        let ds = stage_nuwrf(&mut c, &spec, "nuwrf");
        let digests: Vec<u64> = SCAN_QUERIES
            .iter()
            .enumerate()
            .map(|(i, sql)| {
                let cfg = SqlScanConfig {
                    pushdown,
                    output_dir: format!("sql_q{i}"),
                    ..SqlScanConfig::new(["QR"], sql)
                };
                run_sql_scan(&mut c, &ds.pfs_uri(), &cfg).unwrap();
                let mut bytes = Vec::new();
                for (path, data) in c.read_hdfs_dir(&cfg.output_dir).unwrap() {
                    bytes.extend_from_slice(path.as_bytes());
                    bytes.push(0);
                    bytes.extend_from_slice(&data);
                }
                scirng::hash64(&bytes)
            })
            .collect();
        assert_eq!(
            digests,
            [
                0x4f87_eeef_ebcf_f3eb,
                0x2cfc_77a2_0ff7_389f,
                0xbc14_cee2_bc11_3033,
                0x122a_a564_239e_1e29,
            ],
            "pushdown {pushdown}: committed scan output changed"
        );
    }
}
