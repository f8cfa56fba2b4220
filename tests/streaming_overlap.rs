//! Streaming split fetch: the prefetching piece pipeline must change only
//! *when* bytes move, never *which* bytes a task sees. These tests pin the
//! byte-identity of the pipeline against the no-overlap reference — each
//! split read whole by `read_whole` and handed over as one piece — with and
//! without injected faults, the overlap accounting, the integrity
//! machinery (CRC verify → repair → quarantine) firing mid-stream, and
//! pushdown scans streaming their surviving chunks.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, Counters, FlatPfsFetcher, FtConfig, InputSplit, Job,
    JobResult, MrError, Payload, StreamConfig, TaskInput, Unpipelined,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::scidp::SciSlabFetcher;
use scidp_suite::scifmt::snc::ChunkCache;
use scidp_suite::scifmt::{Array, Codec, SncBuilder, SncFile};
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

const INPUT: &str = "data/stream.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 4;
const PIECES_PER_SPLIT: usize = 8;

fn flat_cluster() -> Cluster {
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
    let c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 13) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

/// How map attempts read their split.
#[derive(Clone, Copy)]
enum Fetch {
    /// The no-overlap reference: each split read whole, then all compute.
    Whole,
    /// The streaming pipeline at this prefetch depth.
    Stream(usize),
}

/// The default streaming pipeline.
const STREAM: Fetch = Fetch::Stream(2);

/// `job` with its splits read the `fetch` way.
fn with_fetch(mut job: Job, fetch: Fetch) -> Job {
    match fetch {
        Fetch::Whole => {
            for s in &mut job.splits {
                s.fetcher = Rc::new(Unpipelined(s.fetcher.clone()));
            }
        }
        Fetch::Stream(depth) => {
            job.stream = StreamConfig {
                prefetch_depth: depth,
            }
        }
    }
    job
}

/// Byte-count job over the flat file; `sequential_chunks` > 1 makes every
/// split a genuine multi-piece stream.
fn flat_job(fetch: Fetch) -> Job {
    let per = FILE_BYTES / N_SPLITS;
    let splits: Vec<InputSplit> = (0..N_SPLITS)
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: INPUT.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks: PIECES_PER_SPLIT,
            }),
        })
        .collect();
    let job = Job {
        name: "streamwc".into(),
        splits,
        map_fn: Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            for &x in &b {
                *counts.entry(x).or_default() += 1;
            }
            // A fat compute phase so there is read time worth hiding.
            ctx.charge("compute", 2.0);
            for (k, v) in counts {
                ctx.emit(format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
            }
            Ok(())
        }),
        reduce_fn: Some(Rc::new(|key, values, ctx| {
            let total: usize = values
                .iter()
                .map(|v| match v {
                    Payload::Bytes(b) => String::from_utf8_lossy(b).parse::<usize>().unwrap(),
                    _ => 0,
                })
                .sum();
            ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
            Ok(())
        })),
        n_reducers: 2,
        output_dir: "out".into(),
        spill_to_pfs: false,
        output_to_pfs: false,
        ft: FtConfig {
            max_task_attempts: 6,
            ..FtConfig::default()
        },
        stream: StreamConfig::default(),
        shuffle: None,
    };
    with_fetch(job, fetch)
}

/// Data-plane counters that must be exact however a split is read. Cache
/// and timing counters legitimately differ and are excluded.
fn data_counters(cnt: &Counters) -> Vec<(&'static str, f64)> {
    [
        keys::MAP_TASKS,
        keys::REDUCE_TASKS,
        keys::INPUT_BYTES,
        keys::RECORDS_EMITTED,
        keys::SHUFFLE_BYTES,
        keys::HDFS_WRITE_BYTES,
    ]
    .iter()
    .map(|&k| (k, cnt.get(k)))
    .collect()
}

fn run_flat(plan: FaultPlan, fetch: Fetch) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let mut c = flat_cluster();
    c.sim.faults.install(plan);
    let r = run_job(&mut c, flat_job(fetch)).expect("job survives its fault plan");
    let out = c.read_hdfs_dir("out").unwrap();
    (r, out)
}

#[test]
fn streaming_matches_whole_read_and_overlaps_reads() {
    let (br, bout) = run_flat(FaultPlan::none(), Fetch::Whole);
    let (sr, sout) = run_flat(FaultPlan::none(), STREAM);
    assert_eq!(sout, bout, "streaming must commit byte-identical output");
    assert_eq!(data_counters(&sr.counters), data_counters(&br.counters));
    // The pipeline may only hide read time, never add it.
    assert!(
        sr.elapsed() <= br.elapsed() + 1e-9,
        "streaming {} must not be slower than the whole-split read {}",
        sr.elapsed(),
        br.elapsed()
    );
    // With 8 pieces per split and a 2 s compute tail, later pieces land
    // while earlier ones are being processed.
    assert!(
        sr.counters.get(keys::OVERLAP_SAVED_S) > 0.0,
        "multi-piece splits must record hidden read time"
    );
    assert!(
        sr.counters.get(keys::PIECES_PREFETCHED) > 0.0,
        "prefetch window must land pieces ahead of compute"
    );
    // The one-piece reference reports neither counter.
    assert_eq!(br.counters.get(keys::OVERLAP_SAVED_S), 0.0);
    assert_eq!(br.counters.get(keys::PIECES_PREFETCHED), 0.0);
}

#[test]
fn prefetch_depth_changes_timing_never_bytes() {
    // Depth is a pure scheduling knob: deeper windows put more flows in
    // flight (which can delay the *first* piece under contention — depth
    // is deliberately not asserted monotone in elapsed time), but the
    // assembled input, data counters, and committed output are invariant.
    let (br, bout) = run_flat(FaultPlan::none(), Fetch::Whole);
    let mut elapsed = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let (dr, dout) = run_flat(FaultPlan::none(), Fetch::Stream(depth));
        assert_eq!(dout, bout, "depth {depth}: output bytes changed");
        assert_eq!(
            data_counters(&dr.counters),
            data_counters(&br.counters),
            "depth {depth}"
        );
        elapsed.push(dr.elapsed());
    }
    // Pipelining pays off: the best depth beats the whole-split read
    // outright.
    let best = elapsed.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        best < br.elapsed() - 1e-9,
        "best streaming depth ({best}) must beat the whole-split read ({})",
        br.elapsed()
    );
}

#[test]
fn equivalence_holds_under_injected_faults_for_seeds_1_to_3() {
    // Read failures force retried attempts that must re-stream their
    // pieces deterministically. Attempt/retry counts may differ between
    // the pipeline and the reference (the fault stream is consumed in
    // issue order, and issue *times* differ), but committed bytes and data
    // counters may not.
    for seed in 1..=3u64 {
        let plan = || {
            FaultPlan::none()
                .with_random_read_failures(seed, 0.08)
                .fail_read(INPUT, 2)
        };
        let (br, bout) = run_flat(plan(), Fetch::Whole);
        let (sr, sout) = run_flat(plan(), STREAM);
        assert_eq!(sout, bout, "seed {seed}: faulted streams diverged");
        assert_eq!(
            data_counters(&sr.counters),
            data_counters(&br.counters),
            "seed {seed}"
        );
        // And streaming under faults is itself bit-reproducible.
        let (sr2, sout2) = run_flat(plan(), STREAM);
        assert_eq!(sr.elapsed(), sr2.elapsed(), "seed {seed}: timing drifted");
        assert_eq!(sout, sout2, "seed {seed}: output drifted");
    }
}

// ---------------------------------------------------------------------------
// Piece-level integrity: a multi-chunk SNC slab streams one piece per
// chunk, each behind the CRC verify → re-read repair → quarantine machine.
// ---------------------------------------------------------------------------

mod integrity {
    use super::*;
    use scidp_suite::scifmt::snc::VarMeta;

    pub(super) const SNC_PATH: &str = "run/stream.snc";

    pub(super) fn snc_cluster() -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: 2,
            storage_nodes: 1,
            osts: 4,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 4,
            stripe_size: 256,
            default_stripe_count: 4,
        };
        Cluster::new(spec, pfs_cfg, 1 << 20, 1, CostModel::default())
    }

    /// Stage a 3-chunk variable (6 levels, chunked 2 levels at a time).
    pub(super) fn stage_var(c: &mut Cluster) -> (Arc<VarMeta>, usize) {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
            &[2, 8, 5],
            Codec::ShuffleLz { elem: 4 },
            full,
        )
        .unwrap();
        let bytes = b.finish();
        let f = SncFile::open(bytes.clone()).unwrap();
        let var = Arc::new(f.meta().var("QR").unwrap().clone());
        let off = f.meta().data_offset;
        c.pfs.borrow_mut().create(SNC_PATH.to_string(), bytes);
        (var, off)
    }

    /// A job whose single split is the whole 3-chunk slab: three stream
    /// pieces, one CRC-verified chunk each.
    fn slab_job(c: &mut Cluster, fetch: Fetch) -> Job {
        let (var, off) = stage_var(c);
        let split = InputSplit {
            length: var.chunks.iter().map(|ch| ch.clen).sum(),
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var,
                data_offset: off,
                start: vec![0, 0, 0],
                count: vec![6, 8, 5],
                cache: Arc::new(ChunkCache::default()),
                pushdown: None,
                cluster_admit: None,
            }),
        };
        let job = Job {
            name: "slabsum".into(),
            splits: vec![split],
            map_fn: Rc::new(|input, ctx| {
                let TaskInput::Array(a) = input else {
                    return Err(MrError::msg("expected array"));
                };
                // Per-level sums pin every decoded element.
                let (levs, lats, lons) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                for l in 0..levs {
                    let mut sum = 0.0f64;
                    for i in 0..lats {
                        for j in 0..lons {
                            sum += a.at(&[l, i, j]);
                        }
                    }
                    ctx.emit(
                        format!("lev{l}"),
                        Payload::Bytes(format!("{sum}").into_bytes()),
                    );
                }
                Ok(())
            }),
            reduce_fn: Some(Rc::new(|key, values, ctx| {
                for v in values {
                    ctx.emit(key, v);
                }
                Ok(())
            })),
            n_reducers: 1,
            output_dir: "slab_out".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
            shuffle: None,
        };
        with_fetch(job, fetch)
    }

    #[test]
    fn transient_corruption_is_repaired_mid_stream() {
        // A clean whole-split read fixes the expected bytes.
        let mut clean = snc_cluster();
        let job = slab_job(&mut clean, Fetch::Whole);
        run_job(&mut clean, job).unwrap();
        let want = clean.read_hdfs_dir("slab_out").unwrap();
        assert!(!want.is_empty());

        // Streamed run with the second chunk read corrupted once: the CRC
        // catches it inside that piece, the re-read repairs it, and the
        // job commits identical bytes.
        let mut c = snc_cluster();
        c.sim
            .faults
            .install(FaultPlan::none().corrupt_read(SNC_PATH, 2));
        let job = slab_job(&mut c, STREAM);
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(c.read_hdfs_dir("slab_out").unwrap(), want);
        assert_eq!(r.counters.get(keys::CORRUPTION_DETECTED), 1.0);
        assert_eq!(r.counters.get(keys::CORRUPTION_REPAIRED), 1.0);
        assert_eq!(r.counters.get(keys::CHUNKS_QUARANTINED), 0.0);
        assert_eq!(r.counters.get(keys::CHUNK_CACHE_MISSES), 3.0);
    }

    #[test]
    fn persistent_corruption_quarantines_mid_stream_and_fails_typed() {
        // Media-level damage survives the re-read: the piece must fail
        // with the typed IntegrityError, never hand wrong bytes to map.
        let mut c = snc_cluster();
        c.sim
            .faults
            .install(FaultPlan::none().corrupt_read_persistent(SNC_PATH, 1));
        let job = slab_job(&mut c, STREAM);
        let err = run_job(&mut c, job).unwrap_err();
        assert!(
            err.message().contains("IntegrityError"),
            "typed integrity failure expected, got: {}",
            err.message()
        );
        assert!(err.message().contains("quarantined"), "{}", err.message());
    }

    #[test]
    fn streaming_slab_matches_whole_read_bit_for_bit() {
        let run = |fetch: Fetch| {
            let mut c = snc_cluster();
            let job = slab_job(&mut c, fetch);
            let r = run_job(&mut c, job).unwrap();
            (
                c.read_hdfs_dir("slab_out").unwrap(),
                data_counters(&r.counters),
            )
        };
        let (bout, bcnt) = run(Fetch::Whole);
        let (sout, scnt) = run(STREAM);
        assert_eq!(sout, bout, "decoded slab bytes must not depend on mode");
        assert_eq!(scnt, bcnt);
    }
}

// ---------------------------------------------------------------------------
// Pushdown scans stream the chunks their zone maps keep.
// ---------------------------------------------------------------------------

mod pushdown {
    use super::integrity::{snc_cluster, stage_var, SNC_PATH};
    use super::*;
    use scidp_suite::rframe::{sql::where_predicate, sqldf};
    use scidp_suite::scidp::rapi::slab_to_frame;
    use scidp_suite::scifmt::snc::{chunk_extents_of, VarMeta};

    /// `lev >= 2` keeps chunks 1 and 2 of the 3-chunk slab.
    const SQL: &str = "SELECT * FROM df WHERE lev >= 2";

    /// An SQL scan of the whole 3-chunk slab as one split, with or
    /// without the WHERE clause pushed into the reader; `cache` is the
    /// job's chunk cache (and its quarantine list).
    fn scan_job(var: Arc<VarMeta>, off: usize, pushdown: bool, cache: Arc<ChunkCache>) -> Job {
        let pred = where_predicate(SQL)
            .unwrap()
            .expect("WHERE lowers to a predicate");
        let split = InputSplit {
            length: var.chunks.iter().map(|ch| ch.clen).sum(),
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var,
                data_offset: off,
                start: vec![0, 0, 0],
                count: vec![6, 8, 5],
                cache,
                pushdown: pushdown.then(|| Arc::new(pred)),
                cluster_admit: None,
            }),
        };
        Job {
            name: "slabsql".into(),
            splits: vec![split],
            map_fn: Rc::new(|input, ctx| {
                let frame = match input {
                    TaskInput::Frame(f) => f,
                    TaskInput::Array(a) => {
                        let dims = ["lev", "lat", "lon"].map(String::from);
                        slab_to_frame(&dims, &[0, 0, 0], &a)?
                    }
                    _ => return Err(MrError::msg("expected a slab")),
                };
                // Balanced compute: enough to hide the second chunk's read.
                ctx.charge("analysis", 1.0);
                let env = std::collections::HashMap::from([("df", &frame)]);
                let out = sqldf(SQL, &env).map_err(|e| MrError::msg(e.to_string()))?;
                ctx.emit("sql", Payload::Frame(out));
                Ok(())
            }),
            reduce_fn: Some(Rc::new(|key, values, ctx| {
                for v in values {
                    ctx.emit(key, v);
                }
                Ok(())
            })),
            n_reducers: 1,
            output_dir: "sql_out".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            ft: FtConfig {
                max_task_attempts: 1,
                ..FtConfig::default()
            },
            stream: StreamConfig::default(),
            shuffle: None,
        }
    }

    #[test]
    fn pushdown_split_streams_surviving_chunks_with_identical_output() {
        let run = |pushdown: bool| {
            let mut c = snc_cluster();
            let (var, off) = stage_var(&mut c);
            let job = scan_job(var, off, pushdown, Arc::new(ChunkCache::default()));
            let r = run_job(&mut c, job).unwrap();
            (r, c.read_hdfs_dir("sql_out").unwrap())
        };
        let (full, full_out) = run(false);
        let (push, push_out) = run(true);
        assert!(!full_out.is_empty());
        assert_eq!(push_out, full_out, "pushdown changed the committed bytes");
        assert_eq!(push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 1.0);
        assert_eq!(push.counters.get(keys::CHUNK_CACHE_MISSES), 2.0);
        assert_eq!(full.counters.get(keys::CHUNK_CACHE_MISSES), 3.0);
        assert!(
            push.counters.get(keys::PIECES_PREFETCHED) > 0.0,
            "the second surviving chunk must land behind the first one's compute"
        );
        assert!(push.counters.get(keys::OVERLAP_SAVED_S) > 0.0);
    }

    #[test]
    fn quarantined_chunk_fails_the_scan_even_when_pruned() {
        // Chunk 0 is known bad; the predicate would prune it, but the
        // quarantine check runs first, so the attempt still fails with the
        // typed integrity error — exactly as without pushdown. The doomed
        // attempt streams only its failing piece: no chunk read is issued.
        for pushdown in [false, true] {
            let mut c = snc_cluster();
            let (var, off) = stage_var(&mut c);
            let chunk0 = chunk_extents_of(&var, off)[0].offset;
            let cache = Arc::new(ChunkCache::default());
            cache.quarantine((ChunkCache::file_key(SNC_PATH), chunk0));
            let job = scan_job(var, off, pushdown, cache);
            let err = run_job(&mut c, job).unwrap_err();
            assert!(
                err.message().contains("IntegrityError") && err.message().contains("quarantined"),
                "pushdown {pushdown}: typed integrity failure expected, got: {}",
                err.message()
            );
            assert_eq!(
                c.sim.net.bytes_admitted, 0.0,
                "pushdown {pushdown}: a doomed slab must not move chunk bytes"
            );
        }
    }
}
