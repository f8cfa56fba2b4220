//! Cluster chunk-cache tier benchmark: cold vs warm map stage over an SNC
//! variable, plus the data-placement policy's graduation trace.
//!
//! One cluster, tier enabled, three back-to-back map-only jobs over the
//! same hyperslabs. The first (cold) run fills the per-node caches from the
//! PFS; the re-runs are served node-local by the tier and the scheduler's
//! cache-locality pass. Asserted, not just reported: the warm stage is at
//! least 2x faster, every warm map is a cluster hit placed cache-local, the
//! PFS bytes avoided equal the variable's stored bytes, and all outputs —
//! including a tier-disabled reference — are byte-identical.
//!
//! The fault seed honours `SCIDP_FAULT_SEED` (the tier must not change
//! bytes under any seed). Results go to stdout and `BENCH_cache.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin cache [--quick]`

use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    counter_keys as keys, run_job, Cluster, FtConfig, InputSplit, Job, JobResult, MrError, Payload,
    TaskInput,
};
use pfs::PfsConfig;
use scidp::{Placement, PlacementConfig, PlacementPolicy, SciSlabFetcher};
use scidp_bench::{fmt_s, fmt_x, quick_mode, row};
use scifmt::snc::ChunkCache;
use scifmt::{Array, Codec, SncBuilder, SncFile, VarMeta};
use simnet::{ClusterSpec, CostModel, FaultPlan};

const SNC_PATH: &str = "run/cachebench.snc";

fn fault_seed() -> u64 {
    std::env::var("SCIDP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1234)
}

/// Levels of the benchmark variable; chunked 4 levels at a time.
fn n_levels() -> usize {
    if quick_mode() {
        32
    } else {
        64
    }
}

fn n_chunks() -> usize {
    n_levels() / 4
}

const CHUNK_RAW: u64 = 4 * 32 * 16 * 4;

/// Paper-scale byte amplification + a small task startup (the overlap /
/// pushdown bench idiom) so the cold/warm delta measures the PFS read +
/// decompress pipeline the tier removes, not fixed scheduling overhead.
fn bench_cost() -> CostModel {
    CostModel {
        scale: 4096.0,
        task_startup_s: 0.1,
        ..CostModel::default()
    }
}

fn fresh_cluster() -> (Cluster, Arc<VarMeta>, usize) {
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
    let c = Cluster::new(spec, pfs_cfg, 1 << 20, 1, bench_cost());
    let lev = n_levels();
    // Pseudo-random mantissas: near-incompressible, so the cold path pays
    // for (almost) every stored byte off the PFS.
    let data: Vec<f32> = (0..lev * 32 * 16)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).rotate_left(13) ^ 0x9e3779b9;
            h as f32 / u32::MAX as f32
        })
        .collect();
    let full = Array::from_f32(vec![lev, 32, 16], data).unwrap();
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", lev), ("lat", 32), ("lon", 16)],
        &[4, 32, 16],
        Codec::ShuffleLz { elem: 4 },
        full,
    )
    .unwrap();
    let bytes = b.finish();
    let f = SncFile::open(bytes.clone()).unwrap();
    let var = Arc::new(f.meta().var("QR").unwrap().clone());
    let off = f.meta().data_offset;
    c.pfs.borrow_mut().create(SNC_PATH.to_string(), bytes);
    (c, var, off)
}

fn slab_splits(var: &Arc<VarMeta>, off: usize, admit: Option<bool>) -> Vec<InputSplit> {
    let cache = Arc::new(ChunkCache::default());
    (0..n_chunks())
        .map(|i| InputSplit {
            length: CHUNK_RAW,
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var: var.clone(),
                data_offset: off,
                start: vec![4 * i, 0, 0],
                count: vec![4, 32, 16],
                cache: cache.clone(),
                pushdown: None,
                cluster_admit: admit,
            }),
        })
        .collect()
}

/// Map-only job: one map per chunk, emitting a digest of every value, so
/// the committed bytes prove the cache path decodes identically.
fn slab_job(var: &Arc<VarMeta>, off: usize, admit: Option<bool>, out: &str) -> Job {
    let mut job = Job::new(
        "cachebench",
        slab_splits(var, off, admit),
        Rc::new(|input, ctx| {
            let TaskInput::Array(a) = input else {
                return Err(MrError::msg("expected array"));
            };
            let mut sum = 0.0f64;
            let mut digest = 0u64;
            for i in 0..a.len() {
                let v = a.get_f64(i);
                sum += v;
                digest = digest.wrapping_mul(1099511628211).wrapping_add(v.to_bits());
            }
            ctx.emit(
                format!("chunk{:016x}", digest),
                Payload::Bytes(format!("{sum:.6},{digest}").into_bytes()),
            );
            Ok(())
        }),
        None,
        0,
        out,
    );
    job.ft = FtConfig {
        speculative: false,
        ..FtConfig::default()
    };
    job
}

fn read_output(c: &Cluster, dir: &str) -> Vec<(String, Vec<u8>)> {
    let files = c.read_hdfs_dir(dir).unwrap();
    files
        .into_iter()
        .filter(|(path, _)| !path.contains("/_"))
        .map(|(path, data)| (path.trim_start_matches(dir).to_string(), data))
        .collect()
}

struct RunStats {
    elapsed: f64,
    hits: f64,
    misses: f64,
    locality_maps: f64,
    pfs_avoided: f64,
}

fn stats_of(r: &JobResult) -> RunStats {
    RunStats {
        elapsed: r.elapsed(),
        hits: r.counters.get(keys::CLUSTER_CACHE_HITS),
        misses: r.counters.get(keys::CLUSTER_CACHE_MISSES),
        locality_maps: r.counters.get(keys::CACHE_LOCALITY_MAPS),
        pfs_avoided: r.counters.get(keys::PFS_BYTES_AVOIDED),
    }
}

fn main() {
    let seed = fault_seed();
    let chunks = n_chunks();
    println!(
        "cache: {} chunks x {} raw bytes, 4 nodes x 2 slots, seed {seed}",
        chunks, CHUNK_RAW
    );
    println!();

    // Reference: tier disabled entirely.
    let reference = {
        let (mut c, var, off) = fresh_cluster();
        c.sim.faults.install(FaultPlan::none().with_seed(seed));
        let r = run_job(&mut c, slab_job(&var, off, None, "ref")).expect("reference run");
        assert_eq!(r.counters.get(keys::CLUSTER_CACHE_HITS), 0.0);
        read_output(&c, "ref")
    };

    // Tier enabled: cold fill, then two warm re-runs on the same cluster.
    let (mut c, var, off) = fresh_cluster();
    c.sim.faults.install(FaultPlan::none().with_seed(seed));
    c.enable_cluster_cache(1 << 20);
    let cold = run_job(&mut c, slab_job(&var, off, Some(false), "cold")).expect("cold run");
    let warm1 = run_job(&mut c, slab_job(&var, off, Some(false), "warm1")).expect("warm run 1");
    let warm2 = run_job(&mut c, slab_job(&var, off, Some(false), "warm2")).expect("warm run 2");

    for (dir, label) in [("cold", "cold"), ("warm1", "warm 1"), ("warm2", "warm 2")] {
        assert_eq!(
            read_output(&c, dir),
            reference,
            "{label} output must be byte-identical to the tier-disabled reference"
        );
    }

    let cs = stats_of(&cold);
    let w1 = stats_of(&warm1);
    let w2 = stats_of(&warm2);
    let stored_bytes: u64 = var.chunks.iter().map(|ch| ch.clen).sum();

    println!(
        "{}",
        row(&[
            "run".into(),
            "elapsed".into(),
            "hits".into(),
            "misses".into(),
            "hit rate".into(),
            "cache-local maps".into(),
            "pfs bytes avoided".into(),
        ])
    );
    for (name, s) in [("cold", &cs), ("warm1", &w1), ("warm2", &w2)] {
        let hit_rate = s.hits / (s.hits + s.misses).max(1.0);
        println!(
            "{}",
            row(&[
                name.into(),
                fmt_s(s.elapsed),
                format!("{:.0}", s.hits),
                format!("{:.0}", s.misses),
                format!("{hit_rate:.2}"),
                format!("{:.0}", s.locality_maps),
                format!("{:.0}", s.pfs_avoided),
            ])
        );
    }

    // The tentpole claim, asserted: the warm stage is at least 2x faster
    // and entirely cache-served.
    let speedup = cs.elapsed / w1.elapsed;
    assert!(
        speedup >= 2.0,
        "warm stage must be >= 2x faster: cold {} vs warm {} ({})",
        fmt_s(cs.elapsed),
        fmt_s(w1.elapsed),
        fmt_x(speedup)
    );
    assert_eq!(cs.misses, chunks as f64, "cold run misses every chunk once");
    assert_eq!(cs.hits, 0.0);
    for (label, s) in [("warm1", &w1), ("warm2", &w2)] {
        assert_eq!(s.hits, chunks as f64, "{label}: every chunk cache-served");
        assert_eq!(s.misses, 0.0, "{label}: no warm misses");
        assert_eq!(
            s.locality_maps, chunks as f64,
            "{label}: every map placed on its chunk's holder"
        );
        assert_eq!(
            s.pfs_avoided, stored_bytes as f64,
            "{label}: avoided exactly the stored bytes"
        );
    }
    println!();
    println!("warm-stage speedup: {} (asserted >= 2x)", fmt_x(speedup));

    // Placement policy graduation over the same access sequence.
    let policy = PlacementPolicy::new(PlacementConfig::default());
    let agg_cache = c.cluster_cache.per_node_capacity() * 4;
    let trace: Vec<Placement> = (0..3)
        .map(|_| policy.observe(SNC_PATH, stored_bytes, agg_cache))
        .collect();
    assert_eq!(
        trace,
        vec![
            Placement::Cached,
            Placement::CachePinned,
            Placement::CachePinned
        ],
        "a re-read dataset that fits graduates Cached -> CachePinned"
    );
    let oversized = policy.observe("run/huge.snc", agg_cache * 8, agg_cache);
    println!(
        "placement: {SNC_PATH} graduated {:?} -> {:?}; oversized dataset -> {:?}",
        trace[0], trace[2], oversized
    );

    let json = format!(
        "{{\n  \"config\": {{\"chunks\": {chunks}, \"chunk_raw_bytes\": {CHUNK_RAW}, \"stored_bytes\": {stored_bytes}, \"nodes\": 4, \"per_node_cache_bytes\": {}, \"fault_seed\": {seed}}},\n  \"cold\": {{\"elapsed_s\": {:.6}, \"cluster_cache_hits\": {:.0}, \"cluster_cache_misses\": {:.0}, \"cache_locality_maps\": {:.0}, \"pfs_bytes_avoided\": {:.0}}},\n  \"warm1\": {{\"elapsed_s\": {:.6}, \"cluster_cache_hits\": {:.0}, \"cluster_cache_misses\": {:.0}, \"cache_locality_maps\": {:.0}, \"pfs_bytes_avoided\": {:.0}, \"hit_rate\": {:.4}}},\n  \"warm2\": {{\"elapsed_s\": {:.6}, \"cluster_cache_hits\": {:.0}, \"cluster_cache_misses\": {:.0}, \"cache_locality_maps\": {:.0}, \"pfs_bytes_avoided\": {:.0}, \"hit_rate\": {:.4}}},\n  \"warm_speedup\": {:.4},\n  \"output_identical\": true,\n  \"placement_trace\": [\"{:?}\", \"{:?}\", \"{:?}\"],\n  \"placement_oversized\": \"{:?}\"\n}}\n",
        c.cluster_cache.per_node_capacity(),
        cs.elapsed,
        cs.hits,
        cs.misses,
        cs.locality_maps,
        cs.pfs_avoided,
        w1.elapsed,
        w1.hits,
        w1.misses,
        w1.locality_maps,
        w1.pfs_avoided,
        w1.hits / (w1.hits + w1.misses).max(1.0),
        w2.elapsed,
        w2.hits,
        w2.misses,
        w2.locality_maps,
        w2.pfs_avoided,
        w2.hits / (w2.hits + w2.misses).max(1.0),
        speedup,
        trace[0],
        trace[1],
        trace[2],
        oversized,
    );
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!();
    println!("wrote BENCH_cache.json");
}
