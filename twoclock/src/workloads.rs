//! The three closed-loop workloads. Each is one client: it submits its next
//! job only after the previous one returned.
//!
//! The dataset is staged once per `setup_s` sample. A pass builds a fresh
//! world over the staged files, runs the workload's jobs back to back
//! (`host_s` on the host clock, `virtual_s` on the simulated one), then
//! checks every committed output outside the timed phase.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mapreduce::{counter_keys as keys, Cluster, Counters, DagResult, JobResult, TaskKind};
use scidp::{
    FileExplorer, Placement, PlacementSpec, SqlScanConfig, StatsDagConfig, WorkflowConfig,
};
use simnet::{CostModel, FaultPlan};
use wrfgen::{DatasetInfo, WrfSpec};

use crate::metrics::Metrics;
use crate::refclock::{Kernel, Sample};
use crate::trace::{self, Tracer};

pub const DIR: &str = "nuwrf";
/// Hadoop nodes of every world (the paper's evaluation cluster).
const NODES: usize = 8;
const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = MIB * 1024.0;

/// The paper's rainfall field: the Img-only and SQL workloads' variable.
const QR: [&str; 1] = ["QR"];
const STATS_VARS: [&str; 3] = ["QR", "QV", "T"];

/// `sql_pushdown`'s queries, run back to back on one cluster over `QR`
/// (values centre on 2.0 and spread less with height): two value
/// thresholds whose zone-map pruning depends on the data, a top-level
/// window (prunes the lower four fifths), and a full aggregate that
/// prunes nothing. At 8 timestamps the four skip about 82 of 160 chunks.
pub const SQL_QUERIES: [&str; 4] = [
    "SELECT lev, lat, lon, value FROM df WHERE value >= 3.0",
    "SELECT lev, lat, lon, value FROM df WHERE value >= 2.5",
    "SELECT lev, lat, lon, value FROM df WHERE lev >= 40 AND value >= 2.125",
    "SELECT COUNT(*) AS n, SUM(value) AS s, MIN(value) AS lo, MAX(value) AS hi FROM df",
];

/// `stats_dag` cluster-cache capacity per node: about half the decoded
/// working set of its three variables.
const STATS_CACHE_BYTES: u64 = 256 << 10;
/// Node killed during `stats_dag`'s cold pass, and when: this share of
/// the fault-free cold pass's simulated time.
const KILLED_NODE: u32 = 3;
const KILL_AT_SHARE: f64 = 0.5;
const READ_FAIL_PROB: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ImgPfs,
    SqlPushdown,
    StatsDag,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ImgPfs, Kind::SqlPushdown, Kind::StatsDag];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ImgPfs => "img_pfs",
            Kind::SqlPushdown => "sql_pushdown",
            Kind::StatsDag => "stats_dag",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload at one size and seed.
pub struct Workload {
    pub kind: Kind,
    pub spec: WrfSpec,
}

/// Expected outputs, computed once per process outside the timed phase.
pub struct Reference {
    /// Per operation: the digest its committed output must have (`None`
    /// where the only reference is the workload's own first pass).
    pub digests: Vec<Option<u64>>,
    /// `stats_dag`: simulated time at which the node dies.
    pub kill_at_s: f64,
}

/// One pass of a workload.
pub struct Pass {
    /// The timed phase, with the reference kernel's time just before it.
    pub time: Sample,
    /// Process peak resident set when the pass ended.
    pub peak_rss_mib: f64,
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Simulated time, counts and sizes: identical on every pass of a seed.
    pub det: Metrics,
    /// Host-clock layer metrics (traced passes only).
    pub host: Metrics,
    /// Digest of each operation's committed output.
    pub digests: Vec<u64>,
    pub flags: Vec<String>,
}

/// What one pass's jobs reported, folded together.
#[derive(Default)]
struct Ledger {
    counters: Counters,
    maps: Vec<f64>,
    phases: Vec<(&'static str, f64)>,
    virtual_s: f64,
    setup_virtual_s: f64,
    images: u64,
    rerun_tasks: u64,
}

impl Ledger {
    fn job(&mut self, r: &JobResult, mapping_cost: f64) {
        for (k, v) in r.counters.iter() {
            self.counters.add(k, v);
        }
        for t in &r.tasks {
            if t.kind == TaskKind::Map {
                self.maps.push(t.duration());
            }
            self.phases.extend(t.phases.iter().copied());
        }
        self.virtual_s += mapping_cost + r.elapsed();
        self.setup_virtual_s += mapping_cost;
    }

    fn dag(&mut self, r: &DagResult, mapping_cost: f64) {
        for (k, v) in r.counters.iter() {
            self.counters.add(k, v);
        }
        // Every submission of a stage after its first re-runs tasks.
        let mut seen = std::collections::BTreeSet::new();
        for run in &r.runs {
            if !seen.insert(run.stage) {
                self.rerun_tasks += run.n_tasks as u64;
            }
        }
        self.virtual_s += mapping_cost + r.elapsed();
        self.setup_virtual_s += mapping_cost;
    }

    fn get(&self, key: &str) -> f64 {
        self.counters.get(key)
    }
}

/// The SciDP input path of the staged dataset.
pub fn input_uri() -> String {
    format!("lustre://{DIR}")
}

/// A staged dataset: the PFS every pass's world starts from.
pub struct Staged {
    pub pfs: pfs::Pfs,
    pub info: DatasetInfo,
}

/// Digest of every committed file under `dir`, paths relative to `dir`.
pub fn output_digest(c: &Cluster, dir: &str) -> Result<u64, String> {
    let h = c.hdfs.borrow();
    let mut files = h
        .namenode
        .list_files_recursive(dir)
        .map_err(|e| format!("list {dir}: {e}"))?;
    files.retain(|f| !f.path.contains("/_"));
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.path.trim_start_matches(dir).as_bytes());
        bytes.push(0);
        let blocks = h
            .namenode
            .blocks(&f.path)
            .map_err(|e| format!("blocks {}: {e}", f.path))?;
        for b in blocks {
            let node = *b
                .locations()
                .first()
                .ok_or_else(|| format!("{}: block without replica", f.path))?;
            let data = h
                .datanodes
                .get(node, b.id)
                .ok_or_else(|| format!("{}: block data missing", f.path))?;
            bytes.extend_from_slice(&data);
        }
    }
    if files.is_empty() {
        return Err(format!("no committed output under {dir}"));
    }
    Ok(scirng::hash64(&bytes))
}

/// Virtual seconds the SciDP Data Mapper charges to scan the input
/// directory (what `run_scidp` waits before launching its job).
fn mapping_cost(c: &Cluster) -> Result<f64, String> {
    let pfs = c.pfs.borrow();
    let report = FileExplorer::scan(&pfs, DIR).map_err(|e| e.to_string())?;
    Ok(report.setup_cost(&CostModel::default()))
}

/// Highest whole percentile with at least ten samples beyond it, and the
/// value there (nearest rank). `None` below twenty samples, where the
/// benchmark reports the median as the tail and 0 as its percentile.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let pct = (50..100)
        .rev()
        .find(|p| (n * (100 - p)) as f64 / 100.0 >= 10.0)?;
    let rank = ((pct * n) as f64 / 100.0).ceil() as usize;
    Some((pct as f64, sorted[rank.clamp(1, n) - 1]))
}

impl Workload {
    /// The benchmark's size of each workload.
    pub fn full(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::ImgPfs => Workload::new(kind, seed, WrfSpec::scaled(16, 16, 48)),
            Kind::SqlPushdown => Workload::new(
                kind,
                seed,
                WrfSpec {
                    n_vars: 1,
                    ..WrfSpec::scaled(128, 128, 8)
                },
            ),
            Kind::StatsDag => Workload::new(kind, seed, WrfSpec::scaled(16, 16, 24)),
        }
    }

    /// A seconds-long version for the self-tests.
    #[cfg(test)]
    pub fn smoke(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::ImgPfs => Workload::new(kind, seed, WrfSpec::scaled(16, 16, 4)),
            Kind::SqlPushdown => Workload::new(
                kind,
                seed,
                WrfSpec {
                    n_vars: 1,
                    ..WrfSpec::scaled(32, 32, 3)
                },
            ),
            Kind::StatsDag => Workload::new(kind, seed, WrfSpec::scaled(16, 16, 12)),
        }
    }

    fn new(kind: Kind, seed: u64, spec: WrfSpec) -> Workload {
        Workload {
            kind,
            spec: WrfSpec { seed, ..spec },
        }
    }

    /// Reference outputs: `sql_pushdown`'s queries with pushdown off, and
    /// a fault-free `stats_dag` cold pass (which also times the kill).
    pub fn reference(&self, staged: &Staged) -> Result<Reference, String> {
        match self.kind {
            Kind::ImgPfs => Ok(Reference {
                digests: vec![None],
                kill_at_s: 0.0,
            }),
            Kind::SqlPushdown => {
                let mut c = self.world(staged);
                let mut digests = Vec::new();
                for (i, sql) in SQL_QUERIES.iter().enumerate() {
                    let cfg = sql_cfg(i, sql, false);
                    scidp::run_sql_scan(&mut c, &input_uri(), &cfg)
                        .map_err(|e| format!("reference query {i}: {e}"))?;
                    digests.push(Some(output_digest(&c, &cfg.output_dir)?));
                }
                Ok(Reference {
                    digests,
                    kill_at_s: 0.0,
                })
            }
            Kind::StatsDag => {
                let mut c = self.world(staged);
                let cfg = stats_cfg("stats_ref");
                let r = scidp::run_stats_dag(&mut c, &input_uri(), &cfg)
                    .map_err(|e| format!("fault-free reference: {e}"))?;
                let d = Some(output_digest(&c, "stats_ref")?);
                Ok(Reference {
                    digests: vec![d, d],
                    kill_at_s: r.elapsed() * KILL_AT_SHARE,
                })
            }
        }
    }

    /// Generate and stage the dataset and build a cluster world: the
    /// codec's write path (field synthesis, SNC encode, CRC stamp and PFS
    /// create all happen inside `wrfgen::generate_dataset`).
    pub fn stage(&self, tr: &Tracer) -> Staged {
        let cluster = baselines::paper_cluster(NODES, &self.spec);
        let info = {
            let _g = tr.span("wrfgen.generate_dataset");
            wrfgen::generate_dataset(&mut cluster.pfs.borrow_mut(), &self.spec, DIR)
        };
        let pfs = cluster.pfs.borrow().clone();
        Staged { pfs, info }
    }

    /// A fresh world that sees the staged files (payloads are shared).
    pub fn world(&self, staged: &Staged) -> Cluster {
        let c = baselines::paper_cluster(NODES, &self.spec);
        *c.pfs.borrow_mut() = staged.pfs.clone();
        c
    }

    /// Run the workload's jobs back to back on a fresh world over the
    /// staged dataset, then check their outputs.
    pub fn pass(
        &self,
        staged: &Staged,
        reference: &Reference,
        tr: &Rc<Tracer>,
        kernel: &mut Kernel,
    ) -> Result<Pass, String> {
        let mut c = self.world(staged);
        let info = &staged.info;
        if self.kind == Kind::StatsDag {
            c.sim.faults.install(
                FaultPlan::none()
                    .kill_node(KILLED_NODE, reference.kill_at_s)
                    .with_random_read_failures(self.spec.seed, READ_FAIL_PROB),
            );
        }
        let cost = mapping_cost(&c)?;
        let events0 = c.sim.events_processed();
        let admitted0 = c.sim.net.bytes_admitted;

        let mut ledger = Ledger::default();
        let mut errors: Vec<Option<String>> = Vec::new();
        let mut out_dirs: Vec<String> = Vec::new();
        let ref_s = kernel.time_s();
        let t1 = Instant::now();
        {
            let _pass = tr.span("pass");
            match self.kind {
                Kind::ImgPfs => {
                    let r = if tr.enabled() {
                        self.img_traced(&mut c, tr)
                    } else {
                        scidp::run_scidp(&mut c, &input_uri(), &img_cfg())
                            .map(|w| (w.job, w.setup_cost, w.images))
                            .map_err(|e| e.to_string())
                    };
                    match r {
                        Ok((job, setup_cost, images)) => {
                            ledger.job(&job, setup_cost);
                            ledger.images = images;
                            errors.push(None);
                        }
                        Err(e) => errors.push(Some(e)),
                    }
                    out_dirs.push(img_cfg().output_dir);
                }
                Kind::SqlPushdown => {
                    for (i, sql) in SQL_QUERIES.iter().enumerate() {
                        let cfg = sql_cfg(i, sql, true);
                        let r = {
                            let _g = tr.span("scidp.run_sql_scan");
                            scidp::run_sql_scan(&mut c, &input_uri(), &cfg)
                        };
                        match r {
                            Ok(job) => {
                                ledger.job(&job, cost);
                                errors.push(None);
                            }
                            Err(e) => errors.push(Some(e.to_string())),
                        }
                        out_dirs.push(cfg.output_dir);
                    }
                }
                Kind::StatsDag => {
                    for out in ["stats_cold", "stats_warm"] {
                        let cfg = stats_cfg(out);
                        let r = {
                            let _g = tr.span("scidp.run_stats_dag");
                            scidp::run_stats_dag(&mut c, &input_uri(), &cfg)
                        };
                        match r {
                            Ok(dag) => {
                                ledger.dag(&dag, cost);
                                errors.push(None);
                            }
                            Err(e) => errors.push(Some(e.to_string())),
                        }
                        out_dirs.push(cfg.output_dir);
                    }
                }
            }
        }
        let time = Sample {
            wall_s: t1.elapsed().as_secs_f64(),
            ref_s,
        };
        let events = c.sim.events_processed() - events0;
        let admitted = c.sim.net.bytes_admitted - admitted0;

        // Output checks, outside the timed phase.
        let mut failures = Vec::new();
        let mut digests = Vec::new();
        for (i, (err, dir)) in errors.iter().zip(&out_dirs).enumerate() {
            if let Some(e) = err {
                failures.push(format!("operation {i}: {e}"));
                digests.push(0);
                continue;
            }
            let d = output_digest(&c, dir)?;
            digests.push(d);
            if let Some(Some(want)) = reference.digests.get(i) {
                if d != *want {
                    failures.push(format!(
                        "operation {i}: output {d:016x} differs from the reference {want:016x}"
                    ));
                }
            }
        }
        if self.kind == Kind::ImgPfs && errors.iter().all(Option::is_none) {
            let want = (self.spec.levels * self.spec.timestamps) as u64;
            if ledger.images != want {
                failures.push(format!("{} images plotted, expected {want}", ledger.images));
            }
        }

        let ops = errors.len() as u64;
        let failed = failures.len().min(errors.len()) as u64;
        let mut det = det_metrics(&ledger, info, events, admitted);
        det.insert("virtual_s", ledger.virtual_s);
        det.insert("bench.error_rate", failed as f64 / ops as f64);
        let mut flags = Vec::new();
        let lost = ledger.get(keys::SHUFFLE_PARTITIONS_LOST);
        let recomputed = ledger.get(keys::LINEAGE_RECOMPUTES);
        if lost > 0.0 && recomputed == 0.0 {
            flags.push(format!(
                "lineage counter mismatch: shuffle_partitions_lost = {lost}, \
                 lineage_recomputes = {recomputed}, but {} tasks of already-run stages re-ran",
                ledger.rerun_tasks
            ));
        }
        let host = if tr.enabled() {
            host_metrics(&tr.spans(), &ledger, events)
        } else {
            Metrics::new()
        };
        Ok(Pass {
            time,
            peak_rss_mib: 0.0,
            ops,
            failed,
            failures,
            det,
            host,
            digests,
            flags,
        })
    }

    /// `run_scidp` rebuilt from its public parts, with the R map and reduce
    /// functions wrapped in spans before `into_job`. The simulated
    /// schedule is the same: launch after the mapping cost, then run.
    fn img_traced(
        &self,
        c: &mut Cluster,
        tr: &Rc<Tracer>,
    ) -> Result<(JobResult, f64, u64), String> {
        let mut rjob = scidp::build_rjob(&input_uri(), &img_cfg());
        let images = Rc::new(RefCell::new(0u64));
        let counted = images.clone();
        let map = rjob.map.clone();
        let tm = tr.clone();
        rjob.map = Rc::new(move |slab: &scidp::MapSlab, ctx: &mut scidp::RCtx<'_>| {
            let _g = tm.span("scidp.map_fn");
            *counted.borrow_mut() += slab.array.shape().first().copied().unwrap_or(0) as u64;
            map(slab, ctx)
        });
        let tr2 = tr.clone();
        rjob.reduce = rjob.reduce.map(|reduce| -> scidp::RReduceFn {
            Rc::new(move |key: &str, values, ctx: &mut scidp::RCtx<'_>| {
                let _g = tr2.span("scidp.reduce_fn");
                reduce(key, values, ctx)
            })
        });
        let env = c.env();
        let scale = c.sim.cost.scale;
        let (job, setup) = {
            let _g = tr.span("scidp.into_job");
            rjob.into_job(&env, scale).map_err(|e| e.to_string())?
        };
        let result: Rc<RefCell<Option<Result<JobResult, mapreduce::MrError>>>> =
            Rc::new(RefCell::new(None));
        let slot = result.clone();
        c.sim.after(setup.setup_cost, move |sim| {
            mapreduce::submit_job_env(sim, env, job, move |_, r| {
                *slot.borrow_mut() = Some(r);
            });
        });
        {
            let _g = tr.span("mapreduce.run");
            c.run();
        }
        let job = result
            .borrow_mut()
            .take()
            .ok_or("job did not run to completion")?
            .map_err(|e| e.message())?;
        let n = *images.borrow();
        Ok((job, setup.setup_cost, n))
    }
}

fn img_cfg() -> WorkflowConfig {
    WorkflowConfig::img_only(QR)
}

fn sql_cfg(i: usize, sql: &str, pushdown: bool) -> SqlScanConfig {
    SqlScanConfig {
        pushdown,
        output_dir: format!("sql_q{i}"),
        ..SqlScanConfig::new(QR, sql)
    }
}

fn stats_cfg(out: &str) -> StatsDagConfig {
    StatsDagConfig {
        cluster_cache_bytes: STATS_CACHE_BYTES,
        placement: PlacementSpec::Fixed(Placement::Cached),
        output_dir: out.into(),
        // Transient read failures are not node faults. With the default
        // threshold, whether some node collects three of the pass's ~15
        // failures (and is blacklisted) is a per-seed coin flip that made
        // simulated time bimodal across seeds (about 178 s or 210 s).
        ft: mapreduce::FtConfig {
            node_blacklist_threshold: 0,
            ..mapreduce::FtConfig::default()
        },
        ..StatsDagConfig::new(STATS_VARS)
    }
}

/// Spans that cover one job run (engine, simulator and user code).
const JOB_SPANS: [&str; 3] = ["mapreduce.run", "scidp.run_sql_scan", "scidp.run_stats_dag"];
const USER_SPANS: [&str; 2] = ["scidp.map_fn", "scidp.reduce_fn"];

fn host_metrics(spans: &[trace::Span], l: &Ledger, events: u64) -> Metrics {
    // Only this pass's spans: the last `pass` span and its descendants.
    let Some(root) = spans.iter().rposition(|s| s.name == "pass") else {
        return Metrics::new();
    };
    let mut run = 0.0;
    let mut self_s = 0.0;
    let mut user = 0.0;
    for (i, s) in spans.iter().enumerate().skip(root) {
        if JOB_SPANS.contains(&s.name) {
            run += s.dur_s();
            self_s += trace::self_time_s(spans, i);
        }
        if USER_SPANS.contains(&s.name) {
            user += s.dur_s();
        }
    }
    let codec = l.get(keys::CODEC_DECODE_S);
    let mut m = Metrics::new();
    m.insert("scifmt.codec_decode_s", codec);
    m.insert("mapreduce.user_fn_s", user);
    m.insert("mapreduce.run_self_s", self_s - codec);
    m.insert(
        "simnet.host_us_per_event",
        if events > 0 {
            run * 1e6 / events as f64
        } else {
            0.0
        },
    );
    m
}

fn det_metrics(l: &Ledger, info: &DatasetInfo, events: u64, admitted: f64) -> Metrics {
    let g = |k: &str| l.get(k);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phase = |names: &[&str]| -> f64 {
        l.phases
            .iter()
            .filter(|(p, _)| names.contains(p))
            .map(|(_, s)| s)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    };
    let mut maps = l.maps.clone();
    maps.sort_by(f64::total_cmp);
    let p50 = crate::metrics::median(&maps);
    let (tail_pct, tail_s) = tail(&maps).unwrap_or((0.0, p50));
    let hits = g(keys::CLUSTER_CACHE_HITS);
    let misses = g(keys::CLUSTER_CACHE_MISSES);
    let committed = g(keys::MAP_TASKS) + g(keys::REDUCE_TASKS);
    let attempted = g(keys::MAP_ATTEMPTS) + g(keys::REDUCE_ATTEMPTS);
    let skipped = g(keys::CHUNKS_SKIPPED_ZONEMAP);
    Metrics::from([
        ("wrfgen.raw_mib", info.raw_bytes as f64 / MIB),
        ("wrfgen.stored_mib", info.stored_bytes as f64 / MIB),
        ("scifmt.chunk_cache_hits", g(keys::CHUNK_CACHE_HITS)),
        ("scifmt.chunk_cache_misses", g(keys::CHUNK_CACHE_MISSES)),
        (
            "scirng.verified_mib",
            g(keys::CHECKSUM_VERIFIED_BYTES) / MIB,
        ),
        ("simnet.events", events as f64),
        ("simnet.flow_gib_admitted", admitted / GIB),
        ("simnet.cache_hits", hits),
        ("simnet.cache_misses", misses),
        ("simnet.cache_evictions", g(keys::CLUSTER_CACHE_EVICTIONS)),
        ("simnet.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "mapreduce.cache_locality_maps",
            g(keys::CACHE_LOCALITY_MAPS),
        ),
        ("pfs.input_mib", g(keys::INPUT_BYTES) / MIB),
        ("hdfs.write_mib", g(keys::HDFS_WRITE_BYTES) / MIB),
        ("hdfs.shuffle_mib", g(keys::SHUFFLE_BYTES) / MIB),
        ("mapreduce.phase_startup_s", phase(&["startup"])),
        ("mapreduce.phase_read_s", phase(&["read"])),
        ("mapreduce.phase_decompress_s", phase(&["decompress"])),
        (
            "mapreduce.phase_compute_s",
            phase(&["plot", "convert", "analysis", "compute", "scan"]),
        ),
        (
            "mapreduce.phase_shuffle_s",
            phase(&["spill", "shuffle", "sort"]),
        ),
        ("mapreduce.phase_write_s", phase(&["write"])),
        ("mapreduce.map_task_p50_s", p50),
        ("mapreduce.map_task_tail_s", tail_s),
        ("mapreduce.map_task_tail_pct", tail_pct),
        ("mapreduce.overlap_saved_s", g(keys::OVERLAP_SAVED_S)),
        ("mapreduce.map_tasks", g(keys::MAP_TASKS)),
        ("mapreduce.map_attempts", g(keys::MAP_ATTEMPTS)),
        ("mapreduce.task_retries", g(keys::TASK_RETRIES)),
        ("mapreduce.attempt_yield", ratio(committed, attempted)),
        ("mapreduce.stages_run", g(keys::STAGES_RUN)),
        ("mapreduce.lineage_recomputes", g(keys::LINEAGE_RECOMPUTES)),
        (
            "mapreduce.shuffle_partitions_lost",
            g(keys::SHUFFLE_PARTITIONS_LOST),
        ),
        ("mapreduce.rerun_tasks", l.rerun_tasks as f64),
        ("scidp.setup_virtual_s", l.setup_virtual_s),
        ("scidp.chunks_skipped", skipped),
        // Slabs are chunk-aligned, one map task per chunk.
        ("scidp.prune_ratio", ratio(skipped, g(keys::MAP_TASKS))),
        (
            "scidp.pushdown_mib_avoided",
            g(keys::PUSHDOWN_BYTES_AVOIDED) / MIB,
        ),
        ("scidp.vectorised_rows", g(keys::VECTORISED_ROWS)),
        ("scidp.images", l.images as f64),
    ])
}
