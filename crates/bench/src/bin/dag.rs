//! DAG execution benchmark: a 3-stage shuffle pipeline, clean vs a node
//! kill recovered by lineage recompute.
//!
//! The pipeline counts byte values of a flat PFS file, merges the counts
//! per key (shuffle 1), re-keys by parity, and rolls the groups up
//! (shuffle 2). The faulted run kills one node the instant the final stage
//! starts — after the first two stages fully committed — so recovery must
//! walk the lineage back and recompute exactly the lost partitions'
//! upstream chain, never the whole DAG.
//!
//! Results go to stdout as tables and to `BENCH_dag.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin dag [--quick]`

use std::collections::BTreeMap;
use std::rc::Rc;

use mapreduce::{
    counter_keys as keys, run_dag, Cluster, DagJob, DagResult, Dataset, FlatPfsFetcher, InputSplit,
    MrError, Payload, TaskInput,
};
use pfs::PfsConfig;
use scidp_bench::{fmt_s, fmt_x, quick_mode, row};
use simnet::{ClusterSpec, CostModel, FaultPlan};

const INPUT: &str = "data/dagbench.bin";

fn n_splits() -> u64 {
    if quick_mode() {
        8
    } else {
        16
    }
}

fn file_bytes() -> u64 {
    n_splits() * 4096
}

fn fresh_cluster() -> Cluster {
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
    let bytes: Vec<u8> = (0..file_bytes()).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

fn flat_splits() -> Vec<InputSplit> {
    let per = file_bytes() / n_splits();
    (0..n_splits())
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: INPUT.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks: 1,
            }),
        })
        .collect()
}

fn sum_values(values: Vec<Payload>) -> Result<Payload, MrError> {
    let mut total = 0u64;
    for v in values {
        let Payload::Bytes(b) = v else {
            return Err(MrError::msg("expected byte value"));
        };
        total += String::from_utf8_lossy(&b)
            .parse::<u64>()
            .map_err(|e| MrError::msg(format!("bad count: {e}")))?;
    }
    Ok(Payload::Bytes(total.to_string().into_bytes()))
}

/// count → per-key sum (4 partitions) → parity re-key → group sum (2).
fn pipeline() -> Dataset {
    Dataset::from_splits(
        flat_splits(),
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            for &x in &b {
                *counts.entry(x).or_default() += 1;
            }
            // A fixed per-task compute cost so stage shapes are visible.
            ctx.charge("compute", 2.0);
            Ok(counts
                .into_iter()
                .map(|(k, v)| (format!("b{k}"), Payload::Bytes(v.to_string().into_bytes())))
                .collect())
        }),
    )
    .reduce_by_key(4, Rc::new(|_k, values, _ctx| sum_values(values)))
    .map(Rc::new(|k, v, _ctx| {
        let id: u64 = k
            .strip_prefix('b')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| MrError::msg(format!("unexpected key {k:?}")))?;
        Ok(vec![(format!("g{}", id % 2), v)])
    }))
    .reduce_by_key(2, Rc::new(|_k, values, _ctx| sum_values(values)))
}

/// Committed part files under `dagout`, sorted, for byte-identity checks.
fn read_output(c: &Cluster) -> Vec<(String, Vec<u8>)> {
    let mut files = c.read_hdfs_dir("dagout").unwrap();
    files.retain(|(path, _)| !path.contains("/_"));
    files
}

fn run_with(plan: FaultPlan) -> (DagResult, Vec<(String, Vec<u8>)>) {
    let mut c = fresh_cluster();
    c.sim.faults.install(plan);
    let r = run_dag(&mut c, DagJob::new("dagbench", pipeline(), "dagout"))
        .expect("dag bench must survive its fault plan");
    let out = read_output(&c);
    (r, out)
}

fn stage_table(r: &DagResult) {
    println!(
        "{}",
        row(&[
            "run".into(),
            "stage".into(),
            "op".into(),
            "tasks".into(),
            "recomputed".into(),
            "ok".into(),
            "start".into(),
            "end".into(),
        ])
    );
    for (i, s) in r.runs.iter().enumerate() {
        println!(
            "{}",
            row(&[
                format!("{i}"),
                format!("s{}", s.stage),
                s.op.into(),
                format!("{}", s.n_tasks),
                format!("{}", s.recomputed),
                if s.ok { "yes".into() } else { "no".into() },
                fmt_s(s.start_s),
                fmt_s(s.end_s),
            ])
        );
    }
}

fn main() {
    println!(
        "dag: 3-stage count/merge/rollup pipeline, {} splits, 4 nodes x 2 slots",
        n_splits()
    );
    println!();

    let (clean, clean_out) = run_with(FaultPlan::none());
    assert_eq!(clean.counters.get(keys::STAGES_RUN), 3.0);
    assert_eq!(clean.counters.get(keys::LINEAGE_RECOMPUTES), 0.0);
    assert!(!clean_out.is_empty(), "pipeline committed output");
    println!(
        "clean run: {} over {} stages",
        fmt_s(clean.elapsed()),
        clean.n_stages
    );
    stage_table(&clean);

    // Kill a node the moment the final stage starts.
    let s2_start = clean
        .runs
        .iter()
        .find(|r| r.stage == clean.n_stages - 1)
        .map(|r| r.start_s)
        .expect("final stage ran");
    let (faulted, faulted_out) = run_with(FaultPlan::none().kill_node(1, s2_start + 1e-6));
    println!();
    println!(
        "node kill at final-stage start (t={}): {}",
        fmt_s(s2_start),
        fmt_s(faulted.elapsed())
    );
    stage_table(&faulted);

    // Recovery metrics — asserted, not just reported.
    let lost = faulted.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
    let recomputes = faulted.counters.get(keys::LINEAGE_RECOMPUTES);
    assert!(lost >= 2.0, "the kill must take committed shuffle outputs");
    assert_eq!(
        recomputes, lost,
        "lineage recovery recomputes exactly the lost once-committed partitions"
    );
    assert_eq!(
        faulted_out, clean_out,
        "recovered output must be byte-identical"
    );
    let recovery_tasks = faulted.tasks_executed() - faulted.total_tasks;
    let full_rerun_tasks = faulted.total_tasks;
    assert!(
        recovery_tasks < full_rerun_tasks,
        "recovery ({recovery_tasks} tasks) must beat a full re-run ({full_rerun_tasks})"
    );
    println!();
    println!(
        "recovery: {lost:.0} partitions lost, {recomputes:.0} lineage recomputes, \
         {recovery_tasks} recovery tasks vs {full_rerun_tasks} for a full re-run ({} saved)",
        fmt_x(full_rerun_tasks as f64 / recovery_tasks.max(1) as f64)
    );

    let runs_json = |r: &DagResult| {
        r.runs
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":{},\"op\":\"{}\",\"tasks\":{},\"recomputed\":{},\"ok\":{},\"start_s\":{:.6},\"end_s\":{:.6}}}",
                    s.stage, s.op, s.n_tasks, s.recomputed, s.ok, s.start_s, s.end_s
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\n  \"pipeline\": {{\"stages\": {}, \"total_tasks\": {}, \"splits\": {}}},\n  \"clean\": {{\"elapsed_s\": {:.6}, \"stages_run\": {:.0}, \"tasks_executed\": {}, \"runs\": [{}]}},\n  \"node_kill\": {{\"kill_at_s\": {:.6}, \"elapsed_s\": {:.6}, \"stages_run\": {:.0}, \"tasks_executed\": {}, \"shuffle_partitions_lost\": {:.0}, \"lineage_recomputes\": {:.0}, \"recovery_tasks\": {}, \"full_rerun_tasks\": {}, \"output_identical\": true, \"runs\": [{}]}}\n}}\n",
        clean.n_stages,
        clean.total_tasks,
        n_splits(),
        clean.elapsed(),
        clean.counters.get(keys::STAGES_RUN),
        clean.tasks_executed(),
        runs_json(&clean),
        s2_start + 1e-6,
        faulted.elapsed(),
        faulted.counters.get(keys::STAGES_RUN),
        faulted.tasks_executed(),
        lost,
        recomputes,
        recovery_tasks,
        full_rerun_tasks,
        runs_json(&faulted),
    );
    std::fs::write("BENCH_dag.json", &json).expect("write BENCH_dag.json");
    println!();
    println!("wrote BENCH_dag.json");
}
