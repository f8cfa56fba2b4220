//! Two-clock benchmark of the SciDP reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path twoclock/Cargo.toml -- \
//!     --workload <img_pfs|sql_pushdown|stats_dag> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload over several datasets until about
//! `--seconds` after start (staging and reference runs included), times
//! it on the reference clock of `refclock`, checks every committed output,
//! and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics from a traced run (`--trace 1`). The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Provenance, the deterministic/host split and (when traced) a Chrome
//! trace-event file go under `.bench_out/`.

mod kernels;
mod metrics;
mod refclock;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use metrics::{median, Clock, Metrics, END_TO_END, PER_LAYER};
use refclock::{Kernel, Sample};
use trace::Tracer;
use workloads::{Kind, Pass, Reference, Staged, Workload};

/// One dataset of a run: its workload, staged files and expected outputs.
struct Dataset {
    w: Workload,
    staged: Staged,
    reference: Reference,
}

/// The seed of dataset `j` of a run: `--seed` itself for the first.
fn dataset_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&(j as u64).to_le_bytes());
    scirng::hash64(&bytes)
}

const SCHEMA: u32 = 2;
/// Datasets per run, each from its own seed derived from `--seed`. The
/// host cost of a pass differs from one dataset to the next by up to a
/// third (for `stats_dag`, 0.70 s against 0.50 s of wall time for the
/// same counts), so a run averages over several. `setup_s` is the median
/// of their stagings.
const DATASETS: usize = 8;
/// Fewest passes per dataset a median is taken over, whatever `--seconds`
/// says.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 400;
/// Seconds kept back from a traced run's budget for the layer kernels.
const KERNEL_RESERVE_S: f64 = 3.0;
const OUT_DIR: &str = ".bench_out";
const USAGE: &str =
    "usage: twoclock --workload <img_pfs|sql_pushdown|stats_dag> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // One thread: the codec's worker threads would share the host's two
    // vCPUs with the rest of the machine, and the reference kernel
    // (`refclock`) tracks the speed of the vCPU it runs on only for work on
    // that same thread. Set before any thread starts.
    std::env::set_var("SCIDP_THREADS", "1");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twoclock: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twoclock: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Passes round-robin over the datasets until `until_s` seconds after
/// `start` (at least `MIN_PASSES` each), grouped by dataset.
fn passes(
    sets: &[Dataset],
    tr: &Rc<Tracer>,
    kernel: &mut Kernel,
    start: Instant,
    until_s: f64,
) -> Result<Vec<Vec<Pass>>, String> {
    let mut out: Vec<Vec<Pass>> = sets.iter().map(|_| Vec::new()).collect();
    let mut n = 0;
    while n < MIN_PASSES * sets.len() || (start.elapsed().as_secs_f64() < until_s && n < MAX_PASSES)
    {
        let j = n % sets.len();
        let d = &sets[j];
        tr.set_run(n as u32);
        let mut p = d.w.pass(&d.staged, &d.reference, tr, kernel)?;
        p.peak_rss_mib = peak_rss_mib()?;
        out[j].push(p);
        n += 1;
    }
    Ok(out)
}

/// Determinism gate: simulated time and every count must repeat exactly
/// on every pass of one seed. A difference is a failure, never averaged.
fn gate(all: &[&Pass]) -> Result<(), String> {
    let Some(first) = all.first() else {
        return Ok(());
    };
    for (i, p) in all.iter().enumerate().skip(1) {
        for (k, v) in &first.det {
            let got = p.det.get(k).copied();
            if got.map(f64::to_bits) != Some(v.to_bits()) {
                return Err(format!(
                    "determinism gate: {k} is {v} on pass 0 but {got:?} on pass {i}"
                ));
            }
        }
    }
    Ok(())
}

/// The committed outputs of every pass must match the first pass's.
fn check_repeat(all: &mut [Pass]) {
    let Some(first) = all.first().map(|p| p.digests.clone()) else {
        return;
    };
    for (i, p) in all.iter_mut().enumerate().skip(1) {
        for (op, (got, want)) in p.digests.iter().zip(&first).enumerate() {
            if got != want && p.failed < p.ops {
                p.failed += 1;
                p.failures.push(format!(
                    "pass {i} operation {op}: output {got:016x} differs from pass 0's {want:016x}"
                ));
            }
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let tracer = Tracer::new(args.trace);
    let mut kernel = Kernel::new();
    let mut sets = Vec::new();
    let mut setup_times = Vec::new();
    for j in 0..DATASETS {
        let w = Workload::full(args.kind, dataset_seed(args.seed, j));
        let (staged, t) = kernel.timed(|| w.stage(&tracer));
        setup_times.push(t);
        let reference = w.reference(&staged)?;
        sets.push(Dataset {
            w,
            staged,
            reference,
        });
    }
    let end_s = args.seconds - if args.trace { KERNEL_RESERVE_S } else { 0.0 };
    let untraced_until = if args.trace {
        let now = start.elapsed().as_secs_f64();
        now + (end_s - now) / 2.0
    } else {
        end_s
    };
    let quiet = Tracer::new(false);
    let mut plain = passes(&sets, &quiet, &mut kernel, start, untraced_until)?;
    // Peak over staging, the reference runs and the first round of passes:
    // the later passes repeat that work, and only heap fragmentation would
    // grow it.
    let peak_rss = plain
        .iter()
        .filter_map(|ps| ps.first())
        .map(|p| p.peak_rss_mib)
        .fold(0.0, f64::max);
    let (mut traced, kernel_metrics) = if args.trace {
        let t = passes(&sets, &tracer, &mut kernel, start, end_s)?;
        tracer.set_run(t.iter().map(Vec::len).sum::<usize>() as u32);
        (t, kernels::run(&sets[0].w, &sets[0].staged, &tracer)?)
    } else {
        (Vec::new(), Metrics::new())
    };
    for ps in plain.iter_mut().chain(traced.iter_mut()) {
        check_repeat(ps);
    }
    for (j, ps) in plain.iter().enumerate() {
        let all: Vec<&Pass> = ps
            .iter()
            .chain(traced.get(j).into_iter().flatten())
            .collect();
        gate(&all)?;
    }
    let all: Vec<&Pass> = plain.iter().chain(&traced).flatten().collect();

    let attempted: u64 = all.iter().map(|p| p.ops).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    // Per dataset the median pass, then the mean over datasets: every
    // dataset weighs the same however many passes it got.
    let mean_of = |groups: &[Vec<Pass>], f: &dyn Fn(&[Pass]) -> f64| -> f64 {
        groups.iter().map(|ps| f(ps)).sum::<f64>() / groups.len().max(1) as f64
    };
    let host_of = |ps: &[Pass]| median_scaled(&ps.iter().map(|p| p.time).collect::<Vec<_>>());
    let host_s = mean_of(&plain, &host_of);
    let virtual_s = mean_of(&plain, &|ps| {
        ps.first()
            .and_then(|p| p.det.get("virtual_s").copied())
            .unwrap_or(0.0)
    });
    let det = &plain[0][0].det;
    let e2e = Metrics::from([
        ("setup_s", median_scaled(&setup_times)),
        ("host_s", host_s),
        ("virtual_s", virtual_s),
        ("peak_rss_mib", peak_rss),
    ]);

    let mut layer = Metrics::new();
    if args.trace {
        for l in &PER_LAYER {
            let v = match l.clock {
                Clock::Det => det.get(l.name).copied(),
                Clock::Host => kernel_metrics.get(l.name).copied().or_else(|| {
                    let vals: Vec<f64> = traced
                        .iter()
                        .flatten()
                        .filter_map(|p| p.host.get(l.name).copied())
                        .collect();
                    (!vals.is_empty()).then(|| median(&vals))
                }),
            };
            if let Some(v) = v {
                layer.insert(l.name, v);
            }
        }
        let generate: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "wrfgen.generate_dataset")
            .map(trace::Span::dur_s)
            .collect();
        layer.insert("wrfgen.generate_s", median(&generate));
        layer.insert(
            "bench.trace_overhead_s",
            mean_of(&traced, &host_of) - host_s,
        );
        layer.insert("bench.error_rate", error_rate);
        if let Some(missing) = PER_LAYER.iter().find(|l| !layer.contains_key(l.name)) {
            return Err(format!(
                "per-layer metric {} was not measured",
                missing.name
            ));
        }
    }

    let walls = |ts: &[Sample]| median(&ts.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let pass_times: Vec<Sample> = plain.iter().flatten().map(|p| p.time).collect();
    let refs: Vec<f64> = setup_times
        .iter()
        .chain(&pass_times)
        .map(|t| t.ref_s)
        .collect();
    let raw = Metrics::from([
        ("setup_wall_s", walls(&setup_times)),
        (
            "host_wall_s",
            mean_of(&plain, &|ps| {
                walls(&ps.iter().map(|p| p.time).collect::<Vec<_>>())
            }),
        ),
        ("ref_kernel_s", median(&refs)),
    ]);
    let summary = Summary {
        e2e,
        raw,
        layer,
        error_rate,
        failed,
        attempted,
        flags: plain
            .iter()
            .zip(&sets)
            .filter_map(|(ps, d)| Some((ps.first()?, d.w.spec.seed)))
            .flat_map(|(p, seed)| {
                p.flags
                    .iter()
                    .map(move |f| format!("dataset seed {seed}: {f}"))
            })
            .collect(),
        failures: all
            .iter()
            .flat_map(|p| p.failures.iter().cloned())
            .collect(),
    };
    let seeds: Vec<u64> = sets.iter().map(|d| d.w.spec.seed).collect();
    let prov = provenance(args, &seeds);
    print_human(args, &seeds, &plain, &traced, &summary);
    println!("provenance: {prov}");
    write_results(args, &prov, &plain[0][0], &summary)?;
    if args.trace {
        write_file(
            &format!("trace-{}.json", args.kind.name()),
            &tracer.chrome_json(),
        )?;
    }

    let listed: Vec<(&'static str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|l| (l.name, summary.layer[l.name]))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, summary.e2e[m.name]))
            .collect()
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics::metrics_json(&listed)?
    ))
}

/// What one run measured, ready to print.
struct Summary {
    e2e: Metrics,
    /// Unscaled medians: wall seconds of staging and passes, and of the
    /// reference kernel.
    raw: Metrics,
    /// Per-layer metrics (traced runs only).
    layer: Metrics,
    error_rate: f64,
    failed: u64,
    attempted: u64,
    flags: Vec<String>,
    failures: Vec<String>,
}

fn print_human(args: &Args, seeds: &[u64], plain: &[Vec<Pass>], traced: &[Vec<Pass>], s: &Summary) {
    let count = |g: &[Vec<Pass>]| g.iter().map(Vec::len).sum::<usize>();
    println!(
        "twoclock {} seed {}: {} untraced pass(es), {} traced, over {} datasets",
        args.kind.name(),
        args.seed,
        count(plain),
        count(traced),
        seeds.len()
    );
    let list = |ps: &[Pass]| -> String {
        let v: Vec<String> = ps
            .iter()
            .map(|p| format!("{:.3}/{:.1}", p.time.wall_s, p.time.ref_s * 1e3))
            .collect();
        v.join(" ")
    };
    for (j, ps) in plain.iter().enumerate() {
        println!(
            "  dataset seed {}: wall s / reference kernel ms per pass: [{}]",
            seeds[j],
            list(ps)
        );
        if let Some(t) = traced.get(j) {
            println!("    traced: [{}]", list(t));
        }
    }
    for m in &END_TO_END {
        println!("  {:<14} {:>14.6} {}", m.name, s.e2e[m.name], m.unit);
    }
    for (k, v) in &s.raw {
        println!("  {k:<14} {v:>14.6} s (unscaled)");
    }
    println!(
        "  {:<14} {:>14.6} ratio ({} of {} operations failed)",
        "error_rate", s.error_rate, s.failed, s.attempted
    );
    for l in &PER_LAYER {
        if let Some(v) = s.layer.get(l.name) {
            println!("  {:<34} {v:>16.6} {}", l.name, l.unit);
        }
    }
    for f in &s.flags {
        println!("FLAG: {f}");
    }
    for f in &s.failures {
        println!("FAILED: {f}");
    }
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn json_obj(m: &Metrics) -> String {
    let parts: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", parts.join(", "))
}

/// The run's record under `.bench_out/`: provenance, then deterministic
/// fields (simulated time, counts, sizes, output digests) apart from host
/// fields (wall-clock seconds, rates, memory).
fn write_results(args: &Args, prov: &str, first: &Pass, s: &Summary) -> Result<(), String> {
    let mut det = first.det.clone();
    let mut host = s.e2e.clone();
    host.remove("virtual_s");
    host.extend(s.raw.iter());
    for (k, v) in &s.layer {
        if metrics::layer_clock(k) == Some(Clock::Host) {
            host.insert(k, *v);
        } else {
            det.insert(k, *v);
        }
    }
    let digests: Vec<String> = first.digests.iter().map(|d| format!("{d:016x}")).collect();
    let body = format!(
        "{{\"provenance\": {prov}, \"deterministic\": {}, \"output_digests\": {}, \"host\": {}, \"error_rate\": {}, \"flags\": {}, \"failures\": {}}}\n",
        json_obj(&det),
        json_str_list(&digests),
        json_obj(&host),
        s.error_rate,
        json_str_list(&s.flags),
        json_str_list(&s.failures),
    );
    write_file(
        &format!(
            "{}-seed{}-trace{}.json",
            args.kind.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &body,
    )
}

fn write_file(name: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))
}

/// Commit (when run from a git checkout), a digest of the measured
/// sources, core and codec-thread counts, seeds and schema.
fn provenance(args: &Args, seeds: &[u64]) -> String {
    let commit = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"schema\": {SCHEMA}, \"workload\": \"{}\", \"seed\": {}, \"dataset_seeds\": {:?}, \"trace\": {}, \"seconds\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"cores\": {cores}, \"codec_threads\": {}}}",
        args.kind.name(),
        args.seed,
        seeds,
        args.trace,
        args.seconds,
        commit.as_deref().unwrap_or("unknown"),
        source_digest().map_or_else(|| "unknown".to_string(), |d| format!("{d:016x}")),
        scifmt::par::default_threads(),
    )
}

/// Digest of every `.rs` and `Cargo.toml` under `crates/` and the
/// benchmark, in path order: identifies the measured code without git.
fn source_digest() -> Option<u64> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("twoclock/src"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&f).ok()?);
    }
    Some(scirng::hash64(&bytes))
}

/// Median of the samples at the nominal host speed.
fn median_scaled(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|t| t.scaled_s()).collect::<Vec<_>>())
}

/// Peak resident set of this process (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn workload_names_match_the_catalogue() {
        assert_eq!(Kind::ALL.map(Kind::name), metrics::WORKLOADS);
    }

    #[test]
    fn cli_parses_the_driver_invocation() {
        let a = args("--workload stats_dag --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.kind, Kind::StatsDag);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload img_pfs --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload img_pfs --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn dataset_seeds_start_at_the_run_seed_and_differ() {
        let seeds: Vec<u64> = (0..DATASETS).map(|j| dataset_seed(7, j)).collect();
        assert_eq!(seeds[0], 7);
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), DATASETS);
        assert_eq!(dataset_seed(7, 3), seeds[3]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=960).map(f64::from).collect();
        let (pct, val) = workloads::tail(&v).expect("enough samples");
        assert_eq!(pct, 98.0);
        assert_eq!(val, 941.0);
        assert!(workloads::tail(&v[..19]).is_none());
    }

    /// A smoke-size run of every workload, untraced and traced, finishes
    /// without a failed operation and repeats its deterministic metrics.
    #[test]
    fn smoke_runs_are_correct_and_repeat() {
        for kind in Kind::ALL {
            let w = Workload::smoke(kind, 11);
            let tracer = Tracer::new(true);
            let staged = w.stage(&tracer);
            let r = w.reference(&staged).expect("reference");
            let mut kernel = Kernel::new();
            let plain = w
                .pass(&staged, &r, &Tracer::new(false), &mut kernel)
                .expect("untraced pass");
            let traced = w
                .pass(&staged, &r, &tracer, &mut kernel)
                .expect("traced pass");
            for p in [&plain, &traced] {
                assert_eq!(p.failed, 0, "{}: {:?}", kind.name(), p.failures);
                assert_eq!(p.det["bench.error_rate"], 0.0);
                assert!(p.det["virtual_s"] > 0.0);
            }
            assert_eq!(plain.digests, traced.digests, "{}", kind.name());
            gate(&[&plain, &traced]).expect("deterministic");
            let k = kernels::run(&w, &staged, &tracer).expect("kernels");
            assert!(k.values().all(|v| v.is_finite() && *v > 0.0), "{k:?}");
            if kind == Kind::ImgPfs {
                assert!(traced.host["mapreduce.user_fn_s"] > 0.0);
            }
        }
    }
}
