//! Figure 6: I/O bandwidth of SciDP vs HPC I/O methods, as the number of
//! parallel readers grows.
//!
//! Series (paper): NC Ind I/O < NC Coll I/O < SciDP < SciDP Equal ≲ MPI
//! Coll I/O. "SciDP Equal" divides the *raw* (decompressed) byte count by
//! the same elapsed time — the bandwidth equivalent of what was actually
//! delivered to the application. "MPI Coll" ignores the container
//! structure and reads the files as flat bytes: the ideal upper bound.
//!
//! Run: `cargo run --release -p scidp-bench --bin fig6 [--quick]`

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use scidp::SciSlabFetcher;
use scidp_bench::{eval_spec, quick_mode, quick_spec, DatasetPool};
use scifmt::SncFile;
use simnet::NodeId;

struct Workload {
    files: Vec<(
        String,
        Vec<scifmt::ChunkExtent>,
        Arc<scifmt::VarMeta>,
        usize,
    )>,
    compressed_logical: f64,
    raw_logical: f64,
}

fn build_workload(pool: &DatasetPool) -> Workload {
    let cluster = pool.fresh_cluster(8);
    let scale = cluster.sim.cost.scale;
    let mut files = Vec::new();
    let (mut comp, mut raw) = (0.0, 0.0);
    for path in &pool.dataset.info.files {
        let bytes = cluster.pfs.borrow().file(path).unwrap().data.clone();
        let f = SncFile::open(bytes.as_ref().clone()).unwrap();
        let var = Arc::new(f.meta().var("QR").unwrap().clone());
        let exts = f.chunk_extents("QR").unwrap();
        comp += var.stored_size() as f64 * scale;
        raw += var.raw_size() as f64 * scale;
        files.push((path.clone(), exts, var, f.meta().data_offset));
    }
    Workload {
        files,
        compressed_logical: comp,
        raw_logical: raw,
    }
}

/// Run `readers` MPI processes, each draining its queue of
/// `(file, offset, len, post_delay)` reads sequentially; all processes in
/// parallel. Returns the time the slowest process finishes.
fn chained_reads(pool: &DatasetPool, queues: Vec<Vec<(String, usize, usize, f64)>>) -> f64 {
    let mut cluster = pool.fresh_cluster(8);
    let nodes = cluster.topo.n_compute();
    let end = Rc::new(RefCell::new(0.0f64));

    fn step(
        sim: &mut simnet::Sim,
        topo: simnet::Topology,
        pfs: pfs::SharedPfs,
        queue: Rc<Vec<(String, usize, usize, f64)>>,
        idx: usize,
        node: NodeId,
        end: Rc<RefCell<f64>>,
    ) {
        if idx >= queue.len() {
            let now = sim.now().secs();
            let mut e = end.borrow_mut();
            if now > *e {
                *e = now;
            }
            return;
        }
        let (path, off, len, post) = queue[idx].clone();
        let topo2 = topo.clone();
        let pfs2 = pfs.clone();
        pfs::read_at(sim, &topo, &pfs, node, &path, off, len, move |sim, _| {
            sim.after(post, move |sim| {
                step(sim, topo2, pfs2, queue, idx + 1, node, end);
            });
        })
        .unwrap();
    }

    for (i, q) in queues.into_iter().enumerate() {
        let node = NodeId((i % nodes) as u32);
        step(
            &mut cluster.sim,
            cluster.topo.clone(),
            cluster.pfs.clone(),
            Rc::new(q),
            0,
            node,
            end.clone(),
        );
    }
    cluster.run();
    let elapsed = *end.borrow();
    elapsed
}

/// NC independent I/O: row-granular chunk reads (the request shape
/// `nc_get_vara` issues without collective buffering), decode included.
fn nc_ind(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    let cluster = pool.fresh_cluster(8);
    let decode_per_byte = cluster.sim.cost.decompress_per_byte;
    let scale = cluster.sim.cost.scale;
    let mut queues: Vec<Vec<(String, usize, usize, f64)>> = vec![Vec::new(); readers];
    let mut r = 0usize;
    for (path, exts, _, _) in &w.files {
        for e in exts {
            let sub = e.shape[0].max(1);
            let decode = e.rlen as f64 * scale * decode_per_byte / sub as f64;
            let step = (e.clen as usize).div_ceil(sub);
            let mut off = e.offset as usize;
            let end_off = (e.offset + e.clen) as usize;
            while off < end_off {
                let l = step.min(end_off - off);
                queues[r % readers].push((path.clone(), off, l, decode));
                off += l;
            }
            r += 1;
        }
    }
    chained_reads(pool, queues)
}

/// NC collective I/O: collective buffering coalesces the per-rank requests
/// into one even contiguous span of the variable region per rank per file;
/// decode still paid per rank.
fn nc_coll(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    let cluster = pool.fresh_cluster(8);
    let decode_per_byte = cluster.sim.cost.decompress_per_byte;
    let scale = cluster.sim.cost.scale;
    let mut queues: Vec<Vec<(String, usize, usize, f64)>> = vec![Vec::new(); readers];
    for (path, exts, var, _) in &w.files {
        let lo = exts.first().map(|e| e.offset as usize).unwrap_or(0);
        let hi = exts
            .last()
            .map(|e| (e.offset + e.clen) as usize)
            .unwrap_or(0);
        let span = (hi - lo).div_ceil(readers);
        let decode = var.raw_size() as f64 * scale * decode_per_byte / readers as f64;
        for (i, queue) in queues.iter_mut().enumerate() {
            let off = lo + i * span;
            let len = span.min((hi - lo).saturating_sub(i * span));
            if len > 0 {
                queue.push((path.clone(), off, len, decode));
            }
        }
    }
    chained_reads(pool, queues)
}

/// MPI Coll upper bound: structure-blind even spans of the whole files,
/// nothing decoded.
fn mpi_coll(pool: &DatasetPool, readers: usize) -> f64 {
    let cluster = pool.fresh_cluster(8);
    let mut queues: Vec<Vec<(String, usize, usize, f64)>> = vec![Vec::new(); readers];
    for path in &pool.dataset.info.files {
        let len = cluster.pfs.borrow().len_of(path).unwrap();
        let span = len.div_ceil(readers);
        for (i, queue) in queues.iter_mut().enumerate() {
            let off = i * span;
            let l = span.min(len.saturating_sub(off));
            if l > 0 {
                queue.push((path.clone(), off, l, 0.0));
            }
        }
    }
    chained_reads(pool, queues)
}

/// SciDP: chunk-aligned PFS-reader fetches drained by `readers` concurrent
/// workers (decode included in elapsed, as the paper's SciDP series does).
fn scidp_read(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    let mut cluster = pool.fresh_cluster(8);
    let nodes = cluster.topo.n_compute();
    let env = cluster.env();
    let mut tasks: Vec<SciSlabFetcher> = Vec::new();
    for (path, exts, var, off) in &w.files {
        for e in exts {
            tasks.push(SciSlabFetcher {
                pfs_path: path.clone(),
                var: var.clone(),
                data_offset: *off,
                start: e.origin.clone(),
                count: e.shape.clone(),
                // Bandwidth series reads every chunk exactly once; a cache
                // would only distort the measured I/O.
                cache: Arc::new(scifmt::ChunkCache::new(0)),
                pushdown: None,
                cluster_admit: None,
            });
        }
    }
    let tasks = Rc::new(RefCell::new(tasks));
    let active = Rc::new(RefCell::new(0usize));
    let end = Rc::new(RefCell::new(0.0f64));

    fn pump(
        sim: &mut simnet::Sim,
        env: mapreduce::MrEnv,
        tasks: Rc<RefCell<Vec<SciSlabFetcher>>>,
        active: Rc<RefCell<usize>>,
        end: Rc<RefCell<f64>>,
        node: NodeId,
    ) {
        let t = tasks.borrow_mut().pop();
        match t {
            None => {
                if *active.borrow() == 0 {
                    let now = sim.now().secs();
                    let mut e = end.borrow_mut();
                    if now > *e {
                        *e = now;
                    }
                }
            }
            Some(f) => {
                *active.borrow_mut() += 1;
                let env2 = env.clone();
                let tasks2 = tasks.clone();
                let active2 = active.clone();
                let end2 = end.clone();
                use mapreduce::SplitFetcher as _;
                let stream = f.open_stream(&env, sim, node);
                mapreduce::read_whole(
                    stream,
                    &env,
                    sim,
                    node,
                    Box::new(move |sim, fr| {
                        let fr = fr.expect("fig6 fetch runs without fault injection");
                        let decode: f64 = fr.charges.iter().map(|(_, s)| s).sum();
                        sim.after(decode, move |sim| {
                            *active2.borrow_mut() -= 1;
                            pump(sim, env2, tasks2, active2, end2, node);
                        });
                    }),
                );
            }
        }
    }

    for r in 0..readers {
        pump(
            &mut cluster.sim,
            env.clone(),
            tasks.clone(),
            active.clone(),
            end.clone(),
            NodeId((r % nodes) as u32),
        );
    }
    cluster.run();
    let elapsed = *end.borrow();
    elapsed
}

fn main() {
    let spec = if quick_mode() {
        quick_spec(8)
    } else {
        eval_spec(16)
    };
    let pool = DatasetPool::generate(spec, "nuwrf");
    let w = build_workload(&pool);
    let readers_list: &[usize] = if quick_mode() {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    println!("Figure 6: I/O bandwidth (GB/s, logical) vs number of readers");
    println!(
        "workload: QR variable of {} files ({:.1} GB compressed, {:.1} GB raw, logical)",
        w.files.len(),
        w.compressed_logical / 1e9,
        w.raw_logical / 1e9
    );
    println!();
    println!("| readers | NC Ind | NC Coll | SciDP | SciDP Equal | MPI Coll |");
    println!("|---------|--------|---------|-------|-------------|----------|");
    // Flat MPI Coll reads every byte of every file (all variables).
    let flat_bytes: f64 = {
        let c = pool.fresh_cluster(8);
        let scale = c.sim.cost.scale;
        pool.dataset
            .info
            .files
            .iter()
            .map(|p| c.pfs.borrow().len_of(p).unwrap() as f64 * scale)
            .sum()
    };
    for &n in readers_list {
        let t_ind = nc_ind(&pool, &w, n);
        let t_coll = nc_coll(&pool, &w, n);
        let t_scidp = scidp_read(&pool, &w, n);
        let t_flat = mpi_coll(&pool, n);
        let gb = |bytes: f64, t: f64| if t <= 0.0 { 0.0 } else { bytes / t / 1e9 };
        println!(
            "| {:>7} | {:>6.2} | {:>7.2} | {:>5.2} | {:>11.2} | {:>8.2} |",
            n,
            gb(w.compressed_logical, t_ind),
            gb(w.compressed_logical, t_coll),
            gb(w.compressed_logical, t_scidp),
            gb(w.raw_logical, t_scidp),
            gb(flat_bytes, t_flat),
        );
    }
    println!();
    println!("(paper shape: bandwidth grows with readers; NC Ind flattest; SciDP Equal");
    println!(" approaches the flat MPI Coll upper bound at high reader counts)");
}
