//! PFS Reader: the in-task fetcher for scientific dummy blocks
//! (paper §III-A.3).
//!
//! Each map task spawns its own reader; the reader resolves its slab to the
//! intersecting compressed chunks and streams them as pieces, **one
//! whole-extent read per chunk** (SciDP "reads the entire block in a single
//! I/O request to maximize the bandwidth", vs. original Hadoop's 64 KB
//! record reads). The driver keeps a bounded window of chunk reads in
//! flight and decompresses each chunk as it lands, overlapped with the
//! reads still in flight; the stream then assembles the hyperslab into a
//! typed array (or, under pushdown, a filtered frame). Outside the driver,
//! [`mapreduce::read_whole`] issues every chunk read of a slab at once.
//! With many tasks running across nodes, many readers hit the PFS
//! concurrently — that aggregate parallel read is Figure 6's "SciDP"
//! series.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::counters::keys;
use mapreduce::{
    FetchPiece, FetchResult, MrEnv, MrError, PieceDone, PieceStream, SplitFetcher, TaskInput,
};
use rframe::{MatchBound, Predicate};
use scifmt::hyperslab;
use scifmt::snc::{assemble_slab, chunk_extents_of, ChunkCache, SncFile, DEFAULT_CACHE_BYTES};
use scifmt::VarMeta;
use simnet::{NodeId, Sim};

use crate::pushdown::{assemble_frame, chunk_col_stats};

/// One cache-miss chunk piece of a slab stream: a whole-extent PFS read,
/// verified end to end, then decoded and cached.
struct ChunkRead {
    env: MrEnv,
    node: NodeId,
    pfs_path: Rc<String>,
    idx: usize,
    offset: u64,
    clen: u64,
    rlen: u64,
    /// CRC-32C the SNC builder stored for this chunk's compressed frame.
    crc: u32,
    cache: Arc<ChunkCache>,
    file_key: u64,
    cluster_admit: Option<bool>,
    collected: Rc<RefCell<HashMap<usize, Arc<Vec<u8>>>>>,
    /// Integrity events of this chunk's read(s).
    events: Cell<hdfs::ReadEvents>,
    done: RefCell<Option<PieceDone>>,
}

impl ChunkRead {
    /// Issue (or re-issue) the timed PFS read of the chunk extent.
    fn issue(self: Rc<Self>, sim: &mut Sim, attempt: u32) {
        let st = self.clone();
        let res = pfs::read_at(
            sim,
            &self.env.topo,
            &self.env.pfs,
            self.node,
            &self.pfs_path,
            self.offset as usize,
            self.clen as usize,
            move |sim, frame| st.verify(sim, frame, attempt),
        );
        if let Err(e) = res {
            self.fail(sim, MrError::msg(format!("pfs: {e} ({})", self.pfs_path)));
        }
    }

    /// Fail the piece (once) from a fresh event.
    fn fail(&self, sim: &mut Sim, e: MrError) {
        if let Some(done) = self.done.borrow_mut().take() {
            sim.after(0.0, move |sim| done(sim, Err(e)));
        }
    }

    /// Verify the delivered frame against the stored CRC. A mismatch is
    /// detected corruption: the first one triggers exactly one re-read (a
    /// transient flip repairs — the store is clean); a second mismatch
    /// quarantines the chunk and fails the attempt with an
    /// `IntegrityError` rather than ever decoding wrong bytes.
    fn verify(self: Rc<Self>, sim: &mut Sim, frame: Vec<u8>, attempt: u32) {
        let mut ev = self.events.get();
        if scirng::crc32c(&frame) == self.crc {
            ev.verified_bytes += frame.len() as u64;
            ev.repaired += u64::from(attempt > 0);
            self.events.set(ev);
            self.decode(sim, &frame);
            return;
        }
        ev.detected += 1;
        self.events.set(ev);
        if attempt == 0 {
            self.issue(sim, 1);
            return;
        }
        self.cache.quarantine((self.file_key, self.offset));
        // The cluster tier must never outlive the quarantine: purge any
        // resident copy on every node and block re-admission.
        self.env
            .cluster_cache
            .quarantine((self.file_key, self.offset));
        self.fail(
            sim,
            MrError::msg(format!(
                "IntegrityError: chunk {} of {} failed crc32c verification twice; \
                 chunk quarantined",
                self.idx, self.pfs_path
            )),
        );
    }

    /// Decode the verified frame, cache it, and deliver the piece with its
    /// decompress charge and counters.
    fn decode(&self, sim: &mut Sim, frame: &[u8]) {
        let Some(done) = self.done.borrow_mut().take() else {
            return;
        };
        // Real decode of the real (verified) chunk bytes, timed for the
        // Fig. 7 Read/Convert decomposition.
        // scilint::allow(d-wallclock, reason = "measures real host decompress cost for the Fig. 7 diagnostic; never feeds back into virtual time")
        let t0 = std::time::Instant::now();
        let raw = match scifmt::codec::decompress(frame) {
            Ok(raw) => Arc::new(raw),
            Err(e) => {
                let e = MrError::msg(format!("snc chunk {} decode: {e:?}", self.idx));
                done(sim, Err(e));
                return;
            }
        };
        let decode_s = t0.elapsed().as_secs_f64();
        let key = (self.file_key, self.offset);
        self.cache.insert(key, raw.clone());
        // Placement-gated cluster admission: the decoded (verified) chunk
        // becomes node-local cluster state for every later job/stage. The
        // registry itself refuses quarantined or oversized entries and
        // no-ops while the tier is disabled.
        if let Some(pinned) = self.cluster_admit {
            self.env
                .cluster_cache
                .insert(self.node, key, raw.clone(), pinned);
        }
        self.collected.borrow_mut().insert(self.idx, raw);
        let mut counters = vec![
            (keys::CHUNK_CACHE_MISSES, 1.0),
            (keys::CODEC_DECODE_S, decode_s),
        ];
        counters.extend(mapreduce::read_event_counters(self.events.get()));
        let piece = FetchPiece {
            bytes: self.rlen,
            charges: vec![("decompress", sim.cost.decompress(self.rlen as usize))],
            counters,
        };
        done(sim, Ok(piece));
    }
}

/// Fetches one scientific dummy block (a variable hyperslab) from the PFS.
pub struct SciSlabFetcher {
    pub pfs_path: String,
    pub var: Arc<VarMeta>,
    /// Absolute offset of the container's data section.
    pub data_offset: usize,
    /// Element slab this block covers.
    pub start: Vec<usize>,
    pub count: Vec<usize>,
    /// Node-local decompressed-chunk cache shared by the job's fetchers.
    /// Chunks found here skip both the PFS read and the decompression
    /// charge (repeated overlapping hyperslabs of the same variable).
    pub cache: Arc<ChunkCache>,
    /// Pushdown predicate. When set, chunks whose zone maps prove no row
    /// can match are skipped before their PFS read is issued, and the
    /// result is delivered as the predicate-filtered coordinate+value
    /// frame ([`TaskInput::Frame`]) instead of the dense array.
    pub pushdown: Option<Arc<Predicate>>,
    /// Cluster-cache admission for this dataset, from the placement policy
    /// (see [`crate::placement`]): `None` = never admit (PFS-direct or
    /// HDFS-materialised datasets), `Some(pinned)` = admit decoded chunks,
    /// optionally pinned against LRU eviction. Lookups always happen when
    /// the tier is enabled — residual entries serve any dataset.
    pub cluster_admit: Option<bool>,
}

impl SplitFetcher for SciSlabFetcher {
    fn open_stream(&self, env: &MrEnv, sim: &mut Sim, node: NodeId) -> Box<dyn PieceStream> {
        let shape = self.var.shape();
        let ids =
            hyperslab::chunks_for_slab(&shape, &self.var.chunk_shape, &self.start, &self.count);
        let extents = chunk_extents_of(&self.var, self.data_offset);
        let file_key = ChunkCache::file_key(&self.pfs_path);
        // Zone-map pruning is only meaningful for real (rank >= 1) arrays;
        // a rank-0 variable keeps the dense path even under pushdown.
        let mut pushdown = match &self.pushdown {
            Some(pred) if !shape.is_empty() => Some(Pushdown {
                pred: pred.clone(),
                dims: self.var.dims.iter().map(|d| d.name.clone()).collect(),
                skipped: HashSet::new(),
                skipped_bytes: 0,
            }),
            _ => None,
        };
        let grid = hyperslab::chunk_grid(&shape, &self.var.chunk_shape);
        let collected: Rc<RefCell<HashMap<usize, Arc<Vec<u8>>>>> =
            Rc::new(RefCell::new(HashMap::new()));
        let stream = |pieces, pushdown, open_counters, open_charges| {
            Box::new(SlabPieceStream {
                pfs_path: Rc::new(self.pfs_path.clone()),
                var: self.var.clone(),
                start: self.start.clone(),
                count: self.count.clone(),
                cache: self.cache.clone(),
                file_key,
                cluster_admit: self.cluster_admit,
                open_counters,
                open_charges,
                pushdown,
                pieces,
                collected: collected.clone(),
            })
        };
        // A slab holding a chunk that a prior fetch proved unreadable (two
        // CRC failures), or one the header has no extent for (cannot come
        // out of chunks_for_slab), is doomed: stream that one failing piece
        // and nothing else, so the attempt fails at issue time without
        // moving a byte. The check runs before zone-map pruning, so
        // known-bad chunks fail identically with and without pushdown.
        let doomed = ids.iter().copied().find(|&i| {
            extents
                .get(i)
                .is_none_or(|e| self.cache.is_quarantined((file_key, e.offset)))
        });
        if let Some(i) = doomed {
            return stream(
                vec![SlabPiece::Quarantined(i)],
                None,
                Vec::new(),
                Vec::new(),
            );
        }
        let mut pieces = Vec::new();
        let mut hits = 0usize;
        let cluster_on = env.cluster_cache.enabled();
        let mut cluster_hits = 0usize;
        let mut cluster_misses = 0usize;
        // Raw (decompressed) bytes served from the cluster tier — charged
        // at memory speed — and compressed bytes whose PFS reads that
        // avoided.
        let mut cluster_hit_raw = 0u64;
        let mut cluster_avoided = 0u64;
        for &i in &ids {
            // Every extent exists: a missing one made the slab doomed above.
            let Some(ext) = extents.get(i) else {
                continue;
            };
            if let Some(pd) = &mut pushdown {
                // Prune before the cache lookup and before any PFS read:
                // a chunk whose zone map proves the predicate false for
                // every row contributes nothing to the filtered frame.
                let coords = hyperslab::unrank(&grid, i);
                let origin = hyperslab::chunk_origin(&coords, &self.var.chunk_shape);
                let cdim = hyperslab::chunk_shape_at(&coords, &self.var.chunk_shape, &shape);
                let elems: usize = cdim.iter().product();
                if let Some((is, ic)) =
                    hyperslab::intersect(&origin, &cdim, &self.start, &self.count)
                {
                    let stats = |col: &str| {
                        chunk_col_stats(&pd.dims, &is, &ic, ext.zone.as_ref(), elems as u64, col)
                    };
                    if pd.pred.prune(&stats) == MatchBound::None {
                        pd.skipped.insert(i);
                        pd.skipped_bytes += ext.clen;
                        continue;
                    }
                }
            }
            match self.cache.lookup((file_key, ext.offset)) {
                Some(raw) => {
                    collected.borrow_mut().insert(i, raw);
                    hits += 1;
                }
                // Job-cache miss: consult the cluster tier. Only residency
                // on the *executing* node is a hit (remote holders steer
                // the scheduler, they don't serve data); a hit is a
                // zero-read open-time piece of the slab.
                None => match env.cluster_cache.lookup(node, (file_key, ext.offset)) {
                    Some(raw) => {
                        // Seed the job cache so sibling fetchers of this
                        // job hit without another registry round.
                        self.cache.insert((file_key, ext.offset), raw.clone());
                        collected.borrow_mut().insert(i, raw);
                        cluster_hits += 1;
                        cluster_hit_raw += ext.rlen;
                        cluster_avoided += ext.clen;
                    }
                    None => {
                        if cluster_on {
                            cluster_misses += 1;
                        }
                        pieces.push(SlabPiece::Read {
                            idx: i,
                            offset: ext.offset,
                            clen: ext.clen,
                            rlen: ext.rlen,
                            crc: ext.crc,
                        });
                    }
                },
            }
        }
        // The cluster-tier counters only exist while the tier is live, so
        // every other workload's counter set is unchanged. `finish` has no
        // `Sim` handle, so the memory-copy charge of the cluster hits is
        // priced here.
        let mut open_counters = Vec::new();
        if hits > 0 {
            open_counters.push((keys::CHUNK_CACHE_HITS, hits as f64));
        }
        if cluster_on {
            open_counters.push((keys::CLUSTER_CACHE_HITS, cluster_hits as f64));
            open_counters.push((keys::CLUSTER_CACHE_MISSES, cluster_misses as f64));
            if cluster_avoided > 0 {
                open_counters.push((keys::PFS_BYTES_AVOIDED, cluster_avoided as f64));
            }
        }
        let mut open_charges = Vec::new();
        if cluster_hits > 0 {
            open_charges.push(("cache_read", sim.cost.cache_hit(cluster_hit_raw as usize)));
        }
        stream(pieces, pushdown, open_counters, open_charges)
    }

    fn cache_hints(&self) -> Vec<simnet::ChunkKey> {
        // The chunk keys this split will ask the cluster tier for — the
        // scheduler probes these against each node's registry shard to
        // place the map cache-local. Only computed when the tier is live
        // (the driver skips the call otherwise).
        let shape = self.var.shape();
        let ids =
            hyperslab::chunks_for_slab(&shape, &self.var.chunk_shape, &self.start, &self.count);
        let extents = chunk_extents_of(&self.var, self.data_offset);
        let file_key = ChunkCache::file_key(&self.pfs_path);
        ids.iter()
            .filter_map(|&i| extents.get(i).map(|e| (file_key, e.offset)))
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "scidp://{}#{}[{:?}+{:?}]",
            self.pfs_path, self.var.name, self.start, self.count
        )
    }
}

/// One piece of a streaming slab fetch.
#[derive(Clone, Copy)]
enum SlabPiece {
    /// Chunk quarantined by a prior fetch (or without an extent) — the
    /// doomed slab's only piece; fails the attempt at issue time with zero
    /// PFS traffic.
    Quarantined(usize),
    /// A cache-miss chunk: `(idx, offset, clen, rlen, crc)` read through
    /// the verify/repair machine, decoded and cached on arrival.
    Read {
        idx: usize,
        offset: u64,
        clen: u64,
        rlen: u64,
        crc: u32,
    },
}

/// Streaming view of a [`SciSlabFetcher`]: one piece per cache-miss chunk
/// that survived zone-map pruning (cache hits are collected at open and
/// cost nothing). Each piece runs the CRC verify → re-read repair →
/// quarantine machine, decodes its chunk on arrival (that is the per-piece
/// compute the driver overlaps with later reads), and
/// [`PieceStream::finish`] assembles the hyperslab — or, under pushdown,
/// its predicate-filtered frame.
struct SlabPieceStream {
    pfs_path: Rc<String>,
    var: Arc<VarMeta>,
    start: Vec<usize>,
    count: Vec<usize>,
    cache: Arc<ChunkCache>,
    file_key: u64,
    cluster_admit: Option<bool>,
    /// Counters and charges of the chunks served at open (cache hits),
    /// reported once by `finish`.
    open_counters: Vec<(&'static str, f64)>,
    open_charges: Vec<(&'static str, f64)>,
    /// Zone-map pruning done at open; `finish` delivers the filtered frame.
    pushdown: Option<Pushdown>,
    pieces: Vec<SlabPiece>,
    collected: Rc<RefCell<HashMap<usize, Arc<Vec<u8>>>>>,
}

/// A slab read under a pushdown predicate: which chunks their zone maps
/// pruned at open, and what the surviving chunks are filtered by.
struct Pushdown {
    pred: Arc<Predicate>,
    dims: Vec<String>,
    skipped: HashSet<usize>,
    /// Compressed bytes of the pruned chunks (reads never issued).
    skipped_bytes: u64,
}

impl PieceStream for SlabPieceStream {
    fn n_pieces(&self) -> usize {
        self.pieces.len()
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, piece: usize, done: PieceDone) {
        let (idx, offset, clen, rlen, crc) = match self.pieces.get(piece).copied() {
            None => {
                // The piece scheduler only issues indices < n_pieces().
                let e = MrError::msg(format!("piece {piece} out of range"));
                sim.after(0.0, move |sim| done(sim, Err(e)));
                return;
            }
            Some(SlabPiece::Quarantined(i)) => {
                let e = MrError::msg(format!(
                    "IntegrityError: chunk {i} of {} is quarantined",
                    self.pfs_path
                ));
                sim.after(0.0, move |sim| done(sim, Err(e)));
                return;
            }
            Some(SlabPiece::Read {
                idx,
                offset,
                clen,
                rlen,
                crc,
            }) => (idx, offset, clen, rlen, crc),
        };
        Rc::new(ChunkRead {
            env: env.clone(),
            node,
            pfs_path: self.pfs_path.clone(),
            idx,
            offset,
            clen,
            rlen,
            crc,
            cache: self.cache.clone(),
            file_key: self.file_key,
            cluster_admit: self.cluster_admit,
            collected: self.collected.clone(),
            events: Cell::new(hdfs::ReadEvents::default()),
            done: RefCell::new(Some(done)),
        })
        .issue(sim, 0);
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        let chunks = std::mem::take(&mut *self.collected.borrow_mut());
        // Dense array without pushdown; with pushdown, the surviving chunks
        // go straight into the slab's coordinate+value columns and the
        // predicate filter is applied vectorised.
        let (input, pushdown_counters) = match &self.pushdown {
            Some(pd) => {
                let frame = assemble_frame(
                    &self.var,
                    &pd.dims,
                    &self.start,
                    &self.count,
                    &chunks,
                    &pd.skipped,
                )
                .map_err(|e| MrError::msg(format!("snc pushdown assembly: {e}")))?;
                let rows = frame.n_rows();
                let mask = pd
                    .pred
                    .eval_mask(&frame)
                    .map_err(|e| MrError::msg(format!("pushdown predicate: {e}")))?;
                let frame = frame
                    .filter(&mask)
                    .map_err(|e| MrError::msg(format!("pushdown filter: {e}")))?;
                (
                    TaskInput::Frame(frame),
                    vec![
                        (keys::CHUNKS_SKIPPED_ZONEMAP, pd.skipped.len() as f64),
                        (keys::PUSHDOWN_BYTES_AVOIDED, pd.skipped_bytes as f64),
                        (keys::VECTORISED_ROWS, rows as f64),
                    ],
                )
            }
            None => {
                let array = assemble_slab(&self.var, &self.start, &self.count, |i| {
                    chunks
                        .get(&i)
                        .map(|a| a.as_slice())
                        .ok_or_else(|| scifmt::FmtError::NotFound(format!("chunk {i}")))
                })
                .map_err(|e| MrError::msg(format!("snc slab assembly: {e}")))?;
                (TaskInput::Array(array), Vec::new())
            }
        };
        let mut counters = self.open_counters.clone();
        counters.extend(pushdown_counters);
        Ok(FetchResult {
            input,
            charges: self.open_charges.clone(),
            counters,
            tag: String::new(),
        })
    }
}

/// A reader session: every [`SncFile`] opened through it shares ONE
/// content-keyed decompressed-chunk cache, instead of each open allocating
/// its own private [`DEFAULT_CACHE_BYTES`] cache. A converter or scan that
/// walks hundreds of files therefore holds `capacity` bytes of chunk
/// memory total — not `capacity × files` — and repeated chunks of the
/// *same* file opened twice actually hit (keys are content-derived, so a
/// re-open maps onto the already-resident entries).
pub struct ReaderSession {
    cache: Arc<ChunkCache>,
    files_opened: Cell<usize>,
}

impl Default for ReaderSession {
    /// A session with the per-file default capacity — now shared by every
    /// file instead of multiplied by them.
    fn default() -> ReaderSession {
        ReaderSession::new(DEFAULT_CACHE_BYTES)
    }
}

impl ReaderSession {
    pub fn new(cache_bytes: usize) -> ReaderSession {
        ReaderSession {
            cache: Arc::new(ChunkCache::new(cache_bytes)),
            files_opened: Cell::new(0),
        }
    }

    /// Open an SNC container backed by the session-shared cache.
    pub fn open(&self, bytes: impl Into<Arc<Vec<u8>>>) -> scifmt::Result<SncFile> {
        self.files_opened.set(self.files_opened.get() + 1);
        Ok(SncFile::open(bytes)?.with_cache(self.cache.clone()))
    }

    /// The shared cache (e.g. to hand to [`SciSlabFetcher`]s directly).
    pub fn cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    pub fn files_opened(&self) -> usize {
        self.files_opened.get()
    }

    /// The session's chunk-memory bound. This is the *effective* capacity
    /// no matter how many files are opened — report it once, not per file.
    pub fn effective_capacity(&self) -> usize {
        self.cache.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::Cluster;
    use pfs::PfsConfig;
    use scifmt::{Array, Codec, SncBuilder, SncFile};
    use simnet::{ClusterSpec, CostModel};

    fn cluster() -> Cluster {
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
        // Zero metadata overheads so byte accounting is exact in tests.
        let cost = CostModel {
            seek_s: 0.0,
            rpc_s: 0.0,
            ..CostModel::default()
        };
        Cluster::new(spec, pfs_cfg, 1 << 20, 1, cost)
    }

    /// Read a whole slab the way callers outside the driver do.
    fn fetch(
        f: &SciSlabFetcher,
        env: &MrEnv,
        sim: &mut Sim,
        node: NodeId,
        done: mapreduce::FetchDone,
    ) {
        let stream = f.open_stream(env, sim, node);
        mapreduce::read_whole(stream, env, sim, node, done);
    }

    fn stage_var(c: &mut Cluster) -> (Arc<VarMeta>, usize, Array) {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
            &[2, 8, 5],
            Codec::ShuffleLz { elem: 4 },
            full.clone(),
        )
        .unwrap();
        let bytes = b.finish();
        let f = SncFile::open(bytes.clone()).unwrap();
        let var = Arc::new(f.meta().var("QR").unwrap().clone());
        let off = f.meta().data_offset;
        c.pfs.borrow_mut().create("run/f.snc", bytes);
        (var, off, full)
    }

    #[test]
    fn reader_session_shares_one_cache_across_files() {
        // Two distinct containers opened through one session share a single
        // pool; re-opening the same container maps onto already-resident
        // entries (keys are content-derived).
        let build = |seed: f32| {
            let data: Vec<f32> = (0..2 * 4 * 3).map(|i| i as f32 + seed).collect();
            let full = Array::from_f32(vec![2, 4, 3], data).unwrap();
            let mut b = SncBuilder::new();
            b.add_var(
                "",
                "QR",
                &[("lev", 2), ("lat", 4), ("lon", 3)],
                &[2, 4, 3],
                Codec::ShuffleLz { elem: 4 },
                full,
            )
            .unwrap();
            b.finish()
        };
        let (b1, b2) = (build(0.0), build(100.0));
        let session = ReaderSession::new(1 << 20);
        let f1 = session.open(b1.clone()).unwrap();
        let f2 = session.open(b2).unwrap();
        assert!(Arc::ptr_eq(f1.cache(), f2.cache()), "one pool, two files");
        assert_eq!(session.files_opened(), 2);
        // Capacity is the session's bound, not capacity × files.
        assert_eq!(session.effective_capacity(), 1 << 20);
        f1.get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        f2.get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        let after_two = session.cache().stats().misses;
        assert!(after_two >= 2, "each file decoded its own chunk");
        // Re-open file 1: same content → same keys → pure hits.
        let f1b = session.open(b1).unwrap();
        f1b.get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        assert_eq!(session.cache().stats().misses, after_two);
        assert_eq!(session.files_opened(), 3);
    }

    #[test]
    fn fetch_assembles_exact_slab() {
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![1, 2, 0],
            count: vec![3, 4, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: None,
        };
        #[allow(clippy::type_complexity)]
        let got: Rc<RefCell<Option<(TaskInput, Vec<(&'static str, f64)>)>>> =
            Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetch(
            &fetcher,
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                let fr = fr.unwrap();
                *g.borrow_mut() = Some((fr.input, fr.charges));
            }),
        );
        c.run();
        let (input, charges) = got.borrow_mut().take().unwrap();
        let TaskInput::Array(a) = input else {
            panic!("expected array");
        };
        assert_eq!(a.shape(), &[3, 4, 5]);
        for l in 0..3 {
            for i in 0..4 {
                for j in 0..5 {
                    assert_eq!(a.at(&[l, i, j]), full.at(&[1 + l, 2 + i, j]));
                }
            }
        }
        // Levels 1..4 span chunks 0 and 1: one decompress charge each.
        assert_eq!(charges.len(), 2);
        assert!(charges.iter().all(|&(p, s)| p == "decompress" && s > 0.0));
    }

    #[test]
    fn chunk_aligned_slab_reads_only_its_chunks() {
        // A slab covering exactly chunk 1 (levels 2..4) must not read
        // chunks 0 or 2: admitted flow bytes stay well under the file size.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let chunk1 = var.chunks[1].clen as f64;
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: None,
        };
        let env = c.env();
        fetch(&fetcher, &env, &mut c.sim, NodeId(1), Box::new(|_, _| {}));
        c.run();
        let admitted = c.sim.net.bytes_admitted;
        // Only the selected chunk's bytes may move (seeks zeroed above).
        assert!(
            admitted <= chunk1 + 1.0,
            "read amplification: admitted {admitted}, chunk {chunk1}"
        );
        assert!(admitted >= chunk1 * 0.99);
    }

    #[test]
    fn shared_cache_skips_repeat_reads() {
        // Two fetchers of the same job share a cache: the second fetch of an
        // overlapping slab moves zero PFS bytes, charges no decompression,
        // and reports the hits through the fetch counters.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let cache = Arc::new(ChunkCache::default());
        let mk = |start: Vec<usize>, count: Vec<usize>| SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: var.clone(),
            data_offset: off,
            start,
            count,
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: None,
        };
        let env = c.env();
        let first = mk(vec![0, 0, 0], vec![4, 8, 5]); // chunks 0 and 1
        fetch(&first, &env, &mut c.sim, NodeId(0), Box::new(|_, _| {}));
        c.run();
        let bytes_after_first = c.sim.net.bytes_admitted;
        assert!(bytes_after_first > 0.0);

        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let second = mk(vec![1, 0, 0], vec![2, 8, 5]); // same two chunks
        fetch(
            &second,
            &env,
            &mut c.sim,
            NodeId(1),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        assert_eq!(
            c.sim.net.bytes_admitted, bytes_after_first,
            "cached fetch must not touch the PFS"
        );
        let fr = got.borrow_mut().take().unwrap().unwrap();
        assert!(fr.charges.is_empty(), "no decompression charge on hits");
        assert_eq!(fr.counters, vec![(keys::CHUNK_CACHE_HITS, 2.0)]);
        let TaskInput::Array(a) = fr.input else {
            panic!("expected array");
        };
        assert_eq!(a.at(&[0, 0, 0]), full.at(&[1, 0, 0]));
        assert_eq!(a.at(&[1, 7, 4]), full.at(&[2, 7, 4]));
    }

    #[test]
    fn miss_fetch_reports_counters() {
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![0, 0, 0],
            count: vec![6, 8, 5],
            cache: Arc::new(ChunkCache::default()),
            pushdown: None,
            cluster_admit: None,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetch(
            &fetcher,
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr.unwrap().counters);
            }),
        );
        c.run();
        let counters = got.borrow_mut().take().unwrap();
        let total = |key: &str| -> f64 {
            counters
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .sum()
        };
        assert_eq!(total(keys::CHUNK_CACHE_HITS), 0.0);
        assert_eq!(total(keys::CHUNK_CACHE_MISSES), 3.0);
        assert!(
            total(keys::CODEC_DECODE_S) > 0.0,
            "real decode time was measured"
        );
    }

    #[test]
    fn unaligned_slab_reads_extra_chunks() {
        // Levels 1..3 straddle chunks 0 and 1 → both chunks transferred.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let two_chunks = (var.chunks[0].clen + var.chunks[1].clen) as f64;
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![1, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: None,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetch(
            &fetcher,
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr.unwrap().input);
            }),
        );
        c.run();
        assert!(c.sim.net.bytes_admitted >= two_chunks * 0.9);
        // Assembly is still correct despite the misalignment.
        let Some(TaskInput::Array(a)) = got.borrow_mut().take() else {
            panic!()
        };
        assert_eq!(a.at(&[0, 0, 0]), full.at(&[1, 0, 0]));
    }

    #[test]
    fn transient_corruption_detected_and_repaired_by_reread() {
        // A silent flip on the first chunk read fails CRC verification; the
        // automatic re-read fetches clean bytes and the slab is delivered
        // bit-exact, with the events reported through the fetch counters.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let chunk1 = var.chunks[1].clen as f64;
        c.sim
            .faults
            .install(simnet::FaultPlan::none().corrupt_read("run/f.snc", 1));
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: None,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetch(
            &fetcher,
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let fr = got.borrow_mut().take().unwrap().expect("repaired fetch");
        let TaskInput::Array(a) = fr.input else {
            panic!("expected array");
        };
        for i in 0..8 {
            for j in 0..5 {
                assert_eq!(a.at(&[0, i, j]), full.at(&[2, i, j]));
            }
        }
        let counters: HashMap<_, _> = fr.counters.iter().copied().collect();
        assert_eq!(counters[keys::CORRUPTION_DETECTED], 1.0);
        assert_eq!(counters[keys::CORRUPTION_REPAIRED], 1.0);
        assert_eq!(counters[keys::CHECKSUM_VERIFIED_BYTES], chunk1);
        // The repair really moved the chunk a second time.
        assert!(
            c.sim.net.bytes_admitted >= chunk1 * 1.9,
            "expected two transfers of the chunk, admitted {}",
            c.sim.net.bytes_admitted
        );
    }

    #[test]
    fn persistent_corruption_quarantines_instead_of_wrong_data() {
        // Media corruption survives the re-read: the fetch must fail with a
        // typed IntegrityError (never deliver wrong bytes), quarantine the
        // chunk, and later fetches must fail fast without touching the PFS.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        c.sim
            .faults
            .install(simnet::FaultPlan::none().corrupt_read_persistent("run/f.snc", 1));
        let cache = Arc::new(ChunkCache::default());
        let mk = || SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: var.clone(),
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: None,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetch(
            &mk(),
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let err = match got.borrow_mut().take().unwrap() {
            Err(e) => e,
            Ok(_) => panic!("persistent corruption must fail the fetch"),
        };
        assert!(err.message().contains("IntegrityError"), "{err}");
        assert!(err.message().contains("quarantined"), "{err}");
        assert_eq!(cache.n_quarantined(), 1);

        // Second fetch: fast-fail on the quarantine list, zero PFS traffic.
        let bytes_before = c.sim.net.bytes_admitted;
        let got2 = Rc::new(RefCell::new(None));
        let g2 = got2.clone();
        fetch(
            &mk(),
            &env,
            &mut c.sim,
            NodeId(1),
            Box::new(move |_, fr| {
                *g2.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let err2 = match got2.borrow_mut().take().unwrap() {
            Err(e) => e,
            Ok(_) => panic!("quarantined chunk must fail the fetch"),
        };
        assert!(err2.message().contains("is quarantined"), "{err2}");
        assert_eq!(c.sim.net.bytes_admitted, bytes_before);
    }
}
