//! Input splits and fetchers — the `InputFormat`/`RecordReader` layer.
//!
//! A split names *where* its data lives (for locality scheduling) and
//! carries a [`SplitFetcher`] that, inside the task, opens the split's
//! [`PieceStream`]: the timed transfers, piece by piece, ending in a
//! [`TaskInput`]. The driver overlaps pieces still in flight with the
//! compute of those that have landed. A fetcher that moves its split in one
//! timed read implements [`OneShotFetcher`] and streams as a single piece;
//! [`read_whole`] fetches a whole split outside the driver. The engine
//! ships fetchers for HDFS blocks and flat PFS ranges (the PortHadoop
//! mapping); `scidp` adds the scientific-slab fetcher on top of its Data
//! Mapper.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{NodeId, Sim};

use crate::cluster::MrEnv;
use crate::job::{MrError, Payload};

/// Data delivered to a map function.
#[derive(Debug, Clone)]
pub enum TaskInput {
    /// Raw bytes (a text block, an HDFS block...).
    Bytes(Vec<u8>),
    /// A decoded scientific array (SciDP's PFS Reader output).
    Array(scifmt::Array),
    /// An already-built data frame.
    Frame(rframe::DataFrame),
    /// Shuffled key/value pairs delivered to a post-shuffle DAG stage.
    /// Each record is `(source tag, key, value)`; the tag tells joins
    /// which parent dataset the pair came from.
    Pairs(Vec<(u8, String, Payload)>),
}

impl TaskInput {
    /// Approximate real size in bytes (scheduling/accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            TaskInput::Bytes(b) => b.len(),
            TaskInput::Array(a) => a.len() * a.dtype().size(),
            TaskInput::Frame(f) => f.approx_bytes(),
            TaskInput::Pairs(ps) => ps
                .iter()
                .map(|(_, k, v)| 1 + k.len() + v.approx_bytes())
                .sum(),
        }
    }
}

/// Result of fetching a split: the data plus any compute charges the fetch
/// implies beyond the transfer itself (e.g. decompression).
pub struct FetchResult {
    pub input: TaskInput,
    /// `(phase name, virtual seconds)` charged after the transfer.
    pub charges: Vec<(&'static str, f64)>,
    /// `(counter key, amount)` added to the job counters (e.g. chunk-cache
    /// hits/misses, real codec seconds — see [`crate::counters::keys`]).
    pub counters: Vec<(&'static str, f64)>,
    /// Opaque split metadata forwarded to the map function via
    /// [`crate::TaskCtx::input_tag`] (e.g. which variable slab this is).
    pub tag: String,
}

impl FetchResult {
    /// A result with no extra charges, counters or tag.
    pub fn plain(input: TaskInput) -> FetchResult {
        FetchResult {
            input,
            charges: Vec::new(),
            counters: Vec::new(),
            tag: String::new(),
        }
    }
}

/// Completion callback of a whole-split fetch ([`OneShotFetcher::fetch`],
/// [`read_whole`]). An `Err` marks the *attempt* as failed — the driver
/// releases the slot and retries the task; fetchers must never panic on I/O
/// errors.
pub type FetchDone = Box<dyn FnOnce(&mut Sim, Result<FetchResult, MrError>)>;

/// One unit of a streaming fetch (see [`PieceStream`]).
///
/// A piece carries no payload bytes itself — the stream keeps the data
/// internally and assembles the full [`FetchResult`] in
/// [`PieceStream::finish`]. What the driver needs per piece is its weight
/// (to apportion map compute across the overlap timeline) and the charges
/// and counter deltas its transfer produced.
pub struct FetchPiece {
    /// Delivered weight of this piece in bytes (decompressed for codec
    /// fetchers). The driver attributes `bytes / Σ bytes` of the split-wide
    /// map compute to this piece when pipelining reads against compute.
    pub bytes: u64,
    /// `(phase name, virtual seconds)` of compute this piece's arrival
    /// implies (e.g. decompressing this one chunk).
    pub charges: Vec<(&'static str, f64)>,
    /// `(counter key, amount)` deltas (cache misses, codec seconds,
    /// integrity events) — attempt-local, exact under retries.
    pub counters: Vec<(&'static str, f64)>,
}

/// Completion callback of one [`PieceStream::fetch_piece`]. An `Err` kills
/// the attempt.
pub type PieceDone = Box<dyn FnOnce(&mut Sim, Result<FetchPiece, MrError>)>;

/// A split's fetch as a sequence of pieces. The driver pulls pieces in
/// index order through a bounded prefetch window, overlapping in-flight
/// reads with per-piece map compute, then calls [`PieceStream::finish`]
/// once all pieces have arrived to assemble the split's [`FetchResult`].
/// Callers outside the driver use [`read_whole`].
pub trait PieceStream {
    /// Number of pieces this stream will deliver (fixed at open time).
    fn n_pieces(&self) -> usize;

    /// Start the timed transfer of piece `idx`; call `done` exactly once.
    /// The driver issues pieces in index order, never more than the
    /// prefetch depth in flight at once.
    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, idx: usize, done: PieceDone);

    /// Assemble the final result after every piece has arrived. Charges and
    /// counters already reported on pieces must not be repeated here.
    fn finish(&self) -> Result<FetchResult, MrError>;
}

/// Fetches one split's data inside a running task.
pub trait SplitFetcher {
    /// Open the piece stream of this split's fetch on `node` — the only way
    /// the driver reaches a split's data. Opening moves no bytes; a split
    /// that cannot be read fails from its first piece.
    fn open_stream(&self, env: &MrEnv, sim: &mut Sim, node: NodeId) -> Box<dyn PieceStream>;

    /// Chunk keys this split would read from the cluster chunk-cache tier
    /// (`(content file key, chunk offset)` pairs — see
    /// [`simnet::ClusterCache`]). The scheduler uses them for *dynamic*
    /// cache locality: a pending map whose chunks are resident on a free
    /// node is preferred there over static split locality. The default —
    /// no hints — opts a fetcher out of cache-aware placement entirely.
    fn cache_hints(&self) -> Vec<simnet::ChunkKey> {
        Vec::new()
    }

    /// Human-readable description for traces.
    fn describe(&self) -> String;
}

/// A fetcher that delivers its whole split in one timed read. Every such
/// fetcher is a [`SplitFetcher`] whose stream has one piece: the piece
/// carries no bytes and no charges, and [`PieceStream::finish`] hands over
/// the fetch's result — so the driver's pipelined timeline reduces to
/// read-then-compute.
pub trait OneShotFetcher: Clone + 'static {
    /// Start the (timed) fetch on `node`; call `done` exactly once with the
    /// result (or the error that killed this attempt).
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone);

    /// Human-readable description for traces.
    fn describe(&self) -> String;
}

impl<F: OneShotFetcher> SplitFetcher for F {
    fn open_stream(&self, _env: &MrEnv, _sim: &mut Sim, _node: NodeId) -> Box<dyn PieceStream> {
        Box::new(OnePieceStream {
            fetcher: self.clone(),
            result: Rc::new(RefCell::new(None)),
        })
    }

    fn describe(&self) -> String {
        OneShotFetcher::describe(self)
    }
}

/// The one-piece stream of a [`OneShotFetcher`].
struct OnePieceStream<F> {
    fetcher: F,
    result: Rc<RefCell<Option<FetchResult>>>,
}

impl<F: OneShotFetcher> PieceStream for OnePieceStream<F> {
    fn n_pieces(&self) -> usize {
        1
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, _idx: usize, done: PieceDone) {
        let result = self.result.clone();
        self.fetcher.fetch(
            env,
            sim,
            node,
            Box::new(move |sim, fr| match fr {
                Ok(fr) => {
                    *result.borrow_mut() = Some(fr);
                    let piece = FetchPiece {
                        bytes: 0,
                        charges: Vec::new(),
                        counters: Vec::new(),
                    };
                    done(sim, Ok(piece));
                }
                Err(e) => done(sim, Err(e)),
            }),
        );
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        self.result
            .borrow_mut()
            .take()
            .ok_or_else(|| MrError::msg("one-shot fetch finished without a result"))
    }
}

/// Fetch a whole split outside the driver: issue every piece of `stream`
/// at once, then deliver one [`FetchResult`] whose charges and counters
/// are the pieces' (in piece order) followed by [`PieceStream::finish`]'s.
/// The first failing piece fails the fetch.
pub fn read_whole(
    stream: Box<dyn PieceStream>,
    env: &MrEnv,
    sim: &mut Sim,
    node: NodeId,
    done: FetchDone,
) {
    /// `done` until the fetch completes or fails, and the landed pieces.
    type Whole = RefCell<(Option<FetchDone>, Vec<Option<FetchPiece>>)>;
    fn deliver(sim: &mut Sim, stream: &dyn PieceStream, w: &Whole) {
        let (done, pieces) = {
            let mut w = w.borrow_mut();
            if w.1.iter().any(Option::is_none) {
                return;
            }
            let Some(done) = w.0.take() else {
                return;
            };
            (done, std::mem::take(&mut w.1))
        };
        let res = stream.finish().map(|mut fr| {
            let (mut charges, mut counters) = (Vec::new(), Vec::new());
            for p in pieces.into_iter().flatten() {
                charges.extend(p.charges);
                counters.extend(p.counters);
            }
            charges.append(&mut fr.charges);
            counters.append(&mut fr.counters);
            FetchResult {
                charges,
                counters,
                ..fr
            }
        });
        done(sim, res);
    }
    let stream: Rc<dyn PieceStream> = Rc::from(stream);
    let n = stream.n_pieces();
    let w: Rc<Whole> = Rc::new(RefCell::new((Some(done), (0..n).map(|_| None).collect())));
    if n == 0 {
        sim.after(0.0, move |sim| deliver(sim, &*stream, &w));
        return;
    }
    for idx in 0..n {
        let (stream2, w2) = (stream.clone(), w.clone());
        let piece_done: PieceDone = Box::new(move |sim, res| match res {
            Ok(p) => {
                if let Some(slot) = w2.borrow_mut().1.get_mut(idx) {
                    *slot = Some(p);
                }
                deliver(sim, &*stream2, &w2);
            }
            Err(e) => {
                let done = w2.borrow_mut().0.take();
                if let Some(done) = done {
                    done(sim, Err(e));
                }
            }
        });
        stream.fetch_piece(env, sim, node, idx, piece_done);
    }
}

/// The no-overlap reference for the streaming pipeline: `inner`'s stream
/// read whole by [`read_whole`] and handed to the driver as one piece —
/// the same reads, all issued at once, then all of the compute.
#[derive(Clone)]
pub struct Unpipelined(pub Rc<dyn SplitFetcher>);

impl OneShotFetcher for Unpipelined {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        read_whole(self.0.open_stream(env, sim, node), env, sim, node, done);
    }

    fn describe(&self) -> String {
        format!("unpipelined({})", self.0.describe())
    }
}

/// Wrap a stream so its assembled [`FetchResult`] carries `tag` — for
/// fetcher wrappers that re-tag their inner fetcher's result.
pub fn retag_stream(inner: Box<dyn PieceStream>, tag: String) -> Box<dyn PieceStream> {
    struct Retag {
        inner: Box<dyn PieceStream>,
        tag: String,
    }
    impl PieceStream for Retag {
        fn n_pieces(&self) -> usize {
            self.inner.n_pieces()
        }
        fn fetch_piece(
            &self,
            env: &MrEnv,
            sim: &mut Sim,
            node: NodeId,
            idx: usize,
            done: PieceDone,
        ) {
            self.inner.fetch_piece(env, sim, node, idx, done)
        }
        fn finish(&self) -> Result<FetchResult, MrError> {
            let mut fr = self.inner.finish()?;
            fr.tag = self.tag.clone();
            Ok(fr)
        }
    }
    Box::new(Retag { inner, tag })
}

/// One unit of map work.
#[derive(Clone)]
pub struct InputSplit {
    /// Real bytes this split covers (scheduling weight, counters).
    pub length: u64,
    /// Nodes holding the data (empty for PFS-backed splits — the paper's
    /// dummy blocks carry no locations).
    pub locations: Vec<NodeId>,
    pub fetcher: Rc<dyn SplitFetcher>,
}

impl std::fmt::Debug for InputSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputSplit")
            .field("length", &self.length)
            .field("locations", &self.locations)
            .field("fetcher", &self.fetcher.describe())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// HDFS block fetcher
// ---------------------------------------------------------------------------

/// Counter deltas for the integrity and hedge events *one* block read
/// produced (only keys with events appear, keeping fault-free fetch
/// results unchanged). Takes the per-read [`hdfs::ReadEvents`] rather than
/// a delta of the cluster-wide stats: concurrent fetches interleave their
/// updates to the shared stats, so a snapshot delta around one read would
/// absorb every other read completing in the window and double-count.
pub fn read_event_counters(ev: hdfs::ReadEvents) -> Vec<(&'static str, f64)> {
    use crate::counters::keys;
    let mut out = Vec::new();
    if ev.verified_bytes > 0 {
        out.push((keys::CHECKSUM_VERIFIED_BYTES, ev.verified_bytes as f64));
    }
    if ev.detected > 0 {
        out.push((keys::CORRUPTION_DETECTED, ev.detected as f64));
    }
    if ev.repaired > 0 {
        out.push((keys::CORRUPTION_REPAIRED, ev.repaired as f64));
    }
    if ev.hedged_reads > 0 {
        out.push((keys::HEDGED_READS, ev.hedged_reads as f64));
    }
    if ev.hedged_read_wins > 0 {
        out.push((keys::HEDGED_READ_WINS, ev.hedged_read_wins as f64));
    }
    out
}

/// Reads one real HDFS block (the vanilla Hadoop record reader).
#[derive(Clone)]
pub struct HdfsBlockFetcher {
    pub path: String,
    pub block_index: usize,
}

impl OneShotFetcher for HdfsBlockFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        // HDFS block reads address blocks, not paths; count the read (and
        // test it against the fault plan) under the file path here.
        match sim.faults.take_read_outcome(&self.path) {
            simnet::ReadOutcome::Fail { nth } => {
                let e = MrError::msg(format!(
                    "injected I/O error on read #{nth} of {}",
                    self.path
                ));
                sim.after(0.0, move |sim| done(sim, Err(e)));
                return;
            }
            simnet::ReadOutcome::Hang { .. } => {
                // The read never completes — drop the callback so only the
                // driver's hang deadline can recover the attempt.
                drop(done);
                return;
            }
            _ => {}
        }
        let block = {
            let h = env.hdfs.borrow();
            match h.namenode.blocks(&self.path) {
                Ok(blocks) => match blocks.get(self.block_index) {
                    Some(b) => b.clone(),
                    None => {
                        drop(h);
                        let e = MrError::msg(format!(
                            "block #{} of {} out of range",
                            self.block_index, self.path
                        ));
                        sim.after(0.0, move |sim| done(sim, Err(e)));
                        return;
                    }
                },
                Err(e) => {
                    drop(h);
                    let e = MrError::msg(format!("hdfs: {e}"));
                    sim.after(0.0, move |sim| done(sim, Err(e)));
                    return;
                }
            }
        };
        // `read_block` consumes its callback even when it fails
        // synchronously, so route completion through a take-once cell.
        // Integrity accounting: the read reports its own events, which land
        // in attempt-local counters — exact under concurrent fetches (a
        // cluster-wide stats delta would absorb overlapping reads) and under
        // retries (a failed attempt's events are dropped with it).
        let done_cell = std::rc::Rc::new(std::cell::RefCell::new(Some(done)));
        let dc = done_cell.clone();
        let res = hdfs::read_block_with_events(
            sim,
            &env.topo,
            &env.hdfs,
            node,
            &block,
            move |sim, data, ev| {
                if let Some(d) = dc.borrow_mut().take() {
                    let mut fr = FetchResult::plain(TaskInput::Bytes(data.as_ref().clone()));
                    fr.counters = read_event_counters(ev);
                    d(sim, Ok(fr));
                }
            },
        );
        if let Err(e) = res {
            if let Some(d) = done_cell.borrow_mut().take() {
                let e = MrError::msg(format!("hdfs: {e} ({})", self.path));
                sim.after(0.0, move |sim| d(sim, Err(e)));
            }
        }
    }

    fn describe(&self) -> String {
        format!("hdfs://{}#{}", self.path, self.block_index)
    }
}

/// Build one split per block of an HDFS file (`FileInputFormat` on HDFS).
///
/// A missing or non-file input path is reported as a typed error — the
/// Hadoop `InvalidInputException` analogue at job-setup time.
pub fn hdfs_file_splits(env: &MrEnv, path: &str) -> Result<Vec<InputSplit>, MrError> {
    let hdfs = env.hdfs.borrow();
    let blocks = hdfs
        .namenode
        .blocks(path)
        .map_err(|e| MrError::msg(format!("hdfs_file_splits({path}): {e}")))?;
    Ok(blocks
        .iter()
        .enumerate()
        .map(|(i, b)| InputSplit {
            length: b.len,
            locations: b.locations().to_vec(),
            fetcher: Rc::new(HdfsBlockFetcher {
                path: path.to_string(),
                block_index: i,
            }),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Flat PFS range fetcher (PortHadoop-style virtual block)
// ---------------------------------------------------------------------------

/// Reads a byte range of a PFS file directly into the task — the
/// PortHadoop dynamic PFS reader. `sequential_chunks` models the read
/// granularity: 1 = one whole-block I/O request (SciDP's optimization,
/// §III-A.3); `k` > 1 = `k` smaller requests, one stream piece each
/// (original Hadoop reads 64 KB at a time).
pub struct FlatPfsFetcher {
    pub pfs_path: String,
    pub offset: u64,
    pub len: u64,
    pub sequential_chunks: usize,
}

impl FlatPfsFetcher {
    /// The byte ranges one fetch covers, one per stream piece, in
    /// read-issue order.
    fn ranges(&self) -> Vec<(u64, u64)> {
        let k = self.sequential_chunks.max(1) as u64;
        let chunk = self.len.div_ceil(k);
        let mut ranges = Vec::new();
        let mut off = self.offset;
        let end = self.offset + self.len;
        while off < end {
            let l = chunk.min(end - off);
            ranges.push((off, l));
            off += l;
        }
        if ranges.is_empty() {
            ranges.push((self.offset, 0));
        }
        ranges
    }
}

/// Streaming view of a [`FlatPfsFetcher`]: one piece per read request,
/// parts re-assembled in range order at [`PieceStream::finish`].
struct FlatPieceStream {
    path: String,
    ranges: Vec<(u64, u64)>,
    parts: Rc<RefCell<Vec<Option<Vec<u8>>>>>,
}

impl PieceStream for FlatPieceStream {
    fn n_pieces(&self) -> usize {
        self.ranges.len()
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, idx: usize, done: PieceDone) {
        let Some(&(off, len)) = self.ranges.get(idx) else {
            // The piece scheduler only issues indices < n_pieces().
            let e = MrError::msg(format!("piece {idx} out of range"));
            sim.after(0.0, move |sim| done(sim, Err(e)));
            return;
        };
        let slots = self.parts.clone();
        let done_cell = Rc::new(RefCell::new(Some(done)));
        let dc = done_cell.clone();
        let res = pfs::read_at(
            sim,
            &env.topo,
            &env.pfs,
            node,
            &self.path,
            off as usize,
            len as usize,
            move |sim, bytes| {
                let Some(done) = dc.borrow_mut().take() else {
                    return;
                };
                if let Some(slot) = slots.borrow_mut().get_mut(idx) {
                    *slot = Some(bytes.to_vec());
                }
                done(
                    sim,
                    Ok(FetchPiece {
                        bytes: len,
                        charges: Vec::new(),
                        counters: Vec::new(),
                    }),
                );
            },
        );
        if let Err(e) = res {
            if let Some(done) = done_cell.borrow_mut().take() {
                let e = MrError::msg(format!("pfs: {e}"));
                sim.after(0.0, move |sim| done(sim, Err(e)));
            }
        }
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        let mut acc = Vec::new();
        for (i, p) in self.parts.borrow_mut().iter_mut().enumerate() {
            match p.take() {
                Some(bytes) => acc.extend_from_slice(&bytes),
                None => return Err(MrError::msg(format!("stream piece {i} missing at finish"))),
            }
        }
        Ok(FetchResult::plain(TaskInput::Bytes(acc)))
    }
}

impl SplitFetcher for FlatPfsFetcher {
    fn open_stream(&self, _env: &MrEnv, _sim: &mut Sim, _node: NodeId) -> Box<dyn PieceStream> {
        let ranges = self.ranges();
        let parts = Rc::new(RefCell::new(vec![None; ranges.len()]));
        Box::new(FlatPieceStream {
            path: self.pfs_path.clone(),
            ranges,
            parts,
        })
    }

    fn describe(&self) -> String {
        format!(
            "pfs://{}@{}+{} ({} reqs)",
            self.pfs_path, self.offset, self.len, self.sequential_chunks
        )
    }
}

/// A fetcher that delivers pre-staged data with no I/O (tests, in-memory
/// workloads).
#[derive(Clone)]
pub struct InMemoryFetcher {
    pub data: Vec<u8>,
}

impl OneShotFetcher for InMemoryFetcher {
    fn fetch(&self, _env: &MrEnv, sim: &mut Sim, _node: NodeId, done: FetchDone) {
        let data = self.data.clone();
        sim.after(0.0, move |sim| {
            done(sim, Ok(FetchResult::plain(TaskInput::Bytes(data))))
        });
    }

    fn describe(&self) -> String {
        format!("mem({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_input_sizes() {
        assert_eq!(TaskInput::Bytes(vec![0; 10]).approx_bytes(), 10);
        let a = scifmt::Array::zeros(scifmt::DType::F32, vec![3, 4]);
        assert_eq!(TaskInput::Array(a).approx_bytes(), 48);
    }

    #[test]
    fn split_debug_includes_fetcher() {
        let s = InputSplit {
            length: 5,
            locations: vec![],
            fetcher: Rc::new(InMemoryFetcher { data: vec![1; 5] }),
        };
        let d = format!("{s:?}");
        assert!(d.contains("mem(5 bytes)"), "{d}");
    }
}
