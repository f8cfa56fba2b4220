//! Chunk compression: byte-shuffle + LZ, the same family netCDF-4 uses
//! (shuffle filter + deflate).
//!
//! Scientific float arrays compress poorly byte-for-byte but very well after
//! a *shuffle* transpose: grouping the i-th byte of every element together
//! turns the slowly-varying exponent/high-mantissa bytes into long runs that
//! an LZ matcher eats. The LZ stage is an LZ4-style greedy matcher with a
//! 64 KiB window — small, fast, and entirely self-contained.
//!
//! Frame layout: `[codec_id:u8][raw_len:varint][elem:u8 if shuffled][payload]`.
//!
//! Two API tiers:
//!
//! * [`compress`]/[`decompress`] — convenience, allocate fresh buffers;
//! * [`compress_into`]/[`decompress_into`] with a reusable [`Scratch`] —
//!   the hot path used by the parallel chunk pipeline, where each worker
//!   thread keeps one `Scratch` and amortises the shuffle buffer and the
//!   256 KiB LZ hash table across every chunk it processes.

use crate::error::{FmtError, Result};
use crate::wire::Reader;

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 15;
/// Elements per transpose tile: 512 × `elem` source bytes stay L1-resident
/// while the tile's writes stream to `elem` separate destinations.
const SHUFFLE_TILE: usize = 512;

/// Compression scheme applied to a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Stored verbatim.
    None,
    /// LZ only (flat byte data, e.g. text).
    Lz,
    /// Byte shuffle with the given element width, then LZ (float arrays).
    ShuffleLz { elem: u8 },
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Lz => 1,
            Codec::ShuffleLz { .. } => 2,
        }
    }
}

/// Reusable work buffers for [`compress_into`]/[`decompress_into`]. One per
/// worker thread; cheap to create, much cheaper to reuse.
#[derive(Default, Debug)]
pub struct Scratch {
    /// Shuffle/unshuffle transpose buffer.
    shuf: Vec<u8>,
    /// LZ match hash table (`1 << HASH_BITS` entries once used).
    table: Vec<usize>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }

    fn table(&mut self) -> &mut [usize] {
        if self.table.is_empty() {
            self.table = vec![usize::MAX; 1 << HASH_BITS];
        } else {
            self.table.fill(usize::MAX);
        }
        &mut self.table
    }
}

// ---------------------------------------------------------------------------
// Shuffle (blocked transpose)
// ---------------------------------------------------------------------------

/// Transpose `data` into `out` so that byte `b` of every `elem`-wide element
/// is contiguous. `out` is cleared and resized. Tiled over elements so the
/// working set of each pass stays cache-resident.
pub fn shuffle_into(data: &[u8], elem: usize, out: &mut Vec<u8>) {
    assert!(
        elem > 0 && data.len().is_multiple_of(elem),
        "bad shuffle width"
    );
    let n = data.len() / elem;
    out.clear();
    out.resize(data.len(), 0);
    if elem == 1 {
        out.copy_from_slice(data);
        return;
    }
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + SHUFFLE_TILE).min(n);
        for b in 0..elem {
            let dst = &mut out[b * n + t0..b * n + t1];
            for (k, d) in dst.iter_mut().enumerate() {
                *d = data[(t0 + k) * elem + b];
            }
        }
        t0 = t1;
    }
}

/// Inverse of [`shuffle_into`].
pub fn unshuffle_into(data: &[u8], elem: usize, out: &mut Vec<u8>) {
    assert!(
        elem > 0 && data.len().is_multiple_of(elem),
        "bad unshuffle width"
    );
    let n = data.len() / elem;
    out.clear();
    out.resize(data.len(), 0);
    if elem == 1 {
        out.copy_from_slice(data);
        return;
    }
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + SHUFFLE_TILE).min(n);
        for b in 0..elem {
            let src = &data[b * n + t0..b * n + t1];
            for (k, &s) in src.iter().enumerate() {
                out[(t0 + k) * elem + b] = s;
            }
        }
        t0 = t1;
    }
}

/// Transpose `data` so that byte `b` of every `elem`-wide element is
/// contiguous. `data.len()` must be a multiple of `elem`.
pub fn shuffle(data: &[u8], elem: usize) -> Vec<u8> {
    let mut out = Vec::new();
    shuffle_into(data, elem, &mut out);
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(data: &[u8], elem: usize) -> Vec<u8> {
    let mut out = Vec::new();
    unshuffle_into(data, elem, &mut out);
    out
}

// ---------------------------------------------------------------------------
// LZ core
// ---------------------------------------------------------------------------

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    // LZ4-style length extension: each 255 byte adds 255, terminator < 255.
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// LEB128 varint (same encoding as `wire::Writer::put_varint`).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Raw LZ encode (no frame), appended to `out`. `table` is the caller's
/// hash table, already reset to `usize::MAX`.
fn lz_encode_into(src: &[u8], table: &mut [usize], out: &mut Vec<u8>) {
    out.reserve(src.len() / 2 + 16);
    let mut i = 0usize; // cursor
    let mut anchor = 0usize; // start of pending literals
    let n = src.len();

    while i + MIN_MATCH <= n {
        let h = hash4(&src[i..]);
        let cand = table[h];
        table[h] = i;
        let is_match = cand != usize::MAX
            && i - cand <= MAX_DISTANCE
            && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH];
        if !is_match {
            i += 1;
            continue;
        }
        // Extend the match forward.
        let mut mlen = MIN_MATCH;
        while i + mlen < n && src[cand + mlen] == src[i + mlen] {
            mlen += 1;
        }
        let lit = &src[anchor..i];
        let lit_nib = lit.len().min(15) as u8;
        let mat_nib = (mlen - MIN_MATCH).min(15) as u8;
        out.push((lit_nib << 4) | mat_nib);
        if lit_nib == 15 {
            put_len(out, lit.len() - 15);
        }
        out.extend_from_slice(lit);
        out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
        if mat_nib == 15 {
            put_len(out, mlen - MIN_MATCH - 15);
        }
        // Seed the table inside the match so later data can reference it.
        let step = if mlen > 64 { 8 } else { 2 };
        let mut j = i + 1;
        while j + MIN_MATCH <= n && j < i + mlen {
            table[hash4(&src[j..])] = j;
            j += step;
        }
        i += mlen;
        anchor = i;
    }
    // Trailing literals (match nibble 0, no distance follows — decoder knows
    // because the input ends right after the literal run).
    let lit = &src[anchor..];
    let lit_nib = lit.len().min(15) as u8;
    out.push(lit_nib << 4);
    if lit_nib == 15 {
        put_len(out, lit.len() - 15);
    }
    out.extend_from_slice(lit);
}

fn get_len(r: &mut Reader<'_>, nib: u8) -> Result<usize> {
    let mut len = nib as usize;
    if nib == 15 {
        loop {
            let b = r.get_u8()?;
            len += b as usize;
            if b < 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Raw LZ decode (no frame) appended to `out`, which the caller has cleared.
/// `raw_len` is the expected output size.
fn lz_decode_into(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
    debug_assert!(out.is_empty());
    out.reserve(raw_len);
    let mut r = Reader::new(src);
    while r.remaining() > 0 {
        let token = r.get_u8()?;
        let lit_len = get_len(&mut r, token >> 4)?;
        let lits = r.get_bytes(lit_len)?;
        out.extend_from_slice(lits);
        if r.remaining() == 0 {
            break; // final literal-only token
        }
        let d = r.get_bytes(2)?;
        let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
        if dist == 0 || dist > out.len() {
            return Err(FmtError::Corrupt(format!(
                "bad match distance {dist} at output {}",
                out.len()
            )));
        }
        let mlen = MIN_MATCH + get_len(&mut r, token & 0x0f)?;
        if out.len() + mlen > raw_len {
            return Err(FmtError::Corrupt("decoded past declared length".into()));
        }
        // Bulk match copy. A match that overlaps its own output
        // (`dist < mlen`, RLE-style) repeats the `dist`-byte period at
        // `start`: after each copy the periodic prefix has doubled and
        // still starts on a period boundary, so the next copy may take
        // twice as much from `start`. A non-overlapping match is one copy.
        let start = out.len() - dist;
        let mut left = mlen;
        let mut run = dist;
        while left > 0 {
            let n = run.min(left);
            out.extend_from_within(start..start + n);
            left -= n;
            run *= 2;
        }
    }
    if out.len() != raw_len {
        return Err(FmtError::Corrupt(format!(
            "decoded {} bytes, expected {raw_len}",
            out.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed API
// ---------------------------------------------------------------------------

/// Compress `raw` into a framed chunk appended to `out` (cleared first),
/// reusing `scratch`'s buffers. Output bytes are identical to [`compress`].
pub fn compress_into(codec: Codec, raw: &[u8], scratch: &mut Scratch, out: &mut Vec<u8>) {
    out.clear();
    out.push(codec.id());
    put_varint(out, raw.len() as u64);
    match codec {
        Codec::None => out.extend_from_slice(raw),
        Codec::Lz => lz_encode_into(raw, scratch.table(), out),
        Codec::ShuffleLz { elem } => {
            out.push(elem);
            let mut shuf = std::mem::take(&mut scratch.shuf);
            shuffle_into(raw, elem as usize, &mut shuf);
            lz_encode_into(&shuf, scratch.table(), out);
            scratch.shuf = shuf;
        }
    }
}

/// Decompress a framed chunk into `out` (cleared first), reusing `scratch`.
pub fn decompress_into(frame: &[u8], scratch: &mut Scratch, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let mut r = Reader::new(frame);
    let id = r.get_u8()?;
    let raw_len = r.get_varint()? as usize;
    match id {
        0 => {
            out.extend_from_slice(r.get_bytes(raw_len)?);
            Ok(())
        }
        1 => lz_decode_into(r.get_bytes(r.remaining())?, raw_len, out),
        2 => {
            let elem = r.get_u8()? as usize;
            if elem == 0 || !raw_len.is_multiple_of(elem) {
                return Err(FmtError::Corrupt(format!(
                    "shuffle width {elem} incompatible with length {raw_len}"
                )));
            }
            let mut shuf = std::mem::take(&mut scratch.shuf);
            shuf.clear();
            let res = lz_decode_into(r.get_bytes(r.remaining())?, raw_len, &mut shuf);
            if res.is_ok() {
                unshuffle_into(&shuf, elem, out);
            }
            scratch.shuf = shuf;
            res
        }
        other => Err(FmtError::Corrupt(format!("unknown codec id {other}"))),
    }
}

/// Compress `raw` into a framed chunk.
pub fn compress(codec: Codec, raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(codec, raw, &mut Scratch::new(), &mut out);
    out
}

/// Decompress a framed chunk produced by [`compress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(frame, &mut Scratch::new(), &mut out)?;
    Ok(out)
}

/// Declared raw (uncompressed) length of a framed chunk, without decoding.
pub fn frame_raw_len(frame: &[u8]) -> Result<usize> {
    let mut r = Reader::new(frame);
    let _ = r.get_u8()?;
    Ok(r.get_varint()? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scirng::Rng;

    #[test]
    fn empty_roundtrip() {
        for c in [Codec::None, Codec::Lz, Codec::ShuffleLz { elem: 4 }] {
            let f = compress(c, &[]);
            assert_eq!(decompress(&f).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn stored_roundtrip() {
        let data = b"hello world".to_vec();
        let f = compress(Codec::None, &data);
        assert_eq!(decompress(&f).unwrap(), data);
        assert_eq!(frame_raw_len(&f).unwrap(), data.len());
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i / 1000) as u8).collect();
        let f = compress(Codec::Lz, &data);
        assert!(
            f.len() < data.len() / 10,
            "ratio too poor: {} -> {}",
            data.len(),
            f.len()
        );
        assert_eq!(decompress(&f).unwrap(), data);
    }

    #[test]
    fn smooth_floats_compress_after_shuffle() {
        // A smooth field like NU-WRF output: shuffle should expose the
        // near-constant exponent bytes.
        let vals: Vec<f32> = (0..50_000)
            .map(|i| 280.0 + 5.0 * (i as f32 * 0.001).sin())
            .collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let shuffled = compress(Codec::ShuffleLz { elem: 4 }, &raw);
        let plain = compress(Codec::Lz, &raw);
        assert_eq!(decompress(&shuffled).unwrap(), raw);
        assert!(
            shuffled.len() < plain.len(),
            "shuffle should help: {} vs {}",
            shuffled.len(),
            plain.len()
        );
        let ratio = raw.len() as f64 / shuffled.len() as f64;
        assert!(ratio > 2.0, "ratio {ratio:.2} too low for smooth field");
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: expansion is allowed, corruption is not.
        let mut rng = Rng::seed_from_u64(0x12345678);
        let mut data = vec![0u8; 10_000];
        rng.fill_bytes(&mut data);
        for c in [Codec::Lz, Codec::ShuffleLz { elem: 8 }] {
            let f = compress(c, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }

    #[test]
    fn shuffle_is_involution() {
        let data: Vec<u8> = (0..64).collect();
        assert_eq!(unshuffle(&shuffle(&data, 4), 4), data);
        assert_eq!(unshuffle(&shuffle(&data, 8), 8), data);
        assert_eq!(unshuffle(&shuffle(&data, 1), 1), data);
    }

    #[test]
    fn blocked_shuffle_matches_reference() {
        // Inputs longer than one tile must still produce the canonical
        // transpose: out[b*n + i] == data[i*elem + b].
        let mut rng = Rng::seed_from_u64(11);
        for elem in [2usize, 4, 8] {
            let n = SHUFFLE_TILE * 2 + 37;
            let mut data = vec![0u8; n * elem];
            rng.fill_bytes(&mut data);
            let out = shuffle(&data, elem);
            for i in 0..n {
                for b in 0..elem {
                    assert_eq!(out[b * n + i], data[i * elem + b], "i={i} b={b}");
                }
            }
            assert_eq!(unshuffle(&out, elem), data);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut rng = Rng::seed_from_u64(21);
        let mut scratch = Scratch::new();
        let mut frame = Vec::new();
        let mut back = Vec::new();
        for case in 0..32 {
            let n = 64 + rng.below(4096);
            let elem = [1usize, 2, 4, 8][case % 4];
            let mut data = vec![0u8; n * elem];
            // Half the cases smooth, half random.
            if case % 2 == 0 {
                for (i, b) in data.iter_mut().enumerate() {
                    *b = ((i / 7) % 251) as u8;
                }
            } else {
                rng.fill_bytes(&mut data);
            }
            let codec = if elem == 1 {
                Codec::Lz
            } else {
                Codec::ShuffleLz { elem: elem as u8 }
            };
            compress_into(codec, &data, &mut scratch, &mut frame);
            assert_eq!(frame, compress(codec, &data), "case {case}: frames differ");
            decompress_into(&frame, &mut scratch, &mut back).unwrap();
            assert_eq!(back, data, "case {case}: roundtrip");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let data = vec![42u8; 1000];
        let mut f = compress(Codec::Lz, &data);
        // Unknown codec id.
        let mut g = f.clone();
        g[0] = 99;
        assert!(decompress(&g).is_err());
        // Truncated payload.
        f.truncate(f.len() / 2);
        assert!(decompress(&f).is_err());
    }

    #[test]
    fn overlapping_match_rle() {
        let data = vec![7u8; 100_000];
        let f = compress(Codec::Lz, &data);
        assert!(f.len() < 600);
        assert_eq!(decompress(&f).unwrap(), data);
    }

    /// Bytewise reference for an LZ match: copy `mlen` bytes one at a
    /// time from `dist` back, so overlapping matches repeat their period.
    fn model_match(out: &mut Vec<u8>, dist: usize, mlen: usize) {
        let start = out.len() - dist;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
    }

    /// Hand-assemble one LZ token: a literal run, then an optional
    /// `(dist, mlen)` match.
    fn put_token(payload: &mut Vec<u8>, lits: &[u8], matched: Option<(u16, usize)>) {
        let lit_nib = lits.len().min(15) as u8;
        let mat_nib = matched.map_or(0, |(_, m)| (m - MIN_MATCH).min(15) as u8);
        payload.push((lit_nib << 4) | mat_nib);
        if lit_nib == 15 {
            put_len(payload, lits.len() - 15);
        }
        payload.extend_from_slice(lits);
        if let Some((dist, mlen)) = matched {
            payload.extend_from_slice(&dist.to_le_bytes());
            if mat_nib == 15 {
                put_len(payload, mlen - MIN_MATCH - 15);
            }
        }
    }

    /// An LZ frame declaring `raw_len` around a hand-built payload.
    fn lz_frame(raw_len: usize, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![Codec::Lz.id()];
        put_varint(&mut f, raw_len as u64);
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn match_copy_matches_bytewise_model_for_every_distance() {
        let mut rng = Rng::seed_from_u64(31);
        let lens = [
            4, 5, 7, 8, 9, 15, 18, 19, 20, 31, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000,
            4096, 6151,
        ];
        let tail = [0xab, 0xcd, 0xef];
        for dist in 1..=64usize {
            // History of exactly `dist` bytes (the match starts at output
            // 0) and of 64 bytes (it starts mid-output).
            for hist in [dist, 64] {
                let mut prefix = vec![0u8; hist];
                rng.fill_bytes(&mut prefix);
                for &mlen in &lens {
                    for trailing in [true, false] {
                        let mut want = prefix.clone();
                        model_match(&mut want, dist, mlen);
                        let mut payload = Vec::new();
                        put_token(&mut payload, &prefix, Some((dist as u16, mlen)));
                        if trailing {
                            want.extend_from_slice(&tail);
                            put_token(&mut payload, &tail, None);
                        }
                        let got = decompress(&lz_frame(want.len(), &payload)).unwrap();
                        assert_eq!(got, want, "dist {dist} hist {hist} len {mlen}");
                    }
                }
            }
            // The encoder's own frames of a `dist`-periodic input.
            let mut period = vec![0u8; dist];
            rng.fill_bytes(&mut period);
            let data: Vec<u8> = period.iter().copied().cycle().take(dist * 97 + 5).collect();
            assert_eq!(decompress(&compress(Codec::Lz, &data)).unwrap(), data);
        }
    }

    #[test]
    fn literal_only_and_empty_frames_decode() {
        let mut rng = Rng::seed_from_u64(32);
        for n in [0usize, 1, 14, 15, 16, 269, 270, 271, 5000] {
            let mut lits = vec![0u8; n];
            rng.fill_bytes(&mut lits);
            let mut payload = Vec::new();
            put_token(&mut payload, &lits, None);
            assert_eq!(decompress(&lz_frame(n, &payload)).unwrap(), lits, "{n}");
        }
        // No token at all is the empty frame too.
        assert_eq!(decompress(&lz_frame(0, &[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupt_matches_are_rejected() {
        let prefix = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let frame = |raw_len: usize, dist: u16, mlen: usize| {
            let mut payload = Vec::new();
            put_token(&mut payload, &prefix, Some((dist, mlen)));
            lz_frame(raw_len, &payload)
        };
        let bad = |f: &[u8], what: &str| {
            let e = decompress(f).unwrap_err();
            assert!(matches!(e, FmtError::Corrupt(_)), "{what}: {e:?}");
        };
        // The well-formed control decodes.
        assert_eq!(decompress(&frame(8 + 20, 3, 20)).unwrap().len(), 28);
        bad(&frame(8 + 20, 0, 20), "zero distance");
        bad(&frame(8 + 20, 9, 20), "distance past the output");
        bad(&frame(8 + 20, u16::MAX, 20), "distance past the window");
        bad(&frame(8 + 19, 3, 20), "match past the declared length");
        bad(
            &frame(8 + 4, 1, 1 << 20),
            "long match past the declared length",
        );
        bad(&frame(8 + 21, 3, 20), "output short of the declared length");
        // Literals past the declared length, with and without a match after.
        let mut payload = Vec::new();
        put_token(&mut payload, &prefix, None);
        bad(&lz_frame(7, &payload), "literals past the declared length");
        bad(
            &frame(7, 3, 4),
            "literals then match past the declared length",
        );
    }

    #[test]
    fn lz_roundtrip_arbitrary_seeded() {
        // Replaces the former proptest case: arbitrary byte vectors.
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..64 {
            let n = rng.below(4096);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let f = compress(Codec::Lz, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }

    #[test]
    fn shuffle_lz_roundtrip_f32_seeded() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..64 {
            let n = rng.below(1024);
            let raw: Vec<u8> = (0..n)
                .flat_map(|_| f32::from_bits(rng.next_u32()).to_le_bytes())
                .collect();
            let f = compress(Codec::ShuffleLz { elem: 4 }, &raw);
            assert_eq!(decompress(&f).unwrap(), raw);
        }
    }

    #[test]
    fn lz_roundtrip_structured_seeded() {
        // Run-structured data (the old proptest `lz_roundtrip_structured`).
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..64 {
            let n_runs = rng.below(64);
            let mut data = Vec::new();
            for _ in 0..n_runs {
                let b = rng.below(256) as u8;
                let len = 1 + rng.below(199);
                data.extend(std::iter::repeat_n(b, len));
            }
            let f = compress(Codec::Lz, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }
}
