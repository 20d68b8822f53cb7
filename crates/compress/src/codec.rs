//! `swz` — a real LZ77 block codec.
//!
//! The Swallow runtime compresses shuffle blocks before pushing them to
//! receivers. The paper links LZ4/Snappy/LZF; since this reproduction is
//! dependency-free we implement the same family of algorithm: greedy LZ77
//! with a hash-table matcher, byte-aligned tokens and varint lengths —
//! structurally the LZ4 block format with explicit varints.
//!
//! ## Frame layout
//!
//! ```text
//! magic "SWZ1" (4 bytes)
//! original length   (varint)
//! adler32 of the original data (4 bytes LE)
//! token stream:
//!   literal_len (varint) | literal bytes |
//!   [ match_len-MIN_MATCH (varint) | distance (varint, >=1) ]   — absent at EOF
//! ```
//!
//! Overlapping matches (distance < length) are allowed and reproduce runs,
//! exactly as in LZ4/LZ77.
//!
//! ## Frame size
//!
//! The header is at most 18 bytes (magic, a length varint of up to ten
//! bytes, checksum). [`compress`] adds the token stream the matcher chose,
//! whatever its size: on incompressible input that is one literal run
//! (`n` bytes plus a varint of `n`), but a short match far back costs more
//! than the bytes it replaces, so noise can come out a few bytes above
//! even that. A caller that needs a hard bound takes the *stored* form
//! instead whenever the token stream is not smaller than the input — the
//! same header followed by a single literal run, which every decoder of
//! this format reads: `n + 8 + 2·varint_len(n)` bytes, i.e. `n + 14` for a
//! 256 KiB chunk. [`crate::stream`] does exactly that per chunk.
//!
//! ## The decoder trusts nothing
//!
//! [`decompress`] is handed bytes off the wire. The length a header
//! declares only *caps* what the decoder will produce: it reserves at most
//! `MAX_PREALLOC` (16 MiB) on the header's word — an honest frame that
//! declares more grows the buffer as it decodes — and it refuses a literal
//! run or a match that would carry the output past the declared length
//! before copying a byte of it. No frame, however short, makes it allocate
//! more than an honest frame of the same declared length would.

use bytes::Bytes;
use std::cell::RefCell;
use std::fmt;

const MAGIC: &[u8; 4] = b"SWZ1";
/// Matches shorter than this are emitted as literals.
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (64 KiB window, like LZ4).
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 16;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the `SWZ1` magic.
    BadMagic,
    /// Input ended before the declared payload was reconstructed.
    Truncated,
    /// A token referenced bytes before the start of the output.
    BadDistance { at: usize, distance: usize },
    /// Decoded payload fails its checksum.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Decoded length disagrees with the header.
    LengthMismatch { expected: usize, actual: usize },
    /// A varint was malformed (overlong or truncated).
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic: not an swz frame"),
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadDistance { at, distance } => {
                write!(f, "invalid back-reference at {at}: distance {distance}")
            }
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            CodecError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "length mismatch: header said {expected}, decoded {actual}"
                )
            }
            CodecError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Adler-32 (RFC 1950), the checksum zlib uses.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // Process in chunks small enough to defer the modulo.
    for chunk in data.chunks(5550) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

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

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::BadVarint)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(CodecError::BadVarint);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::BadVarint);
        }
    }
}

/// The four bytes at `i` as one little-endian word: a single unaligned
/// load behind a single bounds check.
#[inline]
fn load4(data: &[u8], i: usize) -> u32 {
    let word: [u8; 4] = data[i..i + MIN_MATCH]
        .try_into()
        .expect("a four-byte slice");
    u32::from_le_bytes(word)
}

/// Table index of a four-byte word (Knuth's multiplicative hash).
#[inline]
fn hash_word(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    hash_word(load4(data, i))
}

/// Compression effort level, mirroring the fast/high split every LZ-family
/// codec exposes (LZ4 vs LZ4-HC, Zstandard levels, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Greedy single-probe matching (the LZ4 strategy): fastest, good
    /// ratios on repetitive data.
    #[default]
    Fast,
    /// Hash-chained search with one-byte-lazy evaluation (the LZ4-HC /
    /// gzip strategy): slower, strictly better or equal token choices.
    High,
}

/// How many chain links [`Level::High`] follows per position.
const CHAIN_DEPTH: usize = 32;

/// Compress `data` into an `swz` frame at [`Level::Fast`].
pub fn compress(data: &[u8]) -> Bytes {
    compress_with(data, Level::Fast)
}

/// Compress `data` into an `swz` frame at the given effort level.
///
/// `Fast` is greedy single-pass LZ77: at every position look up a 4-byte
/// hash; on a verified match emit `(literals, match)` and skip ahead,
/// otherwise extend the literal run. `High` keeps a hash *chain* per bucket,
/// examines up to `CHAIN_DEPTH` (32) candidates, and defers a match by one byte
/// when the next position holds a longer one (lazy evaluation). Both levels
/// produce the same frame format; the module docs say how large a frame can
/// get.
pub fn compress_with(data: &[u8], level: Level) -> Bytes {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    append_frame(&mut out, data, level);
    Bytes::from(out)
}

/// Append the frame of `data` to `out` and return the offset in `out` at
/// which its token stream starts (the header ends).
fn append_frame(out: &mut Vec<u8>, data: &[u8], level: Level) -> usize {
    out.extend_from_slice(MAGIC);
    put_varint(out, data.len() as u64);
    out.extend_from_slice(&adler32(data).to_le_bytes());
    let tokens_at = out.len();
    match level {
        Level::Fast => compress_fast(data, out),
        Level::High => compress_high(data, out),
    }
    tokens_at
}

/// Append the frame of `data` to `out` — in the stored form (same header,
/// one literal run) if the token stream came out no smaller than `data`,
/// which bounds the frame as the module docs say.
pub(crate) fn append_bounded_frame(out: &mut Vec<u8>, data: &[u8], level: Level) {
    let tokens_at = append_frame(out, data, level);
    if !data.is_empty() && out.len() - tokens_at >= data.len() {
        out.truncate(tokens_at);
        emit_literals(out, data, 0, data.len());
    }
}

fn emit_literals(out: &mut Vec<u8>, data: &[u8], lit_start: usize, i: usize) {
    put_varint(out, (i - lit_start) as u64);
    out.extend_from_slice(&data[lit_start..i]);
}

/// A slot of the fast kernel's match table: the position at which a hash
/// was last seen, or `EMPTY`. The kernel is written once over this trait so
/// that the table can hold `u32`s — half the cache footprint of `usize`s,
/// the table being the kernel's one randomly accessed structure — for every
/// input shorter than 4 GiB, while longer ones run the same code over
/// `usize`s.
trait Slot: Copy + PartialEq {
    const EMPTY: Self;
    /// The slot holding `pos`; the caller keeps `pos` below `EMPTY`.
    fn at(pos: usize) -> Self;
    fn pos(self) -> usize;
}

impl Slot for u32 {
    const EMPTY: Self = u32::MAX;
    fn at(pos: usize) -> Self {
        pos as u32
    }
    fn pos(self) -> usize {
        self as usize
    }
}

impl Slot for usize {
    const EMPTY: Self = usize::MAX;
    fn at(pos: usize) -> Self {
        pos
    }
    fn pos(self) -> usize {
        self
    }
}

thread_local! {
    /// The `u32` match table of this thread: 256 KiB, allocated by the
    /// thread's first call and refilled — not reallocated — by every later
    /// one, so a stream pays one `memset` per chunk instead of a 512 KiB
    /// allocation.
    static FAST_TABLE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn compress_fast(data: &[u8], out: &mut Vec<u8>) {
    // Stored positions stop at `n - MIN_MATCH`, which must stay below
    // `u32::EMPTY`.
    if data.len() <= u32::MAX as usize {
        FAST_TABLE.with(|cell| {
            let mut table = cell.borrow_mut();
            table.clear();
            table.resize(1 << HASH_BITS, u32::EMPTY);
            fast_kernel(data, out, &mut table);
        });
    } else {
        fast_kernel(data, out, &mut vec![usize::EMPTY; 1 << HASH_BITS]);
    }
}

/// Length of the common prefix of `a` and `b`, eight bytes at a time: the
/// first differing byte of two words is the lowest set byte of their `xor`
/// (the words are little-endian). Only the last few bytes go one by one.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("an eight-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("an eight-byte chunk"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The greedy matcher. It makes, token for token, the choices of the
/// byte-at-a-time kernel it replaced, which `tests/swz_oracle.rs` keeps as
/// the reference: a change here that moves one byte of one frame fails there.
fn fast_kernel<S: Slot>(data: &[u8], out: &mut Vec<u8>, table: &mut [S]) {
    // As an array, so that an index below `1 << HASH_BITS` needs no check.
    let table: &mut [S; 1 << HASH_BITS] = table.try_into().expect("a full-size match table");
    let n = data.len();
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= n {
        // One load serves the hash and the candidate check.
        let word = load4(data, i);
        let slot = std::mem::replace(&mut table[hash_word(word)], S::at(i));
        let cand = slot.pos();
        if slot != S::EMPTY && i - cand <= MAX_DISTANCE && load4(data, cand) == word {
            // Extend the match forward, to the end of the input at most.
            let len = MIN_MATCH + common_prefix(&data[cand + MIN_MATCH..], &data[i + MIN_MATCH..]);
            emit_literals(out, data, lit_start, i);
            put_varint(out, (len - MIN_MATCH) as u64);
            put_varint(out, (i - cand) as u64);
            // Index a few positions inside the match so later repeats of its
            // suffix are findable, then continue after it.
            let end = i + len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= n {
                table[hash4(data, j)] = S::at(j);
                j += 2;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // Trailing literal run (no match token after it). Omitted entirely when
    // the last token already covered the input, so every byte of the frame
    // is load-bearing and truncation is always detectable.
    if n > lit_start {
        emit_literals(out, data, lit_start, n);
    }
}

/// Hash-chain matcher state for [`Level::High`].
struct ChainMatcher<'a> {
    data: &'a [u8],
    head: Vec<usize>,
    prev: Vec<usize>,
}

impl<'a> ChainMatcher<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            head: vec![usize::MAX; 1 << HASH_BITS],
            prev: vec![usize::MAX; data.len()],
        }
    }

    /// Register position `i` in its hash chain.
    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH > self.data.len() {
            return;
        }
        let h = hash4(self.data, i);
        self.prev[i] = self.head[h];
        self.head[h] = i;
    }

    /// Longest match at `i`, following up to [`CHAIN_DEPTH`] chain links.
    fn best(&self, i: usize) -> Option<(usize, usize)> {
        let data = self.data;
        let n = data.len();
        if i + MIN_MATCH > n {
            return None;
        }
        let mut cand = self.head[hash4(data, i)];
        let mut best: Option<(usize, usize)> = None;
        let mut depth = 0;
        while cand != usize::MAX && depth < CHAIN_DEPTH {
            if cand >= i {
                // Self or future position (stale chain entry); skip.
                cand = self.prev[cand];
                continue;
            }
            if i - cand > MAX_DISTANCE {
                break; // chains are position-ordered; older is farther
            }
            if data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH] {
                let mut len = MIN_MATCH;
                while i + len < n && data[cand + len] == data[i + len] {
                    len += 1;
                }
                if best.map(|(l, _)| len > l).unwrap_or(true) {
                    best = Some((len, i - cand));
                }
            }
            cand = self.prev[cand];
            depth += 1;
        }
        best
    }
}

fn compress_high(data: &[u8], out: &mut Vec<u8>) {
    let n = data.len();
    let mut matcher = ChainMatcher::new(data);
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= n {
        let Some((len, dist)) = matcher.best(i) else {
            matcher.insert(i);
            i += 1;
            continue;
        };
        // Lazy evaluation: a longer match starting one byte later beats
        // taking this one now.
        matcher.insert(i);
        if i + 1 + MIN_MATCH <= n {
            if let Some((len2, _)) = matcher.best(i + 1) {
                if len2 > len {
                    i += 1; // keep data[i] as a literal, re-evaluate at i+1
                    continue;
                }
            }
        }
        emit_literals(out, data, lit_start, i);
        put_varint(out, (len - MIN_MATCH) as u64);
        put_varint(out, dist as u64);
        let end = i + len;
        let mut j = i + 1;
        while j < end {
            matcher.insert(j);
            j += 1;
        }
        i = end;
        lit_start = i;
    }
    if n > lit_start {
        emit_literals(out, data, lit_start, n);
    }
}

/// The most [`decompress`] reserves on the word of a frame header; an
/// honest frame that declares more grows the buffer as it decodes.
const MAX_PREALLOC: usize = 16 << 20;

/// Decompress an `swz` frame produced by [`compress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_into(frame, &mut out)?;
    Ok(out)
}

/// Decode `frame` onto the end of `out`: on `Ok` exactly the payload has
/// been appended, on `Err` nothing has.
pub(crate) fn decompress_into(frame: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let result = decode_onto(frame, out, base);
    if result.is_err() {
        out.truncate(base);
    }
    result
}

/// The decoder proper; the payload is `out[base..]`.
fn decode_onto(frame: &[u8], out: &mut Vec<u8>, base: usize) -> Result<(), CodecError> {
    if frame.len() < 4 || &frame[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = 4usize;
    // A length no `usize` holds cannot be met by any payload.
    let orig_len = usize::try_from(get_varint(frame, &mut pos)?).unwrap_or(usize::MAX);
    if frame.len() - pos < 4 {
        return Err(CodecError::Truncated);
    }
    let expected_sum = load4(frame, pos);
    pos += 4;

    // Refuse a literal run or a match of `len` bytes that would carry the
    // payload past the declared length — before copying any of it.
    let overrun = |produced: usize, len: u64| {
        if len > (orig_len - produced) as u64 {
            return Err(CodecError::LengthMismatch {
                expected: orig_len,
                actual: produced.saturating_add(usize::try_from(len).unwrap_or(usize::MAX)),
            });
        }
        Ok(len as usize)
    };

    out.reserve(orig_len.min(MAX_PREALLOC));
    while out.len() - base < orig_len {
        let lit_len = overrun(out.len() - base, get_varint(frame, &mut pos)?)?;
        if lit_len > frame.len() - pos {
            return Err(CodecError::Truncated);
        }
        out.extend_from_slice(&frame[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() - base >= orig_len {
            break;
        }
        if pos >= frame.len() {
            return Err(CodecError::Truncated);
        }
        let match_len = get_varint(frame, &mut pos)?.saturating_add(MIN_MATCH as u64);
        let match_len = overrun(out.len() - base, match_len)?;
        let distance = get_varint(frame, &mut pos)?;
        let produced = out.len() - base;
        if distance == 0 || distance > produced as u64 {
            return Err(CodecError::BadDistance {
                at: produced,
                distance: usize::try_from(distance).unwrap_or(usize::MAX),
            });
        }
        // Copy the match in slices of what is already there. When it
        // overlaps its own output (distance < length: a run) the source
        // doubles with every pass, and since `out[start..]` has period
        // `distance` and each pass begins a whole number of periods in,
        // copying from `start` continues the pattern.
        let start = out.len() - distance as usize;
        let mut left = match_len;
        while left > 0 {
            let take = left.min(out.len() - start);
            out.extend_from_within(start..start + take);
            left -= take;
        }
    }
    let payload = &out[base..];
    debug_assert_eq!(payload.len(), orig_len, "every token was checked");
    let actual_sum = adler32(payload);
    if actual_sum != expected_sum {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    Ok(())
}

/// Compressed-size / original-size for `data` under `swz`; 1.0 for empty
/// input (nothing to win).
pub fn measured_ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    compress(data).len() as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let frame = compress(b"");
        assert_eq!(decompress(&frame).unwrap(), b"");
    }

    #[test]
    fn roundtrip_short_literal() {
        let data = b"abc";
        let frame = compress(data);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_repetitive_and_shrinks() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(500);
        let frame = compress(&data);
        assert!(
            frame.len() < data.len() / 5,
            "frame {} vs {}",
            frame.len(),
            data.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_run_length_overlap() {
        // distance 1 overlapping match — the classic RLE case.
        let data = vec![0x41u8; 10_000];
        let frame = compress(&data);
        assert!(
            frame.len() < 100,
            "run should compress to tokens: {}",
            frame.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_binary_structured() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(&(i % 97).to_le_bytes());
        }
        let frame = compress(&data);
        assert!(frame.len() < data.len());
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        // A cheap xorshift keeps the test dependency-free here.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let frame = compress(&data);
        assert!(frame.len() as f64 <= data.len() as f64 * 1.02 + 32.0);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE0123"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let frame = compress(&data);
        for cut in [5, 9, frame.len() - 1] {
            let err = decompress(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated
                        | CodecError::BadVarint
                        | CodecError::LengthMismatch { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let data: Vec<u8> = b"some payload that is long enough to have literals".to_vec();
        let mut frame = compress(&data).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xff; // flip a literal byte
        let err = decompress(&frame).unwrap_err();
        assert!(
            matches!(err, CodecError::ChecksumMismatch { .. }),
            "{err:?}"
        );
    }

    /// Satellite of PR 20: both of these 17-byte frames used to end the
    /// process (`memory allocation of … bytes failed` is an abort, not an
    /// unwind), the first in `Vec::with_capacity`, the second in the match
    /// copy.
    #[test]
    fn a_declared_length_of_two_to_the_62_is_not_believed() {
        let mut frame = MAGIC.to_vec();
        put_varint(&mut frame, 1 << 62);
        frame.extend_from_slice(&[0; 4]);
        assert_eq!(frame.len(), 17);
        assert!(decompress(&frame).is_err());
        // Nor any other length no honest 17-byte frame could have.
        for len in [u64::MAX, 1 << 40, 1 << 32, (1 << 32) - 1] {
            let mut frame = MAGIC.to_vec();
            put_varint(&mut frame, len);
            frame.extend_from_slice(&[0; 4]);
            assert!(decompress(&frame).is_err(), "declared {len}");
        }
    }

    #[test]
    fn a_match_longer_than_the_declared_length_is_refused_before_it_is_copied() {
        let mut frame = MAGIC.to_vec();
        put_varint(&mut frame, 8); // declared length
        frame.extend_from_slice(&[0; 4]); // checksum (never reached)
        frame.extend_from_slice(&[1, b'x']); // one literal
        put_varint(&mut frame, (1 << 33) - MIN_MATCH as u64); // a match of 2^33 …
        frame.push(1); // … at distance 1
        assert_eq!(frame.len(), 17);
        assert_eq!(
            decompress(&frame),
            Err(CodecError::LengthMismatch {
                expected: 8,
                actual: (1 << 33) + 1,
            })
        );
        // A literal run that overshoots is refused the same way, whether or
        // not the frame holds that many bytes.
        let mut frame = MAGIC.to_vec();
        put_varint(&mut frame, 2);
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(&[3, b'a', b'b', b'c']);
        assert!(matches!(
            decompress(&frame),
            Err(CodecError::LengthMismatch {
                expected: 2,
                actual: 3
            })
        ));
        // Varints at the edge of `u64` do not overflow the bookkeeping.
        let mut frame = MAGIC.to_vec();
        put_varint(&mut frame, 8);
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(&[1, b'x']);
        put_varint(&mut frame, u64::MAX);
        frame.push(1);
        assert!(matches!(
            decompress(&frame),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn an_honest_frame_larger_than_the_preallocation_cap_still_decodes() {
        let data = vec![0x5au8; MAX_PREALLOC + 12_345];
        let frame = compress(&data);
        assert!(frame.len() < 64);
        assert!(decompress(&frame).unwrap() == data);
    }

    #[test]
    fn a_failed_decode_leaves_the_output_as_it_found_it() {
        let mut out = b"already here".to_vec();
        let mut frame = compress(&b"abcdabcdabcdabcd-tail".repeat(20)).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 1;
        assert!(decompress_into(&frame, &mut out).is_err());
        assert_eq!(out, b"already here");
        frame[last] ^= 1;
        decompress_into(&frame, &mut out).unwrap();
        assert_eq!(out.len(), 12 + 21 * 20);
        assert!(out.starts_with(b"already hereabcdabcd"));
    }

    #[test]
    fn overlapping_matches_of_every_period_and_length_decode() {
        // The decoder copies a run in doubling slices; check it against the
        // definition (byte k of a match is byte k - distance).
        for distance in 1..=9usize {
            for len in MIN_MATCH..=70 {
                let seed: Vec<u8> = (0..distance as u8).map(|b| b'a' + b).collect();
                let want: Vec<u8> = (0..distance + len).map(|k| seed[k % distance]).collect();
                let mut frame = MAGIC.to_vec();
                put_varint(&mut frame, want.len() as u64);
                frame.extend_from_slice(&adler32(&want).to_le_bytes());
                put_varint(&mut frame, distance as u64);
                frame.extend_from_slice(&seed);
                put_varint(&mut frame, (len - MIN_MATCH) as u64);
                put_varint(&mut frame, distance as u64);
                assert_eq!(
                    decompress(&frame).unwrap(),
                    want,
                    "distance {distance}, length {len}"
                );
            }
        }
    }

    #[test]
    fn the_wide_table_makes_the_same_frames() {
        // Inputs of 4 GiB and more run the kernel over `usize` slots; it is
        // the same code, so any input shows that the two agree.
        let mut data = b"0123456789abcdef".repeat(300);
        data.extend((0..9000u32).flat_map(|i| (i.wrapping_mul(2654435761) >> 7).to_le_bytes()));
        data.extend(b"0123456789abcdef".repeat(30));
        let mut narrow = Vec::new();
        let tokens_at = append_frame(&mut narrow, &data, Level::Fast);
        let mut wide = Vec::new();
        fast_kernel(&data, &mut wide, &mut vec![usize::EMPTY; 1 << HASH_BITS]);
        assert!(
            wide.len() + 4_000 < data.len(),
            "the input has matches to find"
        );
        assert_eq!(narrow[tokens_at..], wide[..]);
    }

    #[test]
    fn adler32_reference_vectors() {
        // Known value: adler32("Wikipedia") = 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn measured_ratio_bounds() {
        assert_eq!(measured_ratio(b""), 1.0);
        let repetitive = b"ab".repeat(10_000);
        assert!(measured_ratio(&repetitive) < 0.05);
    }

    #[test]
    fn high_level_roundtrips() {
        for data in [
            Vec::new(),
            b"abc".to_vec(),
            b"the quick brown fox ".repeat(300),
            vec![7u8; 9000],
            (0..4000u32).flat_map(|i| (i % 251).to_le_bytes()).collect(),
        ] {
            let frame = compress_with(&data, Level::High);
            assert_eq!(decompress(&frame).unwrap(), data);
        }
    }

    #[test]
    fn high_level_never_worse_on_structured_data() {
        // Interleaved repeating phrases defeat the single-probe matcher but
        // not the chained one.
        let mut data = Vec::new();
        for i in 0..2000 {
            if i % 3 == 0 {
                data.extend_from_slice(b"alpha_beta_gamma_delta ");
            } else if i % 3 == 1 {
                data.extend_from_slice(b"0123456789abcdef ");
            } else {
                data.extend_from_slice(b"lorem ipsum dolor sit ");
            }
        }
        let fast = compress_with(&data, Level::Fast);
        let high = compress_with(&data, Level::High);
        assert!(
            high.len() <= fast.len(),
            "high {} vs fast {}",
            high.len(),
            fast.len()
        );
        assert_eq!(decompress(&high).unwrap(), data);
    }

    #[test]
    fn levels_share_one_frame_format() {
        let data = b"shared format between levels ".repeat(50);
        let fast = compress_with(&data, Level::Fast);
        let high = compress_with(&data, Level::High);
        assert_eq!(decompress(&fast).unwrap(), decompress(&high).unwrap());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let bad = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&bad, &mut pos), Err(CodecError::BadVarint));
    }
}
