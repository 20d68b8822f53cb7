//! The kernel oracle: the byte-at-a-time `Level::Fast` matcher that
//! `codec::compress` ran until PR 20, kept verbatim as the reference (the
//! `crates/sched/tests/fvdf_oracle.rs` pattern), and the assertion that
//! today's kernel — one 4-byte load per position, matches extended eight
//! bytes at a time, a per-thread `u32` table that is refilled rather than
//! reallocated — emits the same frame, byte for byte, on everything thrown
//! at it. A deliberate change to the fast level's token choices has to
//! change both sides.
//!
//! Nothing here depends on the output of `rand`: the noise comes from the
//! file's own splitmix64, so the inputs are the same under the offline
//! stand-in crates and the published ones.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use swallow_compress::codec::{adler32, compress, decompress};

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 16;

// ---- the reference: `put_varint`, `hash4`, `emit_literals` and
// ---- `compress_fast` exactly as they stood in `codec.rs` at 786097d ----

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

fn emit_literals(out: &mut BytesMut, data: &[u8], lit_start: usize, i: usize) {
    put_varint(out, (i - lit_start) as u64);
    out.put_slice(&data[lit_start..i]);
}

fn compress_fast(data: &[u8], out: &mut BytesMut) {
    let n = data.len();
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= n {
        let h = hash4(data, i);
        let cand = table[h];
        table[h] = i;
        if cand != usize::MAX
            && i - cand <= MAX_DISTANCE
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH]
        {
            // Extend the match forward.
            let mut len = MIN_MATCH;
            while i + len < n && data[cand + len] == data[i + len] {
                len += 1;
            }
            emit_literals(out, data, lit_start, i);
            put_varint(out, (len - MIN_MATCH) as u64);
            put_varint(out, (i - cand) as u64);
            // Index a few positions inside the match so later repeats of its
            // suffix are findable, then continue after it.
            let end = i + len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= n {
                table[hash4(data, j)] = j;
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

// ---- end of the reference ----

/// The frame the parent commit's `compress` returned for `data`.
fn reference(data: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(data.len() / 2 + 32);
    out.put_slice(b"SWZ1");
    put_varint(&mut out, data.len() as u64);
    out.put_u32_le(adler32(data));
    compress_fast(data, &mut out);
    out.to_vec()
}

/// `compress(data)` is the reference frame, and decodes to `data`.
fn agrees(data: &[u8]) -> Result<(), String> {
    let frame = compress(data);
    let want = reference(data);
    if frame[..] != want[..] {
        let at = frame.iter().zip(&want).take_while(|(a, b)| a == b).count();
        return Err(format!(
            "{} input bytes: frame of {} bytes, reference {} bytes, first difference at byte {at}",
            data.len(),
            frame.len(),
            want.len()
        ));
    }
    match decompress(&frame) {
        Ok(back) if back == data => Ok(()),
        other => Err(format!(
            "frame does not decode to its input: {:?}",
            other.map(|v| v.len())
        )),
    }
}

fn assert_agrees(data: &[u8], what: &str) {
    if let Err(e) = agrees(data) {
        panic!("{what}: {e}");
    }
}

/// splitmix64: this file's only source of noise.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 56) as u8).collect()
    }
}

const PHRASE: &[u8] = b"(key_0042,partition_007,value=aggregated_record) ";

/// The shape of `apps::synthesize_with_ratio`: 512-byte pieces, each either
/// noise (with probability `noise_share`) or the phrase over and over.
fn pieces(seed: u64, len: usize, noise_share: f64) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let piece = 512.min(len - out.len());
        if (rng.next() >> 11) as f64 / (1u64 << 53) as f64 <= noise_share {
            out.extend(rng.bytes(piece));
        } else {
            out.extend(PHRASE.iter().cycle().take(piece));
        }
    }
    out
}

proptest! {
    /// Arbitrary bytes: mostly literals, the odd short match.
    #[test]
    fn arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
        prop_assert_eq!(agrees(&data), Ok(()));
    }

    /// Two to four symbols: dense, long, overlapping matches.
    #[test]
    fn small_alphabets(
        symbols in 2u8..=4,
        data in proptest::collection::vec(any::<u8>(), 0..12_000),
    ) {
        let data: Vec<u8> = data.into_iter().map(|b| b % symbols).collect();
        prop_assert_eq!(agrees(&data), Ok(()));
    }

    /// The benchmark's payload shape, up to a few windows long so that
    /// candidates fall out of reach (`MAX_DISTANCE`) as well as into it.
    #[test]
    fn noise_and_phrase_pieces(
        seed in any::<u64>(),
        len in 0usize..200_000,
        noise_share in 0.0f64..1.0,
    ) {
        prop_assert_eq!(agrees(&pieces(seed, len, noise_share)), Ok(()));
    }
}

/// Every length from nothing to forty bytes, in five flavours: the loop
/// bounds (`i + MIN_MATCH <= n`), the trailing literal run and the empty
/// frame all live here.
#[test]
fn every_short_length() {
    let noise = SplitMix(1).bytes(40);
    for n in 0..=40usize {
        assert_agrees(&vec![7u8; n], "one byte repeated");
        assert_agrees(&noise[..n], "noise");
        let two: Vec<u8> = (0..n).map(|i| b"ab"[i % 2]).collect();
        assert_agrees(&two, "period two");
        let five: Vec<u8> = (0..n).map(|i| b"abcde"[i % 5]).collect();
        assert_agrees(&five, "period five");
        let nine: Vec<u8> = (0..n).map(|i| noise[i % 9]).collect();
        assert_agrees(&nine, "period nine");
    }
}

/// Matches of every length `k * 8 + r` from `MIN_MATCH` to a hundred, ended
/// either by a differing byte or by the end of the input, at every distance
/// class (inside the first word, a word apart, far): the eight-at-a-time
/// extension's tail.
#[test]
fn match_ends_at_every_offset_in_a_word() {
    let mut rng = SplitMix(2);
    for gap in [0usize, 1, 3, 8, 200] {
        for len in MIN_MATCH..=100 {
            for stop_at_end in [false, true] {
                let source = rng.bytes(len);
                let mut data = source.clone();
                data.extend(rng.bytes(gap));
                data.extend(&source);
                if !stop_at_end {
                    // A byte that differs from the one the match would
                    // continue with, so the match cannot run past `len`.
                    let continues_with = data[len];
                    data.push(continues_with ^ 0x55);
                    data.extend(rng.bytes(11));
                }
                assert_agrees(
                    &data,
                    &format!("gap {gap}, match {len}, at end {stop_at_end}"),
                );
            }
        }
    }
}

/// Overlapping (run-length) matches whose length is every `k * 8 + r`:
/// source and destination of the word compare overlap here.
#[test]
fn runs_of_every_length() {
    for period in 1..=9usize {
        for len in 0..=80usize {
            let mut data: Vec<u8> = (0..len).map(|i| (i % period) as u8).collect();
            assert_agrees(
                &data,
                &format!("period {period}, {len} bytes, run to the end"),
            );
            data.extend([0xEE, 0xEF, 0xF0]);
            assert_agrees(
                &data,
                &format!("period {period}, {len} bytes, then literals"),
            );
        }
    }
}

/// Longer than the window: a 200-byte marker occurs twice in 140 000 bytes
/// of noise, `MAX_DISTANCE - 1 ..= MAX_DISTANCE + 2` apart. Inside the
/// window it is a match, a byte further it is not, and the kernel has to
/// draw that line where the reference does. (The marker is long because
/// 65 000 positions of noise overwrite two table slots in three: some word
/// of it survives, its first one often does not.)
#[test]
fn the_only_repeat_straddles_the_window() {
    let noise = SplitMix(3).bytes(140_000);
    let marker = SplitMix(33).bytes(200);
    let all_literals = reference(&noise).len();
    for distance in MAX_DISTANCE - 1..=MAX_DISTANCE + 2 {
        for first in [0usize, 1, 4_097, 70_001] {
            let mut data = noise.clone();
            data[first..first + marker.len()].copy_from_slice(&marker);
            let second = first + distance;
            data[second..second + marker.len()].copy_from_slice(&marker);
            assert_agrees(&data, &format!("marker at {first} and {distance} later"));
            // The window's edge shows in the frame: a match token where the
            // reference finds one, literals where it does not.
            let frame = compress(&data).len();
            if distance <= MAX_DISTANCE {
                assert!(
                    frame + 100 < all_literals,
                    "distance {distance}: no match taken"
                );
            } else {
                assert!(
                    frame + 100 > all_literals,
                    "distance {distance}: match beyond the window"
                );
            }
        }
    }
}

/// The table is per thread and reused: a call must not see what the one
/// before it left there. The same buffer twice is the sharpest case — every
/// stale entry points at the position being looked up or beyond it.
#[test]
fn back_to_back_calls_on_one_thread_share_nothing() {
    let a = pieces(4, 300_000, 0.5);
    let b = pieces(5, 262_144, 0.25);
    let c = SplitMix(6).bytes(70_000);
    for round in 0..2 {
        for (name, data) in [
            ("a", &a),
            ("a again", &a),
            ("b", &b),
            ("c", &c),
            ("b again", &b),
        ] {
            assert_agrees(data, &format!("round {round}, {name}"));
        }
        // Two chunks of one buffer, as the stream layer compresses them.
        for chunk in a.chunks(128 * 1024) {
            assert_agrees(chunk, "chunk of a");
        }
    }
}
