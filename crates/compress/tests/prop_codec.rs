//! Property-based tests for the `swz` codec and the ratio models.

use proptest::prelude::*;
use swallow_compress::codec::{adler32, compress, compress_with, decompress, CodecError, Level};
use swallow_compress::ratio::SizeRatioModel;
use swallow_compress::{
    decompress_stream, estimate_ratio, StreamCompressor, StreamDecompressor, Table2,
};

/// One edit of a frame: where (as a fraction of its length), what kind
/// (flip, cut, insert) and with which byte.
type Edit = (u8, f64, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..3, 0.0f64..1.0, any::<u8>()), 1..4)
}

/// Payloads with literals and with matches: arbitrary bytes, or a
/// four-symbol alphabet.
fn payloads() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 1..2048),
    )
        .prop_map(|(dense, bytes)| {
            if dense {
                bytes.into_iter().map(|b| b % 4).collect()
            } else {
                bytes
            }
        })
}

/// Apply one to three edits anywhere in `frame`, header included.
fn damage(frame: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut frame = frame.to_vec();
    for &(kind, at, byte) in edits {
        let pos = ((frame.len() as f64 * at) as usize).min(frame.len().saturating_sub(1));
        match kind {
            0 if !frame.is_empty() => frame[pos] ^= byte | 1,
            1 => frame.truncate(pos),
            _ => frame.insert(pos, byte),
        }
    }
    frame
}

proptest! {
    /// Round-trip identity on arbitrary byte strings.
    #[test]
    fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data);
        let back = decompress(&frame).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Round-trip identity on highly repetitive inputs (stresses overlapping
    /// match copies).
    #[test]
    fn roundtrip_repetitive(byte in any::<u8>(), reps in 0usize..20_000) {
        let data = vec![byte; reps];
        let frame = compress(&data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// Round-trip on structured input: a short alphabet makes matches dense.
    #[test]
    fn roundtrip_small_alphabet(data in proptest::collection::vec(0u8..4, 0..8192)) {
        let frame = compress(&data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// The high-effort level round-trips too and never produces a larger
    /// frame than a pure literal encoding.
    #[test]
    fn roundtrip_high_level(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress_with(&data, Level::High);
        prop_assert!(frame.len() <= data.len() + 23);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// Both levels decode to the same payload (format compatibility).
    #[test]
    fn levels_agree(data in proptest::collection::vec(0u8..8, 0..4096)) {
        let fast = decompress(&compress_with(&data, Level::Fast)).unwrap();
        let high = decompress(&compress_with(&data, Level::High)).unwrap();
        prop_assert_eq!(&fast, &data);
        prop_assert_eq!(&high, &data);
    }

    /// The frame never exceeds input size by more than header + varint
    /// overhead (worst case: pure literals).
    #[test]
    fn bounded_expansion(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data);
        // 4 magic + ≤10 len varint + 4 checksum + ≤5 literal-run varint.
        prop_assert!(frame.len() <= data.len() + 23);
    }

    /// Truncating a frame anywhere strictly inside it never yields Ok with
    /// wrong data: it either errors or (never) returns the original.
    #[test]
    fn truncation_never_silently_corrupts(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = compress(&data);
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        if let Ok(out) = decompress(&frame[..cut]) {
            prop_assert_eq!(out, data);
        }
    }

    /// Flipping one byte of the frame is always detected (or decodes to the
    /// identical payload, which a checksum collision makes astronomically
    /// unlikely but the property tolerates).
    #[test]
    fn bitflip_detected(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut frame = compress(&data).to_vec();
        let pos = ((frame.len() as f64 * pos_frac) as usize).min(frame.len() - 1);
        frame[pos] ^= flip;
        match decompress(&frame) {
            Ok(out) => prop_assert_eq!(out, data),
            Err(e) => {
                // Every error variant is acceptable; just ensure it is one
                // of the typed errors (no panic reached this point anyway).
                let _: CodecError = e;
            }
        }
    }

    /// Bytes off the wire owe the decoder nothing: random ones, behind the
    /// magic or not, are refused without a panic (and without the decoder
    /// believing a length they declare).
    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        behind_magic in any::<bool>(),
    ) {
        let mut frame = if behind_magic { b"SWZ1".to_vec() } else { Vec::new() };
        frame.extend(&bytes);
        let _ = decompress(&frame);
        let mut stream = if behind_magic { b"SWZS".to_vec() } else { Vec::new() };
        stream.extend(&bytes);
        let _ = decompress_stream(&stream);
        let _ = StreamDecompressor::new().feed(&stream, &mut Vec::new());
    }

    /// A valid frame with one to three bytes flipped, cut off or inserted —
    /// anywhere, the header's length and checksum included — is refused or
    /// decodes to the original; it never panics, and never yields other
    /// bytes.
    #[test]
    fn damaged_frames_never_decode_to_something_else(data in payloads(), edits in edits()) {
        let frame = damage(&compress(&data), &edits);
        if let Ok(out) = decompress(&frame) {
            prop_assert_eq!(out, data);
        }
    }

    /// The same through the stream layer, one-shot and incremental: a
    /// damaged stream yields an error or a prefix of whole chunks of the
    /// original, never other bytes.
    #[test]
    fn damaged_streams_never_decode_to_something_else(data in payloads(), edits in edits()) {
        let mut c = StreamCompressor::with_chunk_size(Level::Fast, 512);
        c.write(&data);
        let stream = damage(&c.finish(), &edits);
        if let Ok(out) = decompress_stream(&stream) {
            prop_assert!(data.starts_with(&out), "one-shot decoded foreign bytes");
        }
        let mut fed = Vec::new();
        let mut d = StreamDecompressor::new();
        for piece in stream.chunks(100) {
            if d.feed(piece, &mut fed).is_err() {
                break;
            }
        }
        prop_assert!(data.starts_with(&fed), "incremental decoded foreign bytes");
    }

    /// Adler-32 is order-sensitive: permuting bytes changes the sum almost
    /// always; at minimum, appending data changes it.
    #[test]
    fn adler_changes_on_append(data in proptest::collection::vec(any::<u8>(), 0..1024), extra in 1u8..=255) {
        let base = adler32(&data);
        let mut more = data.clone();
        more.push(extra);
        prop_assert_ne!(base, adler32(&more));
    }

    /// The entropy-based ratio estimate is always within [0, 1].
    #[test]
    fn estimate_ratio_in_unit_interval(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let r = estimate_ratio(&data);
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// The size-ratio model is monotone non-increasing and bounded for any
    /// size, for every Table II rescaling.
    #[test]
    fn size_ratio_model_sane(size_a in 1.0f64..1e12, size_b in 1.0f64..1e12) {
        for codec in Table2::ALL {
            let m = SizeRatioModel::scaled_to(codec.profile().ratio);
            let (lo, hi) = if size_a <= size_b { (size_a, size_b) } else { (size_b, size_a) };
            let (rl, rh) = (m.ratio(lo), m.ratio(hi));
            prop_assert!((0.0..=1.0).contains(&rl));
            prop_assert!((0.0..=1.0).contains(&rh));
            prop_assert!(rl >= rh - 1e-12, "monotonicity violated for {codec:?}");
        }
    }
}
