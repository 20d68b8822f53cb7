//! Streaming (chunked) compression on top of the `swz` block codec.
//!
//! Shuffle blocks can be hundreds of megabytes; a runtime cannot hold the
//! whole frame in flight. The streaming layer cuts the input into
//! independently-compressed chunks framed as
//!
//! ```text
//! magic "SWZS" (4 bytes)
//! repeated: chunk_len (u32 LE, length of the swz frame that follows)
//!           swz frame
//! terminator: chunk_len = 0
//! ```
//!
//! Each chunk is a complete [`crate::codec`] frame with its own checksum,
//! so corruption is localized and decompression can proceed chunk by chunk
//! with O(chunk) memory. Independent chunks trade a little ratio (no
//! cross-chunk matches) for bounded memory and pipelining — the same deal
//! LZ4-frame and Zstandard frames make.
//!
//! ## Pipelining
//!
//! The two halves are meant to run against each other, a chunk apart. The
//! sender [`write`](StreamCompressor::write)s a chunk and
//! [`take_framed`](StreamCompressor::take_framed)s the bytes that chunk
//! became — a *wire piece*: the stream magic rides with the first, and
//! [`finish`](StreamCompressor::finish) returns the last with the
//! terminator behind it — and puts the piece on the link while it
//! compresses the next; the receiver [`feed`](StreamDecompressor::feed)s
//! pieces as they land and has every chunk but the last decoded and
//! verified by the time the last arrives. The pieces concatenate to exactly
//! the stream a single `write` + `finish` returns. `swallow-core`'s
//! `Worker::push_block` is the caller that does this.
//!
//! ## The stored chunk
//!
//! Once chunk 0 is on the wire before chunk 15 has been compressed, "ship
//! the block raw if compression did not shrink it" is no longer a decision
//! anyone can take, so the bound has to hold chunk by chunk: a chunk whose
//! token stream is not smaller than the chunk itself goes *stored* — the
//! ordinary frame header followed by one literal run. That is still a
//! valid `swz` frame, read by every decoder of the format with no flag and
//! no new magic, and over a chunk of the default size it costs 4 (length
//! word) + 14 (frame magic, 3-byte length varint, checksum, 3-byte run
//! length) = 18 bytes. The stream magic and the terminator add 8 per
//! stream, so a stream of default-size chunks never exceeds its input by
//! more than **26 bytes per chunk**, whatever the input.

use crate::codec::{self, CodecError, Level};
use bytes::Bytes;

const STREAM_MAGIC: &[u8; 4] = b"SWZS";
/// Default chunk: 256 KiB, the classic frame-format sweet spot.
pub const DEFAULT_CHUNK: usize = 256 * 1024;

/// Incremental compressor. Feed bytes with [`StreamCompressor::write`],
/// collect the framed output — as it is produced with
/// [`StreamCompressor::take_framed`], or all at once at the end — and
/// [`StreamCompressor::finish`] to emit the terminator.
pub struct StreamCompressor {
    level: Level,
    chunk_size: usize,
    /// Input short of a full chunk, waiting for the rest of it.
    buffer: Vec<u8>,
    out: Vec<u8>,
}

impl StreamCompressor {
    /// Compressor with the default chunk size.
    pub fn new(level: Level) -> Self {
        Self::with_chunk_size(level, DEFAULT_CHUNK)
    }

    /// Compressor with an explicit chunk size (≥ 1).
    pub fn with_chunk_size(level: Level, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            level,
            chunk_size,
            buffer: Vec::new(),
            out: STREAM_MAGIC.to_vec(),
        }
    }

    /// Frame one chunk onto `out`: length word, then the `swz` frame —
    /// stored, if its token stream came out no smaller than the chunk.
    fn frame_chunk(out: &mut Vec<u8>, chunk: &[u8], level: Level) {
        // Room for the largest frame a chunk can end as (the stored one),
        // so that a wire piece is one allocation.
        out.reserve(chunk.len() + 32);
        let word_at = out.len();
        out.extend_from_slice(&[0; 4]);
        codec::append_bounded_frame(out, chunk, level);
        let frame_len = (out.len() - word_at - 4) as u32;
        out[word_at..word_at + 4].copy_from_slice(&frame_len.to_le_bytes());
    }

    /// Append input bytes, compressing full chunks as they accumulate.
    pub fn write(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            // A whole chunk with nothing buffered before it is compressed
            // where it lies.
            if self.buffer.is_empty() && data.len() >= self.chunk_size {
                let (chunk, rest) = data.split_at(self.chunk_size);
                Self::frame_chunk(&mut self.out, chunk, self.level);
                data = rest;
                continue;
            }
            let room = self.chunk_size - self.buffer.len();
            let (head, rest) = data.split_at(room.min(data.len()));
            self.buffer.extend_from_slice(head);
            data = rest;
            if self.buffer.len() == self.chunk_size {
                Self::frame_chunk(&mut self.out, &self.buffer, self.level);
                self.buffer.clear();
            }
        }
    }

    /// Hand over the stream bytes produced since the last call (or since
    /// the start): the frames of every chunk completed so far, behind the
    /// stream magic the first time. What has been taken is not returned
    /// again, by this or by [`StreamCompressor::finish`].
    pub fn take_framed(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Flush the trailing partial chunk, emit the terminator and return the
    /// complete stream (what of it has not been taken already).
    pub fn finish(mut self) -> Bytes {
        if !self.buffer.is_empty() {
            Self::frame_chunk(&mut self.out, &self.buffer, self.level);
        }
        self.out.extend_from_slice(&0u32.to_le_bytes());
        Bytes::from(self.out)
    }
}

/// The chunk frame at the head of `src`: `None` while `src` does not hold
/// all of it, else the frame (empty for the terminator) and the bytes it
/// occupies together with its length word.
fn next_frame(src: &[u8]) -> Option<(&[u8], usize)> {
    let word: [u8; 4] = src.get(..4)?.try_into().expect("a four-byte slice");
    let end = 4usize.checked_add(u32::from_le_bytes(word) as usize)?;
    Some((src.get(4..end)?, end))
}

/// Decompress a complete stream produced by [`StreamCompressor`].
pub fn decompress_stream(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    if stream.len() < 4 || &stream[0..4] != STREAM_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = 4usize;
    let mut out = Vec::new();
    loop {
        let (frame, used) = next_frame(&stream[pos..]).ok_or(CodecError::Truncated)?;
        if frame.is_empty() {
            return Ok(out);
        }
        codec::decompress_into(frame, &mut out)?;
        pos += used;
    }
}

/// Incremental decompressor: feed stream bytes in arbitrary slices, collect
/// decoded chunks as they complete.
pub struct StreamDecompressor {
    /// Stream bytes received but not yet decoded: less than one whole
    /// chunk frame whenever `feed` has returned `Ok`.
    pending: Vec<u8>,
    seen_magic: bool,
    done: bool,
}

impl StreamDecompressor {
    /// Fresh decompressor.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            seen_magic: false,
            done: false,
        }
    }

    /// Whether the stream terminator has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Feed more stream bytes; the payload of every chunk they complete is
    /// decoded, verified and appended to `out` (nothing, while a chunk is
    /// still incomplete). Bytes after the terminator are ignored.
    ///
    /// The bytes are parsed where they lie, through a cursor, and only an
    /// incomplete tail is copied aside, once per call: a gigabyte fed at
    /// once is never moved chunk by chunk, and a receiver that feeds whole
    /// wire pieces (`push_block`) buffers nothing at all — which, beyond the
    /// copy, kept 1.6 MB off the peak RSS of the benchmark's shuffle.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        if self.done {
            return Ok(());
        }
        let buffered = !self.pending.is_empty();
        if buffered {
            self.pending.extend_from_slice(data);
        }
        let src: &[u8] = if buffered { &self.pending } else { data };
        let mut pos = 0usize;
        let result = loop {
            if !self.seen_magic {
                match src.get(..4) {
                    None => break Ok(()),
                    Some(magic) if magic != STREAM_MAGIC => break Err(CodecError::BadMagic),
                    Some(_) => {}
                }
                pos = 4;
                self.seen_magic = true;
            }
            let Some((frame, used)) = next_frame(&src[pos..]) else {
                break Ok(());
            };
            if frame.is_empty() {
                self.done = true;
                pos += used;
                break Ok(());
            }
            if let Err(e) = codec::decompress_into(frame, out) {
                break Err(e);
            }
            pos += used;
        };
        // Keep what was not consumed — after an error, from the bad chunk on
        // — with one move per call.
        if buffered {
            self.pending.drain(..pos);
        } else {
            self.pending.extend_from_slice(&data[pos..]);
        }
        result
    }
}

impl Default for StreamDecompressor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::synthesize_with_ratio;

    #[test]
    fn roundtrip_one_shot() {
        let data = synthesize_with_ratio(0.4, 800_000, 1);
        let mut c = StreamCompressor::new(Level::Fast);
        c.write(&data);
        let stream = c.finish();
        assert!(stream.len() < data.len());
        assert_eq!(decompress_stream(&stream).unwrap(), data);
    }

    #[test]
    fn roundtrip_many_small_writes() {
        let data = synthesize_with_ratio(0.5, 300_000, 2);
        let mut c = StreamCompressor::with_chunk_size(Level::Fast, 10_000);
        for piece in data.chunks(777) {
            c.write(piece);
        }
        let stream = c.finish();
        assert_eq!(decompress_stream(&stream).unwrap(), data);
    }

    #[test]
    fn empty_stream() {
        let c = StreamCompressor::new(Level::Fast);
        let stream = c.finish();
        assert_eq!(decompress_stream(&stream).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn incremental_decoder_matches_one_shot() {
        let data = synthesize_with_ratio(0.35, 500_000, 3);
        let mut c = StreamCompressor::with_chunk_size(Level::Fast, 64 * 1024);
        c.write(&data);
        let stream = c.finish();
        // Slices that cut frames anywhere, one byte at a time, and the
        // whole stream in a single call.
        for step in [4096, 1, stream.len()] {
            let mut d = StreamDecompressor::new();
            let mut out = Vec::new();
            for piece in stream.chunks(step) {
                d.feed(piece, &mut out).unwrap();
            }
            assert!(d.is_done(), "step {step}");
            assert_eq!(out, data, "step {step}");
            // Further feeds after the terminator are ignored.
            d.feed(b"garbage", &mut out).unwrap();
            assert_eq!(out.len(), data.len());
        }
    }

    #[test]
    fn wire_pieces_concatenate_to_the_one_shot_stream() {
        let data = synthesize_with_ratio(0.4, 700_000, 7);
        let mut one_shot = StreamCompressor::with_chunk_size(Level::Fast, 100_000);
        one_shot.write(&data);
        let one_shot = one_shot.finish();

        // The sender's loop: a chunk in, its wire piece out; the receiver
        // feeds each piece as it lands.
        let mut tx = StreamCompressor::with_chunk_size(Level::Fast, 100_000);
        let mut rx = StreamDecompressor::new();
        let (mut wire, mut decoded) = (Vec::new(), Vec::new());
        for (k, chunk) in data.chunks(100_000).enumerate() {
            tx.write(chunk);
            let piece = tx.take_framed();
            assert_eq!(piece.starts_with(STREAM_MAGIC), k == 0);
            rx.feed(&piece, &mut decoded).unwrap();
            assert_eq!(decoded, data[..decoded.len()]);
            assert_eq!(decoded.len(), data.len().min((k + 1) * 100_000));
            wire.extend(piece);
        }
        assert!(!rx.is_done());
        let last = tx.finish();
        rx.feed(&last, &mut decoded).unwrap();
        wire.extend_from_slice(&last);
        assert!(rx.is_done());
        assert_eq!(wire, one_shot[..]);
        assert_eq!(decoded, data);
    }

    #[test]
    fn a_chunk_that_shrinks_is_framed_as_the_codec_frames_it() {
        // The stream of compressible data is what it has always been: the
        // magic, each chunk's `codec::compress` frame behind its length,
        // the terminator.
        let data = synthesize_with_ratio(0.6, 300_000, 9);
        let mut want = STREAM_MAGIC.to_vec();
        for chunk in data.chunks(64 * 1024) {
            let frame = codec::compress(chunk);
            assert!(frame.len() < chunk.len());
            want.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            want.extend_from_slice(&frame);
        }
        want.extend_from_slice(&[0; 4]);
        let mut c = StreamCompressor::with_chunk_size(Level::Fast, 64 * 1024);
        c.write(&data);
        assert_eq!(c.finish(), want);
    }

    #[test]
    fn how_the_input_is_cut_into_writes_does_not_show_in_the_stream() {
        let data = synthesize_with_ratio(0.5, 90_000, 8);
        let stream_of = |step: usize| {
            let mut c = StreamCompressor::with_chunk_size(Level::Fast, 8_192);
            for piece in data.chunks(step) {
                c.write(piece);
            }
            c.finish()
        };
        let whole = stream_of(data.len());
        for step in [1, 777, 8_191, 8_192, 8_193, 20_000] {
            assert_eq!(stream_of(step), whole, "writes of {step} bytes");
        }
    }

    /// splitmix64 noise: incompressible, and the same under any `rand`.
    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn a_chunk_that_does_not_shrink_goes_stored() {
        // Noise, phrase, noise: the outer chunks cannot shrink.
        let mut data = noise(DEFAULT_CHUNK, 1);
        data.extend(b"stored or not, ".iter().cycle().take(DEFAULT_CHUNK));
        data.extend(noise(DEFAULT_CHUNK / 2, 2));
        let mut c = StreamCompressor::new(Level::Fast);
        c.write(&data);
        let stream = c.finish();
        assert_eq!(decompress_stream(&stream).unwrap(), data);

        // Walk the frames: a stored one is its chunk plus 14 bytes (magic
        // 4, length varint 3, checksum 4, run length varint 3), and the
        // stream stays inside 26 bytes a chunk.
        let mut pos = 4;
        let mut frames = Vec::new();
        while let Some((frame, used)) = next_frame(&stream[pos..]) {
            if frame.is_empty() {
                break;
            }
            frames.push(frame.len());
            pos += used;
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], DEFAULT_CHUNK + 14);
        assert!(frames[1] < DEFAULT_CHUNK / 20);
        assert_eq!(frames[2], DEFAULT_CHUNK / 2 + 14);
        assert!(stream.len() <= data.len() + 26 * 3);
        // The codec alone would have spent more on the noise.
        assert!(codec::compress(&data[..DEFAULT_CHUNK]).len() > frames[0]);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = synthesize_with_ratio(0.4, 100_000, 4);
        let mut c = StreamCompressor::new(Level::Fast);
        c.write(&data);
        let stream = c.finish();
        // Drop the terminator and some payload.
        let cut = &stream[..stream.len() - 9];
        assert!(matches!(
            decompress_stream(cut),
            Err(CodecError::Truncated) | Err(CodecError::BadVarint)
        ));
    }

    #[test]
    fn corrupt_chunk_reported_with_position_preserved() {
        let data = synthesize_with_ratio(0.4, 200_000, 5);
        let mut c = StreamCompressor::with_chunk_size(Level::Fast, 50_000);
        c.write(&data);
        let mut stream = c.finish().to_vec();
        // Flip a byte inside the second chunk's payload.
        let idx = stream.len() / 2;
        stream[idx] ^= 0x55;
        assert!(decompress_stream(&stream).is_err());
    }

    #[test]
    fn bad_magic_rejected_incrementally() {
        let mut d = StreamDecompressor::new();
        let mut out = Vec::new();
        assert!(matches!(
            d.feed(b"NOPE", &mut out),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn high_level_streams_too() {
        let data = synthesize_with_ratio(0.3, 150_000, 6);
        let mut c = StreamCompressor::with_chunk_size(Level::High, 32 * 1024);
        c.write(&data);
        let stream = c.finish();
        assert_eq!(decompress_stream(&stream).unwrap(), data);
    }
}
