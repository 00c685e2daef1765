//! Length-prefixed, checksummed stream frames for cross-process pipes.
//!
//! Process-isolated mutation shards stream verdicts back to their
//! supervisor over a pipe. A shard can die at *any* byte — SIGKILL does
//! not flush buffers — so the supervisor needs the same torn-tail
//! discipline the on-disk [`crate::Journal`] has: every frame carries its
//! payload length and CRC-32, a frame that fails either check is dropped
//! (never half-applied), and a truncated tail simply stays undecoded.
//!
//! Frame layout (line-oriented, like the journal's `crc32 payload` rows):
//!
//! ```text
//! <len, 8 hex digits> <crc32, 8 hex digits> <payload>\n
//! ```
//!
//! `len` is the payload's byte length; `crc32` is [`crate::crc32`] over
//! the payload. The decoder additionally *skips* well-terminated lines
//! that are not valid frames (counting them as dropped) instead of
//! aborting the stream: a self-exec'd worker may share its stdout with a
//! test-harness banner, and foreign chatter must not poison the verdict
//! stream.
//!
//! # Examples
//!
//! ```
//! use concat_runtime::{encode_frame, FrameDecoder};
//!
//! let frame = encode_frame("verdict 3 survived").unwrap();
//! let mut decoder = FrameDecoder::new();
//! // Arbitrary split points: frames survive any chunking.
//! let (a, b) = frame.as_bytes().split_at(7);
//! assert!(decoder.push(a).is_empty());
//! assert_eq!(decoder.push(b), vec!["verdict 3 survived".to_owned()]);
//! ```

use crate::atomic_io::{frame_records, verify_record};
use crate::record::hex8;
use std::io;

/// Encodes one payload as a self-checking frame line (newline included):
/// its length, then the journal's `crc32 payload` record framing.
///
/// # Errors
///
/// `InvalidInput` when the payload contains a newline — frames are
/// line-oriented, exactly like journal records.
pub fn encode_frame(payload: &str) -> io::Result<String> {
    Ok(format!(
        "{:08x} {}",
        payload.len(),
        frame_records(&[payload])?
    ))
}

/// Verifies one complete line (newline already stripped) against its
/// length/CRC prefix.
fn verify_frame(line: &[u8]) -> Option<String> {
    if line.get(8) != Some(&b' ') {
        return None;
    }
    let len = hex8(&line[..8])?;
    let payload = verify_record(&line[9..])?;
    (u32::try_from(payload.len()) == Ok(len)).then_some(payload)
}

/// Incremental frame decoder: feed it pipe chunks in any split, collect
/// verified payloads.
///
/// * A complete line that fails the length/CRC check is **dropped** and
///   counted in [`FrameDecoder::dropped`] — foreign stdout chatter or a
///   frame torn *and then terminated* by interleaving cannot corrupt the
///   stream.
/// * An unterminated tail (the writer was killed mid-frame) stays
///   buffered in [`FrameDecoder::pending_bytes`], never decoded — the
///   exact analogue of the journal's torn-tail recovery.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    dropped: u64,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Consumes one chunk and returns every payload whose frame completed
    /// (and verified) with it, in stream order.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<String> {
        self.buf.extend_from_slice(bytes);
        let mut payloads = Vec::new();
        while let Some(pos) = self.buf.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            match verify_frame(&line[..line.len() - 1]) {
                Some(payload) => payloads.push(payload),
                None => self.dropped += 1,
            }
        }
        payloads
    }

    /// Complete lines rejected by the length/CRC check so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes of the unterminated tail currently buffered. Non-zero at
    /// end-of-stream means the writer died mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn round_trips_one_frame() {
        let frame = encode_frame("hello frames").unwrap();
        assert!(frame.ends_with('\n'));
        let mut d = FrameDecoder::new();
        assert_eq!(d.push(frame.as_bytes()), vec!["hello frames".to_owned()]);
        assert_eq!(d.dropped(), 0);
        assert_eq!(d.pending_bytes(), 0);
    }

    #[test]
    fn rejects_newline_payloads() {
        assert!(encode_frame("two\nlines").is_err());
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = encode_frame("").unwrap();
        let mut d = FrameDecoder::new();
        assert_eq!(d.push(frame.as_bytes()), vec![String::new()]);
    }

    #[test]
    fn survives_arbitrary_split_points() {
        // Property test: random payloads, random chunk boundaries — every
        // frame decodes exactly once, in order, for any chunking.
        let mut rng = Rng::seed_from_u64(0xF4A3);
        for _ in 0..50 {
            let payloads: Vec<String> = (0..rng.int_in(1, 12))
                .map(|i| {
                    let len = rng.int_in(0, 40) as usize;
                    let mut s = format!("p{i} ");
                    for _ in 0..len {
                        s.push((b'!' + rng.int_in(0, 90) as u8) as char);
                    }
                    s
                })
                .collect();
            let stream: Vec<u8> = payloads
                .iter()
                .map(|p| encode_frame(p).unwrap())
                .collect::<String>()
                .into_bytes();
            let mut d = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut offset = 0;
            while offset < stream.len() {
                let take = (rng.int_in(1, 9) as usize).min(stream.len() - offset);
                decoded.extend(d.push(&stream[offset..offset + take]));
                offset += take;
            }
            assert_eq!(decoded, payloads);
            assert_eq!(d.dropped(), 0);
            assert_eq!(d.pending_bytes(), 0);
        }
    }

    #[test]
    fn torn_tail_stays_undecoded() {
        // A SIGKILL mid-frame truncates the stream at an arbitrary byte:
        // the complete prefix decodes, the torn tail never does.
        let a = encode_frame("first frame").unwrap();
        let b = encode_frame("second frame, torn").unwrap();
        for cut in 1..b.len() {
            let mut stream = a.clone().into_bytes();
            stream.extend_from_slice(&b.as_bytes()[..cut]);
            let mut d = FrameDecoder::new();
            let decoded = d.push(&stream);
            assert_eq!(decoded, vec!["first frame".to_owned()], "cut at {cut}");
            assert_eq!(d.pending_bytes(), cut, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_and_foreign_lines_are_dropped_not_fatal() {
        let good = encode_frame("kept").unwrap();
        let mut corrupt = encode_frame("flipped").unwrap();
        // Flip one payload byte; the CRC no longer matches.
        let flip = corrupt.len() - 2;
        flip_byte(&mut corrupt, flip);
        let stream = format!("running 3 tests\n{corrupt}{good}garbage tail");
        let mut d = FrameDecoder::new();
        let decoded = d.push(stream.as_bytes());
        assert_eq!(decoded, vec!["kept".to_owned()]);
        assert_eq!(d.dropped(), 2, "banner line + corrupt frame");
        assert_eq!(d.pending_bytes(), "garbage tail".len());
    }

    #[test]
    fn length_mismatch_is_dropped() {
        let mut frame = encode_frame("sized").unwrap();
        // Graft extra payload bytes without fixing the length field.
        frame.truncate(frame.len() - 1);
        frame.push_str("xx\n");
        let mut d = FrameDecoder::new();
        assert!(d.push(frame.as_bytes()).is_empty());
        assert_eq!(d.dropped(), 1);
    }

    /// Replaces the byte at `at` with a different printable one.
    fn flip_byte(s: &mut String, at: usize) {
        let mut bytes = std::mem::take(s).into_bytes();
        bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
        *s = String::from_utf8(bytes).unwrap();
    }
}
