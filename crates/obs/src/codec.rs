//! A small, explicit binary codec over [`bytes`].
//!
//! PITEX persists two kinds of artifacts — generated datasets and RR-Graph
//! indexes — whose layouts are fixed arrays of integers and floats. A
//! hand-rolled little-endian codec keeps the on-disk format documented,
//! stable and dependency-light. Every reader validates a magic tag and
//! version so stale files fail loudly instead of decoding garbage.

use bytes::{Buf, BufMut};

/// Errors produced while decoding a PITEX binary artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the declared payload.
    UnexpectedEof { needed: usize, remaining: usize },
    /// Magic tag did not match the expected artifact type.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Artifact version is not supported by this build.
    BadVersion { expected: u32, found: u32 },
    /// A declared length is implausible for the remaining input.
    CorruptLength { declared: usize, remaining: usize },
    /// The payload has the right shape but breaks an invariant of its
    /// artifact (named by the message).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {remaining} remain")
            }
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::BadVersion { expected, found } => {
                write!(f, "unsupported version {found} (this build reads {expected})")
            }
            DecodeError::CorruptLength { declared, remaining } => {
                write!(f, "corrupt length {declared} with only {remaining} bytes remaining")
            }
            DecodeError::Invalid(what) => write!(f, "invalid artifact: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encoder wrapper adding PITEX conventions on top of [`BufMut`].
pub struct Encoder<B: BufMut> {
    buf: B,
}

impl<B: BufMut> Encoder<B> {
    pub fn new(buf: B) -> Self {
        Self { buf }
    }

    /// Writes a 4-byte magic tag plus a `u32` version header.
    pub fn header(&mut self, magic: [u8; 4], version: u32) {
        self.buf.put_slice(&magic);
        self.buf.put_u32_le(version);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, values: &[u32]) {
        self.words(values, |v| v);
    }

    /// Length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, values: &[f32]) {
        self.words(values, f32::to_bits);
    }

    /// A length prefix, then `values` as little-endian 4-byte words, handed
    /// to the buffer a block at a time (one bulk copy per 256 values).
    fn words<T: Copy>(&mut self, values: &[T], bits: impl Fn(T) -> u32) {
        self.buf.put_u64_le(values.len() as u64);
        let mut block = [0u8; 1024];
        for chunk in values.chunks(block.len() / 4) {
            for (word, &v) in block.chunks_exact_mut(4).zip(chunk) {
                word.copy_from_slice(&bits(v).to_le_bytes());
            }
            self.buf.put_slice(&block[..4 * chunk.len()]);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.buf.put_u64_le(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    /// Returns the underlying buffer.
    pub fn into_inner(self) -> B {
        self.buf
    }
}

/// Decoder wrapper adding bounds-checked reads on top of [`Buf`].
pub struct Decoder<B: Buf> {
    buf: B,
}

impl<B: Buf> Decoder<B> {
    pub fn new(buf: B) -> Self {
        Self { buf }
    }

    /// Bytes not yet read: the bound any length field decoded next must be
    /// checked against before something is sized by it.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::UnexpectedEof { needed: n, remaining: self.buf.remaining() })
        } else {
            Ok(())
        }
    }

    /// Reads and validates the magic/version header written by
    /// [`Encoder::header`].
    pub fn header(&mut self, magic: [u8; 4], version: u32) -> Result<(), DecodeError> {
        self.need(8)?;
        let mut found = [0u8; 4];
        self.buf.copy_to_slice(&mut found);
        if found != magic {
            return Err(DecodeError::BadMagic { expected: magic, found });
        }
        let v = self.buf.get_u32_le();
        if v != version {
            return Err(DecodeError::BadVersion { expected: version, found: v });
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let len = self.u64()? as usize;
        let remaining = self.buf.remaining();
        if len.checked_mul(elem_size).map_or(true, |bytes| bytes > remaining) {
            return Err(DecodeError::CorruptLength { declared: len, remaining });
        }
        Ok(len)
    }

    pub fn u32_slice(&mut self) -> Result<Vec<u32>, DecodeError> {
        self.words(|bits| bits)
    }

    pub fn f32_slice(&mut self) -> Result<Vec<f32>, DecodeError> {
        self.words(f32::from_bits)
    }

    /// A length-prefixed run of little-endian 4-byte words, read in one pass
    /// over the buffer's (contiguous) bytes into an exactly sized vector.
    fn words<T>(&mut self, from_bits: impl Fn(u32) -> T) -> Result<Vec<T>, DecodeError> {
        let len = self.len_prefix(4)?;
        let bytes = &self.buf.chunk()[..4 * len];
        let words = bytes.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        let out = words.map(from_bits).collect();
        self.buf.advance(4 * len);
        Ok(out)
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.len_prefix(1)?;
        let mut bytes = vec![0u8; len];
        self.buf.copy_to_slice(&mut bytes);
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"PTST";

    #[test]
    fn round_trips_scalars_and_slices() {
        let mut enc = Encoder::new(Vec::new());
        enc.header(MAGIC, 3);
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.f32(1.5);
        enc.f64(-0.25);
        enc.u32_slice(&[1, 2, 3]);
        enc.f32_slice(&[0.5, 0.75]);
        enc.str("pitex");
        let bytes = enc.into_inner();

        let mut dec = Decoder::new(bytes.as_slice());
        dec.header(MAGIC, 3).unwrap();
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.f32().unwrap(), 1.5);
        assert_eq!(dec.f64().unwrap(), -0.25);
        assert_eq!(dec.u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.f32_slice().unwrap(), vec![0.5, 0.75]);
        assert_eq!(dec.str().unwrap(), "pitex");
    }

    #[test]
    fn slices_longer_than_a_block_round_trip() {
        // 256 values fill one block of the bulk writer: cover both sides.
        for len in [0usize, 1, 255, 256, 257, 1_000] {
            let ints: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let floats: Vec<f32> = ints.iter().map(|&i| i as f32 / 7.0).collect();
            let mut enc = Encoder::new(Vec::new());
            enc.u32_slice(&ints);
            enc.f32_slice(&floats);
            let bytes = enc.into_inner();
            assert_eq!(bytes.len(), 2 * (8 + 4 * len));
            let mut dec = Decoder::new(bytes.as_slice());
            assert_eq!(dec.u32_slice().unwrap(), ints);
            assert_eq!(dec.f32_slice().unwrap(), floats);
        }
        let mut enc = Encoder::new(Vec::new());
        enc.u32_slice(&[0x0403_0201]);
        assert_eq!(enc.into_inner(), [1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4], "little-endian");
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut enc = Encoder::new(Vec::new());
        enc.header(*b"XXXX", 1);
        let bytes = enc.into_inner();
        let err = Decoder::new(bytes.as_slice()).header(MAGIC, 1).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut enc = Encoder::new(Vec::new());
        enc.header(MAGIC, 2);
        let bytes = enc.into_inner();
        let err = Decoder::new(bytes.as_slice()).header(MAGIC, 1).unwrap_err();
        assert!(matches!(err, DecodeError::BadVersion { expected: 1, found: 2 }));
    }

    #[test]
    fn rejects_truncated_input() {
        let mut enc = Encoder::new(Vec::new());
        enc.u64(5); // declares a 5-element slice that never follows
        let bytes = enc.into_inner();
        let err = Decoder::new(bytes.as_slice()).u32_slice().unwrap_err();
        assert!(matches!(err, DecodeError::CorruptLength { declared: 5, .. }));
    }

    #[test]
    fn eof_is_reported_with_sizes() {
        let err = Decoder::new([1u8, 2].as_slice()).u32().unwrap_err();
        assert_eq!(err, DecodeError::UnexpectedEof { needed: 4, remaining: 2 });
    }
}
