//! Binary encoding/decoding primitives used for records, WAL frames and index persistence.
//!
//! The format is deliberately simple and self-describing at the call-site (callers must decode
//! fields in the order they were encoded): fixed-width little-endian integers, LEB128-style
//! variable-length unsigned integers for lengths, and length-prefixed byte strings.

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{StorageError, StorageResult};

/// Incrementally builds a binary buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self { buf: BytesMut::new() }
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16_le(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.put_i64_le(v);
        self
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.buf.put_u8(u8::from(v));
        self
    }

    /// Appends an unsigned integer in LEB128 variable-length encoding.
    pub fn put_varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
        self
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends an `Option<u64>` as a presence byte followed by the value when present.
    pub fn put_opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x)
            }
            None => self.put_bool(false),
        }
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// Consumes the encoder, returning the encoded bytes (its buffer, not a copy).
    pub fn finish(self) -> Vec<u8> {
        self.buf.into_vec()
    }

    /// Returns a view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written so far, for patching a header in place once its body is written.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Forgets the bytes written so far, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Formatted text goes in raw, without a length prefix (how hierarchical keys are built).
impl std::fmt::Write for Encoder {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.put_raw(s.as_bytes());
        Ok(())
    }
}

/// Reads values back out of a byte slice in the order they were encoded.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the decoder has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt(format!(
                "unexpected end of input: wanted {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> StorageResult<u16> {
        let mut b = self.take(2)?;
        Ok(b.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> StorageResult<u32> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> StorageResult<u64> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> StorageResult<i64> {
        let mut b = self.take(8)?;
        Ok(b.get_i64_le())
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> StorageResult<f64> {
        let mut b = self.take(8)?;
        Ok(b.get_f64_le())
    }

    /// Reads a boolean encoded as one byte.
    pub fn get_bool(&mut self) -> StorageResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Corrupt(format!("invalid boolean byte {other}"))),
        }
    }

    /// Reads a LEB128 variable-length unsigned integer.
    pub fn get_varint(&mut self) -> StorageResult<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(StorageError::Corrupt("varint overflow".to_string()));
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> StorageResult<&'a [u8]> {
        let len = self.get_varint()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> StorageResult<&'a str> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|e| StorageError::Corrupt(format!("invalid utf-8 string: {e}")))
    }

    /// Reads an optional `u64` written by [`Encoder::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> StorageResult<Option<u64>> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads `n` raw bytes without a length prefix.
    pub fn get_raw(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        self.take(n)
    }
}

/// Slicing-by-8 lookup tables for [`crc32`].  `CRC32_TABLES[0]` is the byte-at-a-time table:
/// entry `i` is the CRC register after shifting the byte `i` through eight rounds of the
/// reflected IEEE polynomial.  `CRC32_TABLES[k]` advances that register over `k` more zero
/// bytes, so eight input bytes fold in with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 * 8 {
        let (k, n) = (i / 256, i % 256);
        tables[k][n] = if k == 0 {
            let (mut crc, mut bit) = (n as u32, 0);
            while bit < 8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            crc
        } else {
            (tables[k - 1][n] >> 8) ^ tables[0][(tables[k - 1][n] & 0xFF) as usize]
        };
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) used to protect WAL frames and snapshot images.
///
/// Implemented locally to stay within the allowed dependency set.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, k| acc ^ CRC32_TABLES[7 - k][(word >> (8 * k)) as u8 as usize]);
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fixed_width() {
        let mut e = Encoder::new();
        e.put_u8(0xAB)
            .put_u16(0xBEEF)
            .put_u32(0xDEAD_BEEF)
            .put_u64(0x0123_4567_89AB_CDEF)
            .put_i64(-42)
            .put_f64(3.25)
            .put_bool(true)
            .put_bool(false);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), 3.25);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert!(d.is_exhausted());
    }

    #[test]
    fn roundtrip_varint_boundaries() {
        let values = [0u64, 1, 127, 128, 255, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_varint().unwrap(), v, "value {v}");
            assert!(d.is_exhausted());
        }
    }

    #[test]
    fn roundtrip_strings_and_bytes() {
        let mut e = Encoder::new();
        e.put_str("AlarmHandler")
            .put_bytes(b"\x00\x01\x02")
            .put_str("")
            .put_opt_u64(Some(9))
            .put_opt_u64(None);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str().unwrap(), "AlarmHandler");
        assert_eq!(d.get_bytes().unwrap(), b"\x00\x01\x02");
        assert_eq!(d.get_str().unwrap(), "");
        assert_eq!(d.get_opt_u64().unwrap(), Some(9));
        assert_eq!(d.get_opt_u64().unwrap(), None);
    }

    #[test]
    fn decoding_past_end_is_an_error() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(d.get_u32().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = Decoder::new(&[7]);
        assert!(d.get_bool().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_str().is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ASCII string "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"SEED"), crc32(b"SEEE"));
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes cannot encode a u64.
        let bytes = [0x80u8; 11];
        let mut d = Decoder::new(&bytes);
        assert!(d.get_varint().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn varint_roundtrips(v in any::<u64>()) {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.get_varint().unwrap(), v);
            prop_assert!(d.is_exhausted());
        }

        #[test]
        fn mixed_sequence_roundtrips(
            a in any::<u64>(),
            s in ".*",
            b in proptest::collection::vec(any::<u8>(), 0..256),
            flag in any::<bool>(),
        ) {
            let mut e = Encoder::new();
            e.put_u64(a).put_str(&s).put_bytes(&b).put_bool(flag);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.get_u64().unwrap(), a);
            prop_assert_eq!(d.get_str().unwrap(), s.as_str());
            prop_assert_eq!(d.get_bytes().unwrap(), b.as_slice());
            prop_assert_eq!(d.get_bool().unwrap(), flag);
        }

        #[test]
        fn crc_detects_single_byte_flips(data in proptest::collection::vec(any::<u8>(), 1..128), idx in any::<usize>(), bit in 0u8..8) {
            let idx = idx % data.len();
            let mut flipped = data.clone();
            flipped[idx] ^= 1 << bit;
            prop_assert_ne!(crc32(&data), crc32(&flipped));
        }
    }
}
