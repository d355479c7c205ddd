//! Common Data Representation (CDR)-style marshalling.
//!
//! A faithful-in-spirit re-implementation of CORBA's CDR: primitives are
//! encoded little-endian at naturally aligned offsets (a `u32` starts at a
//! 4-byte boundary, a `u64` at an 8-byte boundary, …), strings are
//! length-prefixed and NUL-terminated, sequences are length-prefixed.
//!
//! # Example
//!
//! ```
//! use orb::cdr::{CdrEncoder, CdrDecoder};
//!
//! let mut enc = CdrEncoder::new();
//! enc.put_u8(7);
//! enc.put_u32(0xDEAD_BEEF); // padded to offset 4
//! enc.put_string("hi");
//! let bytes = enc.into_bytes();
//!
//! let mut dec = CdrDecoder::new(&bytes);
//! assert_eq!(dec.get_u8().unwrap(), 7);
//! assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
//! assert_eq!(dec.get_string().unwrap(), "hi");
//! assert!(dec.is_at_end());
//! ```

use crate::error::OrbError;

/// Maximum length accepted for strings, byte buffers and sequences, a
/// defence against corrupt or hostile length prefixes.
pub const MAX_LEN: u32 = 64 * 1024 * 1024;

/// An append-only CDR encoder.
#[derive(Debug, Default, Clone)]
pub struct CdrEncoder {
    buf: Vec<u8>,
}

impl CdrEncoder {
    /// A new, empty encoder.
    pub fn new() -> CdrEncoder {
        CdrEncoder::default()
    }

    /// A new encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> CdrEncoder {
        CdrEncoder { buf: Vec::with_capacity(cap) }
    }

    /// Finish encoding and return the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn align(&mut self, n: usize) {
        let pad = (n - self.buf.len() % n) % n;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }

    /// Pad with zero octets so the next write starts on an `n`-byte
    /// boundary. Useful for framing layers that embed independently
    /// aligned sub-encodings in one buffer.
    pub fn align_to(&mut self, n: usize) {
        self.align(n);
    }

    /// Append raw octets verbatim: no length prefix, no alignment.
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Reserve a 4-aligned `u32` slot (written as zero) and return its
    /// offset, to be filled in later with [`CdrEncoder::patch_u32`] once
    /// the value (typically a trailing-body length) is known.
    pub fn reserve_u32(&mut self) -> usize {
        self.align(4);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        at
    }

    /// Overwrite the `u32` slot previously returned by
    /// [`CdrEncoder::reserve_u32`].
    ///
    /// # Panics
    ///
    /// Panics if `at` does not address 4 reserved bytes in the buffer.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` (one octet, 0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append an octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append an `i16` at 2-byte alignment.
    pub fn put_i16(&mut self, v: i16) {
        self.align(2);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u16` at 2-byte alignment.
    pub fn put_u16(&mut self, v: u16) {
        self.align(2);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i32` at 4-byte alignment.
    pub fn put_i32(&mut self, v: i32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` at 4-byte alignment.
    pub fn put_u32(&mut self, v: u32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` at 8-byte alignment.
    pub fn put_i64(&mut self, v: i64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` at 8-byte alignment.
    pub fn put_u64(&mut self, v: u64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` at 4-byte alignment.
    pub fn put_f32(&mut self, v: f32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` at 8-byte alignment.
    pub fn put_f64(&mut self, v: f64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a string: `u32` length (including NUL), bytes, NUL.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32 + 1);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// Append a byte sequence: `u32` length, raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Append a sequence length prefix (callers then encode the elements).
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// A cursor-based CDR decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct CdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! get_prim {
    ($name:ident, $ty:ty, $align:expr) => {
        /// Decode the primitive at its natural alignment.
        ///
        /// # Errors
        ///
        /// Returns [`OrbError::Marshal`] if the buffer is exhausted.
        pub fn $name(&mut self) -> Result<$ty, OrbError> {
            self.align($align);
            const N: usize = std::mem::size_of::<$ty>();
            let end = self.pos.checked_add(N).ok_or_else(|| overflow())?;
            let slice = self.buf.get(self.pos..end).ok_or_else(|| eof(stringify!($ty)))?;
            self.pos = end;
            Ok(<$ty>::from_le_bytes(slice.try_into().expect("length checked")))
        }
    };
}

fn eof(what: &str) -> OrbError {
    OrbError::Marshal(format!("unexpected end of CDR buffer reading {what}"))
}

fn overflow() -> OrbError {
    OrbError::Marshal("CDR cursor overflow".to_string())
}

impl<'a> CdrDecoder<'a> {
    /// Decode from `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> CdrDecoder<'a> {
        CdrDecoder { buf, pos: 0 }
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The unread remainder of the buffer.
    pub fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos.min(self.buf.len())..]
    }

    fn align(&mut self, n: usize) {
        let pad = (n - self.pos % n) % n;
        self.pos += pad;
    }

    /// Skip padding so the next read starts on an `n`-byte boundary
    /// (the decoder mirror of [`CdrEncoder::align_to`]).
    pub fn align_to(&mut self, n: usize) {
        self.align(n);
    }

    /// Read `n` raw octets with no length prefix, returning the
    /// underlying slice (no copy).
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], OrbError> {
        let end = self.pos.checked_add(n).ok_or_else(overflow)?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| eof("raw bytes"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Decode a `bool`.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion or a value other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, OrbError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(OrbError::Marshal(format!("invalid bool octet {v}"))),
        }
    }

    /// Decode an octet.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion.
    pub fn get_u8(&mut self) -> Result<u8, OrbError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| eof("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    get_prim!(get_i16, i16, 2);
    get_prim!(get_u16, u16, 2);
    get_prim!(get_i32, i32, 4);
    get_prim!(get_u32, u32, 4);
    get_prim!(get_i64, i64, 8);
    get_prim!(get_u64, u64, 8);
    get_prim!(get_f32, f32, 4);
    get_prim!(get_f64, f64, 8);

    /// Decode a string (length-prefixed, NUL-terminated, UTF-8),
    /// borrowing it straight out of the buffer — no allocation. The hot
    /// receive path uses this to read the QoS-envelope module name
    /// without an owned `String` per packet.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion, missing NUL, oversized length
    /// or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, OrbError> {
        let len = self.get_u32()?;
        if len == 0 || len > MAX_LEN {
            return Err(OrbError::Marshal(format!("bad string length {len}")));
        }
        let n = len as usize;
        let end = self.pos.checked_add(n).ok_or_else(overflow)?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| eof("string"))?;
        self.pos = end;
        let (body, nul) = slice.split_at(n - 1);
        if nul != [0] {
            return Err(OrbError::Marshal("string missing NUL terminator".to_string()));
        }
        std::str::from_utf8(body)
            .map_err(|e| OrbError::Marshal(format!("invalid UTF-8 in string: {e}")))
    }

    /// Decode a string into an owned `String`; see [`CdrDecoder::get_str`].
    ///
    /// # Errors
    ///
    /// As [`CdrDecoder::get_str`].
    pub fn get_string(&mut self) -> Result<String, OrbError> {
        self.get_str().map(str::to_owned)
    }

    /// Decode a byte sequence.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion or oversized length.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, OrbError> {
        let len = self.get_u32()?;
        if len > MAX_LEN {
            return Err(OrbError::Marshal(format!("bad bytes length {len}")));
        }
        let n = len as usize;
        let end = self.pos.checked_add(n).ok_or_else(overflow)?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| eof("bytes"))?;
        self.pos = end;
        Ok(slice.to_vec())
    }

    /// Decode a sequence length prefix.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on exhaustion or oversized length.
    pub fn get_len(&mut self) -> Result<usize, OrbError> {
        let len = self.get_u32()?;
        if len > MAX_LEN {
            return Err(OrbError::Marshal(format!("bad sequence length {len}")));
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut e = CdrEncoder::new();
        e.put_bool(true);
        e.put_u8(0xAB);
        e.put_i16(-2);
        e.put_u16(65_000);
        e.put_i32(-70_000);
        e.put_u32(4_000_000_000);
        e.put_i64(i64::MIN);
        e.put_u64(u64::MAX);
        e.put_f32(1.5);
        e.put_f64(-2.25);
        let b = e.into_bytes();
        let mut d = CdrDecoder::new(&b);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_i16().unwrap(), -2);
        assert_eq!(d.get_u16().unwrap(), 65_000);
        assert_eq!(d.get_i32().unwrap(), -70_000);
        assert_eq!(d.get_u32().unwrap(), 4_000_000_000);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_f32().unwrap(), 1.5);
        assert_eq!(d.get_f64().unwrap(), -2.25);
        assert!(d.is_at_end());
    }

    #[test]
    fn alignment_is_natural() {
        let mut e = CdrEncoder::new();
        e.put_u8(1); // offset 0
        e.put_u32(2); // padded to offset 4
        assert_eq!(e.len(), 8);
        let mut e2 = CdrEncoder::new();
        e2.put_u8(1);
        e2.put_u64(2); // padded to offset 8
        assert_eq!(e2.into_bytes().len(), 16);
    }

    #[test]
    fn string_roundtrip_including_empty_and_unicode() {
        for s in ["", "x", "hello world", "héllo ☃", "a\nb\tc"] {
            let mut e = CdrEncoder::new();
            e.put_string(s);
            let b = e.into_bytes();
            assert_eq!(CdrDecoder::new(&b).get_string().unwrap(), s);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let data = vec![0u8, 255, 3, 7];
        let mut e = CdrEncoder::new();
        e.put_bytes(&data);
        let b = e.into_bytes();
        assert_eq!(CdrDecoder::new(&b).get_bytes().unwrap(), data);
    }

    #[test]
    fn truncated_buffer_is_marshal_error() {
        let mut e = CdrEncoder::new();
        e.put_u64(42);
        let b = e.into_bytes();
        let mut d = CdrDecoder::new(&b[..4]);
        assert!(matches!(d.get_u64(), Err(OrbError::Marshal(_))));
    }

    #[test]
    fn bogus_lengths_are_rejected() {
        // String with length 0 (CDR strings always have >= 1 for the NUL).
        let mut e = CdrEncoder::new();
        e.put_u32(0);
        let b = e.into_bytes();
        assert!(CdrDecoder::new(&b).get_string().is_err());
        // Huge claimed length.
        let mut e = CdrEncoder::new();
        e.put_u32(u32::MAX);
        let b = e.into_bytes();
        assert!(CdrDecoder::new(&b).get_bytes().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let b = [3u8];
        assert!(CdrDecoder::new(&b).get_bool().is_err());
    }

    #[test]
    fn missing_nul_rejected() {
        let mut e = CdrEncoder::new();
        e.put_u32(3);
        let mut b = e.into_bytes();
        b.extend_from_slice(b"abc"); // 3 bytes, none of them NUL
        assert!(CdrDecoder::new(&b).get_string().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = CdrEncoder::new();
        e.put_u32(3);
        let mut b = e.into_bytes();
        b.extend_from_slice(&[0xFF, 0xFE, 0x00]);
        assert!(CdrDecoder::new(&b).get_string().is_err());
    }

    #[test]
    fn reserve_patch_and_raw_roundtrip() {
        let mut e = CdrEncoder::new();
        e.put_raw(b"MAQ1");
        e.put_u8(0);
        let at = e.reserve_u32(); // 4-aligned: offset 8
        assert_eq!(at, 8);
        e.align_to(8);
        let body_start = e.len();
        assert_eq!(body_start % 8, 0);
        e.put_raw(b"body");
        e.patch_u32(at, 4);
        let b = e.into_bytes();

        let mut d = CdrDecoder::new(&b);
        assert_eq!(d.get_raw(4).unwrap(), b"MAQ1");
        assert_eq!(d.get_u8().unwrap(), 0);
        let len = d.get_u32().unwrap() as usize;
        d.align_to(8);
        assert_eq!(d.position(), body_start);
        assert_eq!(d.get_raw(len).unwrap(), b"body");
        assert!(d.is_at_end());
    }

    #[test]
    fn get_raw_past_end_is_marshal_error() {
        let b = [1u8, 2];
        let mut d = CdrDecoder::new(&b);
        assert!(matches!(d.get_raw(3), Err(OrbError::Marshal(_))));
        assert_eq!(d.get_raw(2).unwrap(), &[1, 2]);
    }

    #[test]
    fn decoder_remaining_and_position() {
        let mut e = CdrEncoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let b = e.into_bytes();
        let mut d = CdrDecoder::new(&b);
        assert_eq!(d.get_u8().unwrap(), 1);
        assert_eq!(d.position(), 1);
        assert_eq!(d.remaining(), &[2]);
    }
}
