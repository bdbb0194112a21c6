//! Little-endian byte-level encoding for the index's binary files
//! (`core.bin`, the shard files and their class records).
//!
//! Fixed layout, no self-description: every field is written and read in
//! one agreed order, lengths are explicit, and integers are
//! little-endian. The reader returns `Err` with a position-annotated
//! message instead of panicking, so a truncated or corrupted file
//! surfaces as a loadable error rather than UB or an abort.

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[allow(dead_code)] // clippy::len_without_is_empty pairs it with len()
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// f64 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes, no length prefix (pair with an explicit length field).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Length-prefixed (u32) vector of u64s.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err(format!(
                "truncated: need {n} bytes at offset {}, file has {}",
                self.pos,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.take(n)
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// Length-prefixed (u32) vector of u64s.
    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

/// FNV-1a over raw bytes — the whole-file checksum recorded in the
/// manifest (the file does not checksum itself, so writing stays
/// single-pass).
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_parts(&[bytes])
}

/// FNV-1a over the concatenation of `parts` — equal to [`checksum`] of
/// the joined bytes, without materializing the join. Used for the shard
/// *meta* checksum, which covers a file minus its record-blob region
/// (the two slices around the hole).
pub fn checksum_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.str("héllo");
        w.u64s(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert!(r.at_end());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        let err = r.u64().unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
    }
}
