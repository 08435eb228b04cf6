//! Wire primitives shared by the workspace's binary formats: the DFLT
//! fleet snapshot codec (df-core) and the DFRL replay log (df-data).
//!
//! Integers are little-endian; `varint` is unsigned LEB128; a string is a
//! varint byte length followed by UTF-8 bytes; an optional `f64` is a flag
//! byte (0 absent, 1 present) followed by the value's bit pattern.
//!
//! Decoding treats its input as untrusted. [`Reader`] bounds-checks every
//! read, refuses element counts larger than the bytes that remain (so a
//! hostile length can never size an allocation beyond the input held), and
//! reports every failure as a [`WireError`] carrying the absolute byte
//! offset where decoding stopped. Each read takes a `what` label naming the
//! field, which the error message repeats.

/// A decode failure at an absolute byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Absolute offset of the failure in the enclosing stream.
    pub offset: u64,
    /// Description of the corruption.
    pub message: String,
}

/// Appends `v` as unsigned LEB128 (1–10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // df-lint: allow(no-lossy-cast) -- masked to 7 bits the line before; the cast cannot lose information
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a varint byte length followed by the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends the little-endian bit pattern of `v` (8 bytes, lossless).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a presence flag, then the value when present.
pub fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

/// The one unsigned-LEB128 decode routine, fed by `next_byte` so the
/// in-buffer [`Reader`] and streaming readers share it. `Ok(None)` means
/// the value overflows `u64`: the 10th byte may only be 0 or 1 (the last
/// bit of a `u64`), which also rejects encodings longer than 10 bytes,
/// since any continuation byte is larger than 1.
#[inline]
pub fn leb128<E>(mut next_byte: impl FnMut() -> Result<u8, E>) -> Result<Option<u64>, E> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = next_byte()?;
        if shift == 63 && byte > 1 {
            return Ok(None);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
    }
}

/// Bounds-checked reader over one in-memory buffer. `base` is the buffer's
/// absolute offset in the enclosing stream, so errors name real positions.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`, which begins at offset `base`.
    pub fn new(buf: &'a [u8], base: u64) -> Self {
        Self { buf, pos: 0, base }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error at the current absolute offset (`base + pos`).
    pub fn error(&self, message: String) -> WireError {
        WireError {
            offset: self.base + self.pos as u64,
            message,
        }
    }

    #[cold]
    fn truncated(&self, n: usize, what: &str) -> WireError {
        self.error(format!(
            "frame truncated reading {what}: needed {n} bytes, have {}",
            self.remaining()
        ))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let buf = self.buf;
        match self
            .pos
            .checked_add(n)
            .and_then(|end| Some((end, buf.get(self.pos..end)?)))
        {
            Some((end, slice)) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(self.truncated(n, what)),
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        match self.buf.get(self.pos) {
            Some(&byte) => {
                self.pos += 1;
                Ok(byte)
            }
            None => Err(self.truncated(1, what)),
        }
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self, what: &str) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| self.truncated(8, what))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// An `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    /// A presence flag (0 or 1), then the value when present.
    pub fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, WireError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64(what)?)),
            flag => Err(self.error(format!("invalid optional-value flag {flag} in {what}"))),
        }
    }

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self, what: &str) -> Result<u64, WireError> {
        match leb128(|| self.u8(what))? {
            Some(value) => Ok(value),
            None => Err(self.error(format!("varint overflows u64 in {what}"))),
        }
    }

    /// A varint used as an element count: rejected when it exceeds the
    /// bytes still unread (every element costs ≥ 1 byte), so a hostile
    /// count can never size an allocation beyond the input held.
    pub fn count(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.varint(what)?;
        if n > self.remaining() as u64 {
            return Err(self.error(format!(
                "{what} claims {n} elements but only {} bytes remain in the frame",
                self.remaining()
            )));
        }
        usize::try_from(n)
            .map_err(|_| self.error(format!("{what} of {n} does not fit this target's usize")))
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.count(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.error(format!("invalid UTF-8 in {what}")))
    }

    /// Requires the buffer to be fully consumed.
    pub fn done(&self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes after {what}", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;
    use rand::RngCore;

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varint_round_trips_at_the_edges_and_at_random() {
        let mut rng = Pcg32::new(5);
        let edges = [0, 127, 128, 1 << 63, u64::MAX];
        let random = (0..1_000).map(|_| rng.next_u64() >> (rng.next_u32() % 64));
        for v in edges.into_iter().chain(random) {
            let bytes = varint_bytes(v);
            let mut r = Reader::new(&bytes, 0);
            assert_eq!(r.varint("v").unwrap(), v);
            r.done("v").unwrap();
        }
        assert_eq!(varint_bytes(127), [0x7f]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(u64::MAX).len(), 10);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // 11 bytes: ten continuation bytes, then a terminator.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x00);
        let err = Reader::new(&eleven, 0).varint("v").unwrap_err();
        assert!(err.message.contains("overflows"), "{err:?}");
        assert_eq!(err.offset, 10);
        // A 10th byte of 2 would set bit 64.
        let mut big = vec![0xff; 9];
        big.push(0x02);
        let err = Reader::new(&big, 100).varint("v").unwrap_err();
        assert!(err.message.contains("overflows"), "{err:?}");
        assert_eq!(err.offset, 110);
        // A 10th byte of 1 is u64::MAX's top bit: accepted.
        big[9] = 0x01;
        assert_eq!(Reader::new(&big, 0).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_rejected() {
        let mut buf = varint_bytes(4);
        buf.extend_from_slice(&[1, 2, 3]);
        let err = Reader::new(&buf, 0).count("labels").unwrap_err();
        assert!(err.message.contains("claims 4 elements"), "{err:?}");
        buf.push(4);
        assert_eq!(Reader::new(&buf, 0).count("labels").unwrap(), 4);
    }

    #[test]
    fn every_truncated_prefix_errors_at_base_plus_pos() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        put_str(&mut buf, "héllo");
        put_f64(&mut buf, -2.5);
        put_opt_f64(&mut buf, None);
        put_opt_f64(&mut buf, Some(1e-300));
        buf.push(7);
        buf.extend_from_slice(&9u64.to_le_bytes());
        let read_all = |r: &mut Reader<'_>| -> Result<(), WireError> {
            assert_eq!(r.varint("a")?, 300);
            assert_eq!(r.str("b")?, "héllo");
            assert_eq!(r.f64("c")?, -2.5);
            assert_eq!(r.opt_f64("d")?, None);
            assert_eq!(r.opt_f64("e")?, Some(1e-300));
            assert_eq!(r.u8("f")?, 7);
            assert_eq!(r.u64_le("g")?, 9);
            r.done("h")
        };
        let base = 1_000;
        read_all(&mut Reader::new(&buf, base)).unwrap();
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len], base);
            let err = read_all(&mut r).unwrap_err();
            assert_eq!(err.offset, base + r.pos() as u64, "prefix {len}: {err:?}");
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        let err = read_all(&mut Reader::new(&trailing, 0)).unwrap_err();
        assert!(err.message.contains("1 trailing bytes after h"), "{err:?}");
    }

    #[test]
    fn malformed_flags_and_strings_are_rejected() {
        let err = Reader::new(&[2], 0).opt_f64("clock").unwrap_err();
        assert!(err.message.contains("flag 2 in clock"), "{err:?}");
        let err = Reader::new(&[2, 0xff, 0xfe], 0).str("name").unwrap_err();
        assert!(err.message.contains("UTF-8"), "{err:?}");
        assert_eq!(err.offset, 3);
    }
}
