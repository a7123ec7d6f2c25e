//! The one bounds-checked little-endian codec behind every binary format
//! in the workspace: the HNSW and PQ payloads, the `KGVI` mapped catalog
//! ([`crate::mapped`]) and the `KGPS` model snapshot (`kgpip::snapshot`).
//!
//! Decoders read through [`Reader`], which never panics and never reserves
//! memory a payload cannot back: every length prefix goes through
//! [`Reader::count`], which rejects a count whose elements cannot fit in
//! the bytes that remain *before* the caller allocates for them. A
//! truncated or hostile payload therefore costs at most its own size in
//! allocations and ends in an `Err`, whatever its length fields claim.
//! Errors are plain strings; each format wraps them in its own error type.

/// Bounds-checked little-endian cursor over a byte payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fails with a `what`-labelled error unless the payload is fully
    /// consumed — the strict "no trailing bytes" check every decoder
    /// finishes with.
    pub fn expect_end(&self, what: &str) -> Result<(), String> {
        if self.at_end() {
            Ok(())
        } else {
            Err(format!(
                "trailing bytes after {what} payload ({} of {} consumed)",
                self.pos,
                self.bytes.len()
            ))
        }
    }

    /// The next `n` bytes, borrowed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = self.bytes.get(self.pos..end).unwrap_or(&[]);
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Checks that `count` elements of at least `elem_bytes` encoded
    /// bytes each fit in what remains, and returns `count`. Call it before
    /// reserving room for `count` elements.
    pub fn fits(&self, count: usize, elem_bytes: usize) -> Result<usize, String> {
        match count.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(format!(
                "length {count} at byte {} overruns the {} remaining bytes",
                self.pos,
                self.remaining()
            )),
        }
    }

    /// Reads a `u64` element count and rejects it unless that many
    /// elements of at least `elem_bytes` bytes each fit in the rest of
    /// the payload ([`Reader::fits`]).
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let raw = self.u64()?;
        let count = usize::try_from(raw).unwrap_or(usize::MAX);
        self.fits(count, elem_bytes)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.count(1)?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| e.to_string())
    }

    /// A `u64`-count-prefixed run of little-endian `f64`s.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let len = self.count(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

/// Appends a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`-length-prefixed UTF-8 string ([`Reader::str`]).
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u64`-count-prefixed run of `f64`s ([`Reader::f64s`]).
pub fn write_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    write_u64(out, xs.len() as u64);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends one tagged section: `u32 tag · u64 payload length · payload`,
/// the framing shared by `KGVI` and `KGPS` files.
pub fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    write_u32(out, tag);
    write_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_that_cannot_fit_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        write_u64(&mut bytes, 3);
        bytes.extend_from_slice(&[0u8; 24]);
        assert_eq!(Reader::new(&bytes).count(8), Ok(3));
        // One byte short of three 8-byte elements.
        assert!(Reader::new(&bytes[..bytes.len() - 1]).count(8).is_err());
        // A count whose byte size overflows usize.
        let mut huge = Vec::new();
        write_u64(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count(2).is_err());
        assert!(Reader::new(&huge).f64s().is_err());
        assert!(Reader::new(&huge).str().is_err());
        // Zero-size claims always fit.
        let mut zero = Vec::new();
        write_u64(&mut zero, 0);
        assert_eq!(Reader::new(&zero).f64s(), Ok(Vec::new()));
    }

    #[test]
    fn writers_and_readers_roundtrip() {
        let mut out = Vec::new();
        write_u32(&mut out, 7);
        write_str(&mut out, "kgpip");
        write_f64s(&mut out, &[1.5, -0.0, f64::MIN_POSITIVE]);
        write_section(&mut out, 9, b"xy");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.str().as_deref(), Ok("kgpip"));
        let xs = r.f64s().unwrap();
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.u32(), Ok(9));
        assert_eq!(r.count(1), Ok(2));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert!(r.expect_end("test").is_ok());
        assert!(r.u8().is_err(), "reads past the end fail");
    }
}
