//! Minimal binary codec for protocol messages.
//!
//! Hand-rolled (no serde) so the wire format is explicit, compact and
//! identical to what a C implementation circa 2002 would have sent:
//! big-endian integers and length-prefixed byte strings.

use bytes::Bytes;
use gkap_bignum::Ubig;

/// Encoding buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

/// Error produced when decoding malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was reading when input ran out or was invalid.
    pub context: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed protocol message while reading {}",
            self.context
        )
    }
}

impl std::error::Error for DecodeError {}

impl Enc {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed big integer (big-endian magnitude).
    pub fn ubig(&mut self, v: &Ubig) -> &mut Self {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends an optional big integer: a presence byte (1 or 0), then
    /// the value if present.
    pub fn opt_ubig(&mut self, v: Option<&Ubig>) -> &mut Self {
        match v {
            Some(v) => self.u8(1).ubig(v),
            None => self.u8(0),
        }
    }

    /// Finishes encoding.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes encoding into the buffer itself, for a caller that
    /// needs the bytes once and shares them with nobody.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The most items a list on the wire may claim ([`Dec::list`]).
const MAX_LIST: usize = 1_000_000;

/// Decoding cursor.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError { context });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4, context)?.try_into().expect("4"),
        ))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8, context)?.try_into().expect("8"),
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(context)? as usize;
        self.take(len, context)
    }

    /// Reads a length-prefixed big integer.
    pub fn ubig(&mut self, context: &'static str) -> Result<Ubig, DecodeError> {
        Ok(Ubig::from_be_bytes(self.bytes(context)?))
    }

    /// Reads an optional big integer ([`Enc::opt_ubig`]). Lenient: any
    /// presence byte other than 1 reads as absent.
    pub fn opt_ubig(&mut self, context: &'static str) -> Result<Option<Ubig>, DecodeError> {
        match self.u8(context)? {
            1 => self.ubig(context).map(Some),
            _ => Ok(None),
        }
    }

    /// Reads a `u32` count, then that many items with `item`. A count
    /// above one million is refused before anything is allocated, so a
    /// forged count costs nothing. `context` names the count.
    pub fn list<T>(
        &mut self,
        context: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32(context)? as usize;
        if n > MAX_LIST {
            return Err(DecodeError { context });
        }
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Asserts that all input has been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError {
                context: "trailing garbage",
            })
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let big = Ubig::from_hex("deadbeefcafebabe0123456789").unwrap();
        let mut e = Enc::new();
        e.u8(7)
            .u32(0xAABBCCDD)
            .u64(42)
            .bytes(b"hello")
            .ubig(&big)
            .ubig(&Ubig::zero())
            .opt_ubig(Some(&big))
            .opt_ubig(None);
        let wire = e.finish();
        let mut d = Dec::new(&wire);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xAABBCCDD);
        assert_eq!(d.u64("c").unwrap(), 42);
        assert_eq!(d.bytes("d").unwrap(), b"hello");
        assert_eq!(d.ubig("e").unwrap(), big);
        assert_eq!(d.ubig("f").unwrap(), Ubig::zero());
        assert_eq!(d.opt_ubig("g").unwrap(), Some(big));
        assert_eq!(d.opt_ubig("h").unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors_with_context() {
        let mut e = Enc::new();
        e.u32(1000); // claims 1000 bytes follow
        let wire = e.finish();
        let mut d = Dec::new(&wire);
        let err = d.bytes("payload").unwrap_err();
        assert_eq!(err.context, "payload");
        assert!(err.to_string().contains("payload"));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut e = Enc::new();
        e.u8(1).u8(2);
        let wire = e.finish();
        let mut d = Dec::new(&wire);
        d.u8("x").unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn empty_and_lengths() {
        let e = Enc::new();
        assert!(e.is_empty());
        let mut e = Enc::new();
        e.u8(1);
        assert_eq!(e.len(), 1);
        let wire = e.finish();
        let d = Dec::new(&wire);
        assert_eq!(d.remaining(), 1);
    }
}
