//! Machine-state serialization: a tiny fixed-width little-endian codec and
//! the [`crate::Simulator::save_state`] encoding built on it.
//!
//! The encoding is deliberately dumb — every dynamic field written in
//! declaration order, fixed-width, little-endian — because it only has to
//! be exact and deterministic, not self-describing: two machines that would
//! behave identically encode to identical bytes, which is what tests diff.
//! Derived structure (table geometry, masks, capacities) comes from the
//! configuration and is not encoded. The same [`ByteWriter`]/[`ByteReader`]
//! pair carries the persistent store's run and interpreter-snapshot
//! payloads, whose envelopes add the fingerprints a decoder validates.

use crate::isa::{DynInst, OpClass};

/// Why a state payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The payload ended before the expected data.
    Truncated,
    /// A field held a value inconsistent with the target configuration.
    Invalid(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => f.write_str("state payload truncated"),
            StateError::Invalid(what) => write!(f, "invalid state payload: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Append-only fixed-width little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-style decoder matching [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0 or 1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Invalid("bool byte")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `usize` (stored as `u64`; must fit the platform).
    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.get_u64()?).map_err(|_| StateError::Invalid("usize overflow"))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, StateError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| StateError::Invalid("utf-8 string"))
    }

    /// Fail unless the whole payload was consumed (trailing-garbage guard).
    pub fn finish(self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::Invalid("trailing bytes"))
        }
    }
}

/// Encode one [`DynInst`] (every field; ~30 bytes).
pub fn put_inst(w: &mut ByteWriter, i: &DynInst) {
    w.put_u64(i.pc);
    w.put_u8(op_to_byte(i.op));
    w.put_u8(i.srcs[0]);
    w.put_u8(i.srcs[1]);
    w.put_u8(i.dest);
    w.put_u64(i.mem_addr);
    w.put_bool(i.taken);
    w.put_u64(i.next_pc);
    w.put_bool(i.trivial);
    w.put_u32(i.bb_id);
}

fn op_to_byte(op: OpClass) -> u8 {
    OpClass::ALL
        .iter()
        .position(|&o| o == op)
        .expect("every op class is in ALL") as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1.25e300);
        w.put_usize(42);
        w.put_bytes(b"abc");
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.25e300);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap_err(), StateError::Truncated);
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.finish(), Err(StateError::Invalid(_))));
    }

    #[test]
    fn bad_bool_byte_is_invalid() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.get_bool(), Err(StateError::Invalid(_))));
    }

    #[test]
    fn inst_encoding_covers_every_field() {
        // Changing any one field of an instruction must change its bytes,
        // or two different in-flight instructions would encode alike.
        let base = DynInst::int_alu(0x4000)
            .with_op(OpClass::Store)
            .with_srcs(3, 7)
            .with_dest(9)
            .with_mem_addr(0xdead_0000)
            .with_branch(true, 0x4100)
            .with_trivial(true)
            .with_bb(1234);
        let enc = |i: &DynInst| {
            let mut w = ByteWriter::new();
            put_inst(&mut w, i);
            w.into_bytes()
        };
        let variants = [
            DynInst { pc: 0x4004, ..base },
            DynInst {
                op: OpClass::Load,
                ..base
            },
            DynInst {
                srcs: [3, 8],
                ..base
            },
            DynInst { dest: 10, ..base },
            DynInst {
                mem_addr: 0xdead_0008,
                ..base
            },
            DynInst {
                taken: false,
                ..base
            },
            DynInst {
                next_pc: 0x4004,
                ..base
            },
            DynInst {
                trivial: false,
                ..base
            },
            DynInst {
                bb_id: 1235,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(enc(v), enc(&base), "{v:?}");
        }
    }

    #[test]
    fn op_class_bytes_are_distinct() {
        let bytes: std::collections::HashSet<u8> =
            OpClass::ALL.iter().map(|&o| op_to_byte(o)).collect();
        assert_eq!(bytes.len(), OpClass::ALL.len());
    }
}
