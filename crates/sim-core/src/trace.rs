//! Dynamic instruction trace record/replay (SimpleScalar-EIO-style).
//!
//! Records a [`InstStream`] to a compact binary format and replays it later
//! as a stream. Useful for decoupling workload generation from timing runs,
//! shipping regression traces, and replaying externally captured traces.
//!
//! The encoding is delta/varint based: PCs and effective addresses are
//! usually near their predecessors, so typical workloads compress to a few
//! bytes per instruction. The format is versioned and self-describing
//! (magic + header).

use crate::isa::{Addr, DynInst, InstStream, OpClass};
use std::io::{self, Read, Write};

/// Trace file magic.
pub const MAGIC: [u8; 4] = *b"STRC";
/// Format version.
pub const VERSION: u8 = 1;

fn op_to_byte(op: OpClass) -> u8 {
    OpClass::ALL
        .iter()
        .position(|&o| o == op)
        .expect("every op class is in ALL") as u8
}

fn op_from_byte(b: u8) -> Option<OpClass> {
    OpClass::ALL.get(b as usize).copied()
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 64 bits",
            ));
        }
    }
}

/// ZigZag-encode a signed delta.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Incremental trace encoder: push one [`DynInst`] at a time.
///
/// Writes the header on construction; each [`TraceWriter::push`] appends one
/// delta/varint-encoded record. Useful for tee-recording a stream as
/// another consumer drains it — [`record`] is the drain-a-whole-stream
/// convenience wrapper.
#[derive(Debug)]
pub struct TraceWriter<W> {
    w: W,
    last_pc: Addr,
    last_mem: Addr,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace: writes the magic and version header.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION])?;
        Ok(TraceWriter {
            w,
            last_pc: 0,
            last_mem: 0,
            written: 0,
        })
    }

    /// Append one instruction record.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn push(&mut self, i: &DynInst) -> io::Result<()> {
        // Flags byte: bit0 taken, bit1 trivial.
        let flags = u8::from(i.taken) | (u8::from(i.trivial) << 1);
        self.w
            .write_all(&[op_to_byte(i.op), i.dest, i.srcs[0], i.srcs[1], flags])?;
        write_varint(&mut self.w, zigzag(i.pc as i64 - self.last_pc as i64))?;
        write_varint(&mut self.w, zigzag(i.next_pc as i64 - i.pc as i64))?;
        write_varint(&mut self.w, u64::from(i.bb_id))?;
        if i.op.is_mem() {
            write_varint(
                &mut self.w,
                zigzag(i.mem_addr as i64 - self.last_mem as i64),
            )?;
            self.last_mem = i.mem_addr;
        }
        self.last_pc = i.pc;
        self.written += 1;
        Ok(())
    }

    /// Instructions recorded so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Finish recording and hand back the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Record up to `limit` instructions from `stream` into `w`.
///
/// Returns the number of instructions written.
///
/// ```
/// use sim_core::trace::{record, TraceReader};
/// use sim_core::isa::{DynInst, InstStream};
///
/// let insts: Vec<DynInst> = (0..100).map(|i| DynInst::int_alu(0x1000 + 4 * i)).collect();
/// let mut buf = Vec::new();
/// record(&mut insts.clone().into_iter(), &mut buf, u64::MAX).unwrap();
/// let mut replay = TraceReader::new(&buf[..]).unwrap();
/// assert_eq!(replay.next_inst(), Some(insts[0]));
/// ```
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn record<W: Write>(stream: &mut dyn InstStream, w: &mut W, limit: u64) -> io::Result<u64> {
    let mut tw = TraceWriter::new(w)?;
    while tw.written() < limit {
        let Some(i) = stream.next_inst() else { break };
        tw.push(&i)?;
    }
    Ok(tw.written())
}

/// Replays a recorded trace as an [`InstStream`].
///
/// When the underlying reader is `Clone` (an in-memory `&[u8]` cursor), the
/// whole reader is [`crate::checkpoint::Checkpointable`]: a clone freezes
/// the replay position, so a checkpoint library can re-serve the same trace
/// suffix many times.
#[derive(Debug, Clone)]
pub struct TraceReader<R> {
    r: R,
    last_pc: Addr,
    last_mem: Addr,
    done: bool,
    emitted: u64,
}

impl<R: Read> TraceReader<R> {
    /// Open a trace, validating magic and version.
    ///
    /// # Errors
    /// Returns `InvalidData` for a bad magic or unsupported version.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut header = [0u8; 5];
        r.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a trace file",
            ));
        }
        if header[4] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {}", header[4]),
            ));
        }
        Ok(TraceReader {
            r,
            last_pc: 0,
            last_mem: 0,
            done: false,
            emitted: 0,
        })
    }

    /// Instructions replayed so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn read_one(&mut self) -> io::Result<Option<DynInst>> {
        let mut fixed = [0u8; 5];
        match self.r.read_exact(&mut fixed) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let op = op_from_byte(fixed[0]).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad op byte {}", fixed[0]),
            )
        })?;
        let pc = (self.last_pc as i64 + unzigzag(read_varint(&mut self.r)?)) as Addr;
        let next_pc = (pc as i64 + unzigzag(read_varint(&mut self.r)?)) as Addr;
        let bb_id = read_varint(&mut self.r)? as u32;
        let mem_addr = if op.is_mem() {
            let a = (self.last_mem as i64 + unzigzag(read_varint(&mut self.r)?)) as Addr;
            self.last_mem = a;
            a
        } else {
            0
        };
        self.last_pc = pc;
        Ok(Some(DynInst {
            pc,
            op,
            srcs: [fixed[2], fixed[3]],
            dest: fixed[1],
            mem_addr,
            taken: fixed[4] & 1 != 0,
            next_pc,
            trivial: fixed[4] & 2 != 0,
            bb_id,
        }))
    }
}

impl<R: Read + Clone> crate::checkpoint::Checkpointable for TraceReader<R> {
    type State = TraceReader<R>;

    fn checkpoint(&self) -> TraceReader<R> {
        self.clone()
    }

    fn restore(&mut self, state: &TraceReader<R>) {
        self.clone_from(state);
    }
}

impl<R: Read> InstStream for TraceReader<R> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.done {
            return None;
        }
        match self.read_one() {
            Ok(Some(i)) => {
                self.emitted += 1;
                Some(i)
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(_) => {
                // A torn trace ends the stream; the caller sees a short
                // stream rather than a panic.
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insts(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let pc = 0x40_0000 + 4 * (i as u64 % 256);
                match i % 5 {
                    0 => DynInst::int_alu(pc)
                        .with_op(OpClass::Load)
                        .with_dest(4)
                        .with_srcs(5, 0)
                        .with_mem_addr(0x1000_0000 + (i as u64 % 512) * 8)
                        .with_bb(7),
                    1 => DynInst::int_alu(pc)
                        .with_op(OpClass::Store)
                        .with_srcs(4, 5)
                        .with_mem_addr(0x1000_0000 + (i as u64 % 64) * 64),
                    2 => {
                        let taken = i % 2 == 0;
                        DynInst::int_alu(pc)
                            .with_op(OpClass::Branch)
                            .with_branch(taken, if taken { pc + 128 } else { pc + 4 })
                            .with_bb(9)
                    }
                    3 => DynInst::int_alu(pc)
                        .with_op(OpClass::IntMult)
                        .with_dest(8)
                        .with_trivial(true),
                    _ => DynInst::int_alu(pc).with_dest(3).with_srcs(1, 2),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let insts = sample_insts(1_000);
        let mut buf = Vec::new();
        let n = record(&mut insts.clone().into_iter(), &mut buf, u64::MAX).unwrap();
        assert_eq!(n, 1_000);
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        let mut replayed = Vec::new();
        while let Some(i) = reader.next_inst() {
            replayed.push(i);
        }
        assert_eq!(replayed, insts);
        assert_eq!(reader.emitted(), 1_000);
    }

    #[test]
    fn encoding_is_compact() {
        let insts = sample_insts(10_000);
        let mut buf = Vec::new();
        record(&mut insts.into_iter(), &mut buf, u64::MAX).unwrap();
        let bytes_per_inst = buf.len() as f64 / 10_000.0;
        assert!(
            bytes_per_inst < 12.0,
            "{bytes_per_inst:.1} bytes/inst is too fat (DynInst is ~40)"
        );
    }

    #[test]
    fn limit_truncates_recording() {
        let insts = sample_insts(100);
        let mut buf = Vec::new();
        let n = record(&mut insts.into_iter(), &mut buf, 10).unwrap();
        assert_eq!(n, 10);
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        let count = std::iter::from_fn(|| reader.next_inst()).count();
        assert_eq!(count, 10);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOPE\x01rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(99);
        assert!(TraceReader::new(&buf[..]).is_err());
    }

    #[test]
    fn torn_trace_ends_gracefully() {
        let insts = sample_insts(100);
        let mut buf = Vec::new();
        record(&mut insts.into_iter(), &mut buf, u64::MAX).unwrap();
        buf.truncate(buf.len() - 3); // cut mid-record
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        let count = std::iter::from_fn(|| reader.next_inst()).count();
        assert!((90..100).contains(&count));
        assert!(reader.next_inst().is_none(), "stays ended");
    }

    #[test]
    fn incremental_writer_matches_record() {
        let insts = sample_insts(500);
        let mut whole = Vec::new();
        record(&mut insts.clone().into_iter(), &mut whole, u64::MAX).unwrap();
        let mut tw = TraceWriter::new(Vec::new()).unwrap();
        for i in &insts {
            tw.push(i).unwrap();
        }
        assert_eq!(tw.written(), 500);
        assert_eq!(tw.into_inner(), whole, "byte-identical encodings");
    }

    #[test]
    fn reader_checkpoint_freezes_replay_position() {
        use crate::checkpoint::Checkpointable;
        let insts = sample_insts(200);
        let mut buf = Vec::new();
        record(&mut insts.clone().into_iter(), &mut buf, u64::MAX).unwrap();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        for _ in 0..50 {
            reader.next_inst();
        }
        let cp = reader.checkpoint();
        let rest: Vec<DynInst> = std::iter::from_fn(|| reader.next_inst()).collect();
        assert_eq!(rest, insts[50..]);
        reader.restore(&cp);
        assert_eq!(reader.emitted(), 50);
        let again: Vec<DynInst> = std::iter::from_fn(|| reader.next_inst()).collect();
        assert_eq!(again, insts[50..], "restored reader replays the same tail");
    }

    #[test]
    fn skip_n_on_short_trace_reports_exact_count() {
        // TraceReader uses the default InstStream::skip_n; a stream ending
        // mid-way must report exactly what was consumed.
        let insts = sample_insts(73);
        let mut buf = Vec::new();
        record(&mut insts.into_iter(), &mut buf, u64::MAX).unwrap();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.skip_n(50), 50);
        assert_eq!(reader.skip_n(1_000), 23, "short stream: exact remainder");
        assert_eq!(reader.emitted(), 73);
        assert_eq!(reader.skip_n(5), 0, "ended stream skips nothing");
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn traced_simulation_matches_live_simulation() {
        use crate::engine::Simulator;
        use crate::SimConfig;
        let insts = sample_insts(20_000);
        let mut buf = Vec::new();
        record(&mut insts.clone().into_iter(), &mut buf, u64::MAX).unwrap();

        let mut live = Simulator::new(SimConfig::table3(1));
        let mut s = insts.into_iter();
        live.run_detailed(&mut s, u64::MAX);

        let mut replay = Simulator::new(SimConfig::table3(1));
        let mut r = TraceReader::new(&buf[..]).unwrap();
        replay.run_detailed(&mut r, u64::MAX);

        assert_eq!(live.stats(), replay.stats(), "replay must be cycle-exact");
    }
}
