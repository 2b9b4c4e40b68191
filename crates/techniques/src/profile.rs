//! Basic-block profiling: per-interval BBVs (SimPoint's raw material) and
//! whole-execution BBEF/BBV profiles (the §4.2 execution-profile
//! characterization).

use sim_core::isa::{DynInst, InstStream};
use workloads::{Interp, Program};

/// Instructions pulled from the stream per batch while profiling.
const PROFILE_BATCH: usize = 4_096;

/// A sparse basic-block vector: `(block id, instruction count)` pairs.
pub type SparseBbv = Vec<(u32, f64)>;

/// Per-interval BBV profile of an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalProfile {
    /// One sparse BBV per interval, in execution order.
    pub intervals: Vec<SparseBbv>,
    /// Interval length in instructions.
    pub interval_len: u64,
    /// Number of static basic blocks (BBV dimensionality).
    pub num_blocks: usize,
    /// Total dynamic instructions profiled.
    pub total_insts: u64,
}

/// Profile a full execution of `program` into intervals of `interval_len`
/// instructions.
///
/// # Panics
/// Panics if `interval_len == 0`.
pub fn profile_intervals(program: &Program, interval_len: u64) -> IntervalProfile {
    assert!(interval_len > 0, "interval length must be nonzero");
    let num_blocks = program.blocks.len();
    let mut stream = Interp::new(program);
    let mut intervals = Vec::new();
    let mut counts = vec![0.0f64; num_blocks];
    let mut in_interval = 0u64;
    let mut total = 0u64;

    let mut batch = Vec::with_capacity(PROFILE_BATCH);
    while stream.next_block(&mut batch, PROFILE_BATCH) > 0 {
        for inst in &batch {
            counts[inst.bb_id as usize] += 1.0;
            in_interval += 1;
            if in_interval == interval_len {
                intervals.push(to_sparse(&mut counts));
                in_interval = 0;
            }
        }
        total += batch.len() as u64;
        batch.clear();
    }
    if in_interval > 0 {
        intervals.push(to_sparse(&mut counts));
    }
    IntervalProfile {
        intervals,
        interval_len,
        num_blocks,
        total_insts: total,
    }
}

fn to_sparse(counts: &mut [f64]) -> SparseBbv {
    let sparse: SparseBbv = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .map(|(i, &c)| (i as u32, c))
        .collect();
    counts.fill(0.0);
    sparse
}

/// A whole-execution basic-block profile: both the execution-frequency view
/// (BBEF: one count per block execution) and the instruction-weighted view
/// (BBV: instructions executed per block).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateProfile {
    /// Times each block's terminator region was entered (BBEF).
    pub exec_freq: Vec<f64>,
    /// Instructions executed per block (BBV).
    pub inst_counts: Vec<f64>,
    /// Total dynamic instructions profiled.
    pub total_insts: u64,
}

/// Profile an arbitrary stream (possibly a measured sub-window of a
/// technique) for up to `limit` instructions, against `program`'s block-id
/// space. A block *entry* (BBEF) is recognized by its first instruction's
/// address, so blocks that loop to themselves are counted per iteration.
pub fn profile_stream(
    stream: &mut dyn InstStream,
    program: &Program,
    limit: u64,
) -> AggregateProfile {
    let num_blocks = program.blocks.len();
    let mut exec_freq = vec![0.0; num_blocks];
    let mut inst_counts = vec![0.0; num_blocks];
    let mut total = 0u64;
    let mut batch: Vec<DynInst> = Vec::with_capacity(PROFILE_BATCH);
    while total < limit {
        let want = (limit - total).min(PROFILE_BATCH as u64) as usize;
        let got = stream.next_block(&mut batch, want);
        if got == 0 {
            break;
        }
        for inst in &batch {
            let b = inst.bb_id as usize;
            if b < num_blocks {
                inst_counts[b] += 1.0;
                if inst.pc == program.blocks[b].base_pc {
                    exec_freq[b] += 1.0;
                }
            }
        }
        total += got as u64;
        batch.clear();
    }
    AggregateProfile {
        exec_freq,
        inst_counts,
        total_insts: total,
    }
}

/// Profile a complete execution of `program`.
pub fn profile_program(program: &Program) -> AggregateProfile {
    let mut s = Interp::new(program);
    profile_stream(&mut s, program, u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{benchmark, InputSet};

    fn small_program() -> Program {
        benchmark("gzip").unwrap().program(InputSet::Small).unwrap()
    }

    #[test]
    fn interval_profile_covers_whole_stream() {
        let p = small_program();
        let prof = profile_intervals(&p, 10_000);
        let total: f64 = prof
            .intervals
            .iter()
            .flat_map(|iv| iv.iter().map(|(_, c)| c))
            .sum();
        assert_eq!(total as u64, prof.total_insts);
        assert_eq!(prof.num_blocks, p.blocks.len());
        assert!(prof.intervals.len() as u64 >= prof.total_insts / 10_000);
    }

    #[test]
    fn full_intervals_have_exact_length() {
        let p = small_program();
        let prof = profile_intervals(&p, 5_000);
        for iv in &prof.intervals[..prof.intervals.len() - 1] {
            let n: f64 = iv.iter().map(|(_, c)| c).sum();
            assert_eq!(n as u64, 5_000);
        }
    }

    #[test]
    fn aggregate_profile_counts_match_stream_length() {
        let p = small_program();
        let prof = profile_program(&p);
        let insts: f64 = prof.inst_counts.iter().sum();
        assert_eq!(insts as u64, prof.total_insts);
        let execs: f64 = prof.exec_freq.iter().sum();
        assert!(execs > 0.0 && execs <= insts);
    }

    #[test]
    fn bbef_counts_block_entries_not_instructions() {
        let p = small_program();
        let prof = profile_program(&p);
        for (b, blk) in p.blocks.iter().enumerate() {
            let per_entry = blk.insts.len() as f64 + 1.0;
            if prof.exec_freq[b] > 0.0 {
                // inst_counts = entries x block size (every entry executes
                // the whole block; our blocks have single entry points).
                let expected = prof.exec_freq[b] * per_entry;
                assert!(
                    (prof.inst_counts[b] - expected).abs() < 1e-6,
                    "block {b}: {} vs {}",
                    prof.inst_counts[b],
                    expected
                );
            }
        }
    }

    #[test]
    fn limit_truncates_profiling() {
        let p = small_program();
        let mut s = Interp::new(&p);
        let prof = profile_stream(&mut s, &p, 1_000);
        assert_eq!(prof.total_insts, 1_000);
    }

    #[test]
    fn profiles_are_deterministic() {
        let p = small_program();
        assert_eq!(profile_program(&p), profile_program(&p));
    }
}
