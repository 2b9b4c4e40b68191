//! The execution-profile characterization (§4.2 / §5.2): compare the basic
//! blocks a technique actually *measures* against the reference execution's
//! profile, using χ² on both BBEF (execution frequencies) and BBV
//! (instruction counts) distributions.

use sim_core::isa::InstStream;
use simstats::chi2::{chi2_compare, Chi2Result};
use techniques::profile::{profile_program, profile_stream, AggregateProfile};
use techniques::runner::PreparedBench;
use techniques::smarts::initial_n;
use techniques::TechniqueSpec;
use workloads::Interp;

/// The basic-block profile of exactly the instructions a technique
/// *measures* (its detailed-measurement windows), in the reference
/// program's block-id space — except for reduced inputs, which measure
/// their own (structurally identical) program in full.
///
/// Returns `None` for unavailable input sets.
pub fn measured_profile(spec: &TechniqueSpec, prep: &PreparedBench) -> Option<AggregateProfile> {
    match spec {
        TechniqueSpec::Reference => Some(profile_program(prep.reference())),
        TechniqueSpec::Reduced(input) => {
            let program = prep.program(*input)?;
            Some(profile_program(&program))
        }
        TechniqueSpec::RunZ { z } => {
            let program = prep.reference();
            let mut s = Interp::new(program);
            Some(profile_stream(&mut s, program, *z))
        }
        TechniqueSpec::FfRun { x, z } => {
            let program = prep.reference();
            let mut s = Interp::new(program);
            s.skip_n(*x);
            Some(profile_stream(&mut s, program, *z))
        }
        TechniqueSpec::FfWuRun { x, y, z } => {
            let program = prep.reference();
            let mut s = Interp::new(program);
            s.skip_n(*x + *y);
            Some(profile_stream(&mut s, program, *z))
        }
        TechniqueSpec::SimPoint {
            interval, max_k, ..
        } => {
            let plan = prep.simpoint_plan(*interval, *max_k);
            let program = prep.reference();
            let mut s = Interp::new(program);
            let mut pos = 0u64;
            let mut agg: Option<AggregateProfile> = None;
            for p in &plan.points {
                let start = p.index * plan.interval;
                if start > pos {
                    pos += s.skip_n(start - pos);
                }
                let part = profile_stream(&mut s, program, plan.interval);
                pos += part.total_insts;
                // Weight each point's counts by its cluster weight, as the
                // technique itself weights its measurements.
                let agg = agg.get_or_insert_with(|| AggregateProfile {
                    exec_freq: vec![0.0; part.exec_freq.len()],
                    inst_counts: vec![0.0; part.inst_counts.len()],
                    total_insts: 0,
                });
                for (a, b) in agg.exec_freq.iter_mut().zip(&part.exec_freq) {
                    *a += b * p.weight;
                }
                for (a, b) in agg.inst_counts.iter_mut().zip(&part.inst_counts) {
                    *a += b * p.weight;
                }
                agg.total_insts += part.total_insts;
            }
            agg
        }
        TechniqueSpec::RandomSample { n, u, w, seed } => {
            let program = prep.reference();
            let len = program.dynamic_len_estimate.max(1);
            let starts =
                techniques::random_sample::sample_positions(len, u + w, (*n).max(1), *seed);
            let mut s = Interp::new(program);
            let mut pos = 0u64;
            let mut agg = AggregateProfile {
                exec_freq: vec![0.0; program.blocks.len()],
                inst_counts: vec![0.0; program.blocks.len()],
                total_insts: 0,
            };
            for &start in &starts {
                if start < pos {
                    continue;
                }
                pos += s.skip_n(start + w - pos);
                let part = profile_stream(&mut s, program, *u);
                pos += part.total_insts;
                if part.total_insts == 0 {
                    break;
                }
                for (a, b) in agg.exec_freq.iter_mut().zip(&part.exec_freq) {
                    *a += b;
                }
                for (a, b) in agg.inst_counts.iter_mut().zip(&part.inst_counts) {
                    *a += b;
                }
                agg.total_insts += part.total_insts;
            }
            Some(agg)
        }
        TechniqueSpec::Smarts { u, w } => {
            let program = prep.reference();
            let len = program.dynamic_len_estimate.max(1);
            let n = initial_n(len, *u, *w);
            let period = (len / n as u64).max(u + w + 1);
            let mut s = Interp::new(program);
            let mut agg = AggregateProfile {
                exec_freq: vec![0.0; program.blocks.len()],
                inst_counts: vec![0.0; program.blocks.len()],
                total_insts: 0,
            };
            loop {
                if s.skip_n(period - u) < period - u {
                    break;
                }
                let part = profile_stream(&mut s, program, *u);
                if part.total_insts == 0 {
                    break;
                }
                for (a, b) in agg.exec_freq.iter_mut().zip(&part.exec_freq) {
                    *a += b;
                }
                for (a, b) in agg.inst_counts.iter_mut().zip(&part.inst_counts) {
                    *a += b;
                }
                agg.total_insts += part.total_insts;
                if part.total_insts < *u {
                    break;
                }
            }
            Some(agg)
        }
    }
}

/// The §4.2 result for one technique: χ² on BBEF and on BBV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileCharacterization {
    /// χ² comparison of basic-block execution frequencies.
    pub bbef: Chi2Result,
    /// χ² comparison of instruction-weighted basic-block vectors.
    pub bbv: Chi2Result,
}

/// Characterize `spec` against the reference profile at significance
/// `alpha` (the paper uses 0.05).
pub fn profile_characterization(
    spec: &TechniqueSpec,
    prep: &PreparedBench,
    reference: &AggregateProfile,
    alpha: f64,
) -> Option<ProfileCharacterization> {
    let measured = measured_profile(spec, prep)?;
    Some(ProfileCharacterization {
        bbef: chi2_compare(&measured.exec_freq, &reference.exec_freq, alpha),
        bbv: chi2_compare(&measured.inst_counts, &reference.inst_counts, alpha),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use techniques::spec::SimPointWarmup;
    use workloads::InputSet;

    fn prep() -> PreparedBench {
        PreparedBench::by_name("gzip").unwrap()
    }

    #[test]
    fn reference_profile_is_self_similar() {
        let p = prep();
        let r = profile_program(p.reference());
        let c = profile_characterization(&TechniqueSpec::Reference, &p, &r, 0.05).unwrap();
        assert!(c.bbv.similar);
        assert!(c.bbef.similar);
        assert_eq!(c.bbv.statistic, 0.0);
    }

    #[test]
    fn run_z_profile_differs_far_more_than_sampling() {
        let p = prep();
        let r = profile_program(p.reference());
        let run_z =
            profile_characterization(&TechniqueSpec::RunZ { z: 500_000 }, &p, &r, 0.05).unwrap();
        let smarts =
            profile_characterization(&TechniqueSpec::Smarts { u: 1_000, w: 2_000 }, &p, &r, 0.05)
                .unwrap();
        assert!(
            run_z.bbv.statistic > smarts.bbv.statistic * 10.0,
            "Run Z χ²={} should dwarf SMARTS χ²={}",
            run_z.bbv.statistic,
            smarts.bbv.statistic
        );
    }

    #[test]
    fn reduced_input_profile_is_not_reference_like() {
        let p = prep();
        let r = profile_program(p.reference());
        let red = profile_characterization(&TechniqueSpec::Reduced(InputSet::Small), &p, &r, 0.05)
            .unwrap();
        let smarts =
            profile_characterization(&TechniqueSpec::Smarts { u: 1_000, w: 2_000 }, &p, &r, 0.05)
                .unwrap();
        assert!(
            red.bbv.statistic > smarts.bbv.statistic * 5.0,
            "reduced χ²={} vs SMARTS χ²={}",
            red.bbv.statistic,
            smarts.bbv.statistic
        );
    }

    #[test]
    fn simpoint_profile_tracks_reference_composition() {
        let p = prep();
        let r = profile_program(p.reference());
        let sp = profile_characterization(
            &TechniqueSpec::SimPoint {
                interval: 100_000,
                max_k: 10,
                warmup: SimPointWarmup::None,
            },
            &p,
            &r,
            0.05,
        )
        .unwrap();
        let run_z =
            profile_characterization(&TechniqueSpec::RunZ { z: 500_000 }, &p, &r, 0.05).unwrap();
        assert!(
            sp.bbv.statistic < run_z.bbv.statistic,
            "SimPoint χ²={} should beat Run Z χ²={}",
            sp.bbv.statistic,
            run_z.bbv.statistic
        );
    }

    #[test]
    fn measured_profile_none_for_na_input() {
        let p = PreparedBench::by_name("bzip2").unwrap();
        assert!(measured_profile(&TechniqueSpec::Reduced(InputSet::Small), &p).is_none());
    }
}
