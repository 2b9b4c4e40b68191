//! Golden equivalence tests for the checkpoint library: restoring a
//! fast-forward prefix must be observationally identical to re-executing
//! it — same metrics, same cost, same harness reports, at any job count —
//! while never increasing the functionally executed instruction count.

use experiments::opts::Opts;
use experiments::run_experiment;
use sim_core::SimConfig;
use techniques::checkpoint;
use techniques::runner::{run_technique, PreparedBench};
use techniques::TechniqueSpec;

/// Every test here toggles process-global state (the checkpoint enable
/// flag, the run cache, the checkpoint library, the functional-instruction
/// counter, the jobs override), so they must not run concurrently.
fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The golden test: for several FF/WU windows and sampling specs under two
/// machine configurations, a checkpointed run — both the one that
/// populates the library and the one that restores from it — produces the
/// exact `Metrics` and `Cost` of a cold run.
#[test]
fn restored_prefixes_reproduce_cold_runs_exactly() {
    let _guard = global_state_lock();
    let prep = PreparedBench::by_name_scaled("gzip", 0.1).unwrap();
    let specs = [
        // Three FF/WU windows sharing and varying (x, y)...
        TechniqueSpec::FfWuRun {
            x: 20_000,
            y: 5_000,
            z: 4_000,
        },
        TechniqueSpec::FfWuRun {
            x: 20_000,
            y: 5_000,
            z: 8_000,
        },
        TechniqueSpec::FfWuRun {
            x: 40_000,
            y: 2_000,
            z: 4_000,
        },
        // ...plus one of each technique with a reusable prefix.
        TechniqueSpec::FfRun {
            x: 30_000,
            z: 6_000,
        },
        TechniqueSpec::Smarts { u: 1_000, w: 2_000 },
        TechniqueSpec::RandomSample {
            n: 8,
            u: 1_000,
            w: 1_000,
            seed: 7,
        },
    ];
    for cfg_id in [1usize, 2] {
        let cfg = SimConfig::table3(cfg_id);
        for spec in &specs {
            // Cold truth: all reuse off and empty.
            checkpoint::set_enabled(false);
            techniques::cache::clear_all();
            let cold = run_technique(spec, &prep, &cfg).unwrap();

            // Checkpointed, twice: the first run populates the library,
            // the second restores from it. Only the run cache is cleared
            // in between, so the second run really exercises the restore
            // paths rather than replaying a memoized result.
            checkpoint::set_enabled(true);
            techniques::cache::clear_all();
            let populate = run_technique(spec, &prep, &cfg).unwrap();
            techniques::cache::global().clear();
            let restored = run_technique(spec, &prep, &cfg).unwrap();

            for (phase, run) in [("populate", &populate), ("restore", &restored)] {
                assert_eq!(
                    cold.metrics, run.metrics,
                    "{phase} metrics diverged for {spec:?} under config {cfg_id}"
                );
                assert_eq!(
                    cold.cost, run.cost,
                    "{phase} cost diverged for {spec:?} under config {cfg_id}"
                );
            }
        }
    }
    checkpoint::set_enabled(true);
}

/// Checkpointed sweeps stay deterministic under the parallel fan-out:
/// concurrent workers race to populate the library, but whoever wins
/// stores byte-identical state, so results match the serial run exactly.
#[test]
fn checkpointed_sweep_is_deterministic_under_parallel_fanout() {
    let _guard = global_state_lock();
    checkpoint::set_enabled(true);
    let specs: Vec<TechniqueSpec> = (0..6)
        .map(|i| TechniqueSpec::FfWuRun {
            x: 25_000,
            y: 5_000,
            z: 2_000 + 1_000 * i,
        })
        .collect();
    let run_all = |jobs: usize| -> Vec<String> {
        sim_exec::set_jobs(jobs);
        techniques::cache::clear_all();
        let prep = PreparedBench::by_name_scaled("gzip", 0.1).unwrap();
        let cfg = SimConfig::table3(3);
        sim_exec::par_map(&specs, |spec| {
            let r = run_technique(spec, &prep, &cfg).unwrap();
            format!("{:?} {:?}", r.metrics, r.cost)
        })
    };
    let serial = run_all(1);
    let parallel = run_all(4);
    assert_eq!(
        serial, parallel,
        "checkpointed results must not depend on the job count"
    );
    sim_exec::set_jobs(1);
}

/// The acceptance criterion: the Figure 2 and Figure 5 sweeps, run with
/// checkpoints off and then on, must print byte-identical reports and never
/// functionally execute more instructions (measured by the process-wide
/// counter, which restores do not increment). Figure 5's FF+Run and
/// FF+WU+Run permutations share fast-forward prefixes, so its saving is
/// strict; Figure 2's quick set (Reference, SimPoint, SMARTS) at this scale
/// positions every stream at the origin, so there is nothing to restore.
#[test]
fn fig_sweeps_save_functional_execution_with_identical_reports() {
    let _guard = global_state_lock();
    let args = ["--scale", "0.05", "--bench", "gzip", "--jobs", "2"];
    let opts_off = Opts::from_args(args.iter().chain(&["--checkpoints", "off"]));
    let opts_on = Opts::from_args(args.iter().chain(&["--checkpoints", "on"]));
    for fig in ["fig2", "fig5"] {
        techniques::cache::clear_all();
        sim_core::checkpoint::reset_functional_insts();
        let cold_report = run_experiment(fig, &opts_off);
        let cold_insts = sim_core::checkpoint::functional_insts();

        techniques::cache::clear_all();
        sim_core::checkpoint::reset_functional_insts();
        let warm_report = run_experiment(fig, &opts_on);
        let warm_insts = sim_core::checkpoint::functional_insts();

        assert_eq!(
            cold_report, warm_report,
            "{fig}: checkpoints must not change the report"
        );
        if fig == "fig5" {
            assert!(
                warm_insts < cold_insts,
                "{fig}: checkpoints must save functional execution \
                 ({warm_insts} with vs {cold_insts} without)"
            );
        } else {
            assert!(
                warm_insts <= cold_insts,
                "{fig}: checkpoints must never add functional execution \
                 ({warm_insts} with vs {cold_insts} without)"
            );
        }
    }
    checkpoint::set_enabled(true);
    sim_exec::set_jobs(1);
}
