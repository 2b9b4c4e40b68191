//! Shared plumbing for the experiment harnesses.

use crate::opts::Opts;
use techniques::registry;
use techniques::runner::PreparedBench;
use techniques::{TechniqueKind, TechniqueSpec};

/// Prepare one benchmark at the run's stream scale.
///
/// # Panics
/// Panics if the benchmark name is not in the suite.
pub fn prepared(opts: &Opts, name: &str) -> PreparedBench {
    PreparedBench::by_name_scaled(name, opts.scale)
        .unwrap_or_else(|| panic!("benchmark {name:?} is not in the Table 2 suite"))
}

/// Prepare every benchmark of the run, fanning the (reference-program
/// generation) work over [`sim_exec::par_map`]. Results come back in
/// `opts.benchmarks` order.
///
/// # Panics
/// Panics if any benchmark name is not in the suite.
pub fn prepared_all(opts: &Opts) -> Vec<PreparedBench> {
    sim_exec::par_map(&opts.benchmarks, |name| prepared(opts, name))
}

/// The permutation set for this run: all 69 under `--full`, a
/// one-to-two-per-family representative subset otherwise.
pub fn permutations(opts: &Opts) -> Vec<TechniqueSpec> {
    if opts.full {
        registry::table1_permutations(opts.scale)
    } else {
        registry::quick_permutations(opts.scale)
    }
}

/// A single permutation per family, for the heaviest (PB) experiments in
/// quick mode.
pub fn one_per_family(opts: &Opts) -> Vec<TechniqueSpec> {
    if opts.full {
        return registry::table1_permutations(opts.scale);
    }
    let all = registry::quick_permutations(opts.scale);
    let mut out: Vec<TechniqueSpec> = Vec::new();
    for kind in TechniqueKind::ALTERNATIVES {
        if let Some(spec) = all.iter().find(|s| s.kind() == kind) {
            out.push(spec.clone());
        }
    }
    out
}

/// Group per-permutation values by technique family, preserving the
/// Figure 1 legend order.
pub fn group_by_family<T: Clone>(
    items: &[(TechniqueSpec, T)],
) -> Vec<(TechniqueKind, Vec<(TechniqueSpec, T)>)> {
    TechniqueKind::ALTERNATIVES
        .iter()
        .map(|&k| {
            (
                k,
                items
                    .iter()
                    .filter(|(s, _)| s.kind() == k)
                    .cloned()
                    .collect(),
            )
        })
        .collect()
}

/// Progress note to stderr (experiments can run for minutes).
pub fn note(msg: &str) {
    eprintln!("[simtech] {msg}");
}

/// Look up one metric by name in a [`sim_obs::metrics::snapshot`] (zero
/// when the metric has not been touched yet).
fn metric(snap: &[(String, u64)], name: &str) -> u64 {
    snap.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

/// The one-line `--cache-stats` summary: run-cache and checkpoint-library
/// counters, read back from the observability metrics registry and
/// formatted for [`note`]. Printed to stderr so report output (stdout)
/// stays byte-identical with or without the flag.
pub fn cache_stats_summary() -> String {
    // Touch the singletons so their counters are registered even when the
    // run errored before first use.
    let _ = techniques::cache::global();
    let _ = techniques::checkpoint::global();
    let snap = sim_obs::metrics::snapshot();
    let mut line = format!(
        "run cache: {} hits / {} misses ({} cached); checkpoints: \
         arch {}/{} hits; {} insts functionally executed",
        metric(&snap, "run_cache.hits"),
        metric(&snap, "run_cache.misses"),
        techniques::cache::global().len(),
        metric(&snap, "ckpt.arch.hits"),
        metric(&snap, "ckpt.arch.hits") + metric(&snap, "ckpt.arch.misses"),
        sim_core::checkpoint::functional_insts(),
    );
    if let Some(store) = sim_store::global() {
        let (hits, misses, writes, evicts, corrupt) = store.counters();
        line.push_str(&format!(
            "; store ({}): {hits} hits / {misses} misses, {writes} writes, \
             {evicts} evicted, {corrupt} corrupt",
            store.dir().display()
        ));
    }
    line
}

/// The full `--metrics` report: every registered counter/gauge plus the
/// span tracer's per-phase totals, one `name = value` line each, for
/// [`note`]. Stderr-only, like [`cache_stats_summary`].
pub fn metrics_report() -> String {
    let snap = sim_obs::metrics::snapshot();
    if snap.is_empty() {
        return "metrics registry: (empty)".to_string();
    }
    let mut out = String::from("metrics registry:");
    for (name, value) in &snap {
        out.push_str(&format!("\n[simtech]   {name} = {value}"));
    }
    out
}

/// Print what the quick mode dropped, so reduced coverage is never silent.
pub fn coverage_note(opts: &Opts) -> String {
    if opts.full {
        "coverage: full Table 1 matrix (69 permutations), all requested benchmarks".to_string()
    } else {
        format!(
            "coverage: QUICK mode — representative permutation subset at scale {}; \
             dropped: remaining Table 1 permutations and {} of 10 benchmarks. \
             Re-run with --full for the complete matrix.",
            opts.scale,
            10 - opts.benchmarks.len().min(10)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_permutations_cover_each_family() {
        let opts = Opts::default();
        let one = one_per_family(&opts);
        assert_eq!(one.len(), 6);
        let kinds: Vec<TechniqueKind> = one.iter().map(|s| s.kind()).collect();
        for k in TechniqueKind::ALTERNATIVES {
            assert!(kinds.contains(&k));
        }
    }

    #[test]
    fn full_mode_returns_69() {
        let opts = Opts::from_args(["--full"]);
        assert_eq!(permutations(&opts).len(), 69);
    }

    #[test]
    fn grouping_preserves_family_order() {
        let opts = Opts::default();
        let items: Vec<(TechniqueSpec, f64)> =
            permutations(&opts).into_iter().map(|s| (s, 1.0)).collect();
        let grouped = group_by_family(&items);
        assert_eq!(grouped.len(), 6);
        assert_eq!(grouped[0].0, TechniqueKind::SimPoint);
        let total: usize = grouped.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, items.len());
    }

    #[test]
    fn coverage_note_mentions_mode() {
        let q = coverage_note(&Opts::default());
        assert!(q.contains("QUICK"));
        let f = coverage_note(&Opts::from_args(["--full"]));
        assert!(f.contains("full"));
    }
}
