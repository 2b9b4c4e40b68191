//! Criterion benchmarks of the simulator substrate: detailed simulation,
//! functional warming, fast-forwarding, cache and predictor kernels, and
//! the workload interpreter. These are the kernels whose throughput ratios
//! calibrate the SvAT cost weights.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sim_core::branch::BranchPredictor;
use sim_core::cache::Cache;
use sim_core::config::{BranchConfig, CacheConfig, SimConfig};
use sim_core::engine::Simulator;
use sim_core::isa::{DynInst, InstStream, OpClass};
use workloads::{benchmark, InputSet, Interp};

fn tiny_program() -> workloads::Program {
    benchmark("gzip")
        .expect("gzip in suite")
        .program_scaled(InputSet::Reference, 0.02)
        .expect("reference exists")
}

fn bench_simulator_modes(c: &mut Criterion) {
    let program = tiny_program();
    let n = program.dynamic_len_estimate;
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("detailed", |b| {
        b.iter_batched(
            || (Simulator::new(SimConfig::table3(2)), Interp::new(&program)),
            |(mut sim, mut s)| sim.run_detailed(&mut s, u64::MAX),
            BatchSize::PerIteration,
        )
    });
    // Through a trait object: measures what monomorphization buys.
    g.bench_function("detailed_dyn", |b| {
        b.iter_batched(
            || (Simulator::new(SimConfig::table3(2)), Interp::new(&program)),
            |(mut sim, mut s)| {
                let s: &mut dyn InstStream = &mut s;
                sim.run_detailed(s, u64::MAX)
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("functional_warming", |b| {
        b.iter_batched(
            || (Simulator::new(SimConfig::table3(2)), Interp::new(&program)),
            |(mut sim, mut s)| sim.warm_functional(&mut s, u64::MAX),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("fast_forward", |b| {
        b.iter_batched(
            || (Simulator::new(SimConfig::table3(2)), Interp::new(&program)),
            |(mut sim, mut s)| sim.skip(&mut s, u64::MAX),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    let addrs: Vec<u64> = (0..10_000u64).map(|i| (i * 2939) % (1 << 22)).collect();
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("l1d_64kb_access", |b| {
        let mut cache = Cache::new(CacheConfig::new(64, 4, 64, 1));
        b.iter(|| {
            let mut misses = 0u64;
            for &a in &addrs {
                if !cache.access(a, false).hit {
                    misses += 1;
                }
            }
            misses
        })
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("branch_predictor");
    let branches: Vec<DynInst> = (0..10_000u64)
        .map(|i| {
            let pc = 0x1000 + 4 * (i % 512);
            let taken = (i * 2654435761) % 7 < 4;
            DynInst::int_alu(pc)
                .with_op(OpClass::Branch)
                .with_branch(taken, if taken { pc + 256 } else { pc + 4 })
        })
        .collect();
    g.throughput(Throughput::Elements(branches.len() as u64));
    g.bench_function("combined_8k_process", |b| {
        let mut p = BranchPredictor::new(BranchConfig::combined(8192));
        b.iter(|| {
            let mut correct = 0u64;
            for br in &branches {
                if p.process(br).correct {
                    correct += 1;
                }
            }
            correct
        })
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let program = tiny_program();
    let mut g = c.benchmark_group("interpreter");
    g.throughput(Throughput::Elements(program.dynamic_len_estimate));
    g.bench_function("gzip_full_stream", |b| {
        b.iter(|| {
            let mut it = Interp::new(&program);
            let mut n = 0u64;
            while sim_core::isa::InstStream::next_inst(&mut it).is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulator_modes,
    bench_cache,
    bench_predictor,
    bench_interpreter
);
criterion_main!(benches);
