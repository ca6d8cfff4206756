//! Criterion benchmarks for the observability layer: the cost of leaving
//! instrumentation on. The counters and spans sit inside the simulator and
//! taxonomy hot loops, so the no-op-sink numbers here are the per-event tax
//! every run pays; the ledger-sink numbers bound what a collecting sink
//! adds on top.

use criterion::{criterion_group, criterion_main, Criterion};
use iotax_obs::{counter, histogram, span, LedgerSink, NoopSink};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn bench_noop_sink(c: &mut Criterion) {
    // Benches run in one process; make the default (no-op) sink explicit so
    // ordering against bench_ledger_sink cannot matter.
    iotax_obs::restore_sink(Arc::new(NoopSink));
    let mut group = c.benchmark_group("obs_noop_sink");

    // Reference point: the raw atomic the counter fast path reduces to.
    let raw = AtomicU64::new(0);
    group.bench_function("raw_atomic_fetch_add", |b| {
        b.iter(|| raw.fetch_add(black_box(1), Ordering::Relaxed))
    });
    group.bench_function("counter_incr", |b| {
        b.iter(|| counter!("bench.obs.counter").incr(black_box(1)))
    });
    group.bench_function("histogram_record", |b| {
        b.iter(|| histogram!("bench.obs.histogram").record(black_box(42)))
    });
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| {
            let _span = span!("bench.obs.span");
        })
    });
    group.bench_function("span_nested_3", |b| {
        b.iter(|| {
            let _a = span!("bench.obs.a");
            let _b = span!("bench.obs.b");
            let _c = span!("bench.obs.c");
        })
    });
    group.finish();
}

fn bench_ledger_sink(c: &mut Criterion) {
    let previous = iotax_obs::set_sink(Arc::new(LedgerSink::new()));
    let mut group = c.benchmark_group("obs_ledger_sink");
    group.bench_function("counter_incr", |b| {
        b.iter(|| counter!("bench.obs.counter").incr(black_box(1)))
    });
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| {
            let _span = span!("bench.obs.span");
        })
    });
    group.finish();
    iotax_obs::restore_sink(previous);
}

criterion_group!(benches, bench_noop_sink, bench_ledger_sink);
criterion_main!(benches);
