//! Microbenchmark: metadata facilities of §5.1 — the two-level paged
//! shadow space against the legacy HashMap-backed shadow simulation and
//! the open-hashing table. The paper's instruction-count argument (9 vs
//! 5) is modelled in the facilities' cost accounting; this bench measures
//! the *host-side* data-structure cost, which is what the interpreter's
//! check path actually pays. All accesses go through an [`RtCtx`] without
//! a cache model, so the numbers are data-structure cost plus one add per
//! access — zero allocation, exactly the configuration the VM uses when
//! no cache model is installed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_ir::RtFn;
use sb_vm::{RtCtx, RuntimeHooks};
use softbound::{
    HashTableFacility, Meta, MetadataFacility, ShadowHashMapFacility, ShadowPages, SoftBoundConfig,
    SoftBoundRuntime,
};

// Generic (monomorphized) driver: facilities are benchmarked under
// static dispatch, the configuration a production runtime specialized on
// one facility would compile to — the numbers measure the data
// structures, not virtual-call overhead.
fn bench_facility<F: MetadataFacility>(c: &mut Criterion, name: &str, make: impl Fn() -> F) {
    let mut group = c.benchmark_group(format!("metadata/{name}"));
    group.sample_size(20);

    // The pointer-dense pattern: a compact working set of hot slots, the
    // access shape of the Olden kernels where the shadow space wins.
    group.bench_function("store_load_1k_slots", |b| {
        let mut fac = make();
        let mut ctx = RtCtx::default();
        b.iter(|| {
            for i in 0..1000u64 {
                let addr = 0x10000 + (i % 512) * 8;
                fac.store(
                    addr,
                    Meta {
                        base: addr,
                        bound: addr + 64,
                    },
                    &mut ctx,
                );
                let m = fac.load(addr, &mut ctx);
                black_box(m);
            }
        });
    });

    group.bench_function("scattered_lookups", |b| {
        let mut fac = make();
        let mut ctx = RtCtx::default();
        // Pre-populate with scattered pointer slots.
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 20) & !7;
            fac.store(addr, Meta { base: 1, bound: 2 }, &mut ctx);
        }
        b.iter(|| {
            let mut s = 0x12345u64;
            for _ in 0..1000 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = (s >> 20) & !7;
                black_box(fac.load(addr, &mut ctx));
            }
        });
    });
    group.finish();
}

// One layer up, through the runtime's `rt_call` entry point — the exact
// sequence the machine executes per instrumented dereference (check +
// metadata load + store) over the paged shadow space.
fn bench_rt_call(c: &mut Criterion) {
    fn rt_round<H: RuntimeHooks>(rt: &mut H, ctx: &mut RtCtx) -> i64 {
        let mut acc = 0i64;
        for i in 0..1000i64 {
            let addr = 0x10000 + (i % 512) * 8;
            ctx.reset();
            rt.rt_call(RtFn::SbMetaStore, &[addr, addr, addr + 64], ctx)
                .expect("store ok");
            ctx.reset();
            let m = rt.rt_call(RtFn::SbMetaLoad, &[addr], ctx).expect("load ok");
            ctx.reset();
            rt.rt_call(
                RtFn::SbCheck { is_store: false },
                &[m[0], m[0], m[1], 8],
                ctx,
            )
            .expect("in bounds");
            acc = acc.wrapping_add(m[1]);
        }
        acc
    }
    let cfg = SoftBoundConfig::full_shadow();
    let mut group = c.benchmark_group("metadata/rt_call");
    group.sample_size(20);
    group.bench_function("shadow_paged", |b| {
        let mut rt = SoftBoundRuntime::new_paged(&cfg);
        let mut ctx = RtCtx::default();
        b.iter(|| black_box(rt_round(&mut rt, &mut ctx)));
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_facility(c, "shadow_paged", ShadowPages::new);
    bench_facility(c, "shadow_hashmap", ShadowHashMapFacility::new);
    bench_facility(c, "hash_table", || HashTableFacility::new(16));
}

criterion_group!(metadata, benches, bench_rt_call);
criterion_main!(metadata);
