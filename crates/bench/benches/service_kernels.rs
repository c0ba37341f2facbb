//! Criterion coverage for the service layer: warm-cache request
//! dispatch and sweep fan-out/reassembly overhead (CI runs
//! `cargo bench --no-run` to keep these compiling).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use ser_gen::iscas89_like;
use ser_service::{Request, SerService, SerServiceConfig, SiteRequest, SweepRequest};

fn warm_service(threads: usize) -> (SerService, Arc<ser_netlist::Circuit>) {
    let circuit = Arc::new(iscas89_like("s298").unwrap());
    let service = SerService::new(SerServiceConfig {
        max_sessions: 4,
        threads,
        sweep_batch_sites: 64,
        // Exercise the kernel path, not the response cache.
        max_sweep_responses: 0,
        plan_cache_dir: None,
        plan_cache_max_bytes: None,
        ..SerServiceConfig::default()
    });
    service.session(&circuit, None).unwrap();
    (service, circuit)
}

fn bench_warm_site_request(c: &mut Criterion) {
    let (service, circuit) = warm_service(2);
    let site = circuit.node_ids().next().unwrap();
    c.bench_function("service_warm_site_request_s298", |b| {
        b.iter(|| {
            let r = service
                .submit(&circuit, Request::Site(SiteRequest { site }))
                .unwrap();
            criterion::black_box(r.as_site().unwrap().p_sensitized())
        })
    });
}

fn bench_warm_sweep_request(c: &mut Criterion) {
    let (service, circuit) = warm_service(2);
    c.bench_function("service_warm_sweep_s298", |b| {
        b.iter(|| {
            let r = service
                .submit(&circuit, Request::Sweep(SweepRequest::default()))
                .unwrap();
            criterion::black_box(r.as_sweep().unwrap().len())
        })
    });
}

criterion_group!(benches, bench_warm_site_request, bench_warm_sweep_request);
criterion_main!(benches);
