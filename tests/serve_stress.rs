//! Hot-swap stress: readers racing a publisher never observe a torn or
//! stale-beyond-one-version serving snapshot.
//!
//! Each deployed model version `v` answers every request with exactly
//! `v as f64`, so a prediction is *torn* iff `value != version as f64` —
//! i.e. the reader saw a model body from one version stitched to another
//! version's metadata. Staleness is bounded against a watermark the
//! publisher bumps only **after** `Gateway::publish` returns: a read that
//! starts after the watermark reads `w` must be answered by version ≥ `w`.
//!
//! A model that panics during inference is a fault, not a crash: every
//! serving path answers with the `ModelPanic` fallback, the breaker opens,
//! and a later healthy publish serves again — at any worker count, without
//! hanging.

use autonomous_data_services::serve::{
    BreakerState, FallbackCause, FnModel, Gateway, GatewayConfig, Request, ServableModel, Source,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const READERS: usize = 8;
const VERSIONS: u64 = 64;
const READS_PER_CHECK: usize = 32;

#[test]
fn hot_swap_never_tears_or_rewinds() {
    let gateway = Gateway::new(GatewayConfig::standard());
    let handle = gateway.register("stress/versioned", |_f: &[f64]| -1.0);

    // Version the readers start from.
    gateway
        .publish(handle, Arc::new(FnModel(|_f: &[f64]| 1.0)), 0.0)
        .expect("registered");
    let watermark = AtomicU64::new(1);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader = |reader_id: usize| {
            let gateway = gateway.clone();
            let watermark = &watermark;
            let stop = &stop;
            move || {
                let mut last_seen = 0u64;
                let mut iter = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let published = watermark.load(Ordering::Acquire);
                    for _ in 0..READS_PER_CHECK {
                        iter += 1;
                        // Vary features so cache lookups exercise many keys.
                        let features = [(reader_id as u64 * 7919 + iter % 17) as f64];
                        let p = gateway
                            .predict(handle, &features, iter as f64)
                            .expect("registered");
                        assert!(
                            !p.source.is_fallback(),
                            "no faults are injected, so no fallback"
                        );
                        // Torn check: the value must be the one this exact
                        // version computes. Cache hits are keyed by version,
                        // so they must agree too.
                        assert_eq!(
                            p.value, p.version as f64,
                            "torn snapshot: version {} answered {} (source {:?})",
                            p.version, p.value, p.source
                        );
                        assert!(
                            p.version >= published,
                            "stale snapshot: watermark was {published}, served {}",
                            p.version
                        );
                        assert!(
                            p.version >= last_seen,
                            "version rewound from {last_seen} to {}",
                            p.version
                        );
                        last_seen = p.version;
                    }
                }
            }
        };
        let readers: Vec<_> = (0..READERS).map(|id| scope.spawn(reader(id))).collect();

        for v in 2..=VERSIONS {
            gateway
                .publish(handle, Arc::new(FnModel(move |_f: &[f64]| v as f64)), 0.0)
                .expect("registered");
            watermark.store(v, Ordering::Release);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });

    // After the race, the gateway serves the final version everywhere.
    let p = gateway.predict(handle, &[0.5], 0.0).expect("registered");
    assert_eq!(p.version, VERSIONS);
    assert_eq!(p.value, VERSIONS as f64);
    assert!(matches!(p.source, Source::Model | Source::Cache));
}

/// The registry behind each entry keeps the full version history while the
/// race runs — hot swap replaces the serving snapshot, not the lineage.
#[test]
fn hot_swap_preserves_version_lineage() {
    let gateway = Gateway::new(GatewayConfig::standard());
    let handle = gateway.register("stress/lineage", |_f: &[f64]| 0.0);
    for v in 1..=10u64 {
        let version = gateway
            .publish(handle, Arc::new(FnModel(move |_f: &[f64]| v as f64)), 0.0)
            .expect("registered");
        assert_eq!(version, v, "publish returns sequential versions");
    }
    let p = gateway.predict(handle, &[1.0], 0.0).expect("registered");
    assert_eq!(p.version, 10);
    // Rollback redeploys an earlier body as a fresh version — never rewinds.
    let rolled = gateway
        .rollback(handle)
        .expect("registered")
        .expect("earlier versions exist");
    assert!(rolled > 10, "rollback must move the version forward");
}

/// Panics on every inference call.
struct PanickingModel;

impl ServableModel for PanickingModel {
    fn predict(&self, _features: &[f64]) -> f64 {
        panic!("model inference panicked");
    }
}

/// Runs `body` on its own thread and fails the test if it has not returned
/// within ten seconds — a hang is the defect under test, so it must fail
/// rather than stall the suite.
fn within_timeout(name: &str, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => handle.join().expect("body returned"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked: surface its assertion message.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // A hung body cannot be joined; its thread ends with the process.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: hung for 10 s"),
    }
}

fn panicking_model_is_contained(workers: usize) {
    let mut config = GatewayConfig::concurrent(workers);
    config.breaker.failure_threshold = 3;
    let gateway = Gateway::new(config);
    let handle = gateway.register("stress/panicky", |f: &[f64]| f[0] * 2.0);
    gateway
        .publish(handle, Arc::new(PanickingModel), 0.0)
        .expect("registered");

    // One batched row per call until the breaker has seen its threshold.
    for t in 0..3 {
        let request = Request::new(handle, vec![t as f64 + 1.0], t as f64);
        let out = gateway.predict_many(&[request]).expect("registered");
        assert_eq!(out[0].source, Source::Fallback(FallbackCause::ModelPanic));
        assert_eq!(out[0].value, (t as f64 + 1.0) * 2.0, "served the heuristic");
    }
    assert_eq!(
        gateway.breaker_state(handle).expect("registered"),
        BreakerState::Open,
        "three panics reach the failure threshold"
    );
    let blocked = gateway
        .predict_many(&[Request::new(handle, vec![9.0], 4.0)])
        .expect("registered");
    assert_eq!(
        blocked[0].source,
        Source::Fallback(FallbackCause::BreakerOpen)
    );

    // A batch of several rows that all panic settles every row.
    gateway
        .publish(handle, Arc::new(PanickingModel), 0.0)
        .expect("registered");
    let batch: Vec<Request> = (0..5)
        .map(|i| Request::new(handle, vec![100.0 + i as f64], 5.0))
        .collect();
    let out = gateway.predict_many(&batch).expect("registered");
    assert!(out
        .iter()
        .all(|p| p.source == Source::Fallback(FallbackCause::ModelPanic)));

    // The single-request path contains the panic the same way.
    gateway
        .publish(handle, Arc::new(PanickingModel), 0.0)
        .expect("registered");
    let single = gateway.predict(handle, &[7.0], 6.0).expect("registered");
    assert_eq!(single.source, Source::Fallback(FallbackCause::ModelPanic));

    // A healthy publish resets the breaker and serves the model again.
    gateway
        .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 0.5)), 0.0)
        .expect("registered");
    let healthy = gateway
        .predict_many(&[Request::new(handle, vec![1.0], 7.0)])
        .expect("registered");
    assert_eq!(healthy[0].source, Source::Model);
    assert_eq!(healthy[0].value, 1.5);
    assert_eq!(
        gateway
            .predict(handle, &[2.0], 8.0)
            .expect("registered")
            .source,
        Source::Model
    );
}

#[test]
fn panicking_model_is_contained_inline() {
    within_timeout("inline", || panicking_model_is_contained(0));
}

#[test]
fn panicking_model_is_contained_on_worker_threads() {
    within_timeout("2 workers", || panicking_model_is_contained(2));
}
