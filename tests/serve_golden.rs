//! Golden pin of the serving gateway's observable bytes.
//!
//! One seeded `predict_many` sequence drives a recording gateway through a
//! small cache (64 entries over 4 shards, so shards fill and evict), hot
//! repeated keys mixed with fresh ones, a shadow stage, a canary stage, a
//! promote, a version-scoped poisoning with a seeded `ModelFaults` channel
//! and a rollback. The canonical trace export, the `GatewayStats` and every
//! prediction's bits are pinned to constants, so any change to eviction
//! order, counter bookkeeping or settle order shows up as a diff here. The
//! same constants hold at every worker count.

use autonomous_data_services::faultsim::ModelFaults;
use autonomous_data_services::obs::{digest_bytes, Obs};
use autonomous_data_services::serve::{
    DeployPhase, FnModel, Gateway, GatewayConfig, GatewayStats, PoisonScope, Prediction, Request,
    Source,
};
use autonomous_data_services::simkern::rng::SplitMix64;
use std::sync::Arc;

const MODELS: usize = 3;
const TICKS: usize = 24;
const ROWS_PER_TICK: usize = 32;
const HOT_KEYS: u64 = 40;

const GOLDEN_TRACE: u64 = 0x9530_95b8_1d1f_c3c2;
const GOLDEN_PREDICTIONS: u64 = 0x15d2_3fc8_4d35_a2e9;
const GOLDEN_STATS: [u64; 11] = [768, 79, 689, 649, 183, 649, 55, 0, 4, 26, 27];

fn config(workers: usize) -> GatewayConfig {
    let mut config = GatewayConfig::concurrent(workers);
    config.cache_capacity = 64;
    config.cache_shards = 4;
    config.batch_size = 6;
    config.batch_deadline_ticks = 3.0;
    config.breaker.failure_threshold = 3;
    config.breaker.cooldown_ticks = 4.0;
    config.breaker.guard_factor = 4.0;
    config
}

fn source_tag(source: Source) -> u8 {
    match source {
        Source::Cache => 1,
        Source::Model => 2,
        Source::Stale => 3,
        Source::Fallback(cause) => 16 + cause.name().len() as u8,
    }
}

fn fold(bytes: &mut Vec<u8>, p: &Prediction) {
    bytes.extend_from_slice(&p.value.to_bits().to_le_bytes());
    bytes.extend_from_slice(&p.version.to_le_bytes());
    bytes.extend_from_slice(&p.features_digest.to_le_bytes());
    bytes.push(source_tag(p.source));
}

fn stats_row(s: &GatewayStats) -> [u64; 11] {
    [
        s.requests,
        s.cache_hits,
        s.cache_misses,
        s.model_calls,
        s.batches,
        s.batched_rows,
        s.fallbacks,
        s.shed,
        s.stale,
        s.canary_routed,
        s.shadow_serves,
    ]
}

/// Runs the scripted drill and returns (trace digest, prediction digest,
/// stats row).
fn drill(workers: usize) -> (u64, u64, [u64; 11]) {
    let obs = Obs::recording();
    let gateway = Gateway::with_obs(config(workers), obs.clone());
    let handles: Vec<_> = (0..MODELS)
        .map(|m| {
            let scale = 1.0 + m as f64;
            let handle = gateway.register(&format!("golden/m{m}"), move |f: &[f64]| {
                (f[0] + f[1]) * scale + 1.0
            });
            gateway
                .publish(
                    handle,
                    Arc::new(FnModel(move |f: &[f64]| (f[0] + f[1]) * scale + 1.25)),
                    0.05,
                )
                .expect("registered");
            handle
        })
        .collect();

    let mut rng = SplitMix64::new(0x601D);
    let mut fresh = 1_000u64;
    let mut bytes = Vec::new();
    for tick in 0..TICKS {
        let t0 = (tick * 10) as f64;
        match tick {
            3 => {
                gateway
                    .stage_candidate(
                        handles[0],
                        Arc::new(FnModel(|f: &[f64]| (f[0] + f[1]) + 1.5)),
                        0.04,
                        DeployPhase::Shadow,
                        0,
                        "golden:retrain",
                        t0,
                    )
                    .expect("stage shadow");
            }
            6 => {
                gateway
                    .advance_candidate(handles[0], 30, "golden:shadow_ok", t0)
                    .expect("advance to canary");
            }
            9 => {
                gateway
                    .promote_candidate(handles[0], 0.03, "golden:canary_ok", t0)
                    .expect("promote");
            }
            11 => {
                let bad = gateway
                    .publish_with_cause(
                        handles[1],
                        Arc::new(FnModel(|f: &[f64]| (f[0] + f[1]) * 2.0 + 1.5)),
                        0.02,
                        "golden:retrain",
                        t0,
                    )
                    .expect("publish v2");
                gateway
                    .inject_faults_at(handles[1], ModelFaults::new(0xBAD, 0.1, 0.05, 9.0), t0)
                    .expect("inject");
                gateway
                    .set_poison_scope_at(handles[1], PoisonScope::Version(bad), t0)
                    .expect("poison");
            }
            16 => {
                gateway
                    .rollback_with_cause(handles[1], "golden:poisoned", t0)
                    .expect("rollback")
                    .expect("an earlier version exists");
            }
            20 => {
                gateway
                    .clear_faults_at(handles[1], t0)
                    .expect("clear faults");
            }
            _ => {}
        }
        let requests: Vec<Request> = (0..ROWS_PER_TICK)
            .map(|r| {
                let handle = handles[rng.range_u64(MODELS as u64) as usize];
                let key = if rng.next_f64() < 0.5 {
                    rng.range_u64(HOT_KEYS)
                } else {
                    fresh += 1;
                    fresh
                };
                let features = vec![key as f64 * 0.25, (key % 7) as f64 - 3.0];
                Request::new(handle, features, t0 + r as f64 * 0.25)
            })
            .collect();
        for p in gateway.predict_many(&requests).expect("registered handles") {
            fold(&mut bytes, &p);
        }
    }
    (
        digest_bytes(obs.export_json().as_bytes()),
        digest_bytes(&bytes),
        stats_row(&gateway.stats()),
    )
}

#[test]
fn gateway_bytes_match_the_golden_pin() {
    let (trace, predictions, stats) = drill(0);
    assert_eq!(stats, GOLDEN_STATS, "GatewayStats drifted");
    assert_eq!(
        predictions, GOLDEN_PREDICTIONS,
        "prediction bits drifted: {predictions:#018x}"
    );
    assert_eq!(trace, GOLDEN_TRACE, "trace export drifted: {trace:#018x}");
}

#[test]
fn golden_pin_holds_with_worker_threads() {
    assert_eq!(drill(2), drill(0));
}
