//! The serving drill: no SQL and no engine, only the serving tier and the
//! autonomy loop under a recurring fault schedule.
//!
//! Sixteen supervised models sit behind one gateway. Each tick sends one
//! `predict_many` batch that mixes repeated feature values (cache hits)
//! with fresh ones (misses), and every outcome is observed. The world has
//! drifted away from the bootstrap models, so the loop retrains, stages
//! and promotes; each newly promoted version is then poisoned, so guard
//! trips, rollbacks and retrains recur beside the prediction reads for the
//! whole run.

use std::sync::Arc;
use std::time::Instant;

use adas_core::feedback::LoopConfig;
use adas_faultsim::{ModelFaults, PoisonProfile};
use adas_obs::Obs;
use adas_serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, ModelHandle, PoisonScope, Request, Retrainer, ServableModel, SloPolicy, Source,
};
use adas_simkern::rng::{derive, SplitMix64};

use crate::episode::{q_error, Digest, Episode, GatewayDelta, HealthPass};
use crate::trace::{Layer, Tracer};

/// Supervised models behind the gateway.
const MODELS: usize = 16;
/// Requests per `predict_many` batch.
const BATCH: usize = 32;
/// Distinct repeated feature values per model; with `MODELS` models the
/// repeated keys fit the gateway cache many times over.
const REPEATED_VALUES: u64 = 5;
/// Share of requests that reuse a repeated feature value.
const REPEATED_SHARE: f64 = 0.5;
/// Ticks run before timing starts.
const WARM_TICKS: u64 = 500;
/// Ticks timed per episode.
const TIMED_TICKS: u64 = 3_000;
/// Ticks between two health passes: three timed passes per episode. Traced
/// runs put `obs` at 27% of drill time with a pass every 250 ticks, 19% at
/// 500, 13% at 875 and 10% at 1000; at 1750 it is still 10%, because a
/// pass costs about what the records since the last one cost, so the drill
/// cannot get `obs` lower by spacing passes further apart.
const HEALTH_EVERY: u64 = 1000;

fn drill_config() -> AutonomyConfig {
    AutonomyConfig {
        monitor: LoopConfig {
            window: 20,
            retrain_factor: 1.5,
            rollback_factor: 8.0,
        },
        canary: CanaryConfig {
            traffic_pct: 30,
            shadow_first: true,
            min_decisions: 10,
            promote_streak: 2,
            demote_streak: 2,
            promote_error_factor: 1.2,
            demote_error_factor: 2.0,
            restage_backoff_ticks: 16.0,
            max_restage_backoff_ticks: 128.0,
        },
        slo: SloPolicy::default(),
        guarded_streak: 4,
        breaker_open_streak: 10,
        retrain_cooldown_ticks: 8.0,
        min_retrain_observations: 20,
    }
}

/// Least-squares slope through the origin over the recent history.
fn slope_retrainer() -> Retrainer {
    Box::new(|history: &[(Vec<f64>, f64)]| {
        let (num, den) = history
            .iter()
            .fold((0.0, 0.0), |(n, d), (f, y)| (n + f[0] * y, d + f[0] * f[0]));
        let a = num / den.max(1e-12);
        Some((
            Arc::new(FnModel(move |f: &[f64]| a * f[0])) as Arc<dyn ServableModel>,
            0.01,
        ))
    })
}

pub fn run_episode(seed: u64, tracer: &Tracer) -> Result<Episode, String> {
    let setup_start = Instant::now();
    let obs = Obs::recording();
    // Inference runs inline on the caller thread. Results are byte-identical
    // at any worker count, and with a one-thread pool the hand-off to the
    // worker made tail latency track whatever else the second vCPU of a
    // two-vCPU machine was running.
    let mut config = GatewayConfig::standard();
    config.breaker.guard_factor = 2.0;
    config.breaker.failure_threshold = 4;
    config.breaker.cooldown_ticks = 8.0;
    config.breaker.backoff_factor = 2.0;
    config.breaker.max_cooldown_ticks = 64.0;
    let gateway = Gateway::with_obs(config, obs.clone());
    let mut controller = AutonomyController::new(gateway.clone(), obs.clone());
    let mut rng = SplitMix64::new(derive(seed, 0));
    let mut handles: Vec<ModelHandle> = Vec::with_capacity(MODELS);
    let mut world = Vec::with_capacity(MODELS);
    for m in 0..MODELS {
        let handle = gateway.register(&format!("drill/{m:02}"), |f: &[f64]| f[0]);
        controller.supervise(handle, drill_config(), slope_retrainer());
        controller
            .install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
            .map_err(|e| format!("bootstrap install: {e}"))?;
        handles.push(handle);
        world.push(rng.range_f64(1.25, 1.45));
    }
    let mut health = HealthPass::new();
    let mut poisonings = 0u64;

    let mut ep = Episode::default();
    let mut digest = Digest::default();
    let mut gateway_before = GatewayDelta::default();
    let mut timed_start = Instant::now();
    for t in 0..WARM_TICKS + TIMED_TICKS {
        if t == WARM_TICKS {
            ep.setup_s = setup_start.elapsed().as_secs_f64();
            gateway_before = GatewayDelta::from(gateway.stats());
            tracer.arm();
            timed_start = Instant::now();
        }
        let timed = t >= WARM_TICKS;
        let sim_time = t as f64;
        let mut models = [0usize; BATCH];
        let mut actuals = [0.0f64; BATCH];
        let requests: Vec<Request> = (0..BATCH)
            .map(|k| {
                let m = rng.range_u64(MODELS as u64) as usize;
                let f0 = if rng.next_f64() < REPEATED_SHARE {
                    1.0 + rng.range_u64(REPEATED_VALUES) as f64
                } else {
                    rng.range_f64(1.0, 1.0 + REPEATED_VALUES as f64)
                };
                models[k] = m;
                actuals[k] = world[m] * f0;
                Request::new(handles[m], vec![f0], sim_time)
            })
            .collect();

        let (out, us) = tracer.op(|| -> Result<_, String> {
            let predictions = tracer
                .span(Layer::ServeGateway, || gateway.predict_many(&requests))
                .map_err(|e| format!("predict_many: {e}"))?;
            if predictions.len() != requests.len() {
                return Err(format!(
                    "{} predictions for {} requests",
                    predictions.len(),
                    requests.len()
                ));
            }
            // Every outcome is observed, even after one observation of the
            // batch returns an error; the tick then counts as failed.
            let (actions, observed, error) = tracer.span(Layer::ServeAutonomy, || {
                let mut actions = Vec::new();
                let mut observed = 0u64;
                let mut error = None;
                for (k, (r, p)) in requests.iter().zip(&predictions).enumerate() {
                    match controller.observe(r.handle, &r.features, p, actuals[k], sim_time) {
                        Ok(step) => {
                            observed += 1;
                            actions.extend(step.into_iter().map(|a| (models[k], a)));
                        }
                        Err(e) => {
                            error.get_or_insert(format!("tick {t}: observe: {e}"));
                        }
                    }
                }
                (actions, observed, error)
            });
            let promoted: Vec<(usize, u64)> = actions
                .iter()
                .filter_map(|(m, a)| match a {
                    AutonomyAction::Promoted { version } => Some((*m, *version)),
                    _ => None,
                })
                .collect();
            if !promoted.is_empty() {
                // The fault schedule: every newly promoted artifact is
                // corrupted, and its serving channel turns flaky.
                tracer.span(Layer::ServeGateway, || {
                    for (m, version) in &promoted {
                        poisonings += 1;
                        let faults = ModelFaults::with_profile(
                            derive(seed, poisonings),
                            0.05,
                            0.05,
                            4.0,
                            PoisonProfile::Constant,
                        );
                        gateway
                            .inject_faults_at(handles[*m], faults, sim_time)
                            .and_then(|_| {
                                gateway.set_poison_scope_at(
                                    handles[*m],
                                    PoisonScope::Version(*version),
                                    sim_time,
                                )
                            })
                            .map_err(|e| format!("fault injection: {e}"))?;
                    }
                    Ok::<(), String>(())
                })?;
            }
            Ok((predictions, actions, observed, error))
        });
        ep.attempted += 1;
        match out {
            Ok((predictions, actions, observed, error)) => {
                for p in &predictions {
                    if !p.value.is_finite() {
                        ep.wrong(format!("tick {t}: non-finite prediction {}", p.value));
                    } else if matches!(p.source, Source::Model | Source::Cache) && p.version == 0 {
                        ep.wrong(format!(
                            "tick {t}: model answer without a published version"
                        ));
                    }
                }
                if let Some(e) = error {
                    ep.fail(e);
                }
                for (m, a) in &actions {
                    digest.u64(*m as u64);
                    digest.actions(std::slice::from_ref(a));
                }
                for p in &predictions {
                    digest.f64(p.value);
                    digest.u64(p.version);
                }
                if timed {
                    ep.op_us.push(us);
                    for (p, actual) in predictions.iter().zip(&actuals) {
                        ep.qerrors.push(q_error(p.value, *actual));
                    }
                    ep.served += predictions.len() as u64;
                    ep.observed += observed;
                    ep.actions += actions.len() as u64;
                }
            }
            Err(e) => ep.fail(e),
        }

        if (t + 1) % HEALTH_EVERY == 0 {
            health.run(
                &obs,
                &mut controller,
                &handles,
                sim_time,
                timed,
                tracer,
                &mut ep,
                &mut digest,
            );
        }
    }
    ep.timed_s = timed_start.elapsed().as_secs_f64();
    ep.gateway = GatewayDelta::from(gateway.stats()).since(&gateway_before);
    digest.u64(poisonings);
    ep.digest = digest.finish(&ep);
    Ok(ep)
}
