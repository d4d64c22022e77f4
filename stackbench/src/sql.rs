//! The SQL workload: generated SQL text driven through every layer.
//!
//! One query is `CachedFrontend::compile_plan` → `Optimizer::optimize`
//! with `ServedCardinality` (which asks `Gateway::predict`) →
//! `StageDag::compile` → `Simulator::run` → `FeedbackStore::record_execution`
//! → `ServedCardinality::observe_actual` into an `AutonomyController` that
//! supervises every published micromodel. Every `HEALTH_EVERY` queries a
//! health pass runs: `Obs::snapshot_since` → `SloEngine::ingest` →
//! `health_signal` → `AutonomyController::ingest_health` per model.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use adas_engine::cardinality::CardinalityModel;
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::feedback::FeedbackStore;
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_learned::cardinality::TrainConfig;
use adas_learned::serving::cardinality_model_name;
use adas_learned::LearnedCardinality;
use adas_ml::dataset::Dataset;
use adas_ml::linear::LinearRegression;
use adas_ml::Regressor;
use adas_obs::Obs;
use adas_serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, Gateway, GatewayConfig, ModelHandle,
    RegressorModel, Retrainer, ServableModel,
};
use adas_sql::{CachedFrontend, Frontend};
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::template_signature;

use crate::episode::{q_error, Digest, Episode, GatewayDelta, HealthPass};
use crate::trace::{Layer, Tracer};

/// Jobs the generator puts on one simulated day.
const JOBS_PER_DAY: usize = 1000;
/// Distinct recurring templates in the generator's catalog.
const TEMPLATES: usize = 64;
/// Queries between two health passes.
const HEALTH_EVERY: usize = 100;

/// Fraction of jobs that instantiate a recurring template: templates recur,
/// so the template cache and the served micromodels are on the query path.
const RECURRING_FRACTION: f64 = 0.95;
/// Leading jobs used to train the micromodels and warm the caches.
const WARM_JOBS: usize = 2_000;
/// Jobs timed after the warm-up; the run length of one episode.
const TIMED_JOBS: usize = 10_000;

/// Wraps the served estimator so the traced run can time each call into
/// `learned.serving` from outside, and remembers the root estimate the
/// optimizer asked for first — the estimate for the query as compiled.
struct TimedCards<'t, M> {
    inner: M,
    tracer: &'t Tracer,
    root: Cell<Option<f64>>,
}

impl<M: CardinalityModel> CardinalityModel for TimedCards<'_, M> {
    fn annotate(&self, plan: &LogicalPlan) -> adas_engine::Result<Vec<f64>> {
        let ann = self
            .tracer
            .span(Layer::LearnedServing, || self.inner.annotate(plan))?;
        if self.root.get().is_none() {
            self.root.set(ann.first().copied());
        }
        Ok(ann)
    }
}

/// Refits a template's micromodel (ridge regression in ln-rows space) from
/// the controller's recent `(features, actual)` history.
fn ridge_retrainer() -> Retrainer {
    Box::new(|history: &[(Vec<f64>, f64)]| {
        let rows = history.iter().map(|(f, _)| f.clone()).collect();
        let targets = history.iter().map(|(_, y)| *y).collect();
        let model = LinearRegression::fit_ridge(&Dataset::new(rows, targets).ok()?, 1e-6).ok()?;
        let error = history
            .iter()
            .map(|(f, y)| (model.predict(f) - y).abs())
            .sum::<f64>()
            / history.len() as f64;
        Some((
            Arc::new(RegressorModel(model)) as Arc<dyn ServableModel>,
            error.max(0.01),
        ))
    })
}

/// What one query produced, checked after its timing ends.
struct QueryOut {
    plan: LogicalPlan,
    rewrites: usize,
    stages: usize,
    latency: f64,
    actual_rows: f64,
    observed: Option<Vec<AutonomyAction>>,
}

pub fn run_episode(seed: u64, tracer: &Tracer) -> Result<Episode, String> {
    let setup_start = Instant::now();
    let total = WARM_JOBS + TIMED_JOBS;
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: total.div_ceil(JOBS_PER_DAY),
        jobs_per_day: JOBS_PER_DAY,
        recurring_fraction: RECURRING_FRACTION,
        n_templates: TEMPLATES,
        seed,
        ..Default::default()
    })
    .and_then(|g| g.generate())
    .map_err(|e| format!("generation failed: {e}"))?;
    let catalog = &workload.catalog;
    let corpus = workload
        .sql_jobs()
        .map_err(|e| format!("rendering failed: {e}"))?;
    let expected: Vec<&LogicalPlan> = workload.trace.jobs().iter().map(|j| &j.plan).collect();
    if expected.len() < total {
        return Err(format!(
            "generator made {} jobs, need {total}",
            expected.len()
        ));
    }

    let history: Vec<LogicalPlan> = expected[..WARM_JOBS].iter().map(|p| (*p).clone()).collect();
    let (learned, _) = LearnedCardinality::train(catalog, &history, TrainConfig::default());
    let obs = Obs::recording();
    let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
    let served = learned.publish(&gateway);
    let mut signatures = learned.signatures();
    signatures.sort();
    let mut controller = AutonomyController::new(gateway.clone(), obs.clone());
    let mut handles: Vec<ModelHandle> = Vec::with_capacity(signatures.len());
    for sig in signatures {
        let handle = gateway
            .resolve(&cardinality_model_name(sig))
            .ok_or("published micromodel is not registered")?;
        controller.supervise(handle, AutonomyConfig::default(), ridge_retrainer());
        handles.push(handle);
    }
    let covered: Vec<bool> = expected.iter().map(|p| served.covers(p)).collect();

    let frontend = CachedFrontend::new(Frontend::new(catalog));
    let cost_model = CostModel::default();
    let optimizer = Optimizer::with_obs(cost_model, 32, obs.clone());
    let simulator = Simulator::with_obs(ClusterConfig::default(), obs.clone())
        .map_err(|e| format!("cluster config rejected: {e}"))?;
    let options = SimOptions::default();
    let mut feedback = FeedbackStore::new();
    let mut health = HealthPass::new();
    let cards = TimedCards {
        inner: &served,
        tracer,
        root: Cell::new(None),
    };

    let mut ep = Episode::default();
    let mut digest = Digest::default();
    let mut gateway_before = GatewayDelta::default();
    let mut sql_before = (0, 0);
    let mut timed_start = Instant::now();
    for i in 0..total {
        if i == WARM_JOBS {
            ep.setup_s = setup_start.elapsed().as_secs_f64();
            gateway_before = GatewayDelta::from(gateway.stats());
            sql_before = frontend.stats();
            tracer.arm();
            timed_start = Instant::now();
        }
        let timed = i >= WARM_JOBS;
        let sim_time = i as f64;
        let job = &corpus[i];
        cards.root.set(None);
        let (out, us) = tracer.op(|| -> Result<QueryOut, String> {
            let plan = tracer
                .span(Layer::Sql, || frontend.compile_plan(&job.sql, &job.params))
                .map_err(|e| e.render(&job.sql))?;
            served.set_sim_time(sim_time);
            let optimized = tracer
                .span(Layer::EngineRules, || {
                    optimizer.optimize(&plan, RuleSet::all(), &cards)
                })
                .map_err(|e| format!("optimize: {e}"))?;
            let dag = tracer
                .span(Layer::EnginePhysical, || {
                    StageDag::compile(&optimized.plan, catalog, &cost_model)
                })
                .map_err(|e| format!("stage compile: {e}"))?;
            let report = tracer
                .span(Layer::EngineExec, || simulator.run(&dag, &options))
                .map_err(|e| format!("execute: {e}"))?;
            let actual_rows = tracer
                .span(Layer::EngineFeedback, || {
                    feedback.record_execution(&optimized.plan, catalog, Some(&report))?;
                    Ok::<f64, adas_engine::EngineError>(
                        feedback
                            .observations(template_signature(&optimized.plan))
                            .last()
                            .map_or(0.0, |o| o.actual_rows),
                    )
                })
                .map_err(|e| format!("feedback: {e}"))?;
            // Outcomes are fed with the plan compiled from SQL: the
            // served estimator stashes its prediction under the input
            // template, which the optimized plan no longer matches.
            let observed = tracer.span(Layer::ServeAutonomy, || {
                served.observe_actual(&plan, actual_rows, &mut controller, sim_time)
            });
            Ok(QueryOut {
                plan,
                rewrites: optimized.applied.len(),
                stages: dag.len(),
                latency: report.latency,
                actual_rows,
                observed,
            })
        });
        ep.attempted += 1;
        match out {
            Ok(q) => {
                let estimate = cards.root.get().unwrap_or(f64::NAN);
                if q.plan != *expected[i] {
                    ep.wrong(format!(
                        "job {i}: compiled plan differs from the generated plan"
                    ));
                } else if !(q.latency.is_finite() && q.latency > 0.0) {
                    ep.wrong(format!(
                        "job {i}: execution latency {} is not positive",
                        q.latency
                    ));
                } else if !(estimate.is_finite() && q.actual_rows > 0.0) {
                    ep.wrong(format!(
                        "job {i}: estimate {estimate} or outcome {} unusable",
                        q.actual_rows
                    ));
                }
                // A served template always has a stashed estimate, so
                // no actions back means the controller's `observe`
                // returned an error, which `observe_actual` swallows.
                if covered[i] && q.observed.is_none() {
                    ep.fail(format!(
                        "job {i}: the autonomy controller rejected a served outcome"
                    ));
                }
                digest.f64(q.latency);
                digest.f64(estimate);
                digest.f64(q.actual_rows);
                match &q.observed {
                    Some(actions) => digest.actions(actions),
                    None => digest.u64(u64::MAX),
                }
                if timed {
                    ep.op_us.push(us);
                    ep.qerrors.push(q_error(estimate, q.actual_rows));
                    ep.sim_latency_sum += q.latency;
                    ep.sim_jobs += 1;
                    ep.rewrites += q.rewrites as u64;
                    ep.stages += q.stages as u64;
                    if covered[i] {
                        ep.served += 1;
                        if let Some(actions) = &q.observed {
                            ep.observed += 1;
                            ep.actions += actions.len() as u64;
                        }
                    }
                }
            }
            Err(e) => ep.fail(format!("job {i}: {e}")),
        }

        if (i + 1) % HEALTH_EVERY == 0 {
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
    let (hits, misses) = frontend.stats();
    ep.sql_hits = hits - sql_before.0;
    ep.sql_misses = misses - sql_before.1;
    ep.gateway = GatewayDelta::from(gateway.stats()).since(&gateway_before);
    ep.digest = digest.finish(&ep);
    Ok(ep)
}
