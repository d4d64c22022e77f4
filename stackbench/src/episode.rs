//! What one episode measures, and the checks shared by every workload.

use std::time::Instant;

use adas_obs::{Obs, Trace, TraceCursor};
use adas_serve::{AutonomyAction, AutonomyController, GatewayStats, ModelHandle};
use adas_watchtower::{default_specs, SloEngine};

use crate::trace::{Layer, Tracer};

/// One episode: a fresh stack is set up from the seed, warmed, and then a
/// fixed number of operations is timed.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    /// Generation, training, publishing and warm-up, seconds.
    pub setup_s: f64,
    /// Wall time of the timed phase, seconds.
    pub timed_s: f64,
    /// Wall time per query (SQL workload) or per drill tick, microseconds.
    pub op_us: Vec<f64>,
    /// Wall time per health pass, microseconds.
    pub health_us: Vec<f64>,
    /// Wall time of the `Obs::snapshot_since` call inside each health pass.
    pub obs_pass_us: Vec<f64>,
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Operations whose output failed a check; any makes the run incorrect.
    pub wrong: u64,
    pub first_error: Option<String>,
    /// q-error of every estimate the stack acted on against its outcome.
    pub qerrors: Vec<f64>,
    pub sim_latency_sum: f64,
    pub sim_jobs: u64,
    pub rewrites: u64,
    pub stages: u64,
    pub sql_hits: u64,
    pub sql_misses: u64,
    pub gateway: GatewayDelta,
    /// Operations whose estimate came from a served micromodel.
    pub served: u64,
    /// Served estimates whose outcome the autonomy controller accepted.
    pub observed: u64,
    pub actions: u64,
    pub records: u64,
    pub passes: u64,
    /// Digest of every deterministic output, the autonomy actions included.
    pub digest: u64,
}

impl Episode {
    /// Counts an operation that returned an error.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    /// Counts an operation whose output failed a check.
    pub fn wrong(&mut self, error: String) {
        self.wrong += 1;
        self.fail(error);
    }

    /// Timed operations of both kinds per second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        (self.op_us.len() + self.health_us.len()) as f64 / self.timed_s
    }
}

/// Gateway counters over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct GatewayDelta {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fallbacks: u64,
    pub batches: u64,
    pub batched_rows: u64,
}

impl From<GatewayStats> for GatewayDelta {
    fn from(s: GatewayStats) -> Self {
        Self {
            requests: s.requests,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            fallbacks: s.fallbacks,
            batches: s.batches,
            batched_rows: s.batched_rows,
        }
    }
}

impl GatewayDelta {
    pub fn since(self, before: &Self) -> Self {
        Self {
            requests: self.requests - before.requests,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            fallbacks: self.fallbacks - before.fallbacks,
            batches: self.batches - before.batches,
            batched_rows: self.batched_rows - before.batched_rows,
        }
    }
}

/// The periodic health pass shared by every workload, timed as its own
/// operation: `Obs::snapshot_since` → `SloEngine::ingest` → `health_signal`
/// → `AutonomyController::ingest_health` for every supervised model.
pub struct HealthPass {
    slo: SloEngine,
    cursor: TraceCursor,
    /// The previous delta, released inside the next pass's `obs` span so
    /// the snapshot's allocation and its release both count as `obs` time.
    last_delta: Trace,
}

impl HealthPass {
    pub fn new() -> Self {
        Self {
            slo: SloEngine::new(default_specs()),
            cursor: TraceCursor::default(),
            last_delta: Trace::default(),
        }
    }

    /// Runs one pass at `sim_time` and books it into `ep`; every model is
    /// fed even when one `ingest_health` call returns an error.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        obs: &Obs,
        controller: &mut AutonomyController,
        handles: &[ModelHandle],
        sim_time: f64,
        timed: bool,
        tracer: &Tracer,
        ep: &mut Episode,
        digest: &mut Digest,
    ) {
        let mut obs_us = 0.0;
        let ((records, actions, error), us) = tracer.op(|| {
            let records = tracer.span(Layer::Obs, || {
                let start = Instant::now();
                self.last_delta = obs.snapshot_since(&mut self.cursor);
                obs_us = start.elapsed().as_secs_f64() * 1e6;
                let d = &self.last_delta;
                d.spans.len() + d.events.len() + d.decisions.len() + d.deployments.len()
            });
            let signal = tracer.span(Layer::Watchtower, || {
                self.slo.ingest(&self.last_delta);
                self.slo.health_signal()
            });
            let (actions, error) = tracer.span(Layer::ServeAutonomy, || {
                let mut actions = Vec::new();
                let mut error = None;
                for h in handles {
                    match controller.ingest_health(*h, &signal, sim_time) {
                        Ok(step) => actions.extend(step),
                        Err(e) => {
                            error.get_or_insert(format!("ingest_health: {e}"));
                        }
                    }
                }
                (actions, error)
            });
            digest.f64(signal.fast_burn);
            digest.f64(signal.slow_burn);
            digest.actions(&actions);
            (records, actions, error)
        });
        ep.attempted += 1;
        if let Some(e) = error {
            ep.fail(e);
        }
        if timed {
            ep.health_us.push(us);
            ep.obs_pass_us.push(obs_us);
            ep.records += records as u64;
            ep.passes += 1;
            ep.actions += actions.len() as u64;
        }
    }
}

/// `max(estimate / actual, actual / estimate)`, both floored at one row.
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    let (e, a) = (estimate.max(1.0), actual.max(1.0));
    (e / a).max(a / e)
}

/// FNV-1a over the bit patterns of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn actions(&mut self, actions: &[AutonomyAction]) {
        for a in actions {
            for b in format!("{a:?}").bytes() {
                self.u64(b as u64);
            }
        }
    }

    /// Folds in the episode's deterministic counters and returns the digest.
    pub fn finish(mut self, ep: &Episode) -> u64 {
        for v in [
            ep.attempted,
            ep.failed,
            ep.wrong,
            ep.sim_jobs,
            ep.rewrites,
            ep.stages,
            ep.sql_hits,
            ep.sql_misses,
            ep.gateway.requests,
            ep.gateway.cache_hits,
            ep.gateway.fallbacks,
            ep.gateway.batched_rows,
            ep.served,
            ep.observed,
            ep.actions,
            ep.records,
        ] {
            self.u64(v);
        }
        self.0
    }
}
