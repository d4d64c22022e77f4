//! Kernel-equivalence suite, per ISSUE 9: the four time owners that were
//! ported onto the `simkern` discrete-event kernel must reproduce their
//! pre-kernel blocking loops *byte for byte* — same reports (down to the
//! serialized JSON) and same exported obs traces — across the seeded
//! chaos drill at seeds 7, 21 and 42.
//!
//! Each legacy loop is kept in-tree as a `*_legacy` reference
//! implementation precisely so this suite stays executable: any drift in
//! the kernel ports (a wake one ulp off a decision instant, a reordered
//! tie) shows up here as a byte diff, not as a silent behaviour change.

use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use autonomous_data_services::engine::physical::{StageDag, StageId};
use autonomous_data_services::faultsim::{ChaosRunner, FaultConfig, FaultInjector};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::pipeline::{schedule_legacy, schedule_with_obs, Policy};
use autonomous_data_services::workload::gen::{
    GeneratedWorkload, GeneratorConfig, WorkloadGenerator,
};
use std::cmp::Ordering;
use std::collections::HashSet;

/// The pinned drill seeds from the acceptance criteria.
const SEEDS: [u64; 3] = [7, 21, 42];

fn workload(seed: u64) -> GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 40,
        seed,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates")
}

fn dags(w: &GeneratedWorkload, n: usize) -> Vec<StageDag> {
    let cm = CostModel::default();
    w.trace
        .jobs()
        .iter()
        .take(n)
        .map(|j| StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
        .collect()
}

// ------------------------------------------------------------ chaos drill

/// Runs the full chaos drill at one seed through either the kernel path or
/// the legacy loop, with a fresh recording trace, and returns the
/// serialized outcomes plus the exported trace bytes.
fn drill(seed: u64, legacy: bool) -> (Vec<String>, String) {
    let w = workload(seed);
    let dags = dags(&w, 10);
    let cluster = ClusterConfig::default();
    let obs = Obs::recording();
    // A cramped temp capacity so TempExhaustion events genuinely fire.
    let runner = ChaosRunner::with_obs(cluster, 1.0, obs.clone()).expect("valid cluster");
    let injector = FaultInjector::new(seed, FaultConfig::standard());
    let outcomes = dags
        .iter()
        .enumerate()
        .map(|(i, dag)| {
            let schedule = injector.schedule_for(i as u64, cluster.machines);
            // Checkpoint every other stage so restarts exercise both the
            // persisted and the recompute paths.
            let ckpt: HashSet<StageId> = dag
                .stages()
                .iter()
                .map(|s| s.id)
                .filter(|id| id.0 % 2 == 0)
                .collect();
            let outcome = if legacy {
                runner.run_job_legacy(dag, &ckpt, &schedule)
            } else {
                runner.run_job(dag, &ckpt, &schedule)
            }
            .expect("drill runs");
            serde_json::to_string(&outcome).expect("serializes")
        })
        .collect();
    (outcomes, obs.export_json())
}

/// The tentpole pin: at seeds 7/21/42 the kernel-backed chaos drill
/// produces byte-identical outcomes *and* byte-identical recorded traces
/// to the pre-kernel blocking loop.
#[test]
fn chaos_drill_kernel_matches_legacy_bytes_at_pinned_seeds() {
    for seed in SEEDS {
        let (legacy_outcomes, legacy_trace) = drill(seed, true);
        let (kernel_outcomes, kernel_trace) = drill(seed, false);
        assert_eq!(
            legacy_outcomes, kernel_outcomes,
            "seed {seed}: chaos outcomes must be byte-identical"
        );
        assert_eq!(
            legacy_trace, kernel_trace,
            "seed {seed}: exported obs traces must be byte-identical"
        );
    }
}

// ------------------------------------------------------------ engine exec

/// Cluster shapes the exec pin covers, as `(machines, slots_per_machine)`.
/// The two small ones have fewer slots than a wide stage has tasks, so a
/// stage reuses a slot within itself.
const SHAPES: [(usize, usize); 3] = [(1, 1), (3, 2), (16, 4)];

/// The four checkpoint/precompute variants of one DAG: plain, even stages
/// checkpointed, every third stage precomputed, and both at once.
fn variants(dag: &StageDag) -> Vec<SimOptions> {
    let ids = |keep: fn(usize) -> bool| -> HashSet<StageId> {
        dag.stages()
            .iter()
            .map(|s| s.id)
            .filter(|id| keep(id.0))
            .collect()
    };
    (0..4)
        .map(|mask| SimOptions {
            checkpointed: if mask & 1 == 1 {
                ids(|i| i % 2 == 0)
            } else {
                HashSet::new()
            },
            precomputed: if mask & 2 == 2 {
                ids(|i| i % 3 == 0)
            } else {
                HashSet::new()
            },
        })
        .collect()
}

/// The temp-peak algorithm the simulator used before its stage-level
/// sweep, kept here as an independent reference: one alloc and one free
/// event *per task*, stably sorted by time ascending then delta descending,
/// then swept with a running per-machine total.
fn per_task_temp_peaks(
    dag: &StageDag,
    options: &SimOptions,
    report: &ExecReport,
    placement: &[Vec<usize>],
    machines: usize,
) -> Vec<f64> {
    let consumers = dag.consumers();
    let mut events: Vec<(f64, usize, f64)> = Vec::new();
    for stage in dag.stages() {
        let idx = stage.id.0;
        if options.checkpointed.contains(&stage.id) || options.precomputed.contains(&stage.id) {
            continue;
        }
        let on = &placement[idx];
        if on.is_empty() {
            continue;
        }
        let per_machine = stage.output_bytes / on.len() as f64;
        let free_time = consumers[idx]
            .iter()
            .map(|c| report.stage_finish[c.0])
            .fold(report.latency, f64::max);
        for &m in on {
            events.push((report.stage_finish[idx], m, per_machine));
            events.push((free_time, m, -per_machine));
        }
    }
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(Ordering::Equal)
            .then(b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal))
    });
    let mut current = vec![0.0f64; machines];
    let mut peak = vec![0.0f64; machines];
    for (_, m, delta) in events {
        current[m] += delta;
        peak[m] = peak[m].max(current[m]);
    }
    peak
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The cluster simulator's kernel path against the legacy loop, across
/// cluster shapes 1×1, 3×2 and 16×4 and all four checkpoint/precompute
/// variants:
/// - `run_with_placement` and `schedule_legacy` give byte-identical
///   `ExecReport`s and identical task placements;
/// - `machine_temp_peak` is bit-identical to the per-task event-sort
///   reference above (which `run` and `run_legacy` do not share);
/// - `run` and `run_legacy` record byte-identical traces.
#[test]
fn engine_exec_kernel_matches_legacy_bytes() {
    let mut slot_reuse_seen = false;
    for seed in SEEDS {
        let w = workload(seed);
        let dags = dags(&w, 10);
        for (machines, slots_per_machine) in SHAPES {
            let cluster = ClusterConfig {
                machines,
                slots_per_machine,
                ..ClusterConfig::default()
            };
            let shape = format!("seed {seed} cluster {machines}x{slots_per_machine}");
            let run_all = |legacy: bool| -> (Vec<String>, String) {
                let obs = Obs::recording();
                let sim = Simulator::with_obs(cluster, obs.clone()).expect("valid");
                let mut reports = Vec::new();
                for dag in &dags {
                    for options in variants(dag) {
                        let report = if legacy {
                            sim.run_legacy(dag, &options)
                        } else {
                            sim.run(dag, &options)
                        }
                        .expect("runs");
                        reports.push(serde_json::to_string(&report).expect("serializes"));
                    }
                }
                (reports, obs.export_json())
            };
            let (legacy_reports, legacy_trace) = run_all(true);
            let (kernel_reports, kernel_trace) = run_all(false);
            assert_eq!(
                legacy_reports, kernel_reports,
                "{shape}: exec reports must be byte-identical"
            );
            assert_eq!(
                legacy_trace, kernel_trace,
                "{shape}: exec traces must be byte-identical"
            );

            let sim = Simulator::new(cluster).expect("valid");
            for (d, dag) in dags.iter().enumerate() {
                slot_reuse_seen |= dag
                    .stages()
                    .iter()
                    .any(|s| s.tasks > machines * slots_per_machine);
                for (v, options) in variants(dag).iter().enumerate() {
                    let at = format!("{shape} dag {d} variant {v}");
                    let (kernel, kernel_placement) =
                        sim.run_with_placement(dag, options).expect("runs");
                    let (legacy, legacy_placement) =
                        sim.schedule_legacy(dag, options).expect("runs");
                    assert_eq!(
                        kernel_placement, legacy_placement,
                        "{at}: placements must match"
                    );
                    assert_eq!(
                        serde_json::to_string(&kernel).expect("serializes"),
                        serde_json::to_string(&legacy).expect("serializes"),
                        "{at}: reports must be byte-identical"
                    );
                    let reference =
                        per_task_temp_peaks(dag, options, &kernel, &kernel_placement, machines);
                    assert_eq!(
                        bits(&kernel.machine_temp_peak),
                        bits(&reference),
                        "{at}: temp peaks must match the per-task sweep bit for bit"
                    );
                }
            }
        }
    }
    assert!(
        slot_reuse_seen,
        "no stage had more tasks than a small cluster has slots"
    );
}

// --------------------------------------------------------- pipeline sched

/// The pipeline scheduler's kernel path against the legacy loop: identical
/// `ScheduleReport` bytes and identical traces, across both policies and
/// several slot counts.
#[test]
fn pipeline_sched_kernel_matches_legacy_bytes() {
    for seed in SEEDS {
        let w = workload(seed);
        for policy in [Policy::Fifo, Policy::CriticalPath] {
            for slots in [1usize, 4, 16] {
                let run = |legacy: bool| -> (String, String) {
                    let obs = Obs::recording();
                    let report = if legacy {
                        schedule_legacy(&w.trace, &w.catalog, slots, 1e7, policy, &obs)
                    } else {
                        schedule_with_obs(&w.trace, &w.catalog, slots, 1e7, policy, &obs)
                    }
                    .expect("schedules");
                    (
                        serde_json::to_string(&report).expect("serializes"),
                        obs.export_json(),
                    )
                };
                let (legacy_report, legacy_trace) = run(true);
                let (kernel_report, kernel_trace) = run(false);
                assert_eq!(
                    legacy_report, kernel_report,
                    "seed {seed} {policy:?} slots {slots}: schedule reports must match"
                );
                assert_eq!(
                    legacy_trace, kernel_trace,
                    "seed {seed} {policy:?} slots {slots}: schedule traces must match"
                );
            }
        }
    }
}
