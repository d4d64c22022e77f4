//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload <recurring_sql|serving_drill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client on one thread drives the stack through its public
//! APIs. A run is a sequence of *episodes*: each sets up a fresh stack from
//! a seed, warms it, then times a fixed number of operations, so the work
//! per episode does not depend on machine speed. A run covers `CORPORA`
//! inputs, each made from its own seed derived from `--seed`, and episodes
//! take them in turn until `--seconds` is spent and every corpus has run.
//! The first episode warms the process and is left out of the timings;
//! every timing is the mean over corpora of the median over that corpus's
//! episodes. Episodes on the same corpus must produce identical
//! deterministic outputs, which the run checks.
//!
//! An output that fails a check, or a digest mismatch between episodes,
//! makes the run incorrect. A call that returns an error counts as a failed
//! operation and lowers `ok_share`. `attempted` and `failed` count each
//! corpus's operations once, so they depend on the seed alone.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With `--trace 1`
//! it alternates untraced and traced episodes: traced episodes time every
//! call into a layer from outside (see `trace.rs`), and the run prints the
//! per-layer metrics plus the tracing overhead. The spans of the last
//! traced episode are written to `stackbench/out/trace-<workload>.jsonl`.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod drill;
mod episode;
mod sql;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use adas_simkern::rng::derive;
use episode::Episode;
use trace::{LayerAccum, Spans, Tracer, LAYERS};

const WORKLOADS: [&str; 2] = ["recurring_sql", "serving_drill"];
/// Inputs one run covers. Averaging over several corpora keeps one seed's
/// mix of templates from setting the figures; an odd count lets traced and
/// untraced episodes, which alternate, each visit every corpus.
const CORPORA: u64 = 5;
/// Never start an episode after this much time, whatever `--seconds` says,
/// so a run stays well inside three minutes on a slow machine.
const HARD_STOP_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= HARD_STOP_S) {
                    return Err(format!("--seconds must be in (0, {HARD_STOP_S}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_episode(workload: &str, seed: u64, tracer: &Tracer) -> Result<Episode, String> {
    match workload {
        "recurring_sql" => sql::run_episode(seed, tracer),
        "serving_drill" => drill::run_episode(seed, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Linear-interpolated quantile of unsorted data; 0 for no data.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&values.into_iter().collect::<Vec<_>>(), 0.5)
}

/// One episode of a run, with the corpus it ran on.
struct Run {
    ep: Episode,
    corpus: u64,
    traced: bool,
}

/// Mean over corpora of the median of `f` over each corpus's episodes.
fn across_corpora<'a>(runs: impl IntoIterator<Item = &'a Run>, f: impl Fn(&Episode) -> f64) -> f64 {
    let mut by_corpus: Vec<Vec<f64>> = vec![Vec::new(); CORPORA as usize];
    for r in runs {
        by_corpus[r.corpus as usize].push(f(&r.ep));
    }
    let medians: Vec<f64> = by_corpus
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(median)
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// The first episode on each corpus. Deterministic outputs are the same on
/// every episode of a corpus, so these episodes give all of them.
fn first_per_corpus(runs: &[Run]) -> Vec<&Episode> {
    (0..CORPORA)
        .filter_map(|c| runs.iter().find(|r| r.corpus == c).map(|r| &r.ep))
        .collect()
}

/// Operations attempted and failed, over one episode of each corpus.
fn attempted_failed(runs: &[Run]) -> (u64, u64) {
    first_per_corpus(runs)
        .iter()
        .fold((0, 0), |(a, f), e| (a + e.attempted, f + e.failed))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Mean of the first and of the last tenth of `values`.
fn decile_means(values: &[f64]) -> (f64, f64) {
    let n = (values.len() / 10).max(1).min(values.len());
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    (mean(&values[..n]), mean(&values[values.len() - n..]))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(runs: &[Run], rss_mb: f64) -> Vec<Metric> {
    let (attempted, failed) = attempted_failed(runs);
    let qerrors: Vec<f64> = first_per_corpus(runs)
        .iter()
        .flat_map(|e| e.qerrors.iter().copied())
        .collect();
    vec![
        metric("ops_per_s", across_corpora(runs, Episode::ops_per_s), "1/s"),
        metric(
            "op_p50_us",
            across_corpora(runs, |e| quantile(&e.op_us, 0.5)),
            "us",
        ),
        metric(
            "op_p99_us",
            across_corpora(runs, |e| quantile(&e.op_us, 0.99)),
            "us",
        ),
        metric(
            "health_pass_p50_us",
            across_corpora(runs, |e| quantile(&e.health_us, 0.5)),
            "us",
        ),
        metric("setup_s", across_corpora(runs, |e| e.setup_s), "s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
        metric("ok_share", 1.0 - ratio(failed, attempted), "share"),
        metric("prediction_qerror_p50", quantile(&qerrors, 0.5), "ratio"),
    ]
}

fn per_layer(runs: &[Run], acc: &LayerAccum) -> Vec<Metric> {
    let n_traced = runs.iter().filter(|r| r.traced).count().max(1) as f64;
    let mut out = Vec::new();
    for layer in LAYERS {
        let l = acc.layer(layer);
        let name = layer.name();
        out.push(metric(
            format!("{name}.calls"),
            l.self_call_ns.len() as f64 / n_traced,
            "count",
        ));
        out.push(metric(
            format!("{name}.self_share"),
            l.self_ns as f64 / acc.op_wall_ns.max(1) as f64,
            "share",
        ));
        let self_us: Vec<f64> = l.self_call_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        out.push(metric(
            format!("{name}.call_p50_us"),
            quantile(&self_us, 0.5),
            "us",
        ));
    }
    // Counters are deterministic per corpus, so they are summed over one
    // episode of each.
    let firsts = first_per_corpus(runs);
    let sum = |f: fn(&Episode) -> u64| firsts.iter().map(|e| f(e)).sum::<u64>();
    let sim_jobs = sum(|e| e.sim_jobs);
    let sim_latency_sum: f64 = firsts.iter().map(|e| e.sim_latency_sum).sum();
    let ops = |traced: bool| {
        across_corpora(
            runs.iter().filter(|r| r.traced == traced),
            Episode::ops_per_s,
        )
    };
    out.extend([
        metric(
            "sql.cache_hit_rate",
            ratio(sum(|e| e.sql_hits), sum(|e| e.sql_hits + e.sql_misses)),
            "share",
        ),
        metric(
            "engine.rules.rewrites_per_query",
            ratio(sum(|e| e.rewrites), sim_jobs),
            "count",
        ),
        metric(
            "engine.exec.stages_per_query",
            ratio(sum(|e| e.stages), sim_jobs),
            "count",
        ),
        metric(
            "engine.exec.sim_latency_mean_s",
            if sim_jobs == 0 {
                0.0
            } else {
                sim_latency_sum / sim_jobs as f64
            },
            "s",
        ),
        metric(
            "serve.gateway.cache_hit_rate",
            ratio(
                sum(|e| e.gateway.cache_hits),
                sum(|e| e.gateway.cache_hits + e.gateway.cache_misses),
            ),
            "share",
        ),
        metric(
            "serve.gateway.degraded_share",
            ratio(sum(|e| e.gateway.fallbacks), sum(|e| e.gateway.requests)),
            "share",
        ),
        metric(
            "serve.gateway.batch_rows_mean",
            ratio(sum(|e| e.gateway.batched_rows), sum(|e| e.gateway.batches)),
            "count",
        ),
        metric(
            "serve.autonomy.observed_share",
            ratio(sum(|e| e.observed), sum(|e| e.served)),
            "share",
        ),
        metric(
            "serve.autonomy.actions",
            sum(|e| e.actions) as f64 / firsts.len() as f64,
            "count",
        ),
        metric(
            "obs.records_per_pass",
            ratio(sum(|e| e.records), sum(|e| e.passes)),
            "count",
        ),
        metric(
            "obs.pass_us_first_decile",
            across_corpora(runs, |e| decile_means(&e.obs_pass_us).0),
            "us",
        ),
        metric(
            "obs.pass_us_last_decile",
            across_corpora(runs, |e| decile_means(&e.obs_pass_us).1),
            "us",
        ),
        metric("trace.coverage", acc.coverage(), "share"),
        metric("trace.ops_per_s_ratio", ops(true) / ops(false), "ratio"),
    ]);
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let start = Instant::now();
    // Episode 0 warms the process (heap growth, code and data caches). It
    // is checked like every other episode but left out of the medians, and
    // the peak RSS is read right after it, so the figure is one episode's
    // footprint however many episodes the run fits in. After it every
    // corpus runs at least once, and at least once in each mode when traced.
    let min_episodes = if args.trace {
        2 * CORPORA + 1
    } else {
        CORPORA + 1
    } as usize;
    let mut runs: Vec<Run> = Vec::new();
    let mut acc = LayerAccum::default();
    let mut last_spans: Option<Spans> = None;
    let mut rss_mb = 0.0;
    loop {
        let is_traced = args.trace && runs.len() % 2 == 1;
        let corpus = runs.len() as u64 % CORPORA;
        let tracer = Tracer::new(is_traced);
        let ep_start = Instant::now();
        let ep = run_episode(&args.workload, derive(args.seed, corpus), &tracer)?;
        if is_traced {
            last_spans = Some(tracer.drain_into(&mut acc));
        }
        if runs.is_empty() {
            rss_mb = peak_rss_mb()?;
        }
        let ep_s = ep_start.elapsed().as_secs_f64();
        eprintln!(
            "episode {} (corpus {corpus}){}: setup {:.3} s, timed {:.3} s, {:.1} ops/s, op p50 {:.1} us, p99 {:.1} us",
            runs.len(),
            if is_traced { " (traced)" } else { "" },
            ep.setup_s,
            ep.timed_s,
            ep.ops_per_s(),
            quantile(&ep.op_us, 0.5),
            quantile(&ep.op_us, 0.99)
        );
        runs.push(Run {
            ep,
            corpus,
            traced: is_traced,
        });
        let elapsed = start.elapsed().as_secs_f64();
        let enough = runs.len() >= min_episodes && elapsed + ep_s > args.seconds;
        if enough || elapsed + ep_s > HARD_STOP_S {
            break;
        }
    }
    if runs.len() < min_episodes {
        return Err(format!(
            "only {} episodes fit in {HARD_STOP_S} s; need {min_episodes}",
            runs.len()
        ));
    }

    // Operations are counted once per corpus: later episodes on a corpus
    // replay the same operations, and the digest check below makes sure
    // they attempted and failed exactly the same ones. So the counts depend
    // on the seed alone, not on how many episodes the machine fitted in.
    let (attempted, failed) = attempted_failed(&runs);
    // A wrong output makes the run incorrect. An operation whose call
    // returned an error is counted in `failed` (and lowers `ok_share`) but
    // leaves the checked outputs trustworthy.
    let mut correct = runs.iter().all(|r| r.ep.wrong == 0);
    if let Some(err) = runs.iter().find_map(|r| r.ep.first_error.as_ref()) {
        eprintln!("stackbench: {failed} failed operations; the first: {err}");
    }
    let digests: Vec<u64> = first_per_corpus(&runs).iter().map(|e| e.digest).collect();
    if runs
        .iter()
        .any(|r| r.ep.digest != digests[r.corpus as usize])
    {
        eprintln!("stackbench: episodes on one corpus disagree on deterministic outputs");
        correct = false;
    }

    let metrics = if args.trace {
        let metrics = per_layer(&runs[1..], &acc);
        let coverage = acc.coverage();
        if coverage < 0.95 {
            eprintln!("stackbench: layers cover {coverage:.3} of operation wall time, below 0.95");
            correct = false;
        }
        if let Some(spans) = &last_spans {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.jsonl", args.workload));
            spans
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        print_table(
            &format!(
                "per-layer ({} traced episodes)",
                runs.iter().filter(|r| r.traced).count()
            ),
            &metrics,
        );
        metrics
    } else {
        let metrics = end_to_end(&runs[1..], rss_mb);
        print_table(&format!("end-to-end ({} episodes)", runs.len()), &metrics);
        metrics
    };
    let e = &runs[0].ep;
    let digests: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    println!(
        "samples per episode: {} operations, {} health passes; digests {}",
        e.op_us.len(),
        e.health_us.len(),
        digests.join(" ")
    );

    let mut body = Vec::with_capacity(metrics.len());
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::FAILURE
        }
    }
}
