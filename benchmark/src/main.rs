//! The repo benchmark: four closed-loop serving workloads, measured end
//! to end, plus a traced run that prices every layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed 1 [--workload NAME] [--seconds S | --quick] [--trace [0|1]]
//!     [--sets N] [--check-determinism] [--emit-contract]
//! ```
//!
//! With `--workload` it measures that workload in this process and ends
//! its standard output with one JSON object (the PR driver's contract).
//! Without, it runs every workload, each in a child process of its own,
//! and writes `out/results.json`. See `README.md`.

mod harness;
mod layers;
mod spans;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Phase, PhaseResult, Sample, SetupTimes, WRITE_CLASS};
use spans::Tracer;
use util::{json_escape, median, percentile, quartiles, sorted};
use workload::{templates, Workload, WORKLOADS};

/// Restarts per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more — up to `MAX_SETUPS` — while they fit in
/// `SETUP_BUDGET_S`, so the workloads that restart in half a second get
/// the steadier median that costs them little.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET_S: f64 = 3.0;
/// Timed seconds per workload when `--seconds` is not given (and what
/// `BENCHMARK.json` asks the driver to pass).
const RUN_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 5.0;
/// A p95 needs 20 samples beyond it.
const MIN_TIMED_OPS: usize = 400;

struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only): at least three times the widest quartile spread in
    /// README's table, and the contract's cap of 0.25 where the box's
    /// noise needs it.
    bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p95_ms", "ms", "lower", 0.25),
    e2e("ttfc_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
];

const PER_LAYER: [MetricDef; 44] = [
    layer("oosql.parse_us", "us", "lower"),
    layer("oosql.typecheck_us", "us", "lower"),
    layer("translate.translate_us", "us", "lower"),
    layer("adl.normal_key_us", "us", "lower"),
    layer("core.rewrite_us", "us", "lower"),
    layer("core.rules_fired", "count", "lower"),
    layer("engine.plan_us", "us", "lower"),
    layer("engine.joinorder_us", "us", "lower"),
    layer("engine.exec_us", "us", "lower"),
    layer("engine.first_chunk_us", "us", "lower"),
    layer("engine.op_ms.scan", "ms", "lower"),
    layer("engine.op_ms.join", "ms", "lower"),
    layer("engine.op_ms.nest", "ms", "lower"),
    layer("engine.work_units", "count", "lower"),
    layer("engine.rows_scanned", "count", "lower"),
    layer("engine.hash_probes", "count", "lower"),
    layer("engine.mask_batches", "count", "higher"),
    layer("engine.rows_per_result", "ratio", "lower"),
    layer("spill.bytes", "B", "lower"),
    layer("spill.budget_high_water_bytes", "B", "lower"),
    layer("value.encode_chunk_us", "us", "lower"),
    layer("value.decode_chunk_us", "us", "lower"),
    layer("value.chunk_bytes_per_row", "B", "lower"),
    layer("wire.frame_write_us", "us", "lower"),
    layer("wire.frame_read_us", "us", "lower"),
    layer("net.chunks_per_query", "count", "lower"),
    layer("net.bytes_per_row", "B", "lower"),
    layer("net.roundtrip_overhead_us", "us", "lower"),
    layer("net.connect_ready_ms", "ms", "lower"),
    layer("server.session_us", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.first_chunk_us", "us", "lower"),
    layer("server.replay_us", "us", "lower"),
    layer("server.rebuild_us", "us", "lower"),
    layer("catalog.collect_stats_ms", "ms", "lower"),
    layer("catalog.insert_us", "us", "lower"),
    layer("catalog.create_index_ms", "ms", "lower"),
    layer("datagen.generate_ms", "ms", "lower"),
    layer("obs.server_latency_p50_ms", "ms", "lower"),
    layer("obs.render_metrics_us", "us", "lower"),
    layer("server.plan_hit_ratio", "ratio", "higher"),
    layer("server.result_hit_ratio", "ratio", "higher"),
    layer("server.plan_invalidations", "count", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// The exact-count layer metrics: identical across runs of one seed.
const EXACT: [&str; 5] = [
    "engine.work_units",
    "engine.rows_scanned",
    "engine.hash_probes",
    "core.rules_fired",
    "net.chunks_per_query",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: Option<usize>,
    check_determinism: bool,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: None,
        check_determinism: false,
        emit_contract: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--sets" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if n < 2 {
                    return Err("--sets needs at least 2 sets for quartiles".into());
                }
                args.sets = Some(n);
            }
            "--check-determinism" => args.check_determinism = true,
            "--emit-contract" => args.emit_contract = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Users get the defaults: no OODB_* knob of the caller's shell may
    // reach the server under test.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("OODB_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.emit_contract {
        print!("{}", contract_json());
        Ok(true)
    } else if args.check_determinism {
        check_determinism(&args)
    } else if let Some(n) = args.sets {
        run_sets(&args, n)
    } else if let Some(name) = &args.workload {
        match workload::workload(name) {
            Some(w) => run_one(w, &args),
            None => Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One measured value on its way to the report.
struct Reported {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn header(w: &Workload, args: &Args) {
    let config = harness::server_config();
    println!(
        "# workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# closed loop, {} client(s), {:?}; database scale {}; nproc={} dop={} pool_threads={} \
         plan_cache={} result_cache={}",
        w.clients,
        w.transport,
        workload::SCALE,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        config.planner.parallelism,
        oodb_engine::WorkerPool::global().threads(),
        config.plan_cache_capacity,
        config.result_cache_capacity,
    );
    println!("# why: {}", w.why);
}

/// Per-class shares and medians, so the placement of p50 and p95 inside
/// a latency class can be checked by eye (README, "Why these mixes").
fn print_classes(w: &Workload, samples: &[Sample]) {
    let shapes = templates(w.mix);
    let mut classes: Vec<u16> = samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    // (median latency, share in percent, sorted latencies, label),
    // cheapest first.
    let mut rows: Vec<(f64, f64, Vec<f64>, String)> = classes
        .iter()
        .map(|&class| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect();
            let label = if class == WRITE_CLASS {
                "write".to_string()
            } else {
                let hit = if class % 2 == 1 { "hit" } else { "miss" };
                format!("{}[{}].{hit}", shapes[class as usize / 2].name(), class / 2)
            };
            let share = 100.0 * lat.len() as f64 / samples.len() as f64;
            (median(&lat), share, sorted(lat), label)
        })
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut up_to = 0.0;
    for (median_ms, share, lat, label) in rows {
        up_to += share;
        println!(
            "# class {label:<28} share={share:5.1}% up_to=p{up_to:<5.1} n={:<6} \
             median_ms={median_ms:.4} p10={:.4} p90={:.4}",
            lat.len(),
            percentile(&lat, 0.10),
            percentile(&lat, 0.90)
        );
    }
}

fn failed_ops(result: &PhaseResult) -> u64 {
    result.samples.iter().filter(|s| !s.ok).count() as u64 + result.reference_failures
}

fn print_failures(result: &PhaseResult) {
    for m in &result.messages {
        println!("# FAILED {m}");
    }
}

/// Restarts the system under `w` (see `MIN_SETUPS`); the last restart
/// carries the timed phase.
fn measure(
    w: &Workload,
    seed: u64,
    phase: Phase,
) -> Result<(Vec<SetupTimes>, PhaseResult), String> {
    // The phase runs on the first restart, so `peak_rss_mb` is that of
    // one server lifetime and not of the restarts that follow.
    let (times, result) = harness::run(w, seed, Some(phase))?;
    let mut setups = vec![times];
    let spent = |s: &[SetupTimes]| s.iter().map(|t| t.total_s).sum::<f64>();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && spent(&setups) < SETUP_BUDGET_S)
    {
        setups.push(harness::run(w, seed, None)?.0);
    }
    Ok((setups, result.expect("a phase was asked for")))
}

fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    header(w, args);
    let checked = harness::gate(w, args.seed)?;
    println!(
        "# gate: {checked} templates equal the nested-loop evaluator at scale {}",
        workload::GATE_SCALE
    );
    let (reported, attempted, failed) = if args.trace {
        run_traced(w, args)?
    } else {
        run_untraced(w, args)?
    };
    for r in &reported {
        println!("metric {} {} {} n={}", r.name, r.value, r.unit, r.samples);
    }
    let correct = failed == 0;
    let metrics: Vec<String> = reported
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                if r.value.is_finite() { r.value } else { 0.0 },
                r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn run_untraced(w: &Workload, args: &Args) -> Result<(Vec<Reported>, u64, u64), String> {
    let phase = Phase {
        seconds: args.seconds,
        traced: false,
    };
    let (setups, result) = measure(w, args.seed, phase)?;
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    println!(
        "# setup runs: {setup_s:?} s (generate + index + server + warm-up, each from scratch)"
    );
    print_classes(w, &result.samples);
    print_failures(&result);
    println!(
        "# reference checks: {} run, {} failed; cache: {:?}",
        result.reference_checks, result.reference_failures, result.cache
    );
    let ok: Vec<&Sample> = result.samples.iter().filter(|s| s.ok).collect();
    if ok.is_empty() {
        return Err("no op succeeded".into());
    }
    if ok.len() < MIN_TIMED_OPS {
        println!(
            "# WARNING only {} timed ops: p95 has fewer than 20 samples beyond it",
            ok.len()
        );
    }
    let latency = sorted(ok.iter().map(|s| s.latency_ns as f64 / 1e6).collect());
    let reads: Vec<&&Sample> = ok.iter().filter(|s| s.class != WRITE_CLASS).collect();
    let ttfc = sorted(reads.iter().map(|s| s.ttfc_ns as f64 / 1e6).collect());
    let attempted = result.samples.len() as u64;
    let failed = failed_ops(&result).min(attempted);
    println!(
        "# error_rate={} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    let value = |name: &str| match name {
        "setup_s" => (median(&setup_s), setup_s.len()),
        "qps" => (ok.len() as f64 / result.wall_s, ok.len()),
        "p50_ms" => (percentile(&latency, 0.50), latency.len()),
        "p95_ms" => (percentile(&latency, 0.95), latency.len()),
        "ttfc_p50_ms" => (percentile(&ttfc, 0.50), ttfc.len()),
        "peak_rss_mb" => (result.peak_rss_mib, 1),
        other => unreachable!("no such end-to-end metric {other}"),
    };
    let reported = END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = value(m.name);
            Reported {
                name: m.name,
                value,
                unit: m.unit,
                samples,
            }
        })
        .collect();
    Ok((reported, attempted, failed))
}

/// The traced run: a short untraced phase (for the cache ratios and the
/// untraced `qps`), the same phase with client-visible spans recorded
/// (their ratio is the tracing overhead), then the layer replay.
fn run_traced(w: &Workload, args: &Args) -> Result<(Vec<Reported>, u64, u64), String> {
    let seconds = args.seconds / 4.0;
    let qps = |r: &PhaseResult| r.samples.iter().filter(|s| s.ok).count() as f64 / r.wall_s;
    let timed = |traced: bool| -> Result<PhaseResult, String> {
        let phase = Phase { seconds, traced };
        let (_, result) = harness::run(w, args.seed, Some(phase))?;
        Ok(result.expect("a phase was asked for"))
    };
    let plain = timed(false)?;
    let mut traced = timed(true)?;
    print_failures(&plain);
    print_failures(&traced);
    let report = layers::replay(w, args.seed)?;

    let mut tracer: Tracer = traced.tracer.take().expect("the phase was traced");
    tracer.absorb(report.tracer);
    let path = out_dir()?.join(format!("trace-{}.json", w.name));
    tracer
        .write_json(&path, w.name)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {} ({} spans)", path.display(), tracer.spans.len());
    println!("# self time by span name (whole traced run):");
    for (name, ns) in tracer.self_ns_by_name().iter().take(12) {
        println!("#   {name:<24} {:.3} ms", *ns as f64 / 1e6);
    }

    let c = plain.cache;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let mut values = report.metrics;
    values.extend([
        ("server.plan_hit_ratio", ratio(c.plan_hits, c.plan_misses)),
        (
            "server.result_hit_ratio",
            ratio(c.result_hits, c.result_misses),
        ),
        ("server.plan_invalidations", c.plan_invalidations as f64),
        (
            "trace.overhead_pct",
            100.0 * (qps(&plain) - qps(&traced)) / qps(&plain),
        ),
    ]);
    let reported = PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("layer metric {} was not measured", m.name))
                .1;
            Reported {
                name: m.name,
                value,
                unit: m.unit,
                samples: layers::REPLAY_OPS,
            }
        })
        .collect();
    let attempted = (plain.samples.len() + traced.samples.len()) as u64;
    let failed = (failed_ops(&plain) + failed_ops(&traced)).min(attempted);
    Ok((reported, attempted, failed))
}

/// What a child run printed, parsed back.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, samples)`
    metrics: Vec<(String, f64, String, usize)>,
}

/// Runs one workload in a process of its own, so that `peak_rss_mb`
/// and the caches start from nothing.
fn spawn(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
        Some(rest.split([',', '}']).next()?.trim().to_string())
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let f: Vec<&str> = rest.split_whitespace().collect();
            if let [name, value, unit, n] = f[..] {
                let samples = n.trim_start_matches("n=").parse().unwrap_or(0);
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.metrics
                    .push((name.to_string(), value, unit.to_string(), samples));
            }
        } else if line.starts_with("{\"correct\"") {
            run.correct = field(line, "correct").as_deref() == Some("true");
            run.attempted = field(line, "attempted")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            run.failed = field(line, "failed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            continue;
        }
        if echo {
            println!("{line}");
        }
    }
    if run.metrics.is_empty() {
        return Err(format!(
            "workload {} produced no metrics (exit {:?})",
            w.name,
            out.status.code()
        ));
    }
    Ok(run)
}

/// Every workload, each in its own process; `out/results.json` holds one
/// row per workload × metric.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut rows = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut summary = Vec::new();
    for w in &WORKLOADS {
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &trace in modes {
            let run = spawn(w, args.seed, args.seconds, trace, true)?;
            correct &= run.correct;
            attempted += run.attempted;
            failed += run.failed;
            for (name, value, unit, samples) in run.metrics {
                rows.push(format!(
                    "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {value}, \
                     \"unit\": \"{}\", \"samples\": {samples}, \"traced\": {trace}, \
                     \"seed\": {}, \"seconds\": {}}}",
                    w.name,
                    json_escape(&name),
                    json_escape(&unit),
                    args.seed,
                    args.seconds
                ));
                if !trace {
                    summary.push(format!(
                        "\"{}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                        w.name
                    ));
                }
            }
        }
    }
    let path = out_dir()?.join("results.json");
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        summary.join(", ")
    );
    Ok(correct)
}

/// The noise protocol: the full set `n` times, each with another seed,
/// then per (workload, metric) the median, the quartiles as the driver
/// computes them, their distance over the median, and (max−min)/median.
fn run_sets(args: &Args, n: usize) -> Result<bool, String> {
    let mut correct = true;
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for set in 0..n {
        for w in &WORKLOADS {
            let seed = args.seed + set as u64;
            let run = spawn(w, seed, args.seconds, false, false)?;
            correct &= run.correct;
            let line: Vec<String> = run
                .metrics
                .iter()
                .map(|(name, value, ..)| format!("{name}={value:.4}"))
                .collect();
            println!("# set {set} seed {seed} {} {}", w.name, line.join(" "));
            for (name, value, ..) in run.metrics {
                match series
                    .iter_mut()
                    .find(|(wl, m, _)| wl == w.name && *m == name)
                {
                    Some((.., values)) => values.push(value),
                    None => series.push((w.name.to_string(), name, vec![value])),
                }
            }
        }
    }
    println!(
        "| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut steady = true;
    for (workload, metric, values) in &series {
        let [q1, q2, q3] = quartiles(values);
        let s = sorted(values.clone());
        let iqr = (q3 - q1) / q2;
        let range = (s[s.len() - 1] - s[0]) / q2;
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .map_or(0.0, |m| m.bound);
        if metric != "setup_s" && iqr > bound {
            steady = false;
        }
        println!(
            "| {workload} | {metric} | {q2:.4} | {q1:.4} | {q3:.4} | {iqr:.4} | {range:.4} | {bound} |"
        );
    }
    println!(
        "# {}",
        if steady {
            "every quartile spread is within its bound"
        } else {
            "SPREAD EXCEEDS A BOUND"
        }
    );
    Ok(correct && steady)
}

/// Two traced runs of `plan_exec_distinct` on one seed must agree on
/// every exact-count layer metric; a second seed must run clean.
fn check_determinism(args: &Args) -> Result<bool, String> {
    let w = &WORKLOADS[0];
    let exact = |run: &ChildRun| -> Vec<(String, f64)> {
        EXACT
            .iter()
            .map(|name| {
                let value = run
                    .metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .map_or(f64::NAN, |m| m.1);
                (name.to_string(), value)
            })
            .collect()
    };
    let a = spawn(w, args.seed, args.seconds, true, false)?;
    let b = spawn(w, args.seed, args.seconds, true, false)?;
    let other = spawn(w, args.seed + 1, args.seconds, true, false)?;
    let mut same = a.correct && b.correct && other.correct;
    for ((name, x), (_, y)) in exact(&a).iter().zip(exact(&b)) {
        let equal = x.to_bits() == y.to_bits();
        same &= equal;
        println!(
            "{name}: {x} vs {y} {}",
            if equal { "identical" } else { "DIFFERS" }
        );
    }
    println!(
        "seed {} ran {}",
        args.seed + 1,
        if other.correct {
            "clean"
        } else {
            "WITH FAILURES"
        }
    );
    Ok(same)
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift apart.
fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json_escape(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS as u64,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
