//! `perfbench`: the broker's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `spec.rs` and the README), checks every delivery
//! against the oracle, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the spans go to `.perfbench/trace-<workload>-seed<n>.json`.

mod fixture;
mod oracle;
mod phases;
mod rng;
mod spec;
mod stats;
mod sys;
mod trace;

use fixture::{Fixture, Layers};
use oracle::{verify_journal, Oracle};
use phases::{count, match_ns, same_connection_roundtrip_us, tally, wire_costs, Gen, Window};
use rjms_metrics::{HistogramSnapshot, RegistrySnapshot};
use spec::{Spec, Workload};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use trace::{num, SpanLog};

/// Stretches the saturated phase is cut into; throughput and CPU per
/// message are their medians. A set-up is timed after each, and `setup_s`
/// is the median of those and the first.
const WINDOWS: usize = 32;
/// Where runs keep journals and trace files, relative to the checkout.
const WORK_DIR: &str = ".perfbench";

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let number = |flag: &str| get(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.clamp(1, 60),
        trace: number("--trace")? != 0,
    })
}

/// What a run found.
struct Outcome {
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    // Every thread of the run, the broker's included, shares one CPU: the
    // threads hand each message on without waiting for a sleeping virtual
    // CPU to be woken, which makes the figures far less sensitive to the
    // host's load.
    if sys::pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin the process to one CPU; running unpinned");
    }
    // A run that overruns its budget reports what it attempted and exits
    // instead of hanging.
    let budget = Duration::from_secs((3 * args.seconds + 30).min(170));
    let (done, watched) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if watched.recv_timeout(budget) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!(
                "perfbench: run exceeded its {budget:?} budget; attempted {} failed {}",
                tally().attempted,
                tally().failed
            );
            std::process::exit(3);
        }
    });

    let run_dir = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = done.send(());
    let _ = watchdog.join();

    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    let correct = outcome.problems.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally().attempted,
        tally().failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, run_dir: &Path) -> Outcome {
    let spec = Spec::new(args.workload, args.seed);
    let oracle = Oracle::new(&spec);
    let mut out = Outcome { metrics: Vec::new(), problems: Vec::new() };
    let result = if args.trace {
        traced_run(args, &spec, &oracle, run_dir, &mut out)
    } else {
        timed_run(args, &spec, &oracle, run_dir, &mut out)
    };
    if let Err(e) = result {
        out.problems.push(e);
    }
    out
}

/// Opens the workload's fixture as set-up number `rep`, which names its
/// journal directory; returns it with that directory and the time taken in
/// seconds.
fn set_up(
    spec: &Spec,
    run_dir: &Path,
    rep: usize,
    extra_metrics: bool,
    log: Option<&mut SpanLog>,
) -> Result<(Fixture, Option<PathBuf>, f64), String> {
    let mut layers = Layers::of(spec.workload, run_dir.join(format!("journal-{rep}")));
    layers.metrics |= extra_metrics;
    let start = Instant::now();
    let fx = Fixture::open(spec, &layers, log)?;
    Ok((fx, layers.journal, start.elapsed().as_secs_f64()))
}

/// Checks a fixture's end state against the oracle and closes it. Returns
/// the problems found and the number of messages published. Each wrong,
/// missing or extra copy and each broken conservation law counts as a
/// failed operation.
fn finish(oracle: &Oracle, fx: Fixture, mut g: Gen) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let leftover = fx.leftover();
    if leftover != 0 {
        count(0, leftover as u64);
        problems.push(format!("{leftover} unexpected copies left queued"));
    }
    // The dispatcher counts a message's copies after handing them out, and
    // a trailing message that matches nothing produces no copy to wait
    // for, so the counters may trail the deliveries briefly.
    let copies = oracle.expected_total(g.published);
    let settled =
        |m: &rjms_broker::MessageCounters| m.received == g.published && m.dispatched == copies;
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut snap = fx.broker().snapshot().messages;
    while !settled(&snap) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        snap = fx.broker().snapshot().messages;
    }
    if !settled(&snap) || snap.dropped != 0 {
        count(0, 1);
        problems.push(format!(
            "broker counted {} received / {} dispatched / {} dropped; {} published, {copies} copies expected",
            snap.received, snap.dispatched, snap.dropped, g.published
        ));
    }
    fx.close();
    if !g.checker.finish(g.published) {
        count(0, g.checker.violation_count());
        problems.extend(g.checker.violations().iter().cloned());
    }
    (problems, g.published)
}

/// Reads a journaling fixture's journal back after [`finish`]; a journal
/// that does not hold every published message counts as a failed operation.
fn check_journal(spec: &Spec, journal: Option<&Path>, published: u64) -> Option<String> {
    let problem = journal.and_then(|dir| verify_journal(spec, dir, published).err());
    if problem.is_some() {
        count(0, 1);
    }
    problem
}

fn secs(total: u64, share: f64) -> Duration {
    Duration::from_secs_f64(total as f64 * share)
}

/// The end-to-end measurement: set-up, then the saturated closed loop.
fn timed_run(
    args: &Args,
    spec: &Spec,
    oracle: &Oracle,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (fx, journal, first) = set_up(spec, run_dir, 0, false, None)?;
    let mut setups = vec![first];
    let mut g = Gen::new(spec, oracle);
    g.saturate(&fx, 1, secs(args.seconds, 0.05), None)?;
    // Each later set-up opens and closes a fixture of its own between two
    // stretches, so that their median, like the stretches', sees the host
    // over the whole run rather than during its first milliseconds.
    let mut windows = Vec::with_capacity(WINDOWS);
    for rep in 1..=WINDOWS {
        windows.extend(g.saturate(&fx, 1, secs(args.seconds, 0.9) / WINDOWS as u32, None)?);
        let (extra, dir, time) = set_up(spec, run_dir, rep, false, None)?;
        extra.close();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        setups.push(time);
    }
    let setup_s = median(&setups);
    let (problems, published) = finish(oracle, fx, g);
    // Read before the journal is read back, which is the benchmark's work.
    let peak_rss = sys::peak_rss_mib();
    out.problems.extend(problems);
    out.problems.extend(check_journal(spec, journal.as_deref(), published));

    let per = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    out.metrics = vec![
        ("throughput_msg_s".into(), per(Window::throughput), "msg/s"),
        ("cpu_us_per_msg".into(), per(Window::cpu_us_per_msg), "us"),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
    ];
    Ok(())
}

/// `after - before` for histogram `name`, or `after` alone.
fn hist(
    after: &RegistrySnapshot,
    before: &RegistrySnapshot,
    name: &str,
) -> Option<HistogramSnapshot> {
    let a = after.histogram(name)?;
    Some(before.histogram(name).map_or_else(|| a.clone(), |b| a.delta(b)))
}

fn hist_mean(after: &RegistrySnapshot, before: &RegistrySnapshot, name: &str) -> f64 {
    hist(after, before, name).map_or(0.0, |h| h.mean())
}

fn hist_q(after: &RegistrySnapshot, before: &RegistrySnapshot, name: &str, q: f64) -> f64 {
    hist(after, before, name).and_then(|h| h.quantile(q)).map_or(0.0, |v| v as f64)
}

/// The broker layers added one at a time to `selector_durable`'s traffic.
const LADDER: [&str; 4] = ["metrics", "trace", "topic_obs", "journal"];

/// The traced run: per-layer numbers, spans, and the trace's own overhead.
fn traced_run(
    args: &Args,
    spec: &Spec,
    oracle: &Oracle,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = args.seconds;
    let mut log = SpanLog::new(Instant::now());
    let (fx, journal, _) = set_up(spec, run_dir, 0, true, Some(&mut log))?;
    let threads = sys::threads();
    let registry = fx.broker().metrics().ok_or("metrics are on in the traced run")?;
    let mut g = Gen::new(spec, oracle);
    g.saturate(&fx, 1, secs(s, 0.05), None)?;

    let before_plain = sys::Usage::now();
    let plain = g.saturate(&fx, 4, secs(s, 0.15), None)?;
    let plain_usage = sys::Usage::now().since(&before_plain);
    let plain_msgs: u64 = plain.iter().map(|w| w.msgs).sum();

    let r0 = registry.snapshot();
    let wire0 = fx.wire_metrics().map(|(_, client)| client.snapshot());
    let traced = g.saturate(&fx, 4, secs(s, 0.15), Some(&mut log))?;
    let r1 = registry.snapshot();
    let queue_depth_max = std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel::<()>();
        let fx = &fx;
        let sampler = scope.spawn(move || sample_queue_depth(fx, &stopped));
        let paced = g.paced(fx, args.seed, secs(s, 0.3));
        drop(stop);
        let max = sampler.join().expect("queue-depth sampler does not panic");
        paced.map(|p| (p, max))
    });
    let (mut paced, queue_depth_max) = queue_depth_max?;
    let r2 = registry.snapshot();
    let wire = fx.wire_metrics().map(|(_, client)| client.snapshot());
    let snap = fx.broker().snapshot();
    let trace_events = fx.broker().tracer().map_or(0, |t| t.recorded());
    let (problems, published) = finish(oracle, fx, g);
    out.problems.extend(problems);
    out.problems.extend(check_journal(spec, journal.as_deref(), published));

    let budget = secs(s, 0.05);
    let corrid = spec.workload != Workload::SelectorDurable;
    let matching = log.time("filter.matches", None, || match_ns(spec, budget))?;
    let (encode, decode, frame, same_conn) = if spec.workload == Workload::TcpLoopback {
        let (e, d, f) = log.time("wire.codec", None, || wire_costs(spec, budget));
        (e, d, f, log.time("net.same_conn_probe", None, || same_connection_roundtrip_us(spec, 9))?)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let ladder = if spec.workload == Workload::SelectorDurable {
        ladder(spec, oracle, run_dir, secs(s, 0.05))?
    } else {
        vec![0.0; LADDER.len()]
    };

    let median_thr = |w: &[Window]| median(&w.iter().map(Window::throughput).collect::<Vec<_>>());
    let (thr_plain, thr_traced) = (median_thr(&plain), median_thr(&traced));
    let publish = log.totals("broker.publish").map(|t| t.durations.clone()).unwrap_or_default();
    let msgs = snap.messages;
    let per_msg = |x: u64| x as f64 / msgs.received.max(1) as f64;
    let journal_stats = snap.journal.unwrap_or_default();
    let rtt = |q: f64| match (&wire, &wire0) {
        (Some(after), Some(before)) => hist_q(after, before, "net.rtt_ns", q) / 1e3,
        _ => 0.0,
    };
    let m = |name: &str, value: f64, unit: &'static str| (name.to_owned(), value, unit);
    out.metrics = vec![
        m("e2e.latency_p50_us", quantile(&mut paced.latency_ns, 0.50) / 1e3, "us"),
        m("e2e.latency_p99_us", quantile(&mut paced.latency_ns, 0.99) / 1e3, "us"),
        m("gen.late_p99_us", quantile(&mut paced.late_ns, 0.99) / 1e3, "us"),
        m("selector.parse_us", log.mean_ns("selector.parse") / 1e3, "us"),
        m("selector.match_ns", if corrid { 0.0 } else { matching }, "ns"),
        m("filter.corrid_match_ns", if corrid { matching } else { 0.0 }, "ns"),
        m("broker.publish_ns_p50", quantile(&mut publish.clone(), 0.50), "ns"),
        m("broker.publish_ns_p99", quantile(&mut publish.clone(), 0.99), "ns"),
        m("broker.receive_wait_ns", log.mean_ns("broker.receive"), "ns"),
        m("broker.filter_evals_per_msg", per_msg(msgs.filter_evaluations), "count"),
        m("broker.copies_per_msg", per_msg(msgs.dispatched), "count"),
        m("broker.service_ns", hist_mean(&r1, &r0, "broker.service_ns"), "ns"),
        m("broker.waiting_ns_p99", hist_q(&r2, &r1, "broker.waiting_ns", 0.99), "ns"),
        m("broker.backlog_mean", hist_mean(&r2, &r1, "broker.backlog"), "count"),
        m("broker.stage.rcv_ns", hist_mean(&r1, &r0, "broker.stage.rcv_ns"), "ns"),
        m("broker.stage.filter_ns", hist_mean(&r1, &r0, "broker.stage.filter_ns"), "ns"),
        m("broker.stage.fanout_ns", hist_mean(&r1, &r0, "broker.stage.fanout_ns"), "ns"),
        m("broker.stage.journal_ns", hist_mean(&r1, &r0, "broker.stage.journal_ns"), "ns"),
        m("journal.append_ns", hist_mean(&r1, &r0, "journal.append_ns"), "ns"),
        m("journal.fsync_ns", hist_mean(&r1, &r0, "journal.fsync_ns"), "ns"),
        m(
            "journal.bytes_per_msg",
            journal_stats.bytes_appended as f64 / journal_stats.appends.max(1) as f64,
            "B",
        ),
        m("trace.events_per_msg", trace_events as f64 / published.max(1) as f64, "count"),
        m("trace.overhead_pct", (thr_plain - thr_traced) / thr_plain * 100.0, "%"),
        m("wire.encode_publish_ns", encode, "ns"),
        m("wire.decode_delivery_ns", decode, "ns"),
        m("wire.delivery_frame_bytes", frame, "B"),
        m("net.publish_rtt_us_p50", rtt(0.50), "us"),
        m("net.publish_rtt_us_p99", rtt(0.99), "us"),
        m("net.server_queue_depth_max", queue_depth_max as f64, "count"),
        m("net.same_conn_roundtrip_us", same_conn, "us"),
        m(
            "proc.ctx_switches_per_msg",
            plain_usage.ctx_switches as f64 / plain_msgs as f64,
            "count",
        ),
        m(
            "proc.sys_cpu_share",
            plain_usage.sys.as_secs_f64() / plain_usage.cpu().as_secs_f64().max(1e-9),
            "share",
        ),
        m("proc.threads", threads as f64, "count"),
    ];
    for (layer, cost) in LADDER.iter().zip(ladder) {
        out.metrics.push((format!("ladder.{layer}_cost"), cost, "%"));
    }

    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let path =
        Path::new(WORK_DIR).join(format!("trace-{}-seed{}.json", spec.workload.name(), args.seed));
    std::fs::write(&path, log.to_json(spec.workload.name(), args.seed, &out.metrics))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Largest outbound backlog of any server connection, sampled every
/// 200 µs until the sender of `stopped` is dropped (TCP only; 0 in process).
fn sample_queue_depth(fx: &Fixture, stopped: &mpsc::Receiver<()>) -> i64 {
    let Some((server, _)) = fx.wire_metrics() else { return 0 };
    let gauges: Vec<_> = server
        .snapshot()
        .gauges
        .keys()
        .filter(|k| k.starts_with("net.conn.") && k.ends_with(".queue_depth"))
        .map(|k| server.gauge(k))
        .collect();
    let mut max = 0;
    loop {
        max = gauges.iter().map(|g| g.get()).fold(max, i64::max);
        if stopped.recv_timeout(Duration::from_micros(200)) != Err(mpsc::RecvTimeoutError::Timeout)
        {
            return max;
        }
    }
}

/// Marginal loss of saturated throughput, in percent, as each layer of
/// [`LADDER`] is added in turn to `selector_durable`'s traffic.
fn ladder(
    spec: &Spec,
    oracle: &Oracle,
    run_dir: &Path,
    each: Duration,
) -> Result<Vec<f64>, String> {
    let mut layers = Layers::default();
    let mut thr = Vec::with_capacity(LADDER.len() + 1);
    for step in 0..=LADDER.len() {
        match step {
            1 => layers.metrics = true,
            2 => layers.trace = true,
            3 => layers.topic_obs = true,
            4 => layers.journal = Some(run_dir.join("ladder-journal")),
            _ => {}
        }
        let fx = Fixture::open(spec, &layers, None)?;
        let mut g = Gen::new(spec, oracle);
        g.saturate(&fx, 1, each / 4, None)?;
        let w = g.saturate(&fx, 3, each, None)?;
        thr.push(median(&w.iter().map(Window::throughput).collect::<Vec<_>>()));
        let (mut problems, published) = finish(oracle, fx, g);
        problems.extend(check_journal(spec, layers.journal.as_deref(), published));
        if let Some(p) = problems.into_iter().next() {
            return Err(format!("ladder step {step}: {p}"));
        }
    }
    Ok(thr.windows(2).map(|w| (w[0] - w[1]) / w[0] * 100.0).collect())
}
