//! The repository's benchmark. See `README.md` in this directory.
//!
//! Two ways to call it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run; the last
//!   line of standard output is one JSON object with the end-to-end
//!   (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! * without `--workload` — the suite: every workload untraced, then
//!   traced, every metric printed by name with its unit. `--agree` runs
//!   the suite twice and compares the two against the bounds; `--quick`
//!   runs 1/20 of the counts and marks the result non-comparable.

mod adapter;
mod content;
mod durability;
mod env;
mod exec;
mod keepwarm;
mod metrics;
mod plan;
mod probes;
mod report;
mod run;
mod sections;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Map, Value};

use adapter::Latency;
use metrics::{Better, END_TO_END};
use plan::{Plan, Workload};
use run::PassOpts;

/// Nominal seconds of a main section in the suite; `BENCHMARK.json` gives
/// the driver the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
const QUICK_FACTOR: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    quick: bool,
    describe: bool,
    report: Option<PathBuf>,
    out: PathBuf,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        agree: false,
        quick: false,
        describe: false,
        report: None,
        out: PathBuf::from("benchmark/out"),
        git_rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--report" => a.report = Some(PathBuf::from(value("a file")?)),
            "--git-rev" => a.git_rev = value("a revision")?,
            "--describe" => a.describe = true,
            "--agree" => a.agree = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The presets read their knobs from the environment; a set knob would
/// silently measure another configuration.
fn check_environment() -> Result<(), String> {
    const BENCH_KNOBS: [&str; 3] = ["BENCH_ITERS", "BENCH_MILLIS", "BENCH_THREADS"];
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ARCKFS_") || BENCH_KNOBS.contains(&k.as_str()))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with configuration knobs set in the environment: {}",
            set.join(", ")
        ))
    }
}

fn measured_opts(quick: bool) -> PassOpts {
    PassOpts {
        latency: Latency::Optane,
        traced: false,
        setups: if quick { 1 } else { 5 },
        remounts: if quick { 1 } else { 7 },
        durability: true,
    }
}

/// One run in this process. For the driver: a single JSON line on
/// standard output. For the suite (`--report FILE`): the tables a person
/// reads on standard output and the full result document in `FILE`.
fn single(args: &Args, w: Workload) -> Result<bool, String> {
    let plan = Plan::new(w, args.seed, args.seconds);
    let report = args.report.is_some();
    let (attempted, failed, errors, metrics, detail) = if args.trace {
        let l = run::layers(&plan, &args.out, args.quick)?;
        if report {
            let title = "per-layer (traced run at a quarter of the counts, then probes)";
            report::print_metrics(title, &l.metrics, false);
            report::print_layers(&l);
        }
        let metrics = report::metrics_json(&l.metrics, false);
        (
            l.attempted,
            l.failed,
            l.errors.clone(),
            metrics,
            report::layers_json(&l),
        )
    } else {
        let pass = run::run_pass(&plan, measured_opts(args.quick))?;
        let m: BTreeMap<String, f64> = run::end_to_end(&pass)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let mut detail = Value::Null;
        if report {
            report::print_metrics("end-to-end (tracing off)", &m, true);
            detail = report::latencies(&pass);
            println!(
                " checks: {} calls and checks attempted, {} failed (namespace, content, fsck, {} remounts, durability cut)",
                pass.attempted,
                pass.failed,
                pass.remounts.len()
            );
        }
        let metrics = report::metrics_json(&m, true);
        (
            pass.attempted,
            pass.failed,
            pass.errors.clone(),
            metrics,
            detail,
        )
    };
    for e in &errors {
        eprintln!("check FAILED: {e}");
    }
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    match &args.report {
        None => println!("{line}"),
        Some(file) => {
            let doc = json!({"plan": report::plan_json(&plan), "result": line, "detail": detail});
            std::fs::write(file, format!("{doc}\n"))
                .map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    Ok(failed == 0)
}

/// Run one workload in a process of its own, as the driver does, and read
/// back its result document. A process that ran other passes before sets
/// up and remounts measurably slower (its allocator's state differs), so
/// the suite never measures two passes in one process.
fn child(args: &Args, w: Workload, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let file = args
        .out
        .join(format!("part_{}_{}.json", w.name(), u8::from(trace)));
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .arg("--report")
        .arg(&file);
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("starting the run: {e}"))?;
    // 1: the run completed and an output check failed; its document says so
    if !status.success() && status.code() != Some(1) {
        return Err(format!(
            "{} trace {}: run ended with {status}",
            w.name(),
            u8::from(trace)
        ));
    }
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    std::fs::remove_file(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(doc)
}

/// The whole suite once; prints every metric, returns the result document
/// and whether every check passed.
fn suite(args: &Args, seconds: f64, label: &str) -> Result<(Value, bool), String> {
    let mut workloads = Map::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        println!();
        println!(
            "== {} [{label}]  seed {}  nominal {seconds} s ==",
            w.name(),
            args.seed
        );
        let untraced = child(args, w, seconds, false)?;
        let traced = child(args, w, seconds, true)?;
        let correct = |doc: &Value| {
            doc.get("result").and_then(|r| r.get("correct")) == Some(&Value::Bool(true))
        };
        all_correct &= correct(&untraced) && correct(&traced);
        let part = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
        workloads.insert(
            w.name().into(),
            json!({
                "plan": part(&untraced, "plan"),
                "end_to_end": part(&untraced, "result"),
                "latencies": part(&untraced, "detail"),
                "per_layer": part(&traced, "result"),
                "traced": part(&traced, "detail"),
            }),
        );
    }
    let doc = json!({
        "stamp": report::stamp(&args.git_rev, !args.quick),
        "label": label,
        "workloads": Value::Object(workloads),
    });
    Ok((doc, all_correct))
}

fn write_doc(dir: &Path, name: &str, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{doc:#}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(())
}

fn metric_value(doc: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare two suite results of the same build: every end-to-end metric
/// of every workload within its bound, and the single-thread device
/// counts of `meta_private` exactly equal. Returns whether they agree.
fn agree(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!();
    println!("== agreement of two runs of the same build ==");
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(a, w.name(), "end_to_end", m.name),
                metric_value(b, w.name(), "end_to_end", m.name),
            ) else {
                println!("  {:<16} {:<22} missing", w.name(), m.name);
                ok = false;
                continue;
            };
            // how much worse the second run is than the first
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let breach = worse.abs() > m.bound;
            ok &= !breach;
            println!(
                "  {:<16} {:<22} {:>14.4} {:>14.4} {:<6} worse by {:>+6.2} %  (bound {:>2.0} %){}",
                w.name(),
                m.name,
                x,
                y,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    for c in [
        "loads",
        "stores",
        "ntstores",
        "clwb",
        "sfence",
        "bytes_read",
        "bytes_written",
    ] {
        let name = format!("pmem.{c}_per_op");
        let x = metric_value(a, "meta_private", "per_layer", &name);
        let y = metric_value(b, "meta_private", "per_layer", &name);
        let same = x.is_some() && x == y;
        ok &= same;
        println!(
            "  meta_private     {name:<26} {:>20} {:>20}{}",
            x.map_or("missing".into(), |v| v.to_string()),
            y.map_or("missing".into(), |v| v.to_string()),
            if same { "  exactly equal" } else { "  DIFFERS" }
        );
    }
    ok
}

/// `BENCHMARK.json` as the metric tables of this program imply it.
fn describe() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({"name": w.name(), "why": w.why()}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = metrics::per_layer()
        .into_iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": DEFAULT_SECONDS as u64,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.describe {
        println!("{:#}", describe());
        return Ok(true);
    }
    check_environment()?;
    if let Some(w) = args.workload {
        return single(&args, w);
    }
    let seconds = if args.quick {
        args.seconds / QUICK_FACTOR
    } else {
        args.seconds
    };
    if args.quick {
        println!(
            "QUICK RUN: 1/{QUICK_FACTOR} of the counts. Not comparable with any recorded result."
        );
    }
    if args.agree {
        let (a, ok_a) = suite(&args, seconds, "a")?;
        write_doc(&args.out, "agree_a.json", &a)?;
        let (b, ok_b) = suite(&args, seconds, "b")?;
        write_doc(&args.out, "agree_b.json", &b)?;
        let agreed = agree(&a, &b);
        println!("{}", if agreed { "AGREE" } else { "DISAGREE" });
        return Ok(ok_a && ok_b && agreed);
    }
    let (doc, ok) = suite(&args, seconds, "suite")?;
    write_doc(&args.out, &format!("suite_seed{}.json", args.seed), &doc)?;
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
