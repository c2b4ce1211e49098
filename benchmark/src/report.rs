//! Output: the stamp, the result document, and the tables a person reads.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::adapter;
use crate::exec::Op;
use crate::metrics::{per_layer, END_TO_END};
use crate::plan::{Plan, Workload};
use crate::run::{all_ops, throughput_rounds, Layers, Pass};
use crate::stats::Samples;

/// Where and on what the numbers were taken.
pub fn stamp(git_rev: &str, comparable: bool) -> Value {
    let (libfs, kernel) = adapter::config_stamp();
    json!({
        "git_rev": git_rev,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "alloc_shards": adapter::alloc_shards(),
        "comparable": comparable,
        "latency_policy": "LatencyModel::optane() on every measured device; syscall cost 400 ns",
        "libfs_config": libfs,
        "kernel_config": kernel,
    })
}

fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(pairs.into_iter().collect())
}

/// `{name: {"value": v, "unit": u}}` in the order of the metric tables.
pub fn metrics_json(values: &BTreeMap<String, f64>, end_to_end: bool) -> Value {
    let order: Vec<(String, &'static str)> = if end_to_end {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    } else {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    };
    object(order.into_iter().map(|(name, unit)| {
        let v = values.get(&name).copied().unwrap_or(0.0);
        (name, json!({"value": v, "unit": unit}))
    }))
}

fn latency_row(name: &str, samples: &Samples) -> Option<(String, Value)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.clone();
    let v = s.sorted();
    let tail = v.highest_supported();
    let text = format!(
        "  {name:<18} {:>9} samples  p50 {:>9.0}  p90 {:>9.0}  p99 {:>9.0}  p99.9 {:>9.0}  p99.99 {:>9.0} ns  (supported to p{tail})",
        v.count(),
        v.percentile(50.0),
        v.percentile(90.0),
        v.percentile(99.0),
        v.percentile(99.9),
        v.percentile(99.99),
    );
    let j = json!({
        "samples": v.count(),
        "p50_ns": v.percentile(50.0),
        "p90_ns": v.percentile(90.0),
        "p99_ns": v.percentile(99.0),
        "p99_9_ns": v.percentile(99.9),
        "p99_99_ns": v.percentile(99.99),
        "highest_supported_percentile": tail,
    });
    println!("{text}");
    Some((name.to_string(), j))
}

/// Print and return the per-operation latency tables of a pass: the main
/// section first, then the side sections.
pub fn latencies(pass: &Pass) -> Value {
    let mut sections = Map::new();
    for (w, s) in Workload::ALL.iter().zip(&pass.sections) {
        let role = if *w == pass.plan.workload {
            "main"
        } else {
            "side"
        };
        println!(" section {} ({role}):", w.name());
        let mut rows = Map::new();
        for o in Op::ALL {
            if let Some((k, v)) = latency_row(o.name(), &s.ctx.ops[o as usize]) {
                rows.insert(k, v);
            }
        }
        if let Some((k, v)) = latency_row("all timed ops", &all_ops(s)) {
            rows.insert(k, v);
        }
        let rounds = throughput_rounds(s);
        let ops: u64 = s.a.iter().chain(&s.b).map(|r| r.ops).sum();
        println!(
            "  {} single-thread rounds, {} two-thread rounds, {ops} operations, {} calls attempted, {} failed",
            s.a.len(),
            s.b.len(),
            s.ctx.attempted,
            s.ctx.failed
        );
        rows.insert("rounds".into(), json!(rounds.len()));
        rows.insert("operations".into(), json!(ops));
        sections.insert(w.name().into(), Value::Object(rows));
    }
    Value::Object(sections)
}

pub fn print_metrics(title: &str, values: &BTreeMap<String, f64>, end_to_end: bool) {
    println!(" {title}:");
    if end_to_end {
        for m in END_TO_END {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            println!(
                "  {:<22} {:>16.4} {:<6} ({} is better, bound {:.0} %)",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    } else {
        for m in per_layer() {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

/// Print the decomposition table and the span fold of a traced run.
pub fn print_layers(l: &Layers) {
    println!(" decomposition of software time per call (traced pass without injected latency):");
    println!("  lower-layer cost = count per call x probed unit cost; residual = arckfs itself, ESTIMATED");
    for d in &l.decomposition {
        if d.calls == 0 {
            continue;
        }
        let lower: f64 = d.parts.iter().map(|p| p.3).sum();
        println!(
            "  vfs.{:<13} p50 {:>9.0} ns  software p50 {:>9.0} ns = lower layers {:>9.0} + arckfs residual (estimated) {:>9.0}   [{} solo calls]",
            d.kind, d.p50_ns, d.sw_p50_ns, lower, d.residual_ns, d.calls
        );
        for (what, count, cost, product) in &d.parts {
            if *count > 0.0 {
                println!("      {what:<16} {count:>9.3} x {cost:>8.1} ns = {product:>9.0} ns");
            }
        }
    }
    println!(
        " span fold (traced pass on the measured latency policy): total and self time by name"
    );
    for (name, f) in &l.self_time {
        println!(
            "  {:<20} {:>9} spans  total {:>12.3} ms  self {:>12.3} ms",
            name,
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6
        );
    }
    for f in &l.trace_files {
        println!(" trace written to {f}");
    }
}

pub fn layers_json(l: &Layers) -> Value {
    let rows: Vec<Value> = l
        .decomposition
        .iter()
        .map(|d| {
            let parts: Vec<Value> = d
                .parts
                .iter()
                .map(|(what, count, cost, product)| {
                    json!({"item": *what, "per_call": *count, "unit_ns": *cost, "ns": *product})
                })
                .collect();
            json!({
                "kind": d.kind, "solo_calls": d.calls, "p50_ns": d.p50_ns,
                "sw_p50_ns": d.sw_p50_ns, "lower_layers": parts,
                "arckfs_residual_ns_estimated": d.residual_ns,
            })
        })
        .collect();
    let fold = object(l.self_time.iter().map(|(name, f)| {
        (
            name.clone(),
            json!({"spans": f.count, "total_ns": f.total_ns, "self_ns": f.self_ns}),
        )
    }));
    json!({
        "decomposition": rows,
        "span_fold": fold,
    })
}

/// The part of the result document that describes the inputs of a run.
pub fn plan_json(plan: &Plan) -> Value {
    json!({
        "seed": plan.seed,
        "oplist_hash": format!("{:016x}", plan.oplist_hash()),
        "counts": plan.to_json(),
    })
}
