//! A run: set up, execute the four sections, check the outputs, remount and
//! check again — and, from that, the end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, Latency, C};
use crate::durability;
use crate::env::{self, Env, RemountMs, State};
use crate::exec::{CallCounts, Ctx, Op, RoundLatency, Vfs};
use crate::keepwarm::KeepWarm;
use crate::plan::{Plan, Workload};
use crate::probes;
use crate::sections::{self, Round, SectionOut, Slice};
use crate::span::{self, Folded};
use crate::stats::{median, undisturbed_rate, undisturbed_time, Samples};

/// Operations of the durability check before its cut: about 1/1000 of a
/// full-scale main section.
const DURABILITY_OPS: usize = 2000;

/// Everything one pass over the four sections produced.
pub struct Pass {
    pub plan: Plan,
    pub sections: [SectionOut; 4],
    pub setup_s: Vec<f64>,
    pub remounts: Vec<RemountMs>,
    pub fsck_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub verify_failures: u64,
}

/// Which checks and repetitions a pass includes.
#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    pub latency: Latency,
    pub traced: bool,
    /// How many times set-up is timed: once for the device the run uses,
    /// the rest on throwaway devices between slices.
    pub setups: usize,
    pub remounts: usize,
    pub durability: bool,
}

/// Every output check on the live system plus the offline walk of its
/// device; returns the milliseconds the walk took.
fn check_outputs(env: &Env, state: &State, ctx: &mut Ctx) -> f64 {
    env::verify(env, state, ctx);
    let t = Instant::now();
    if let Err(e) = adapter::fsck(&env.dev) {
        ctx.fail(format!("fsck: {e}"));
    }
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run_pass(plan: &Plan, opts: PassOpts) -> Result<Pass, String> {
    adapter::pin_thread_home(0);
    let warm = KeepWarm::start();
    let mut ctx = Ctx::scratch();
    let mut state = State::new(plan);
    let mut setup_s = Vec::with_capacity(opts.setups);
    let t = Instant::now();
    let mut env = Env::setup(plan, &state, opts.latency, &mut ctx)?;
    setup_s.push(t.elapsed().as_secs_f64());

    // Set-up is timed again on a throwaway device at slice boundaries, so
    // that its samples are spread over the run like everything else.
    let epoch = opts.traced.then(Instant::now);
    let slice = |env, index| Slice {
        env,
        warm: &warm,
        seed: plan.seed,
        index,
        traced: epoch,
    };
    let mut sections = sections::run_slice(slice(&env, 0), plan, &mut state);
    for index in 1..plan.slices {
        if setup_s.len() < opts.setups {
            let t = Instant::now();
            let spare = Env::setup(plan, &State::new(plan), opts.latency, &mut ctx)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(spare);
        }
        let next = sections::run_slice(slice(&env, index), plan, &mut state);
        for (section, next) in sections.iter_mut().zip(next) {
            section.merge(next);
        }
    }

    let fsck_ms = check_outputs(&env, &state, &mut ctx);
    let verify_failures = env.kernel.stats().snapshot().verify_failures;

    let mut remounts = Vec::with_capacity(opts.remounts);
    for _ in 0..opts.remounts {
        let (next, ms) = env::remount(env, &state, &mut ctx)?;
        env = next;
        remounts.push(ms);
    }
    if opts.remounts > 0 {
        check_outputs(&env, &state, &mut ctx);
    }
    if opts.durability {
        durability::run(plan.seed, DURABILITY_OPS, &mut ctx);
    }

    let mut attempted = ctx.attempted;
    let mut failed = ctx.failed;
    let mut errors = ctx.errors;
    for s in &sections {
        attempted += s.ctx.attempted;
        failed += s.ctx.failed;
        errors.extend(s.ctx.errors.iter().cloned());
    }
    errors.truncate(12);
    Ok(Pass {
        plan: plan.clone(),
        sections,
        setup_s,
        remounts,
        fsck_ms,
        attempted,
        failed,
        errors,
        verify_failures,
    })
}

fn index(w: Workload) -> usize {
    Workload::ALL.iter().position(|x| *x == w).expect("listed")
}

impl Pass {
    pub fn main(&self) -> &SectionOut {
        &self.sections[index(self.plan.workload)]
    }

    fn section(&self, w: Workload) -> &SectionOut {
        &self.sections[index(w)]
    }
}

/// Median of a sample set (interpolated, see `median_grouped`).
fn p50(samples: &Samples) -> f64 {
    samples.clone().sorted().median_grouped()
}

fn op(s: &SectionOut, op: Op) -> &Samples {
    &s.ctx.ops[op as usize]
}

/// The latency rounds of a section: those of phase B when it has one —
/// two threads side by side are what a two-thread workload is about.
fn latency_rounds(s: &SectionOut) -> &[RoundLatency] {
    if s.ctx.pair_rounds.is_empty() {
        &s.ctx.solo_rounds
    } else {
        &s.ctx.pair_rounds
    }
}

/// A per-round latency statistic in the undisturbed rounds.
fn round_time(s: &SectionOut, f: impl Fn(&RoundLatency) -> f64) -> f64 {
    let values: Vec<f64> = latency_rounds(s)
        .iter()
        .map(f)
        .filter(|v| !v.is_nan())
        .collect();
    undisturbed_time(&values)
}

/// The median latency of an operation class in the undisturbed rounds.
fn op_p50(s: &SectionOut, op: Op) -> f64 {
    round_time(s, |r| r.p50[op as usize])
}

/// Every timed operation of a section in one sample set.
pub fn all_ops(s: &SectionOut) -> Samples {
    let mut all = Samples::with_capacity(s.ctx.ops.iter().map(Samples::len).sum());
    for o in &s.ctx.ops {
        all.extend(o);
    }
    all
}

fn rate(rounds: &[Round]) -> f64 {
    undisturbed_rate(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>())
}

/// The throughput rounds of a section: phase B when it has one.
pub fn throughput_rounds(s: &SectionOut) -> &[Round] {
    if s.b.is_empty() {
        &s.a
    } else {
        &s.b
    }
}

/// The end-to-end metrics of a pass, by name. Which section each comes
/// from depends on the workload; README has the table. Every value but
/// `setup_s` is a statistic over rounds taken on their undisturbed side
/// (see [`undisturbed_time`]).
pub fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    use Workload::{DataShared2t, MetaPrivate, MetaShared2t, ShareHandoff};
    let w = pass.plan.workload;
    let main = pass.main();
    let mp = pass.section(MetaPrivate);
    let ds = pass.section(DataShared2t);
    let sh = pass.section(ShareHandoff);
    // metadata latencies: the workload's own metadata section, else the
    // private-metadata side section
    let meta = if w == MetaShared2t {
        pass.section(MetaShared2t)
    } else {
        mp
    };
    let create = if w == ShareHandoff { sh } else { meta };
    let scaling_from = if w == DataShared2t {
        ds
    } else {
        pass.section(MetaShared2t)
    };
    let mib_per_s: Vec<f64> = throughput_rounds(ds).iter().map(Round::mib_per_s).collect();
    let remounts: Vec<f64> = pass.remounts.iter().map(RemountMs::total).collect();
    BTreeMap::from([
        ("setup_s", median(&pass.setup_s)),
        ("ops_per_s", rate(throughput_rounds(main))),
        ("mib_per_s", undisturbed_rate(&mib_per_s)),
        ("op_p50_ns", round_time(main, |r| r.all_p50)),
        ("op_p99_ns", round_time(main, |r| r.all_p99)),
        ("create_p50_ns", op_p50(create, Op::Create)),
        ("open_p50_ns", op_p50(meta, Op::Open)),
        ("unlink_p50_ns", op_p50(meta, Op::Unlink)),
        ("rename_p50_ns", op_p50(meta, Op::Rename)),
        ("read4k_p50_ns", op_p50(ds, Op::Read4k)),
        ("write4k_p50_ns", op_p50(ds, Op::Write4k)),
        ("append_fsync_p50_ns", op_p50(ds, Op::AppendFsync)),
        ("handoff_p50_ns", op_p50(sh, Op::Handoff)),
        ("scaling_2t", rate(&scaling_from.b) / rate(&scaling_from.a)),
        ("remount_ms", undisturbed_time(&remounts)),
    ])
}

/// Samples and counts of one `vfs` call kind over all sections of a pass.
fn calls(pass: &Pass, k: Vfs) -> (Samples, CallCounts) {
    let mut samples = Samples::default();
    let mut counts = CallCounts::default();
    for s in &pass.sections {
        if let Some(t) = &s.ctx.trace {
            samples.extend(&t.calls[k as usize]);
            counts.merge(&t.counts[k as usize]);
        }
    }
    (samples, counts)
}

/// Time per operation of one thread in the undisturbed single-thread
/// rounds.
fn solo_ns_per_op(s: &SectionOut) -> f64 {
    1e9 / rate(&s.a)
}

/// One row of the decomposition table: the software time of one call kind
/// against what its counted lower-layer work costs at the probed unit
/// costs. The residual is attributed to `arckfs` itself and is an
/// estimate: unit costs are medians of isolated calls, not of these calls.
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub kind: &'static str,
    pub calls: u64,
    pub p50_ns: f64,
    pub sw_p50_ns: f64,
    /// (lower-layer item, count per call, unit cost ns, product ns)
    pub parts: Vec<(&'static str, f64, f64, f64)>,
    pub residual_ns: f64,
}

/// The result of a traced run: per-layer metrics plus what the report
/// prints beside them.
pub struct Layers {
    pub metrics: BTreeMap<String, f64>,
    pub decomposition: Vec<Decomposition>,
    pub self_time: BTreeMap<String, Folded>,
    pub trace_files: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// `obs.enabled_overhead_pct`: the private-metadata mix with the
/// program's own recorder off and on, alternating, on one device.
fn obs_overhead(plan: &Plan, reps: usize) -> Result<f64, String> {
    let warm = KeepWarm::start();
    let mut small = Plan::new(Workload::MetaPrivate, plan.seed, 1.0);
    small.meta_private.rounds = 6;
    let mut ctx = Ctx::scratch();
    let mut state = State::new(&small);
    let env = Env::setup(&small, &state, Latency::Optane, &mut ctx)?;
    let mut ratios = Vec::new();
    for rep in 0..reps {
        let mut rates = [0.0; 2];
        for (i, on) in [false, true].into_iter().enumerate() {
            adapter::obs_set(on);
            let cx = Slice {
                env: &env,
                warm: &warm,
                seed: small.seed,
                index: rep,
                traced: None,
            };
            let out = sections::run_meta(cx, &small.meta_private, &mut state.meta_private, 0);
            adapter::obs_set(false);
            if out.ctx.failed > 0 {
                return Err(format!("obs pass: {:?}", out.ctx.errors));
            }
            rates[i] = rate(&out.a);
        }
        ratios.push((rates[0] - rates[1]) / rates[0] * 100.0);
    }
    Ok(median(&ratios))
}

/// The traced run of a workload: an untraced pass at a quarter of the
/// counts, the same traced on the measured latency policy, the same traced
/// without injected latency, then the unit-cost probes.
///
/// `quick` shortens the probes and the repetitions; its numbers are for
/// smoke use only.
pub fn layers(plan: &Plan, out_dir: &std::path::Path, quick: bool) -> Result<Layers, String> {
    let quarter = Plan::new(plan.workload, plan.seed, plan.units / 4.0);
    let opts = |latency, traced, remounts| PassOpts {
        latency,
        traced,
        setups: 1,
        remounts,
        durability: false,
    };
    let untraced = run_pass(&quarter, opts(Latency::Optane, false, 0))?;
    let traced = run_pass(&quarter, opts(Latency::Optane, true, 1))?;
    let software = run_pass(&quarter, opts(Latency::Disabled, true, 0))?;
    let probe = probes::run(if quick { 10 } else { 1 })?;
    let obs_pct = obs_overhead(plan, if quick { 1 } else { 5 })?;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut decomposition = Vec::new();
    let unit = |name: &str| probe.get(name).copied().unwrap_or(0.0);
    for k in Vfs::REPORTED {
        let (mut hw, counts) = calls(&traced, k);
        let (mut sw, _) = calls(&software, k);
        let p50 = hw.sorted().median_grouped();
        let sw_p50 = sw.sorted().median_grouped();
        m.insert(format!("vfs.{}.p50_ns", k.name()), p50);
        m.insert(format!("vfs.{}.sw_p50_ns", k.name()), sw_p50);
        let n = counts.calls.max(1) as f64;
        let parts: Vec<(&'static str, f64, f64, f64)> = [
            ("pmem loads", counts.loads, unit("pmem.map_read_u64_ns")),
            ("pmem stores", counts.stores, unit("pmem.map_write_u64_ns")),
            (
                "pmem ntstores",
                counts.ntstores,
                unit("pmem.dev_ntstore_4k_ns"),
            ),
            ("pmem clwb lines", counts.clwb, unit("pmem.clwb_ns")),
            ("pmem sfences", counts.sfences, unit("pmem.sfence_ns")),
            ("trio syscalls", counts.syscalls, adapter::SYSCALL_NS as f64),
        ]
        .into_iter()
        .map(|(what, count, cost)| (what, count as f64 / n, cost, count as f64 / n * cost))
        .collect();
        let lower: f64 = parts.iter().map(|x| x.3).sum();
        decomposition.push(Decomposition {
            kind: k.name(),
            calls: counts.calls,
            p50_ns: p50,
            sw_p50_ns: sw_p50,
            parts,
            residual_ns: sw_p50 - lower,
        });
    }
    m.insert("vfs.ops_failed".into(), traced.failed as f64);
    let rate_u = rate(throughput_rounds(untraced.main()));
    let rate_t = rate(throughput_rounds(traced.main()));
    m.insert(
        "vfs.trace_overhead_pct".into(),
        (rate_u - rate_t) / rate_u * 100.0,
    );

    let main = traced.main();
    let ops = main.all_ops.max(1) as f64;
    let c = |i: C| main.all.get(i) as f64;
    for (name, i) in [
        ("loads", C::Loads),
        ("stores", C::Stores),
        ("ntstores", C::Ntstores),
        ("clwb", C::Clwb),
        ("sfence", C::Sfences),
        ("bytes_read", C::BytesRead),
        ("bytes_written", C::BytesWritten),
    ] {
        m.insert(format!("pmem.{name}_per_op"), c(i) / ops);
    }
    let user_written = main.user_bytes_written as f64;
    let share_of_written = |x: f64| {
        if user_written > 0.0 {
            x / user_written
        } else {
            0.0
        }
    };
    m.insert(
        "pmem.write_amp".into(),
        share_of_written(c(C::BytesWritten)),
    );
    m.insert(
        "pmem.charged_ns_per_op".into(),
        solo_ns_per_op(main) - solo_ns_per_op(software.main()),
    );
    m.insert("trio.syscalls_per_op".into(), c(C::Syscalls) / ops);
    for (name, i) in [
        ("acquires", C::Acquires),
        ("releases", C::Releases),
        ("commits", C::Commits),
        ("verifications", C::Verifications),
        ("trust_skips", C::TrustSkips),
    ] {
        m.insert(format!("trio.{name}_per_kop"), c(i) / ops * 1e3);
    }
    m.insert("trio.verify_failures".into(), traced.verify_failures as f64);
    let remount = traced.remounts.first().copied().unwrap_or_default();
    m.insert("trio.recover_ms".into(), remount.recover);
    m.insert("trio.fsck_ms".into(), traced.fsck_ms);
    m.insert("arckfs.libfs.mount_ms".into(), remount.mount);
    m.insert("arckfs.libfs.unmount_ms".into(), remount.unmount);
    let sh = traced.section(Workload::ShareHandoff);
    let handoff = p50(op(sh, Op::Handoff));
    let own_create = p50(op(sh, Op::Create));
    for (name, o) in [
        ("release_path_p50_ns", Op::Release),
        ("handoff_dir1000_p50_ns", Op::Handoff1000),
        ("handoff_file16m_p50_ns", Op::HandoffFile),
        ("trust_create_p50_ns", Op::TrustCreate),
    ] {
        m.insert(format!("arckfs.libfs.{name}"), p50(op(sh, o)));
    }
    m.insert(
        "arckfs.libfs.rebuild_est_ns".into(),
        (handoff - unit("trio.acquire_dir100_ns") - own_create).max(0.0),
    );
    let lookups = c(C::DcacheHits) + c(C::DcacheMisses);
    m.insert(
        "arckfs.dcache.hit_rate".into(),
        if lookups > 0.0 {
            c(C::DcacheHits) / lookups
        } else {
            0.0
        },
    );
    m.insert(
        "arckfs.dir.lock_acqs_per_op".into(),
        c(C::SharedLockAcqs) / ops,
    );
    m.insert(
        "arckfs.range_lock.acqs_per_op".into(),
        c(C::RangeLockAcqs) / ops,
    );
    m.insert(
        "arckfs.pool.refills_per_kop".into(),
        c(C::PoolRefills) / ops * 1e3,
    );
    m.insert(
        "arckfs.pool.steals_per_kop".into(),
        c(C::AllocSteals) / ops * 1e3,
    );
    m.insert(
        "arckfs.delegate.bytes_share".into(),
        share_of_written(c(C::DelegBytes)),
    );
    m.insert(
        "arckfs.extent.inserts_per_kop".into(),
        c(C::ExtentInserts) / ops * 1e3,
    );
    m.insert(
        "arckfs.file.cow_copies_per_kop".into(),
        c(C::CowTailCopies) / ops * 1e3,
    );
    m.insert("arckfs.batch.batched_share".into(), c(C::BatchedOps) / ops);
    for (name, v) in &probe {
        m.insert((*name).to_string(), *v);
    }
    m.insert("obs.enabled_overhead_pct".into(), obs_pct);

    // spans: fold per thread, then sum by name; write each thread's trace
    let mut self_time: BTreeMap<String, Folded> = BTreeMap::new();
    let mut threads = Vec::new();
    for (si, s) in traced.sections.iter().enumerate() {
        for ctx in std::iter::once(&s.ctx).chain(&s.others) {
            let Some(t) = &ctx.trace else { continue };
            for (name, f) in span::fold_self_time(&t.rec.names, &t.rec.spans) {
                let e = self_time.entry(name).or_default();
                e.count += f.count;
                e.total_ns += f.total_ns;
                e.self_ns += f.self_ns;
            }
            let mut j = span::to_json(ctx.thread, &t.rec);
            if let serde_json::Value::Object(map) = &mut j {
                map.insert("section".into(), Workload::ALL[si].name().into());
            }
            threads.push(j);
        }
    }
    let mut trace_files = Vec::new();
    let doc = serde_json::json!({
        "workload": plan.workload.name(),
        "seed": plan.seed,
        "hierarchy": "section > phase.* > vfs.K; rows of one operation share `op`",
        "threads": threads,
    });
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace_{}.json", plan.workload.name()));
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    trace_files.push(path.display().to_string());

    let passes = [&untraced, &traced, &software];
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    errors.truncate(12);
    Ok(Layers {
        metrics: m,
        decomposition,
        self_time,
        trace_files,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64) -> Pass {
        let plan = Plan::new(workload, seed, 0.05);
        let opts = PassOpts {
            latency: Latency::Disabled,
            traced: false,
            setups: 2,
            remounts: 1,
            durability: true,
        };
        run_pass(&plan, opts).expect("pass runs")
    }

    /// With one thread nothing is left to timing: two runs of the same
    /// seed issue exactly the same loads, stores, flushes and fences.
    #[test]
    fn private_metadata_repeats_its_device_counts_exactly() {
        let a = tiny(Workload::MetaPrivate, 5);
        let b = tiny(Workload::MetaPrivate, 5);
        assert_eq!(a.failed, 0, "{:?}", a.errors);
        assert!(a.main().all_ops > 5000);
        assert_eq!(a.main().all_ops, b.main().all_ops);
        assert_eq!(a.main().all, b.main().all);
        assert!(a.main().all.get(C::Sfences) > 0);
    }

    /// Every workload passes every output check and reports every
    /// end-to-end metric, none of them zero.
    #[test]
    fn every_workload_is_correct_and_reports_all_metrics() {
        for w in Workload::ALL {
            let pass = tiny(w, 9);
            assert_eq!(pass.failed, 0, "{}: {:?}", w.name(), pass.errors);
            assert!(pass.attempted > 10_000);
            let m = end_to_end(&pass);
            for e in crate::metrics::END_TO_END {
                let v = m.get(e.name).copied().unwrap_or(0.0);
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), e.name);
            }
        }
    }
}
