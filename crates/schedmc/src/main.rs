//! `schedmc` CLI: run the vocabulary sweep and export coverage.
//!
//! Default is the quick CI mode (all op pairs, preemption bound 2,
//! seeded, time-budgeted). `ARCKFS_SCHEDMC_DEEP=1` switches to the deep
//! sweep (all op triples, bound 3). Exits non-zero when any schedule
//! fails an oracle; coverage lands in `results/obs_schedmc.json`.
//!
//! `schedmc fuzz` runs the coverage-guided fuzzing campaign instead
//! ([`schedmc::fuzz`]): the deterministic exec-bounded smoke by default
//! ([`FuzzOpts::smoke`]), the wall-clock-budgeted nightly depth at
//! `ARCKFS_SCHEDMC_DEEP=2` ([`FuzzOpts::nightly`]). `ARCKFS_SCHEDMC_DEEP`
//! is the only variable any crate outside the bench harness reads: it
//! picks a preset, every other parameter is fixed in code.
//! After the campaign it re-runs the exhaustive bound-2 pair sweep on the
//! same time budget as a coverage baseline, writes both blocks to
//! `results/obs_fuzz.json`, and exits non-zero unless the campaign found
//! new coverage, beat the baseline's pair count, and hit zero failures.

use schedmc::fuzz::{FuzzOpts, InvariantStatus};
use schedmc::ExploreOpts;

fn main() {
    if std::env::args().nth(1).as_deref() == Some("fuzz") {
        fuzz_main();
        return;
    }
    let deep = std::env::var("ARCKFS_SCHEDMC_DEEP").is_ok_and(|v| v == "1");
    obs::enable();

    let (mode, opts) = if deep {
        ("deep (triples)", ExploreOpts::deep())
    } else {
        ("quick (pairs)", ExploreOpts::quick())
    };
    eprintln!(
        "schedmc: {mode} sweep, preemption bound {}, seed {:#x}",
        opts.preemption_bound, opts.seed
    );

    let mut report = if deep {
        schedmc::explore_vocabulary_triples(&opts)
    } else {
        schedmc::explore_vocabulary(&opts)
    };
    // Every pair involving a delegated write, re-swept with the
    // delegation rings enabled (the default config writes inline, so the
    // sweep above never arbitrates the `delegate.sq.*` points).
    report.merge(schedmc::explore_delegate_pairs(&opts));
    // Every pair involving a ranged-data op (disjoint vectored writer,
    // preallocator) on its own budget, so the `file.write.*` windows
    // arbitrate even when the sweep above is truncated before them.
    report.merge(schedmc::explore_range_pairs(&opts));
    // Every pair involving the two-application hand-off, on its own budget
    // for the same reason.
    report.merge(schedmc::explore_handoff_pairs(&opts));

    eprintln!(
        "schedmc: {} schedules, {} distinct points hit, {} crash states checked (max space {}){}",
        report.schedules,
        report.points_hit.len(),
        report.crash_states_checked,
        report.state_space_max,
        if report.truncated {
            ", truncated by budget"
        } else {
            ""
        }
    );

    if let Err(e) = obs::report().write_json_ext(
        "schedmc",
        &[("schedmc", report.to_json())],
    ) {
        eprintln!("schedmc: failed to write obs json: {e}");
    }

    if report.is_clean() {
        eprintln!("schedmc: all schedules passed all oracles");
        return;
    }
    eprintln!("schedmc: {} failing schedule(s):", report.failures.len());
    for f in &report.failures {
        let ops: Vec<&str> = f.ops.iter().map(|o| o.name()).collect();
        eprintln!(
            "  [{}] ops=({}) schedule={:?} preemptions={} seed={:#x}\n    {}\n    replay: {}",
            f.kind.name(),
            ops.join(", "),
            f.schedule,
            f.preemptions,
            f.seed,
            f.detail.replace('\n', "\n    "),
            f.replay_snippet()
        );
    }
    std::process::exit(1);
}

fn fuzz_main() {
    obs::enable();
    let deep = std::env::var("ARCKFS_SCHEDMC_DEEP").is_ok_and(|v| v == "2");
    let (mode, opts) = if deep {
        ("nightly (budgeted)", FuzzOpts::nightly())
    } else {
        ("smoke (exec-bounded)", FuzzOpts::smoke())
    };
    eprintln!(
        "schedmc: fuzz {mode}, seed {:#x}, {} tenants x {} threads, vocabulary {}",
        opts.seed,
        opts.tenants,
        opts.threads,
        opts.vocabulary.len()
    );

    let report = schedmc::fuzz::fuzz(&opts);
    eprintln!(
        "schedmc: fuzz {} execs in {:?} ({} corpus, {} pairs, {} buckets, {} new-coverage events, {} crash states)",
        report.execs,
        report.elapsed,
        report.corpus,
        report.coverage_pairs.len(),
        report.point_buckets.len(),
        report.new_coverage_events,
        report.crash_states_checked,
    );
    for (name, st) in &report.invariants {
        eprintln!(
            "schedmc:   invariant {name}: {} ({} clean runs, {} violations)",
            st.status.name(),
            st.clean_runs,
            st.violations
        );
    }

    // Baseline: the exhaustive bound-2 pair sweep, crash oracle on, capped
    // to the wall clock the fuzz campaign just spent — the apples-to-apples
    // comparison the acceptance criteria pin (both sides report distinct
    // `(inject point, crash fingerprint)` pairs).
    let mut base_opts = ExploreOpts::quick();
    base_opts.budget = Some(report.elapsed);
    let baseline = schedmc::explore_vocabulary(&base_opts);
    eprintln!(
        "schedmc: baseline bound-2 pair sweep on the same budget: {} schedules, {} pairs{}",
        baseline.schedules,
        baseline.coverage_pairs.len(),
        if baseline.truncated {
            " (truncated by budget)"
        } else {
            ""
        }
    );

    if let Err(e) = obs::report().write_json_ext(
        "fuzz",
        &[
            ("fuzz", report.to_json()),
            (
                "baseline",
                serde_json::json!({
                    "coverage_pairs": baseline.coverage_pairs.len(),
                    "schedules": baseline.schedules,
                    "crash_states_checked": baseline.crash_states_checked,
                    "budget_ms": report.elapsed.as_millis() as u64,
                    "truncated": baseline.truncated,
                }),
            ),
        ],
    ) {
        eprintln!("schedmc: failed to write obs json: {e}");
    }

    let mut bad = false;
    if !report.is_clean() {
        bad = true;
        eprintln!("schedmc: fuzz found {} failure(s):", report.failures.len());
        for f in report.failures.iter().take(2) {
            eprintln!(
                "  [{}] seed={:#x} {}",
                f.kind.name(),
                f.seed,
                f.detail.replace('\n', "\n    ")
            );
            let (min_prog, min_sched) =
                schedmc::fuzz::minimize(&f.program, f.seed, f.kind, &opts);
            eprintln!(
                "  minimized to {} ops (from {}), pinned schedule {:?}",
                min_prog.len(),
                f.program.len(),
                min_sched
            );
            let pinned = schedmc::fuzz::FuzzFailure {
                kind: f.kind,
                detail: f.detail.clone(),
                program: min_prog,
                schedule: min_sched,
                seed: f.seed,
            };
            eprintln!("  replay: {}", pinned.replay_snippet());
        }
    }
    if report.new_coverage_events == 0 {
        bad = true;
        eprintln!("schedmc: FAIL — fuzz campaign produced zero new-coverage events");
    }
    if report.coverage_pairs.len() <= baseline.coverage_pairs.len() {
        bad = true;
        eprintln!(
            "schedmc: FAIL — fuzz coverage ({} pairs) did not beat the bound-2 sweep ({} pairs) on the same budget",
            report.coverage_pairs.len(),
            baseline.coverage_pairs.len()
        );
    }
    if report.invariants_with(InvariantStatus::Promoted).is_empty() {
        // Not fatal: a very short custom campaign may not reach the
        // promotion threshold. The CI smoke uses defaults that do.
        eprintln!("schedmc: note — no invariant reached promotion");
    }
    if bad {
        std::process::exit(1);
    }
    eprintln!("schedmc: fuzz campaign clean, coverage beat the exhaustive baseline");
}
