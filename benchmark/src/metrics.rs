//! The metrics of the benchmark by name, unit and direction, and for the
//! end-to-end ones the bound by which they may worsen. `BENCHMARK.json` at
//! the root of the repository repeats this table; a test keeps them equal.

use crate::exec::Vfs;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The 15 end-to-end metrics. Every run reports all of them; README says
/// which section of the run each comes from, per workload.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("mib_per_s", "MiB/s", Better::Higher, 0.10),
    e2e("op_p50_ns", "ns", Better::Lower, 0.08),
    e2e("op_p99_ns", "ns", Better::Lower, 0.20),
    e2e("create_p50_ns", "ns", Better::Lower, 0.08),
    e2e("open_p50_ns", "ns", Better::Lower, 0.25),
    e2e("unlink_p50_ns", "ns", Better::Lower, 0.08),
    e2e("rename_p50_ns", "ns", Better::Lower, 0.08),
    e2e("read4k_p50_ns", "ns", Better::Lower, 0.08),
    e2e("write4k_p50_ns", "ns", Better::Lower, 0.12),
    e2e("append_fsync_p50_ns", "ns", Better::Lower, 0.08),
    e2e("handoff_p50_ns", "ns", Better::Lower, 0.08),
    e2e("scaling_2t", "ratio", Better::Higher, 0.12),
    e2e("remount_ms", "ms", Better::Lower, 0.20),
];

/// A per-layer metric. The layer is the part of the name before the first
/// dot: a crate of the repository.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The 92 per-layer metrics, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = Vec::with_capacity(92);
    let mut put = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    use Better::{Higher, Lower};
    for k in Vfs::REPORTED {
        put(&format!("vfs.{}.p50_ns", k.name()), "ns", Lower);
        put(&format!("vfs.{}.sw_p50_ns", k.name()), "ns", Lower);
    }
    put("vfs.ops_failed", "count", Lower);
    put("vfs.trace_overhead_pct", "%", Lower);
    for c in [
        "loads",
        "stores",
        "ntstores",
        "clwb",
        "sfence",
        "bytes_read",
        "bytes_written",
    ] {
        put(&format!("pmem.{c}_per_op"), "1/op", Lower);
    }
    put("pmem.write_amp", "ratio", Lower);
    put("pmem.charged_ns_per_op", "ns/op", Lower);
    for p in [
        "map_read_u64_ns",
        "map_write_u64_ns",
        "map_read_u64_2t_ns",
        "dev_read_4k_ns",
        "dev_write_4k_ns",
        "dev_ntstore_4k_ns",
        "clwb_ns",
        "sfence_ns",
        "persist_64b_ns",
        "alloc_page_ns",
    ] {
        put(&format!("pmem.{p}"), "ns", Lower);
    }
    put("trio.syscalls_per_op", "1/op", Lower);
    for c in ["acquires", "releases", "commits", "verifications"] {
        put(&format!("trio.{c}_per_kop"), "1/kop", Lower);
    }
    put("trio.trust_skips_per_kop", "1/kop", Higher);
    put("trio.verify_failures", "count", Lower);
    for p in [
        "grant_pages_ns",
        "grant_inodes_ns",
        "acquire_dir100_ns",
        "release_dir100_ns",
        "acquire_dir1000_ns",
        "release_dir1000_ns",
        "release_file16m_ns",
        "commit_dir100_ns",
    ] {
        put(&format!("trio.{p}"), "ns", Lower);
    }
    put("trio.recover_ms", "ms", Lower);
    put("trio.fsck_ms", "ms", Lower);
    put("arckfs.libfs.mount_ms", "ms", Lower);
    put("arckfs.libfs.unmount_ms", "ms", Lower);
    for p in [
        "release_path_p50_ns",
        "handoff_dir1000_p50_ns",
        "handoff_file16m_p50_ns",
        "trust_create_p50_ns",
        "rebuild_est_ns",
    ] {
        put(&format!("arckfs.libfs.{p}"), "ns", Lower);
    }
    put("arckfs.dcache.hit_rate", "ratio", Higher);
    put("arckfs.dir.lock_acqs_per_op", "1/op", Lower);
    put("arckfs.range_lock.acqs_per_op", "1/op", Lower);
    put("arckfs.range_lock.acquire_ns", "ns", Lower);
    put("arckfs.pool.refills_per_kop", "1/kop", Lower);
    put("arckfs.pool.steals_per_kop", "1/kop", Lower);
    put("arckfs.pool.take_put_ns", "ns", Lower);
    put("arckfs.delegate.bytes_share", "ratio", Higher);
    put("arckfs.delegate.submit_wait_1m_ns", "ns", Lower);
    put("arckfs.extent.inserts_per_kop", "1/kop", Lower);
    put("arckfs.file.cow_copies_per_kop", "1/kop", Lower);
    put("arckfs.batch.batched_share", "ratio", Higher);
    for p in [
        "read_guard_ns",
        "read_guard_2t_ns",
        "synchronize_ns",
        "defer_collect_ns",
    ] {
        put(&format!("rcu.{p}"), "ns", Lower);
    }
    put("obs.disabled_span_ns", "ns", Lower);
    put("obs.enabled_span_ns", "ns", Lower);
    put("obs.enabled_overhead_pct", "%", Lower);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;
    use serde_json::Value;

    #[test]
    fn there_are_15_and_92_metrics_with_unique_names() {
        let layer = per_layer();
        assert_eq!(END_TO_END.len(), 15);
        assert_eq!(layer.len(), 92);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layer.iter().map(|m| m.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let layers = ["vfs", "pmem", "trio", "arckfs", "rcu", "obs"];
        for m in &layer {
            let l = m.name.split('.').next().unwrap();
            assert!(layers.contains(&l), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports. They must say the same.
    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).clone();
        let s = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(theirs, "name"), ours.name);
            assert_eq!(s(theirs, "unit"), ours.unit);
            assert_eq!(s(theirs, "better"), ours.better.as_str());
            let bound = theirs.get("bound").and_then(Value::as_f64).expect("bound");
            assert!((bound - ours.bound).abs() < 1e-12, "{}", ours.name);
            assert!(bound <= 0.25);
        }
        let layer = list("per_layer");
        let ours = per_layer();
        assert_eq!(layer.len(), ours.len());
        for (theirs, ours) in layer.iter().zip(&ours) {
            assert_eq!(s(theirs, "name"), ours.name);
            assert_eq!(s(theirs, "unit"), ours.unit);
            assert_eq!(s(theirs, "better"), ours.better.as_str());
        }
        assert_eq!(list("paths").len(), 1);
    }
}
