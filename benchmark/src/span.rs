//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (`workload > phase > vfs.K`); spans inside the program are a later
//! change. They stay in memory during a run and are written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `name` indexes the recorder's name table; `parent`
/// is the index of the span that caused this one; spans of one operation
/// share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one thread, in the order they were opened.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub names: Vec<String>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`, with room for `capacity`
    /// spans so that recording does not allocate.
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Index of `name` in the name table, adding it if new.
    pub fn name_id(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it is closed by [`Recorder::close`].
    #[inline]
    pub fn open(&mut self, name: u16, parent: u32, op: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        end - s.start_ns
    }
}

/// Total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans by name. A span's self time is its duration minus the part
/// of that interval its child spans cover; children of one parent on one
/// thread do not overlap, so that part is the sum of their durations.
pub fn fold_self_time(names: &[String], spans: &[Span]) -> BTreeMap<String, Folded> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, Folded> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let f = out.entry(names[s.name as usize].clone()).or_default();
        f.count += 1;
        f.total_ns += dur;
        f.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// At most this many spans per thread are written to the trace file; the
/// fold above always covers all of them.
pub const WRITE_LIMIT: usize = 20_000;

/// The trace of one thread as JSON: the name table, the first
/// [`WRITE_LIMIT`] spans as `[name, parent, op, start_ns, end_ns]` rows,
/// and how many were recorded in all.
pub fn to_json(thread: usize, rec: &Recorder) -> Value {
    let rows: Vec<Value> = rec
        .spans
        .iter()
        .take(WRITE_LIMIT)
        .map(|s| {
            let parent = if s.parent == NO_PARENT {
                Value::Null
            } else {
                json!(s.parent)
            };
            json!([s.name, parent, s.op, s.start_ns, s.end_ns])
        })
        .collect();
    json!({
        "thread": thread,
        "names": rec.names.clone(),
        "columns": ["name", "parent", "op", "start_ns", "end_ns"],
        "recorded": rec.spans.len(),
        "written": rows.len(),
        "spans": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let names = vec!["workload".to_string(), "phase".into(), "vfs.create".into()];
        let spans = vec![
            span(0, NO_PARENT, 0, 1000),
            span(1, 0, 100, 900),
            span(2, 1, 200, 300),
            span(2, 1, 400, 650),
        ];
        let f = fold_self_time(&names, &spans);
        assert_eq!(
            f["workload"],
            Folded {
                count: 1,
                total_ns: 1000,
                self_ns: 200
            }
        );
        assert_eq!(
            f["phase"],
            Folded {
                count: 1,
                total_ns: 800,
                self_ns: 450
            }
        );
        assert_eq!(
            f["vfs.create"],
            Folded {
                count: 2,
                total_ns: 350,
                self_ns: 350
            }
        );
        // every nanosecond of the root is attributed exactly once
        let total_self: u64 = f.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 1000);
    }

    #[test]
    fn recorder_links_parent_and_op() {
        let mut r = Recorder::new(Instant::now(), 4);
        let w = r.name_id("workload");
        let k = r.name_id("vfs.open");
        assert_eq!(r.name_id("workload"), w);
        let root = r.open(w, NO_PARENT, 0);
        let child = r.open(k, root, 7);
        r.close(child);
        r.close(root);
        assert_eq!(r.spans[child as usize].parent, root);
        assert_eq!(r.spans[child as usize].op, 7);
        assert!(r.spans[root as usize].end_ns >= r.spans[child as usize].end_ns);
        let j = to_json(0, &r);
        assert_eq!(j.get("recorded").and_then(Value::as_u64), Some(2));
    }
}
