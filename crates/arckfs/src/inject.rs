//! Deterministic schedule points.
//!
//! The paper reproduces each concurrency bug by inserting a `sleep()` at a
//! specific program point (§4.2–§4.6: "for better reproducibility, we
//! insert a sleep()"). This module provides the deterministic equivalent:
//! the LibFS calls [`point`] at each named bug site (a no-op unless armed),
//! and a test [`arm`]s the point, waits until the victim thread parks on
//! it, performs the racing operation, and then [`Gate::release`]s the
//! victim.
//!
//! # Scope
//!
//! A LibFS fires its points through [`point_on`] with the device it runs
//! on; points with no file system at hand (delegation workers, the pmem
//! allocator, the cooperative-wait points) fire through [`point`]. A gate
//! armed with [`arm_on`] catches only its device's arrivals, so two tests
//! that each format their own device can arm the same name at once without
//! parking each other's threads. A gate armed with [`arm`] is process-wide:
//! it catches every arrival of its name, scoped or not, and takes
//! precedence over a scoped gate of the same name. Arming a `(name, scope)`
//! pair that is already armed panics, so a collision fails loudly instead
//! of silently releasing the other gate's victims.
//!
//! # Gate lifecycle (RAII)
//!
//! [`arm`] returns a [`Gate`] guard; **all** disarming runs in its `Drop`:
//! the armed count drops, parked victims are woken, and the registry entry
//! is reclaimed. Because `Drop` also runs during unwinding, a test that
//! panics while its gate is armed — even with victim threads parked on the
//! point — cannot leave `ARMED` elevated or strand the victims: they are
//! released mid-unwind and the next `point()` call is a no-op again. The
//! drain-wait is bounded ([`DRAIN_TIMEOUT`]) so a victim wedged on some
//! *other* resource can delay teardown only briefly, not hang the whole
//! suite; the registry entry is kept in that case so stragglers still
//! unpark cleanly.
//!
//! # Programmatic controller (schedule exploration)
//!
//! Gates are an all-or-nothing instrument: arming one name parks *every*
//! arrival and releasing wakes them all, which is exactly one hand-scripted
//! interleaving. The [`Controller`] is the generalization a systematic
//! explorer needs: threads spawned through [`Controller::spawn`] become
//! *participants* (tracked through a thread-local, so unrelated threads and
//! gate-based tests are unaffected), and **every** `point()` a participant
//! reaches — regardless of name, armed or not — parks it until the
//! controller grants it the run token with [`Controller::step`]. Between
//! grants the controller observes a quiesced system
//! ([`Controller::quiesce`]), enumerates which participants are parked at
//! which points, and records the granted sequence as the executed trace
//! ([`Controller::trace`]). A granted participant that blocks on a lock
//! held by a *parked* participant is classified [`ThreadStatus::Blocked`]
//! after a grace period and rejoins the schedulable set at its next point;
//! dropping the controller releases everyone to run free, so a panicking
//! explorer cannot strand its victims.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pmem::PmemDevice;

/// Number of currently armed gates; lets [`point`] return with a single
/// relaxed load on the (overwhelmingly common) unarmed fast path, so the
/// instrumentation costs nothing in benchmarks.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Scope of a process-wide gate and of an arrival with no device.
const UNSCOPED: usize = 0;

/// A gate's registry key: the point name and the scope it catches — the
/// device's address, or [`UNSCOPED`]. A scoped [`Gate`] holds its device,
/// so the address cannot be reused while the gate is armed.
type GateKey = (String, usize);

fn scope_of(device: &PmemDevice) -> usize {
    device as *const PmemDevice as usize
}

#[derive(Default)]
struct GateState {
    armed: bool,
    /// Threads currently parked on the point.
    parked: usize,
    /// Total times the point has been reached while armed.
    reached: u64,
}

struct Registry {
    gates: Mutex<HashMap<GateKey, GateState>>,
    cv: Condvar,
}

/// Route pmem-internal schedule points (the `alloc.shard.*` sites inside
/// the sharded allocator) into this registry, so gates and the controller
/// can schedule allocator internals exactly like LibFS-level points. The
/// hook slot in pmem is a `OnceLock`, so repeated installs are no-ops; it
/// is installed lazily from [`arm`] and [`Controller::new`] (never from
/// `point`, which must stay a single relaxed load when unarmed).
fn install_pmem_hook() {
    fn forward(name: &'static str) {
        point(name);
    }
    pmem::set_schedule_hook(forward);
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        gates: Mutex::new(HashMap::new()),
        cv: Condvar::new(),
    })
}

/// A schedule point site with no device at hand; returns immediately
/// unless a test armed this name with [`arm`], in which case the calling
/// thread parks until the test releases it.
#[inline]
pub fn point(name: &str) {
    if ARMED.load(Ordering::Relaxed) != 0 {
        park_at(name, UNSCOPED);
    }
}

/// A schedule point site of a LibFS running on `device`. Called by LibFS
/// code at each bug site; returns immediately unless a test armed this
/// name with [`arm`], or with [`arm_on`] for this device, in which case the
/// calling thread parks until the test releases it.
#[inline]
pub fn point_on(device: &PmemDevice, name: &str) {
    if ARMED.load(Ordering::Relaxed) != 0 {
        park_at(name, scope_of(device));
    }
}

/// The armed slow path of [`point`] and [`point_on`].
#[cold]
fn park_at(name: &str, scope: usize) {
    // Participants of a live controller yield to it instead of the gate
    // registry: the explorer owns their schedule for every point name.
    if ctl_yield(name) {
        return;
    }
    let reg = registry();
    let mut gates = reg.gates.lock();
    let armed = |gates: &HashMap<GateKey, GateState>, key: &GateKey| {
        gates.get(key).map(|g| g.armed).unwrap_or(false)
    };
    let Some(key) = [UNSCOPED, scope]
        .into_iter()
        .map(|s| (name.to_string(), s))
        .find(|key| armed(&gates, key))
    else {
        return;
    };
    if let Some(g) = gates.get_mut(&key) {
        g.reached += 1;
        g.parked += 1;
    }
    reg.cv.notify_all();
    while armed(&gates, &key) {
        reg.cv.wait(&mut gates);
    }
    if let Some(g) = gates.get_mut(&key) {
        g.parked -= 1;
    }
    reg.cv.notify_all();
}

/// Handle for an armed schedule point. Dropping it disarms the point and
/// releases every parked thread, so a panicking test cannot wedge others.
#[must_use = "dropping the gate immediately disarms the point"]
pub struct Gate {
    key: GateKey,
    /// The device a scoped gate catches, held so its address stays unique.
    _device: Option<Arc<PmemDevice>>,
}

/// How long a dropped [`Gate`] waits for parked victims to drain before
/// giving up (the entry is retained so stragglers still unpark).
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Arm the named point process-wide: subsequent [`point`] and
/// [`point_on`] calls with this name park until released.
///
/// # Panics
///
/// If `name` is already armed process-wide — two live gates on one key
/// would let the first drop silently release the second's victims (and
/// leave `ARMED` elevated until the zombie gate finally drops), so the
/// collision is rejected up front.
pub fn arm(name: &str) -> Gate {
    arm_key((name.to_string(), UNSCOPED), None)
}

/// Arm the named point for one device: subsequent [`point_on`] calls with
/// this name from a LibFS on `device` park until released; other devices'
/// arrivals pass.
///
/// # Panics
///
/// If `name` is already armed for `device` (see [`arm`]).
pub fn arm_on(device: &Arc<PmemDevice>, name: &str) -> Gate {
    arm_key((name.to_string(), scope_of(device)), Some(device.clone()))
}

fn arm_key(key: GateKey, device: Option<Arc<PmemDevice>>) -> Gate {
    install_pmem_hook();
    let reg = registry();
    let mut gates = reg.gates.lock();
    let g = gates.entry(key.clone()).or_default();
    assert!(
        !g.armed,
        "schedule point '{}' is already armed in this scope — arm a test's \
         points on its own device (see module docs)",
        key.0
    );
    g.armed = true;
    g.reached = 0;
    ARMED.fetch_add(1, Ordering::SeqCst);
    Gate {
        key,
        _device: device,
    }
}

/// Whether the named point is currently armed in any scope (test
/// introspection).
pub fn is_armed(name: &str) -> bool {
    registry()
        .gates
        .lock()
        .iter()
        .any(|((n, _), g)| n == name && g.armed)
}

/// Names of every currently armed gate, in any scope (controller/test
/// introspection).
pub fn armed_points() -> Vec<String> {
    let mut names: Vec<String> = registry()
        .gates
        .lock()
        .iter()
        .filter(|(_, g)| g.armed)
        .map(|((n, _), _)| n.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Number of currently armed gates, i.e. the fast-path counter [`point`]
/// checks (test introspection).
pub fn armed_count() -> usize {
    ARMED.load(Ordering::SeqCst)
}

impl Gate {
    /// Block until at least one thread has parked on the point, or the
    /// timeout expires. Returns whether a thread is parked.
    pub fn wait_reached(&self, timeout: Duration) -> bool {
        let reg = registry();
        let deadline = Instant::now() + timeout;
        let mut gates = reg.gates.lock();
        loop {
            if gates.get(&self.key).map(|g| g.parked > 0).unwrap_or(false) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            reg.cv.wait_for(&mut gates, deadline - now);
        }
    }

    /// Release all parked threads and disarm the point.
    pub fn release(self) {
        // Work happens in Drop.
    }

    /// How many times the point has been reached since arming.
    pub fn reached_count(&self) -> u64 {
        registry()
            .gates
            .lock()
            .get(&self.key)
            .map(|g| g.reached)
            .unwrap_or(0)
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        ARMED.fetch_sub(1, Ordering::SeqCst);
        let reg = registry();
        let mut gates = reg.gates.lock();
        if let Some(g) = gates.get_mut(&self.key) {
            g.armed = false;
        }
        reg.cv.notify_all();
        // Wait (bounded) for parked threads to drain so the test observes
        // a clean state after release. The bound matters during a panic
        // unwind: a victim additionally wedged on some other resource must
        // not turn one failing test into a hung suite.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while gates.get(&self.key).map(|g| g.parked > 0).unwrap_or(false) {
            let now = Instant::now();
            if now >= deadline {
                eprintln!(
                    "inject: gate '{}' dropped but victims are still parked \
                     after {DRAIN_TIMEOUT:?}; leaving entry for stragglers",
                    self.key.0
                );
                return;
            }
            reg.cv.wait_for(&mut gates, deadline - now);
        }
        gates.remove(&self.key);
    }
}

// ---- programmatic controller (explorer-owned schedules) --------------------

/// The synthetic point every participant parks on before running its
/// operation, so the controller also owns the *start order*.
pub const OP_START: &str = "ctl.op.start";

/// Prefix shared by every cooperative-wait point ([`LOCK_WAIT`],
/// [`LEASE_WAIT`], [`RANGE_WAIT`]): a participant parked here holds
/// nothing new and is merely retrying an acquisition, so schedulers can
/// (and should) deprioritize re-granting it until another thread has run.
pub const WAIT_PREFIX: &str = "ctl.wait.";

/// Cooperative-wait point for a contended [`crate::sync`] mutex/rwlock.
pub const LOCK_WAIT: &str = "ctl.wait.lock";

/// Cooperative-wait point for a contended rename lease.
pub const LEASE_WAIT: &str = "ctl.wait.lease";

/// Cooperative-wait point for a contended byte-range acquisition.
pub const RANGE_WAIT: &str = "ctl.wait.range";

/// Whether the calling thread is a participant of a live [`Controller`].
/// Lock wrappers consult this to decide between OS-blocking (production)
/// and cooperative try-then-park acquisition (under a controller, where a
/// thread OS-blocked on a lock held by a *parked* participant would wake
/// mid-grant and race the granted thread's segment — the one hole in the
/// controller's otherwise one-thread-at-a-time execution model).
pub fn in_participant() -> bool {
    ARMED.load(Ordering::Relaxed) != 0 && PARTICIPANT.with(|p| p.borrow().is_some())
}

thread_local! {
    /// `(controller, tid)` of the participant running on this thread, set
    /// for the whole lifetime of a [`Controller::spawn`]ed closure.
    static PARTICIPANT: RefCell<Option<(Arc<CtlShared>, usize)>> =
        const { RefCell::new(None) };
}

/// Where a participant currently is, from the controller's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Spawned but not yet parked at [`OP_START`].
    Starting,
    /// Parked at the named schedule point, waiting for a grant.
    AtPoint(String),
    /// Holds the run token (or was just granted it).
    Running,
    /// Was granted the token but did not reach another point within the
    /// quiesce grace period — almost always blocked on a lock held by a
    /// *parked* participant. It rejoins the schedulable set at its next
    /// point (or finishes) on its own.
    Blocked,
    /// The operation closure returned (or panicked).
    Finished,
}

/// One granted segment of the executed schedule.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Participant index (spawn order).
    pub tid: usize,
    /// The label given to [`Controller::spawn`].
    pub label: String,
    /// The point the participant was parked at when granted.
    pub point: String,
}

struct CtlThread {
    label: String,
    status: ThreadStatus,
}

struct CtlInner {
    active: bool,
    threads: Vec<CtlThread>,
    granted: Option<usize>,
    trace: Vec<TraceEvent>,
}

struct CtlShared {
    m: Mutex<CtlInner>,
    cv: Condvar,
}

/// Handle to a participant thread spawned by [`Controller::spawn`].
pub struct OpHandle<T> {
    handle: std::thread::JoinHandle<std::thread::Result<T>>,
}

impl<T> OpHandle<T> {
    /// Join the participant; a panic inside the operation closure is
    /// reported as `Err` with the panic payload rendered to a string.
    pub fn join(self) -> Result<T, String> {
        match self.handle.join() {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(payload)) | Err(payload) => Err(panic_message(payload)),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "participant panicked".to_string()
    }
}

/// If the calling thread is a participant of a live controller, park at the
/// controller until granted and return `true` (the caller skips the gate
/// registry). Non-participants return `false` immediately.
fn ctl_yield(name: &str) -> bool {
    let part = PARTICIPANT.with(|p| p.borrow().clone());
    let Some((shared, tid)) = part else {
        return false;
    };
    let mut inner = shared.m.lock();
    if !inner.active {
        return true; // controller torn down: run free, still skip gates
    }
    inner.threads[tid].status = ThreadStatus::AtPoint(name.to_string());
    if inner.granted == Some(tid) {
        inner.granted = None;
    }
    shared.cv.notify_all();
    while inner.active && inner.granted != Some(tid) {
        shared.cv.wait(&mut inner);
    }
    inner.threads[tid].status = ThreadStatus::Running;
    true
}

/// An explorer-owned scheduler over participant threads. See the module
/// docs; `crates/schedmc` builds its bounded schedule enumeration on this.
///
/// Dropping the controller releases every parked participant to run free
/// (and restores the unarmed `point()` fast path once no other gates or
/// controllers are live).
pub struct Controller {
    shared: Arc<CtlShared>,
}

impl Default for Controller {
    fn default() -> Self {
        Controller::new()
    }
}

impl Controller {
    /// A fresh controller with no participants. Multiple controllers may
    /// coexist (participants are bound to theirs through the thread-local),
    /// so concurrently running exploration tests cannot collide.
    pub fn new() -> Controller {
        install_pmem_hook();
        ARMED.fetch_add(1, Ordering::SeqCst);
        Controller {
            shared: Arc::new(CtlShared {
                m: Mutex::new(CtlInner {
                    active: true,
                    threads: Vec::new(),
                    granted: None,
                    trace: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Spawn `f` as a participant. The thread immediately parks at
    /// [`OP_START`]; nothing of `f` runs until the controller grants it.
    /// Returns the participant's `tid` (spawn order) through the handle's
    /// position — tids are assigned 0, 1, 2, … in call order.
    pub fn spawn<T, F>(&self, label: &str, f: F) -> OpHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let shared = self.shared.clone();
        let tid = {
            let mut inner = self.shared.m.lock();
            inner.threads.push(CtlThread {
                label: label.to_string(),
                status: ThreadStatus::Starting,
            });
            inner.threads.len() - 1
        };
        let handle = std::thread::Builder::new()
            .name(format!("schedmc-{label}"))
            .spawn(move || {
                PARTICIPANT.with(|p| *p.borrow_mut() = Some((shared.clone(), tid)));
                // Pin every sharded-by-thread placement decision (kernel
                // allocator shard, LibFS pool slot, delegation home ring)
                // to the logical tid: `ThreadId`-hash placement varies with
                // how many threads the *process* spawned before this run,
                // which would make same-schedule replays diverge.
                pmem::set_thread_shard_hint(Some(tid));
                point(OP_START);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                PARTICIPANT.with(|p| *p.borrow_mut() = None);
                let mut inner = shared.m.lock();
                inner.threads[tid].status = ThreadStatus::Finished;
                if inner.granted == Some(tid) {
                    inner.granted = None;
                }
                shared.cv.notify_all();
                drop(inner);
                r
            })
            .expect("spawn schedule participant");
        OpHandle { handle }
    }

    /// Wait until no participant is running ([`ThreadStatus::Starting`] or
    /// [`ThreadStatus::Running`]), classifying any that remain busy past
    /// `grace` as [`ThreadStatus::Blocked`]. Returns the schedulable set:
    /// `(tid, point)` for every participant parked at a point, sorted by
    /// tid (deterministic enumeration order for the explorer).
    pub fn quiesce(&self, grace: Duration) -> Vec<(usize, String)> {
        let mut inner = self.shared.m.lock();
        let deadline = Instant::now() + grace;
        loop {
            // Blocked counts as busy too: a previously blocked thread whose
            // blocker just released may be mid-flight towards its next
            // point (or towards finishing), and returning before it settles
            // would race the schedulable-set snapshot. If it is still stuck
            // at the deadline it is (re-)classified Blocked and skipped.
            let busy = inner.threads.iter().any(|t| {
                matches!(
                    t.status,
                    ThreadStatus::Starting | ThreadStatus::Running | ThreadStatus::Blocked
                )
            });
            if !busy {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                let state = &mut *inner;
                for (i, t) in state.threads.iter_mut().enumerate() {
                    if matches!(t.status, ThreadStatus::Starting | ThreadStatus::Running) {
                        t.status = ThreadStatus::Blocked;
                        if state.granted == Some(i) {
                            state.granted = None;
                        }
                    }
                }
                break;
            }
            self.shared.cv.wait_for(&mut inner, deadline - now);
        }
        inner
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match &t.status {
                ThreadStatus::AtPoint(p) => Some((i, p.clone())),
                _ => None,
            })
            .collect()
    }

    /// Grant the run token to the participant parked at a point. Records
    /// the `(tid, label, point)` segment in the executed trace. Returns
    /// `false` (and grants nothing) if `tid` is not currently parked.
    pub fn step(&self, tid: usize) -> bool {
        let mut inner = self.shared.m.lock();
        let Some(t) = inner.threads.get(tid) else {
            return false;
        };
        let ThreadStatus::AtPoint(point) = t.status.clone() else {
            return false;
        };
        let label = t.label.clone();
        inner.trace.push(TraceEvent { tid, label, point });
        // Mark running *here* so an immediately following `quiesce` cannot
        // observe a stale parked status before the thread wakes.
        inner.threads[tid].status = ThreadStatus::Running;
        inner.granted = Some(tid);
        self.shared.cv.notify_all();
        true
    }

    /// Snapshot of every participant's `(label, status)`, indexed by tid.
    pub fn statuses(&self) -> Vec<(String, ThreadStatus)> {
        self.shared
            .m
            .lock()
            .threads
            .iter()
            .map(|t| (t.label.clone(), t.status.clone()))
            .collect()
    }

    /// True when every participant has finished.
    pub fn all_finished(&self) -> bool {
        self.shared
            .m
            .lock()
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Finished)
    }

    /// The executed trace so far: the sequence of granted segments.
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.shared.m.lock().trace.clone()
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.m.lock();
            inner.active = false;
            inner.granted = None;
            self.shared.cv.notify_all();
        }
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn unarmed_point_is_noop() {
        let t = Instant::now();
        point("inject.test.unarmed");
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn armed_point_parks_until_release() {
        let gate = arm("inject.test.park");
        let passed = Arc::new(AtomicBool::new(false));
        let p2 = passed.clone();
        let h = std::thread::spawn(move || {
            point("inject.test.park");
            p2.store(true, Ordering::SeqCst);
        });
        assert!(gate.wait_reached(Duration::from_secs(5)));
        assert!(!passed.load(Ordering::SeqCst), "thread must be parked");
        assert_eq!(gate.reached_count(), 1);
        gate.release();
        h.join().unwrap();
        assert!(passed.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_disarms() {
        {
            let _gate = arm("inject.test.drop");
        }
        // Point is disarmed now; must not park.
        let t = Instant::now();
        point("inject.test.drop");
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn wait_reached_times_out() {
        let gate = arm("inject.test.timeout");
        assert!(!gate.wait_reached(Duration::from_millis(20)));
        gate.release();
    }

    #[test]
    fn multiple_threads_park_and_release() {
        let gate = arm("inject.test.multi");
        let mut handles = Vec::new();
        for _ in 0..3 {
            handles.push(std::thread::spawn(|| point("inject.test.multi")));
        }
        assert!(gate.wait_reached(Duration::from_secs(5)));
        gate.release();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Regression: a test that panics while its gate is armed *and a
    /// victim is parked on the point* must not leak the armed state — the
    /// RAII guard's unwind releases the victim, restores the fast path
    /// and reclaims the entry.
    #[test]
    fn panicking_test_cannot_leak_an_armed_gate() {
        const NAME: &str = "inject.test.panic_unwind";
        let (tx, rx) = std::sync::mpsc::channel();
        let panicker = std::thread::spawn(move || {
            let gate = arm(NAME);
            tx.send(()).unwrap();
            assert!(gate.wait_reached(Duration::from_secs(5)), "victim parked");
            panic!("simulated test failure with a parked victim");
        });
        rx.recv().unwrap();
        let victim = std::thread::spawn(|| point(NAME));

        // The simulated test fails...
        assert!(panicker.join().is_err());
        // ...but its victim was released during the unwind,
        victim.join().expect("victim must be released, not stranded");
        // the point is disarmed,
        assert!(!is_armed(NAME));
        // and calling it again is a fast no-op.
        let t = Instant::now();
        point(NAME);
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    /// Regression: arming one name twice is a loud error, not a silent
    /// cross-release of the first gate's victims.
    #[test]
    fn double_arm_same_name_panics() {
        const NAME: &str = "inject.test.double_arm";
        let g1 = arm(NAME);
        let before = armed_count();
        let second = std::panic::catch_unwind(|| arm(NAME));
        assert!(second.is_err(), "second arm of one name must panic");
        // The failed arm changed nothing: still armed once, counter intact.
        assert!(is_armed(NAME));
        assert_eq!(armed_count(), before);
        g1.release();
        assert!(!is_armed(NAME));
    }

    /// Two devices arm one name at once; each gate parks only its own
    /// device's arrival, and neither catches an unscoped one.
    #[test]
    fn scoped_gates_catch_only_their_device() {
        const NAME: &str = "inject.test.scoped";
        let (dev_a, dev_b) = (PmemDevice::new(4096), PmemDevice::new(4096));
        let gate_a = arm_on(&dev_a, NAME);
        let gate_b = arm_on(&dev_b, NAME);

        let t = Instant::now();
        point(NAME);
        assert!(t.elapsed() < Duration::from_millis(50));

        let d = dev_a.clone();
        let victim = std::thread::spawn(move || point_on(&d, NAME));
        assert!(gate_a.wait_reached(Duration::from_secs(5)));
        assert!(!gate_b.wait_reached(Duration::from_millis(20)));
        assert_eq!(gate_b.reached_count(), 0);
        gate_a.release();
        victim.join().unwrap();
        gate_b.release();
        assert!(!is_armed(NAME));
    }

    const GRACE: Duration = Duration::from_millis(200);

    #[test]
    fn controller_serializes_participants() {
        let ctl = Controller::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let h1 = ctl.spawn("a", move || {
            o1.lock().push("a1");
            point("ctl.test.mid");
            o1.lock().push("a2");
        });
        let h2 = ctl.spawn("b", move || {
            o2.lock().push("b1");
        });
        // Both park at OP_START before anything runs.
        let runnable = ctl.quiesce(GRACE);
        assert_eq!(runnable.len(), 2);
        assert!(runnable.iter().all(|(_, p)| p == OP_START));
        assert!(order.lock().is_empty());

        // Schedule: a to its mid point, then b to completion, then a.
        assert!(ctl.step(0));
        let runnable = ctl.quiesce(GRACE);
        assert_eq!(runnable, vec![(0, "ctl.test.mid".to_string()), (1, OP_START.to_string())]);
        assert!(ctl.step(1));
        ctl.quiesce(GRACE);
        assert!(ctl.step(0));
        ctl.quiesce(GRACE);
        assert!(ctl.all_finished());

        let trace: Vec<(usize, String)> =
            ctl.trace().into_iter().map(|e| (e.tid, e.point)).collect();
        assert_eq!(
            trace,
            vec![
                (0, OP_START.to_string()),
                (1, OP_START.to_string()),
                (0, "ctl.test.mid".to_string()),
            ]
        );
        drop(ctl);
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(*order.lock(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn controller_drop_releases_participants() {
        let ctl = Controller::new();
        let h = ctl.spawn("free", || {
            point("ctl.test.never_granted");
            42
        });
        ctl.quiesce(GRACE);
        drop(ctl); // never granted anything: drop must set it free
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn controller_classifies_blocked_participants() {
        let ctl = Controller::new();
        let lock = Arc::new(Mutex::new(()));
        let l1 = lock.clone();
        let l2 = lock.clone();
        let h1 = ctl.spawn("holder", move || {
            let _g = l1.lock();
            point("ctl.test.in_lock"); // parks while holding the lock
        });
        let h2 = ctl.spawn("blocked", move || {
            let _g = l2.lock();
        });
        ctl.quiesce(GRACE);
        assert!(ctl.step(0)); // holder runs into the lock, parks inside it
        ctl.quiesce(GRACE);
        assert!(ctl.step(1)); // blocked runs into the held lock
        let runnable = ctl.quiesce(Duration::from_millis(100));
        // Only the holder is schedulable; the other is Blocked.
        assert_eq!(runnable.len(), 1);
        assert_eq!(runnable[0].0, 0);
        assert_eq!(ctl.statuses()[1].1, ThreadStatus::Blocked);
        assert!(ctl.step(0)); // holder finishes, lock drops, blocked resumes
        ctl.quiesce(GRACE);
        assert!(ctl.all_finished());
        drop(ctl);
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn controller_reports_participant_panic() {
        let ctl = Controller::new();
        let h = ctl.spawn("boom", || panic!("planted failure"));
        ctl.quiesce(GRACE);
        assert!(ctl.step(0));
        ctl.quiesce(GRACE);
        assert!(ctl.all_finished());
        drop(ctl);
        let err = h.join().unwrap_err();
        assert!(err.contains("planted failure"), "{err}");
    }

    #[test]
    fn non_participants_ignore_live_controllers() {
        let ctl = Controller::new(); // elevates ARMED
        let t = Instant::now();
        point("ctl.test.outsider"); // not a participant, not an armed gate
        assert!(t.elapsed() < Duration::from_millis(50));
        drop(ctl);
    }
}
