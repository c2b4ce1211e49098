//! Keeps the machine's second CPU awake while the benchmark runs on one.
//!
//! On the 2-CPU virtual machines this runs on, the host places both
//! virtual CPUs on one core while only one of them is busy, and takes one
//! to two seconds of sustained two-thread load to spread them again. A
//! two-thread phase that follows a single-thread phase would then run at
//! the speed of one CPU, or of two, depending on what ran before it. A
//! thread that spins whenever the benchmark itself uses a single thread
//! keeps both CPUs busy from start to end, so every phase sees the same
//! machine. It touches no memory but its own flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[derive(Debug, Default)]
struct Flags {
    paused: AtomicBool,
    stop: AtomicBool,
}

/// The spinning thread; stops when dropped.
#[derive(Debug)]
pub struct KeepWarm {
    flags: Arc<Flags>,
    thread: Option<JoinHandle<()>>,
}

impl KeepWarm {
    pub fn start() -> KeepWarm {
        let flags = Arc::new(Flags::default());
        let seen = flags.clone();
        let thread = std::thread::spawn(move || {
            // `paused` and `stop` publish nothing but themselves.
            while !seen.stop.load(Ordering::Relaxed) {
                if seen.paused.load(Ordering::Relaxed) {
                    std::thread::park();
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        KeepWarm {
            flags,
            thread: Some(thread),
        }
    }

    /// Yield the CPU: the benchmark is about to use both itself.
    pub fn pause(&self) {
        self.flags.paused.store(true, Ordering::Relaxed);
    }

    /// Spin again: the benchmark is back to one thread.
    pub fn resume(&self) {
        self.flags.paused.store(false, Ordering::Relaxed);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        self.flags.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            // the spinner cannot panic; nothing to report from a join error
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauses_resumes_and_stops() {
        let w = KeepWarm::start();
        w.pause();
        w.resume();
        w.pause();
        drop(w); // must not hang while paused
    }
}
