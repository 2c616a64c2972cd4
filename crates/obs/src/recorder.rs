//! Run-scoped observability state and the per-thread handle that
//! selects it (see the crate docs, "Recorders").

use crate::alert::AlertState;
use crate::registry::Metric;
use crate::series::Series;
use crate::trace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// Metrics, series, trace journal and alert pipeline of one run.
pub struct Recorder {
    pub(crate) metrics_on: AtomicBool,
    /// Where [`crate::flush`] writes the snapshot (`NWDP_METRICS`).
    pub(crate) metrics_out: Mutex<Option<PathBuf>>,
    pub(crate) metrics: Mutex<BTreeMap<String, Metric>>,
    pub(crate) series: Mutex<BTreeMap<String, Arc<Series>>>,
    pub(crate) trace_gate: AtomicU8,
    pub(crate) trace_writer: Mutex<Option<Box<dyn Write + Send>>>,
    pub(crate) alerts: AlertState,
}

impl Recorder {
    /// A recorder with metrics, tracing and alerts off; reads no
    /// environment. Install it with [`scoped`].
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::with_trace_gate(trace::OFF))
    }

    fn with_trace_gate(gate: u8) -> Recorder {
        Recorder {
            metrics_on: AtomicBool::new(false),
            metrics_out: Mutex::new(None),
            metrics: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
            trace_gate: AtomicU8::new(gate),
            trace_writer: Mutex::new(None),
            alerts: AlertState::default(),
        }
    }
}

static DEFAULT: LazyLock<Arc<Recorder>> =
    LazyLock::new(|| Arc::new(Recorder::with_trace_gate(trace::FROM_ENV)));

thread_local! {
    /// The recorder [`scoped`] installed on this thread (`None`: the
    /// process default).
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Run `f` against the current recorder without cloning its handle.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    let mut f = Some(f);
    let out =
        CURRENT.try_with(|cur| f.take().map(|f| f(cur.borrow().as_deref().unwrap_or(&DEFAULT))));
    match (out, f) {
        (Ok(Some(r)), _) => r,
        // Thread-local teardown (a buffer draining as its thread exits):
        // no scope is active any more.
        (_, Some(f)) => f(&DEFAULT),
        (_, None) => unreachable!("the closure ran and returned"),
    }
}

/// The recorder this thread records into. Hand it to [`scoped`] on
/// another thread to make that thread record into it too.
pub fn current() -> Arc<Recorder> {
    CURRENT.with(|cur| cur.borrow().clone()).unwrap_or_else(|| Arc::clone(&DEFAULT))
}

/// Run `f` with `rec` as this thread's current recorder, then restore the
/// previous one, also on panic. Records still buffered on this thread are
/// handed over at both edges, so each lands in the recorder that was
/// current when it was emitted.
pub fn scoped<R>(rec: &Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            drain_thread_buffers();
            let _ = CURRENT.try_with(|cur| *cur.borrow_mut() = self.0.take());
        }
    }
    drain_thread_buffers();
    let _restore = Restore(CURRENT.with(|cur| cur.replace(Some(Arc::clone(rec)))));
    f()
}

fn drain_thread_buffers() {
    crate::alert::drain_local();
    crate::trace::flush_trace();
}

/// Lock a mutex, recovering the data if a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
