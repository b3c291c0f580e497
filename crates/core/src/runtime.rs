//! The per-engine execution runtime: one lazily-spawned, long-lived
//! [`ThreadPool`] shared by every session of an engine.
//!
//! The pool is spawned on the first session that needs it, handed out as
//! an `Arc` to every subsequent session, and joined when the last owner
//! (normally the engine) drops it — so a high-QPS serving layer pays
//! thread spawn/join once per engine, not once per query.
//!
//! Sharing is safe because the drivers' work units are self-contained:
//! each job owns `Arc`s of its query context, cancellation token, and
//! reorder buffer, so jobs of different sessions interleave freely on the
//! same workers. A session abandoned mid-run fires its token; its queued
//! jobs then exit at their first token check instead of burning shared
//! CPU. Worker threads survive panicking user code (the pool catches the
//! unwind), so one bad mapping function cannot degrade the pool for every
//! other query of the engine.

use crate::driver::{SpawnError, TaskSpawner};
use crate::pool::{PoolClosed, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// A long-lived, lazily-spawned [`ThreadPool`] shared across all sessions
/// of one engine. Cheap to construct: no threads exist until
/// [`handle`](Self::handle) is first called.
#[derive(Debug)]
pub struct EngineRuntime {
    /// Target worker count for the pool (clamped to ≥ 1).
    threads: usize,
    /// The shared pool, `None` until first use or after [`shutdown`](Self::shutdown).
    pool: Mutex<Option<Arc<ThreadPool>>>,
    /// How many times this runtime spawned a pool (1 after any number of
    /// sessions, unless `shutdown` forced a respawn).
    spawns: AtomicUsize,
}

impl EngineRuntime {
    /// A runtime that will lazily spawn a pool of `threads` workers
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pool: Mutex::new(None),
            spawns: AtomicUsize::new(0),
        }
    }

    /// The worker count the pool has (or will have once spawned).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A shared handle to the pool, spawning it on first use. Sessions
    /// hold the returned `Arc` for their lifetime, so the pool stays alive
    /// while any session still runs even if the engine itself is dropped.
    pub fn handle(&self) -> Arc<ThreadPool> {
        let mut slot = self.pool.lock().expect("engine runtime poisoned");
        match slot.as_ref() {
            Some(pool) => Arc::clone(pool),
            None => {
                let pool = Arc::new(ThreadPool::new(self.threads));
                self.spawns.fetch_add(1, Ordering::Relaxed);
                *slot = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// Times this runtime spawned a pool. Stays at 1 across any number of
    /// sessions — the whole point of the shared runtime.
    pub fn pools_spawned(&self) -> usize {
        self.spawns.load(Ordering::Relaxed)
    }

    /// Whether the pool is currently spawned.
    pub fn is_running(&self) -> bool {
        self.pool.lock().expect("engine runtime poisoned").is_some()
    }

    /// A non-owning watch on the spawned pool (`None` before first use or
    /// after [`shutdown`](Self::shutdown)). Lets callers observe shutdown
    /// without keeping the pool alive: once the runtime and every session
    /// drop their handles, `upgrade()` returns `None` — proof the workers
    /// were joined.
    pub fn pool_watch(&self) -> Option<Weak<ThreadPool>> {
        self.pool
            .lock()
            .expect("engine runtime poisoned")
            .as_ref()
            .map(Arc::downgrade)
    }

    /// Closes and releases the runtime's pool. The pool is closed first
    /// ([`ThreadPool::close`]), so a live session racing this call gets a
    /// typed [`SpawnError`] from its next dispatch and cancels cleanly
    /// (`ExecStats::cancelled`) instead of deadlocking its committer on a
    /// job that would never run; jobs accepted before the close still
    /// complete. Workers are joined as soon as the last session handle
    /// drops (immediately, when no session is running). The next
    /// [`handle`](Self::handle) call respawns a fresh pool. Dropping the
    /// runtime skips the close (sessions keep the pool usable via their
    /// own `Arc`s) — only an explicit `shutdown` revokes admission.
    pub fn shutdown(&self) {
        let taken = self.pool.lock().expect("engine runtime poisoned").take();
        if let Some(pool) = taken {
            pool.close();
        }
    }
}

impl TaskSpawner for ThreadPool {
    fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
        self.execute(job).map_err(|PoolClosed| SpawnError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn pool_spawns_lazily_and_once() {
        let rt = EngineRuntime::new(2);
        assert!(!rt.is_running());
        assert_eq!(rt.pools_spawned(), 0);
        let a = rt.handle();
        let b = rt.handle();
        assert!(Arc::ptr_eq(&a, &b), "handles must share one pool");
        assert_eq!(rt.pools_spawned(), 1);
        assert!(rt.is_running());
        assert_eq!(a.threads(), 2);
    }

    #[test]
    fn dropping_runtime_and_handles_joins_the_pool() {
        let rt = EngineRuntime::new(1);
        let handle = rt.handle();
        let watch = rt.pool_watch().expect("spawned");
        let (tx, rx) = mpsc::channel();
        handle
            .spawn_task(Box::new(move || {
                let _ = tx.send(1);
            }))
            .expect("pool open");
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        drop(handle);
        drop(rt);
        assert!(
            watch.upgrade().is_none(),
            "pool must shut down with its last owner"
        );
    }

    #[test]
    fn shutdown_allows_respawn() {
        let rt = EngineRuntime::new(1);
        let watch = {
            let _h = rt.handle();
            rt.pool_watch().expect("spawned")
        };
        rt.shutdown();
        assert!(!rt.is_running());
        assert!(watch.upgrade().is_none(), "no session ⇒ joined immediately");
        let _h = rt.handle();
        assert_eq!(rt.pools_spawned(), 2, "respawn after explicit shutdown");
    }

    #[test]
    fn zero_threads_clamps() {
        let rt = EngineRuntime::new(0);
        assert_eq!(rt.threads(), 1);
    }
}
