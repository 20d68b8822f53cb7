//! Scoped thread-pool fan-out for independent experiment cells.
//!
//! Every figure/table of the harness is a grid of *independent* simulation
//! runs (algorithm × bandwidth × trace variant). This module runs such a
//! grid on `std::thread::scope` workers pulling cells from a shared atomic
//! index — no external dependencies, deterministic output order (results
//! come back in input order regardless of which worker ran which cell, and
//! the simulations themselves are seeded and single-threaded).
//!
//! The worker count defaults to the machine's available parallelism, capped
//! by the number of cells; set `SWALLOW_THREADS=1` to force the old
//! sequential behaviour (or any other count to bound CPU usage). The
//! engine itself is single-threaded and does not read it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers for a grid of `items` cells: the `SWALLOW_THREADS`
/// environment override if set and positive, else the machine's available
/// parallelism. Never more than the number of cells, and never more than
/// the available parallelism — an oversized override cannot oversubscribe
/// the machine.
pub fn worker_count(items: usize) -> usize {
    let configured = std::env::var("SWALLOW_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    configured.unwrap_or(hw).min(hw).min(items.max(1))
}

/// Apply `f` to every item on a scoped worker pool and return the results
/// in input order. Falls back to a plain sequential map when only one
/// worker is available (or `SWALLOW_THREADS=1`). A panic in any cell
/// propagates once all workers have stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Cells are claimed via the shared index; the per-slot mutexes are
    // uncontended (each index is touched by exactly one worker).
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = cells[i]
                    .lock()
                    .expect("cell lock poisoned")
                    .take()
                    .expect("cell claimed twice");
                let r = f(item);
                *out[i].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("worker skipped a cell")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_item_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_map_on_uneven_work() {
        // Cells with wildly different costs still land in their own slots.
        let items: Vec<usize> = (0..33).collect();
        let out = parallel_map(items, |x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i as u64);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i, *x);
        }
    }

    #[test]
    fn worker_count_respects_item_cap() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1024) >= 1);
    }

    #[test]
    fn worker_count_honors_env_and_hardware_caps() {
        // Env vars are process-global, but the sibling tests only *use*
        // worker counts (any count is correct for them), so a transient
        // override here cannot make them fail.
        std::env::set_var("SWALLOW_THREADS", "1");
        assert_eq!(worker_count(64), 1);
        // An oversized override is capped by the available parallelism.
        std::env::set_var("SWALLOW_THREADS", "999999");
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(worker_count(1 << 20), hw);
        std::env::remove_var("SWALLOW_THREADS");
    }
}
