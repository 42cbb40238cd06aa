//! A deterministic scoped worker pool (`par_map`) shared by every
//! parallel consumer in the workspace.
//!
//! Introduced for the benchmark sweep runner (each sweep point is an
//! independent seeded simulation), it is equally the fan-out primitive
//! for the ALS service engine's per-shard batch application: callers
//! hand over a slice of independent work items and get results back **in
//! input order**, so parallelism can never reorder anything observable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// results **in input order** regardless of completion order.
///
/// Workers claim indices from a shared atomic counter and write into
/// per-slot cells, so the output is a deterministic function of the input
/// whenever `f` itself is (each work item is independent — nothing about
/// scheduling can leak into the results).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1usize, 2, 4, 7] {
            let out = par_map(&items, jobs, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u8], 4, |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[9u8], 4, |&x| x + 1), vec![10]);
    }
}
