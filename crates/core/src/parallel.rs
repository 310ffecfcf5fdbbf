//! Scoped worker threads for independent units of work.
//!
//! [`parallel_map`] is the one fan-out helper in the optimizer: plan
//! building and the exploration driver's memo misses both run through it.
//! Its threads are scoped, so a closure may borrow the caller's state (the
//! plan context, the device, the topology) and nothing is cloned or boxed
//! per item. Each unit of work is self-contained, so fanning it out
//! changes wall-clock time only, never results: results come back in item
//! order, and the driver commits them to the update tree and profile
//! index in candidate order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means one worker per available
/// CPU core (falling back to 1 if the parallelism query fails), any other
/// value is taken as-is.
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Applies `f` to every item on `workers` scoped threads and returns the
/// results in item order.
///
/// Work is distributed dynamically (an atomic next-item counter), so
/// uneven per-item cost does not idle workers. With `workers <= 1` or
/// fewer than two items, everything runs on the caller's thread — that
/// path is byte-for-byte the sequential loop.
///
/// # Panics
///
/// Propagates a panic from `f` to the caller with its original payload,
/// once every other worker has run out of items.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let threads = workers.min(items.len());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    mine.push((i, f(i, &items[i])));
                }
                mine
            }));
        }
        for h in handles {
            let mine = h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in mine {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every item computed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 8] {
            let out = parallel_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_requested_workers_resolves_to_cores() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn uneven_items_all_complete() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(4, &items, |_, &x| {
            // Vary per-item cost so the dynamic distribution is exercised.
            (0..(x % 7) * 1000).fold(x, |a, b| a.wrapping_add(b))
        });
        assert_eq!(out.len(), 37);
    }

    #[test]
    #[should_panic(expected = "boom at 11")]
    fn job_panics_reach_the_caller() {
        let items: Vec<usize> = (0..24).collect();
        let _ = parallel_map(4, &items, |_, &x| {
            if x == 11 {
                panic!("boom at {x}");
            }
            x
        });
    }
}
