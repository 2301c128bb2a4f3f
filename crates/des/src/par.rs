//! The workspace's one parallel fan-out: a deterministic work-claiming
//! map over scoped threads.
//!
//! Every parallel path — multi-seed ensembles, the simulated fleet,
//! fleet feeders, bootstrap resampling — is a set of independent items
//! whose results must not depend on the thread count. [`map_claimed`]
//! gives that: workers claim the next unstarted item, so one slow item
//! (a faulted straggler cell, a larger scale) never idles the others
//! the way static chunking does, and each result is placed by its
//! item's index, so the output is the serial output for any thread
//! count and any interleaving — provided each item owns its state (and
//! RNG streams), as every simulation here does.

use std::sync::Mutex;

/// Apply `f` to every item over up to `threads` scoped OS threads and
/// return the results in item order.
///
/// With `threads <= 1`, or at most one item, `f` runs inline on the
/// caller's thread and no thread is spawned. A panic in `f` propagates
/// to the caller once every worker has stopped.
///
/// ```
/// let squares = pio_des::par::map_claimed([1u64, 2, 3, 4, 5], 3, |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16, 25]);
/// ```
pub fn map_claimed<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.map(f).collect();
    }
    // Claiming is one lock around the item iterator: items leave it in
    // index order, each exactly once.
    let queue = Mutex::new(items.enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let claimed = queue.lock().expect("no claim panics").next();
                        let Some((i, item)) = claimed else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_item_order_for_any_thread_count() {
        let want: Vec<u32> = (0..37).map(|x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 8, 64] {
            // With two or more workers, item 0 finishes only after item
            // 1 has, so completion order is not item order.
            let one_done = AtomicBool::new(false);
            let got = map_claimed(0..37u32, threads, |x| {
                if x == 0 && threads >= 2 {
                    while !one_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                if x == 1 {
                    one_done.store(true, Ordering::Release);
                }
                x * 3 + 1
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let got = map_claimed(0..100usize, 8, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn serial_runs_inline_on_the_caller_thread() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let ids = map_claimed(0..4, threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "threads={threads}");
        }
        // One item needs no worker either.
        assert_eq!(
            map_claimed([7], 8, |_| std::thread::current().id()),
            [caller]
        );
    }

    #[test]
    fn empty_input_is_empty_output() {
        for threads in [0, 1, 4] {
            assert!(map_claimed(Vec::<u8>::new(), threads, |x| x).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_panicking_item_reaches_the_caller() {
        map_claimed(0..8, 4, |x| {
            if x == 3 {
                panic!("item {x} failed");
            }
            x
        });
    }
}
