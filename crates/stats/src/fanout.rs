//! Deterministic fan-out of independent per-item work, and every thread
//! the workspace starts.
//!
//! [`map_in_order`] cuts its input into fixed chunks of `CHUNK` (64) items
//! (the last one may be shorter). Its workers — the calling thread and
//! scoped threads it spawns — each claim the next unclaimed chunk from one
//! shared cursor and map it, until no chunk is left, so a worker that
//! finishes early takes more chunks instead of waiting on a slower one.
//! The results are then yielded in input order, chunk after chunk (the
//! chunks' results are not copied into one `Vec`). The chunk boundaries
//! depend only on the input length, never on the thread count or on which
//! worker claims which chunk, and every item's result comes from the same
//! pure call whichever thread makes it — so the output is the same at any
//! thread count and under any schedule.
//!
//! Each worker gets one scratch value of its own, created once and handed
//! to every call it makes, so per-item buffers are reused instead of
//! allocated per item. Which calls share a scratch depends on the
//! schedule, so a call must not let its result depend on what an earlier
//! call left in the scratch.
//!
//! A panic in a call reaches the caller with its own payload once every
//! worker has stopped.
//!
//! [`join`] runs two different closures at once, and
//! [`current_num_threads`] is the thread count every fan-out is given.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Items per chunk: enough that claiming a chunk costs nothing next to
/// mapping it, few enough that the workers finish within about one chunk
/// of each other.
const CHUNK: usize = 64;

/// Maps `f(scratch, position, item)` over `items` on up to `threads`
/// threads, the calling thread among them (clamped to one per chunk, and
/// to at least one), and returns the results in input order.
pub fn map_in_order<T, S, R, F>(items: &[T], threads: usize, f: &F) -> impl Iterator<Item = R>
where
    T: Sync,
    S: Default,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let chunks = items.len().div_ceil(CHUNK);
    let cursor = AtomicUsize::new(0);
    // One worker: claims chunks until none is left, and returns each one's
    // results with the chunk's index. The cursor publishes no data (the
    // items reach a worker through its spawn, the results come back
    // through its join), so a relaxed claim suffices.
    let work = || {
        let mut scratch = S::default();
        let mut done = Vec::new();
        loop {
            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunks {
                return done;
            }
            let start = chunk * CHUNK;
            let part = &items[start..items.len().min(start + CHUNK)];
            let mapped = part.iter().enumerate().map(|(k, item)| f(&mut scratch, start + k, item));
            done.push((chunk, mapped.collect::<Vec<R>>()));
        }
    };
    let workers = threads.clamp(1, chunks.max(1));
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for worker in spawned {
            match worker.join() {
                Ok(more) => done.extend(more),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(chunk, _)| chunk);
    done.into_iter().flat_map(|(_, mapped)| mapped)
}

/// Runs `a` on the calling thread and `b` on a fresh scoped thread, and
/// returns both results once both have finished.
///
/// A panic in either closure propagates to the caller after the other
/// closure has finished; a panic in `b` resumes with its own payload.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let handle = s.spawn(b);
        let ra = a();
        match handle.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// The number of threads a fan-out should use: the process's available
/// parallelism (1 when it cannot be determined), read once. `taskset`,
/// CPU affinity and cgroup quotas narrow it.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Long enough that a wait which can be met is met, short enough that
    /// one which cannot fails the test instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn output_is_in_input_order_at_every_thread_count() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 15 * CHUNK + 41] {
            let items: Vec<u64> = (0..len as u64).collect();
            let want: Vec<(usize, u64)> = (0..len).zip(items.iter().map(|&x| x * x)).collect();
            for threads in 0..=9 {
                let got: Vec<_> =
                    map_in_order(&items, threads, &|_: &mut (), i, &x| (i, x * x)).collect();
                assert_eq!(got, want, "{len} items, {threads} threads");
            }
        }
    }

    #[test]
    fn chunk_boundaries_depend_only_on_the_input_length() {
        // Every call returns the position its scratch saw last. Inside a
        // chunk that is always the position before it, at any thread
        // count: a chunk is never split between workers, and only a
        // chunk's first position can follow another chunk's last.
        for len in [1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 7] {
            for threads in 1..=4 {
                let items = vec![(); len];
                let last = map_in_order(&items, threads, &|seen: &mut Vec<usize>, i, _| {
                    let last = seen.last().copied();
                    seen.push(i);
                    last
                });
                for (i, last) in last.enumerate().filter(|(i, _)| i % CHUNK != 0) {
                    assert_eq!(last, Some(i - 1), "{len} items, {threads} threads, position {i}");
                }
            }
        }
        // One thread: one scratch sees every position, in order.
        let items = [(); 3 * CHUNK];
        let seen = map_in_order(&items, 1, &|seen: &mut Vec<usize>, i, _| {
            seen.push(i);
            seen.len()
        });
        assert!(seen.eq(1..=3 * CHUNK));
    }

    static SCRATCHES_MADE: AtomicUsize = AtomicUsize::new(0);

    /// A scratch that counts how often it is made.
    struct Counted;

    impl Default for Counted {
        fn default() -> Self {
            SCRATCHES_MADE.fetch_add(1, Ordering::SeqCst);
            Counted
        }
    }

    #[test]
    fn each_worker_makes_its_scratch_once() {
        let items = [(); 40 * CHUNK];
        for threads in 1..=4 {
            SCRATCHES_MADE.store(0, Ordering::SeqCst);
            assert_eq!(
                map_in_order(&items, threads, &|_: &mut Counted, _, _| ()).count(),
                40 * CHUNK
            );
            let made = SCRATCHES_MADE.load(Ordering::SeqCst);
            assert!((1..=threads).contains(&made), "{threads} threads made {made} scratches");
        }
    }

    #[test]
    fn a_held_chunk_does_not_hold_up_the_others() {
        // The call at position 0 waits until every position outside its
        // chunk has been mapped. Another worker has to claim all of those
        // chunks meanwhile, which one fixed half per thread cannot do.
        let items = [(); 9 * CHUNK];
        let outside = items.len() - CHUNK;
        let mapped = (Mutex::new(0), Condvar::new());
        let mut waits = map_in_order(&items, 2, &|_: &mut (), i, _| {
            let (count, changed) = &mapped;
            let count = count.lock().expect("count lock");
            if i == 0 {
                let waited = changed.wait_timeout_while(count, PATIENCE, |n| *n < outside);
                let (count, timeout) = waited.expect("count lock");
                return Some((timeout.timed_out(), *count));
            }
            if i >= CHUNK {
                let mut count = count;
                *count += 1;
                changed.notify_all();
            }
            None
        });
        let held = waits.next().flatten().expect("position 0 reports its wait");
        assert_eq!(held, (false, outside), "position 0 waited {PATIENCE:?} in vain");
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    /// Maps on 2 threads until both have made a call, then the first call
    /// on the caller's thread (`on_caller`) or on the other worker panics
    /// with `Boom(position)`. Returns what reached the caller.
    fn panic_on(on_caller: bool) -> Box<dyn Any + Send> {
        let caller = std::thread::current().id();
        let started = (Mutex::new([false; 2]), Condvar::new());
        let items = [(); 16 * CHUNK];
        let run = || {
            map_in_order(&items, 2, &|_: &mut (), i, _| {
                let mine = std::thread::current().id() == caller;
                let (flags, changed) = &started;
                let mut flags = flags.lock().expect("flag lock");
                if !flags[usize::from(mine)] {
                    flags[usize::from(mine)] = true;
                    changed.notify_all();
                    let both = changed.wait_timeout_while(flags, PATIENCE, |f| !f[0] || !f[1]);
                    drop(both.expect("flag lock"));
                    if mine == on_caller {
                        std::panic::panic_any(Boom(i));
                    }
                }
            })
            .count()
        };
        catch_unwind(AssertUnwindSafe(run)).expect_err("a call panicked")
    }

    #[test]
    fn a_panicking_call_reaches_the_caller_with_its_payload() {
        for on_caller in [true, false] {
            let payload = panic_on(on_caller).downcast::<Boom>().expect("the call's own payload");
            // A worker's first call is the first position of its first chunk.
            assert_eq!(payload.0 % CHUNK, 0, "caller's thread: {on_caller}");
        }
        // One thread maps on the caller's thread and spawns nothing.
        let items = [(); 3 * CHUNK];
        let run = || {
            map_in_order(&items, 1, &|_: &mut (), i, _| {
                if i == 70 {
                    std::panic::panic_any(Boom(i));
                }
            })
            .count()
        };
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("a call panicked");
        assert_eq!(*payload.downcast::<Boom>().expect("the call's own payload"), Boom(70));
    }

    #[test]
    fn join_runs_its_closures_on_two_threads_at_once() {
        // Each closure waits at the barrier for the other: if `join` ran
        // them one after the other, the first would wait forever.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = join(
            || {
                barrier.wait();
                std::thread::current().id()
            },
            || {
                barrier.wait();
                std::thread::current().id()
            },
        );
        assert_eq!(a, std::thread::current().id(), "the first closure runs on the caller");
        assert_ne!(a, b, "the second closure runs on another thread");
    }

    #[test]
    fn join_propagates_a_panic_from_either_closure() {
        let first = catch_unwind(|| join(|| panic!("left"), || 2));
        let payload = first.expect_err("a panic in the first closure propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"left"));
        let second = catch_unwind(|| join(|| 1, || panic!("right")));
        let payload = second.expect_err("a panic in the second closure propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"right"));
    }

    #[test]
    fn current_num_threads_is_the_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(current_num_threads(), available);
    }
}
