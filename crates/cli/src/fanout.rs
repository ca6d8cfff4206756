//! Deterministic fan-out of independent per-item work.
//!
//! [`map_in_order`] splits its input into one contiguous range per
//! thread, runs every range on its own thread through `rayon::join`, and
//! concatenates the results in input order. The range boundaries depend
//! only on the input length and the thread count, never on scheduling,
//! and every item's result comes from the same pure call whichever thread
//! makes it — so the output is the same at any thread count.

/// Maps `f(position, item)` over `items` on `threads` threads (clamped to
/// `1..=items.len()`) and returns the results in input order.
pub(crate) fn map_in_order<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    split(items, 0, threads.clamp(1, items.len().max(1)), f)
}

/// Maps `items`, which start at input position `offset`, as `parts`
/// ranges: the first `parts / 2` on this thread, the rest on a joined one.
fn split<T, R, F>(items: &[T], offset: usize, parts: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if parts <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(offset + i, item)).collect();
    }
    let left = parts / 2;
    let (head, tail) = items.split_at(items.len() * left / parts);
    let (mut out, rest) = rayon::join(
        || split(head, offset, left, f),
        || split(tail, offset + head.len(), parts - left, f),
    );
    out.extend(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn output_is_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let want: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x)).collect();
        for threads in 0..=9 {
            let got = map_in_order(&items, threads, &|i, &x| (i, x * x));
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(map_in_order(&[] as &[u64], 4, &|_, &x| x).is_empty());
    }

    #[test]
    fn each_thread_takes_one_fixed_contiguous_range() {
        // 10 items on 3 threads: ranges [0, 3), [3, 6), [6, 10), each on
        // a thread of its own, the first on the caller's.
        let items = [(); 10];
        let ids: Vec<ThreadId> = map_in_order(&items, 3, &|_, _| std::thread::current().id());
        assert_eq!(ids[0], std::thread::current().id());
        let mut runs: Vec<(ThreadId, usize)> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some((last, n)) if *last == id => *n += 1,
                _ => runs.push((id, 1)),
            }
        }
        let lengths: Vec<usize> = runs.iter().map(|&(_, n)| n).collect();
        assert_eq!(lengths, [3, 3, 4]);
        assert!(runs[0].0 != runs[1].0 && runs[1].0 != runs[2].0 && runs[0].0 != runs[2].0);
    }
}
