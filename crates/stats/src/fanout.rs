//! Deterministic fan-out of independent per-item work.
//!
//! [`map_in_order`] splits its input into one contiguous range per
//! thread, runs every range on its own thread through `rayon::join`, and
//! yields the results in input order, range after range (the ranges'
//! results are not copied into one `Vec`). The range boundaries depend
//! only on the input length and the thread count, never on scheduling,
//! and every item's result comes from the same pure call whichever thread
//! makes it — so the output is the same at any thread count.
//!
//! Each range gets one scratch value of its own, created once and handed
//! to every call in the range, so per-item buffers are reused instead of
//! allocated per item. A call must not let its result depend on what an
//! earlier call left in the scratch.

/// Maps `f(scratch, position, item)` over `items` on `threads` threads
/// (clamped to `1..=items.len()`) and returns the results in input order.
pub fn map_in_order<T, S, R, F>(items: &[T], threads: usize, f: &F) -> impl Iterator<Item = R>
where
    T: Sync,
    S: Default,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    split(items, 0, threads.clamp(1, items.len().max(1)), f).into_iter().flatten()
}

/// Maps `items`, which start at input position `offset`, as `parts`
/// ranges: the first `parts / 2` on this thread, the rest on a joined one.
/// Returns each range's results, ranges in input order.
fn split<T, S, R, F>(items: &[T], offset: usize, parts: usize, f: &F) -> Vec<Vec<R>>
where
    T: Sync,
    S: Default,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if parts <= 1 {
        let mut scratch = S::default();
        let range = items.iter().enumerate().map(|(i, item)| f(&mut scratch, offset + i, item));
        return vec![range.collect()];
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
            let got: Vec<_> =
                map_in_order(&items, threads, &|_: &mut (), i, &x| (i, x * x)).collect();
            assert_eq!(got, want, "{threads} threads");
        }
        assert_eq!(map_in_order(&[] as &[u64], 4, &|_: &mut (), _, &x| x).count(), 0);
    }

    #[test]
    fn each_thread_takes_one_fixed_contiguous_range() {
        // 10 items on 3 threads: ranges [0, 3), [3, 6), [6, 10), each on
        // a thread of its own, the first on the caller's.
        let items = [(); 10];
        let ids: Vec<ThreadId> =
            map_in_order(&items, 3, &|_: &mut (), _, _| std::thread::current().id()).collect();
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

    #[test]
    fn each_range_gets_its_own_scratch_once() {
        // Every call appends its position to the scratch and returns what
        // the scratch holds: a range's scratch starts empty and sees
        // exactly that range's positions, in order.
        let items = [(); 10];
        let seen: Vec<_> = map_in_order(&items, 3, &|scratch: &mut Vec<usize>, i, _| {
            scratch.push(i);
            scratch.clone()
        })
        .collect();
        let ranges = [0..3, 3..6, 6..10];
        for range in ranges {
            for i in range.clone() {
                assert_eq!(seen[i], (range.start..=i).collect::<Vec<_>>(), "position {i}");
            }
        }
        // One thread: one scratch for the whole input.
        let seen = map_in_order(&items, 1, &|scratch: &mut Vec<usize>, i, _| {
            scratch.push(i);
            scratch.len()
        });
        assert!(seen.eq(1..=10));
    }
}
