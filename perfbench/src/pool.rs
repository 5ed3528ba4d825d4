//! A fixed worker pool for the traced pipelines: workers claim items in
//! index order from a shared counter, keep private state, and hand back
//! results in item order — the same fan-out shape as the program's own
//! campaign pool, with the benchmark's spans inside.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `0..n` on `workers` threads. Each worker starts from
/// `init(worker)`; its final state is returned beside the results.
pub fn map<S: Send, T: Send>(
    workers: usize,
    n: usize,
    init: impl Fn(usize) -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, T)>, S)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (next, init, f) = (&next, &init, &f);
                sc.spawn(move || {
                    let mut state = init(w);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut state, i)));
                    }
                    (out, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(per_worker.len());
    for (items, state) in per_worker {
        for (i, t) in items {
            slots[i] = Some(t);
        }
        states.push(state);
    }
    let results = slots
        .into_iter()
        .map(|t| t.expect("every item claimed once"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_come_back_in_item_order() {
        let (out, states) = super::map(
            2,
            100,
            |_| 0usize,
            |seen, i| {
                *seen += 1;
                i * i
            },
        );
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 100);
    }
}
