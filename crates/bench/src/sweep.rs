//! Parallel sweep driver.
//!
//! Each parameter point builds its own private simulation, so points are
//! embarrassingly parallel: the driver fans a work list out over threads.
//! Results come back in input order regardless of completion order, so
//! sweeps stay deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over all `points` on up to `threads` worker threads (0 = one
/// per available CPU); returns results in input order.
pub fn run_parallel<P, R, F>(points: Vec<P>, threads: usize, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = points.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n.max(1));

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let results = Mutex::new(&mut results);
    let next = AtomicUsize::new(0);
    let points = &points;
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&points[i]);
                results
                    .lock()
                    .expect("a sweep thread panicked while storing")[i] = Some(r);
            });
        }
    });

    results
        .into_inner()
        .expect("a sweep thread panicked while storing")
        .iter_mut()
        .map(|r| r.take().expect("every point computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..100).collect();
        let out = run_parallel(points, 8, |&p| p * 2);
        assert_eq!(out, (0..100).map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = run_parallel(vec![1, 2, 3], 1, |&p| p + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |&p| p);
        assert!(out.is_empty());
    }
}
