//! A minimal scoped-thread fan-out for the Monte Carlo trial loop.
//!
//! The build environment is offline, so instead of `rayon` the Monte Carlo
//! driver in `maut-sense` splits each sample batch over this small pool
//! built on [`std::thread::scope`]. It is the only caller, and it asks
//! for threads explicitly: `MonteCarlo::threads`, and
//! `AnalysisEngine::mc_threads` and `gmaa-serve`'s
//! `SessionConfig::mc_threads`, both `1` by default (on a two-core box a
//! two-worker fan-out of 10 000 paper-model trials measured slower than
//! one worker, and a server's shard workers are threads already). Every
//! other analysis runs on the calling thread. Work is split into
//! contiguous ranges, one scoped thread per range; results are
//! deterministic because range boundaries depend only on
//! `(len, threads, min_chunk)` and the caller's reduction (integer rank
//! counts merged in range order) is order-independent.
//!
//! `threads == 0` means "one per available core"; small inputs (under
//! `min_chunk` items per would-be thread) always run inline on the calling
//! thread.

use std::ops::Range;

/// Worker count for `threads == 0`: one per available core (1 if the OS
/// will not say).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How many workers to actually use for `len` items: the requested count
/// (0 = auto), capped so every worker gets at least `min_chunk` items.
fn effective_threads(len: usize, threads: usize, min_chunk: usize) -> usize {
    let requested = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let cap = len / min_chunk.max(1);
    requested.min(cap).max(1)
}

/// Split `0..len` into `parts` near-equal contiguous ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Map `f` over contiguous sub-ranges of `0..len` in parallel and collect
/// the per-range results in range order (so any fold over them is
/// deterministic). Runs inline when one worker suffices.
pub fn map_ranges<R, F>(len: usize, threads: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let workers = effective_threads(len, threads, min_chunk);
    if workers <= 1 {
        return vec![f(0..len)];
    }
    let ranges = split_ranges(len, workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || f(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_covers_everything_in_order() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 2), vec![0..1, 1..2]);
    }

    #[test]
    fn small_inputs_run_inline() {
        assert_eq!(effective_threads(10, 8, 100), 1);
        assert_eq!(effective_threads(1000, 4, 100), 4);
        assert_eq!(effective_threads(250, 8, 100), 2);
        assert!(effective_threads(1_000_000, 0, 1) >= 1);
    }

    #[test]
    fn map_ranges_results_arrive_in_range_order() {
        for threads in [1, 2, 5] {
            let counter = AtomicUsize::new(0);
            let parts = map_ranges(100, threads, 10, |range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
                range
            });
            assert_eq!(counter.load(Ordering::Relaxed), 100);
            // Concatenated ranges reconstruct 0..100 exactly.
            let mut next = 0;
            for r in parts {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 100);
        }
    }

    #[test]
    fn zero_length_is_safe() {
        let parts = map_ranges(0, 0, 1, |r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
