//! Dependency-free deterministic parallelism.
//!
//! Every hot loop in this workspace — distance-matrix fill, K-means
//! assignment sweeps, pairwise-grouping scans, per-event delivery
//! evaluation — fans out through the two primitives here, built on
//! [`std::thread::scope`] so no runtime or external crate is needed.
//!
//! # Determinism contract
//!
//! All results are **bit-for-bit identical for any thread count**:
//!
//! * [`par_map_indexed`] / [`par_map`] produce element-wise outputs placed
//!   by index, so scheduling order is invisible.
//! * [`par_chunks`] decomposes `0..n` into *fixed-size* chunks whose
//!   boundaries depend only on `n` and `chunk_size` — never on the thread
//!   count — and returns per-chunk results in chunk order. Callers that
//!   reduce floating-point partials combine them serially in that order,
//!   so non-associative `f64` addition still yields identical sums at any
//!   parallelism level.
//!
//! Work is claimed dynamically (an atomic chunk counter), which load
//! balances skewed chunks without affecting outputs.
//!
//! # Thread-count selection
//!
//! [`num_threads`] resolves, in order: the [`with_threads`] scoped
//! override (used by tests — it is thread-local, so concurrent
//! `cargo test` threads cannot race each other), the `PUBSUB_THREADS`
//! environment variable (read once per process; a value it cannot use
//! is reported once on stderr and ignored), and finally
//! [`std::thread::available_parallelism`]. Small inputs fall back to
//! the serial path so tiny tests never pay thread spawn cost; workers
//! run nested parallel calls serially rather than oversubscribing.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Inputs shorter than this run serially in [`par_map_indexed`] /
/// [`par_map`] unless the caller passes an explicit grain.
pub const MIN_PARALLEL_LEN: usize = 64;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `PUBSUB_THREADS`, read and reported once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| threads_from(std::env::var("PUBSUB_THREADS")))
}

/// Parses a `PUBSUB_THREADS` lookup: unset gives `None` (the default)
/// silently; a positive integer, trimmed, is taken; anything else
/// (garbage, `0`, non-UTF-8) gives `None` with one line on stderr, so a
/// typo does not silently turn into the default.
fn threads_from(var: Result<String, std::env::VarError>) -> Option<usize> {
    let raw = match var {
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        Ok(raw) => raw,
    };
    let n = raw.trim().parse::<usize>().ok().filter(|&n| n > 0);
    if n.is_none() {
        eprintln!(
            "pubsub: ignoring malformed PUBSUB_THREADS={raw:?}; \
             using the default (see docs/BENCHMARK.md)"
        );
    }
    n
}

/// The effective worker count for parallel regions started on this
/// thread: [`with_threads`] override, else `PUBSUB_THREADS`, else
/// [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the calling thread's parallelism pinned to `n`.
///
/// The override is thread-local and restored on exit (even on panic), so
/// concurrent tests can pin different thread counts without racing on the
/// process environment. Used by the determinism suites.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

fn run_serial_chunks<A, F>(n: usize, chunk_size: usize, f: F) -> Vec<A>
where
    F: Fn(Range<usize>) -> A,
{
    let num_chunks = n.div_ceil(chunk_size);
    (0..num_chunks)
        .map(|c| f(c * chunk_size..((c + 1) * chunk_size).min(n)))
        .collect()
}

/// Applies `f` to fixed-size chunks of `0..n`, in parallel, returning the
/// per-chunk results **in chunk order**.
///
/// Chunk boundaries depend only on `n` and `chunk_size`, so reductions
/// that fold the returned partials left-to-right are bit-identical for
/// any thread count. This is the primitive behind every floating-point
/// reduction in the workspace.
pub fn par_chunks<A, F>(n: usize, chunk_size: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    let chunk_size = chunk_size.max(1);
    let num_chunks = n.div_ceil(chunk_size);
    let threads = num_threads().min(num_chunks);
    if threads <= 1 {
        return run_serial_chunks(n, chunk_size, f);
    }

    let next = AtomicUsize::new(0);
    let f = &f;
    let mut per_thread: Vec<Vec<(usize, A)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                // lint: allow(thread-panic): a worker panic propagates
                // through `thread::scope`'s implicit join and re-raises
                // on the caller thread before any partial result is
                // observable.
                scope.spawn(move || {
                    // Nested parallel calls inside a worker run serially:
                    // the outer region already owns the cores.
                    with_threads(1, || {
                        let mut local = Vec::new();
                        loop {
                            // lint: allow(atomic-order): work-stealing
                            // ticket counter; the RMW's atomicity alone
                            // guarantees each chunk index is claimed
                            // once, no data is published through it,
                            // and results are reordered by index after
                            // the scope joins.
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= num_chunks {
                                break;
                            }
                            let range = c * chunk_size..((c + 1) * chunk_size).min(n);
                            local.push((c, f(range)));
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut out: Vec<Option<A>> = (0..num_chunks).map(|_| None).collect();
    for (c, a) in per_thread.drain(..).flatten() {
        debug_assert!(out[c].is_none(), "chunk {c} produced twice");
        out[c] = Some(a);
    }
    out.into_iter()
        .map(|a| a.expect("chunk not produced"))
        .collect()
}

/// Maps `f` over `0..n` in parallel; `out[i] == f(i)` exactly as in the
/// serial loop. Runs serially when `n < min_len` or one thread is
/// available.
pub fn par_map_indexed<R, F>(n: usize, min_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = num_threads();
    if threads <= 1 || n < min_len.max(2) {
        return (0..n).map(f).collect();
    }
    // ~4 chunks per thread keeps skewed workloads balanced; since outputs
    // are element-wise, the thread-dependent chunking is invisible.
    let chunk = n.div_ceil(threads * 4).max(1);
    par_chunks(n, chunk, |range| range.map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Maps `f` over a slice in parallel; `out[i] == f(&items[i])`.
pub fn par_map<T, R, F>(items: &[T], min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), min_len, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env::VarError;

    #[test]
    fn unset_threads_is_the_default() {
        assert_eq!(threads_from(Err(VarError::NotPresent)), None);
    }

    #[test]
    fn trimmed_thread_count_is_taken() {
        assert_eq!(threads_from(Ok(" 3 ".to_string())), Some(3));
    }

    #[test]
    fn malformed_or_zero_threads_fall_back_to_the_default() {
        assert_eq!(threads_from(Ok("abc".to_string())), None);
        assert_eq!(threads_from(Ok("0".to_string())), None);
        let not_unicode = VarError::NotUnicode(std::ffi::OsString::from("x"));
        assert_eq!(threads_from(Err(not_unicode)), None);
    }

    #[test]
    fn par_map_matches_serial() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let par = with_threads(threads, || par_map(&items, 1, |&x| x * x));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_preserves_order_and_boundaries() {
        for threads in [1, 2, 7] {
            let ranges = with_threads(threads, || par_chunks(10, 3, |r| (r.start, r.end)));
            assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        }
    }

    #[test]
    fn f64_sum_is_bit_identical_across_thread_counts() {
        // A sum whose value depends on association order if chunking
        // were thread-dependent.
        let f = |i: usize| ((i as f64) * 0.1).sin() * 1e-3 + 1e9 * ((i % 7) as f64);
        // Partials folded in chunk order, as every f64 caller does.
        let chunked = || -> f64 {
            par_chunks(10_000, 128, |r| r.map(f).sum::<f64>())
                .into_iter()
                .sum()
        };
        let reference = with_threads(1, chunked);
        for threads in [2, 3, 8, 16] {
            let sum = with_threads(threads, chunked);
            assert_eq!(sum.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(par_map_indexed(0, 1, |i| i).is_empty());
        assert!(par_chunks(0, 16, |r| r.len()).is_empty());
        assert_eq!(par_map_indexed(1, 64, |i| i + 1), vec![1]);
        let chunks = par_chunks(5, 100, |r| r.len());
        assert_eq!(chunks, vec![5]);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(100, 1, |i| {
                    if i == 57 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
