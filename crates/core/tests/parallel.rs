//! Real-thread stress of the deterministic fan-out primitives.
//!
//! The `parallel` unit tests pin small determinism cases; these suites
//! push the scoped fan-out and the work-stealing chunk counter through
//! every synchronization edge at native speed.

use pubsub_core::parallel;

/// Sums `f` over `0..n` in fixed `chunk`-sized pieces, folding the
/// partials in chunk order: the reduction pattern every `f64` caller
/// of [`parallel::par_chunks`] follows.
fn chunked_sum(n: usize, chunk: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
    parallel::par_chunks(n, chunk, |r| r.map(&f).sum::<f64>())
        .into_iter()
        .sum()
}

#[test]
fn chunk_counter_claims_every_chunk_exactly_once_under_contention() {
    // Many more chunks than threads keeps the Relaxed ticket counter
    // contended; the element-wise output proves no chunk was dropped
    // or doubled.
    for threads in [2, 4, 8] {
        let out = parallel::with_threads(threads, || {
            parallel::par_chunks(10_000, 7, |r| r.clone().sum::<usize>())
        });
        let serial: Vec<usize> = (0..10_000usize.div_ceil(7))
            .map(|c| (c * 7..((c + 1) * 7).min(10_000)).sum())
            .collect();
        assert_eq!(out, serial, "threads = {threads}");
    }
}

#[test]
fn f64_reductions_stay_bit_identical_at_stress_scale() {
    let f = |i: usize| ((i as f64) * 1e-4).cos() * 1e-6 + ((i % 13) as f64) * 1e8;
    let reference = parallel::with_threads(1, || chunked_sum(200_000, 512, f));
    for threads in [2, 5, 8, 16] {
        let sum = parallel::with_threads(threads, || chunked_sum(200_000, 512, f));
        assert_eq!(sum.to_bits(), reference.to_bits(), "threads = {threads}");
    }
}

#[test]
fn independent_regions_on_separate_threads_do_not_interfere() {
    // The with_threads override is thread-local; concurrent OS threads
    // pinning different counts must each see their own fan-out and
    // produce the same bits.
    let expected = parallel::with_threads(1, || chunked_sum(50_000, 256, |i| (i as f64).sqrt()));
    std::thread::scope(|scope| {
        for threads in [1usize, 2, 4, 8] {
            scope.spawn(move || {
                for _ in 0..4 {
                    let sum = parallel::with_threads(threads, || {
                        chunked_sum(50_000, 256, |i| (i as f64).sqrt())
                    });
                    assert_eq!(sum.to_bits(), expected.to_bits(), "threads = {threads}");
                }
            });
        }
    });
}

#[test]
fn nested_regions_run_serially_inside_workers() {
    // Workers pin themselves to one thread; a nested par_map inside a
    // parallel region must still match the serial result rather than
    // oversubscribing or deadlocking the scope.
    let serial: Vec<u64> = (0..200u64)
        .map(|i| (0..50).map(|j| i * 50 + j).sum())
        .collect();
    for threads in [2, 8] {
        let nested = parallel::with_threads(threads, || {
            parallel::par_map_indexed(200, 1, |i| {
                parallel::par_map_indexed(50, 1, |j| (i * 50 + j) as u64)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        assert_eq!(nested, serial, "threads = {threads}");
    }
}

#[test]
fn worker_panic_propagates_before_any_result_is_observable() {
    for threads in [2, 8] {
        let result = std::panic::catch_unwind(|| {
            parallel::with_threads(threads, || {
                parallel::par_map_indexed(10_000, 1, |i| {
                    if i == 9_999 {
                        panic!("last chunk fails");
                    }
                    i
                })
            })
        });
        assert!(result.is_err(), "threads = {threads}");
    }
}
