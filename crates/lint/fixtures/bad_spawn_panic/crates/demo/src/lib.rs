//! Bad fixture: closures crossing a thread boundary that can panic —
//! directly (`.expect` inside a `thread::spawn` closure) and
//! transitively (a `thread::spawn` closure calling a same-crate
//! function that can panic) — with no `catch_unwind`-style containment.

pub fn helper(v: &[u64]) -> u64 {
    v.first().copied().expect("nonempty batch")
}

pub fn direct() {
    std::thread::spawn(|| {
        let x: Option<u64> = None;
        let _ = x.expect("boom");
    });
}

pub fn transitive(vals: Vec<u64>) {
    std::thread::spawn(move || helper(&vals));
}
