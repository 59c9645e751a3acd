#![forbid(unsafe_code)]
#![deny(warnings)]
//! Fixture crate: two stale annotations — one whose panic went away,
//! and one left over from the pre-callgraph one-level `lock_order`
//! expansion, which the transitive engine no longer needs.

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

pub fn api(x: Option<u32>) -> Result<u32, String> {
    Ok(helper(x))
}

fn helper(x: Option<u32>) -> u32 {
    // lint: allow(panic_path) — nothing panics below any more
    x.unwrap_or(0)
}

pub fn ordered(s: &S) {
    let ga = s.a.lock();
    // lint: allow(lock_order) — stale: this edge never closes a cycle
    let gb = s.b.lock();
    drop(gb);
    drop(ga);
}
