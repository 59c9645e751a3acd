#![forbid(unsafe_code)]
#![deny(warnings)]
//! Fixture crate: two stale annotations — one whose panic went away,
//! and one naming `lock_order`, a rule the linter no longer has (lock
//! order is neo-sync's `LockClass` check now).

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
    // lint: allow(lock_order) — stale: the rule is gone
    let gb = s.b.lock();
    drop(gb);
    drop(ga);
}
