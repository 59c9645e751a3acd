//! Fixture crate: two stale annotations — one whose allocation went
//! away, and one naming `panic_path`, a rule the linter no longer has
//! (panicking calls are clippy's to deny now).

pub fn matmul(out: &mut [f32], scratch: &mut [f32], a: &[f32]) {
    // lint: allow(hot_path_alloc) — nothing allocates below any more
    scratch[..a.len()].copy_from_slice(a);
    accumulate(out, scratch);
}

fn accumulate(out: &mut [f32], s: &[f32]) {
    // lint: allow(panic_path) — stale: the rule is gone
    for (o, x) in out.iter_mut().zip(s) {
        *o += x;
    }
}
