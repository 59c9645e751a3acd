//! Fixture crate.

pub fn matmul(out: &mut [f32], a: &[f32]) {
    let scratch = staging(a);
    for (o, x) in out.iter_mut().zip(&scratch) {
        *o += x;
    }
}

fn staging(a: &[f32]) -> Vec<f32> {
    // lint: allow(hot_path_alloc) — fixture exercises a consumed waiver
    a.to_vec()
}
