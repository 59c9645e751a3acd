//! Fixture crate: per-iteration kernel reaching an allocation two
//! call hops down.

pub fn matmul(out: &mut [f32], a: &[f32], b: &[f32]) {
    inner_tile(out, a, b);
}

fn inner_tile(out: &mut [f32], a: &[f32], b: &[f32]) {
    let scratch = staging(a);
    accumulate(out, &scratch, b);
}

fn staging(a: &[f32]) -> Vec<f32> {
    a.to_vec()
}

fn accumulate(out: &mut [f32], s: &[f32], b: &[f32]) {
    for (o, (x, y)) in out.iter_mut().zip(s.iter().zip(b)) {
        *o += x * y;
    }
}
