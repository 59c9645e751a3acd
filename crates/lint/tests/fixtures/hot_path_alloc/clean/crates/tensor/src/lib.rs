//! Fixture crate: the same kernel shape, but the staging buffer is
//! caller-provided — nothing on the hot path allocates.

pub fn matmul(out: &mut [f32], scratch: &mut [f32], a: &[f32], b: &[f32]) {
    inner_tile(out, scratch, a, b);
}

fn inner_tile(out: &mut [f32], scratch: &mut [f32], a: &[f32], b: &[f32]) {
    staging(scratch, a);
    accumulate(out, scratch, b);
}

fn staging(scratch: &mut [f32], a: &[f32]) {
    scratch[..a.len()].copy_from_slice(a);
}

fn accumulate(out: &mut [f32], s: &[f32], b: &[f32]) {
    for (o, (x, y)) in out.iter_mut().zip(s.iter().zip(b)) {
        *o += x * y;
    }
}
