//! Seeded clippy fixture: each item transcribes the seeded fixture of a
//! neo-lint token rule that clippy now checks on resolved types, with
//! the lint code that must catch it. Every item is a deliberate
//! violation; nothing here is meant to pass.

#![forbid(unsafe_code)]

use std::collections::HashMap;

/// Former `panic` rule: `clippy::unwrap_used`.
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Former `hash_iter` rule: `clippy::disallowed_types` on `HashMap`.
pub fn total(m: &HashMap<u32, f32>) -> f32 {
    m.values().fold(0.0, |acc, v| acc + v)
}

/// Former `determinism` rule: `clippy::disallowed_methods` on
/// `Instant::now`.
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

/// Stand-in for a collectives group whose ops return a `Result`.
pub struct Group;

impl Group {
    /// Zeroes `buf`; fallible like the real collective.
    pub fn all_reduce(&mut self, buf: &mut [f32]) -> Result<(), String> {
        buf.fill(0.0);
        Ok(())
    }
}

/// Former `discarded_result` rule: `clippy::let_underscore_must_use`
/// and `unused_must_use`.
pub fn step(g: &mut Group, buf: &mut [f32]) {
    let _ = g.all_reduce(buf);
    g.all_reduce(buf);
}

/// Former `lock_unwrap` rule: `clippy::disallowed_types` on
/// `std::sync::Mutex`.
pub fn read(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
