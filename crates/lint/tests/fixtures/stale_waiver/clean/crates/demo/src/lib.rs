#![forbid(unsafe_code)]
#![deny(warnings)]
//! Fixture crate.

pub fn api(x: Option<u32>) -> Result<u32, String> {
    Ok(helper(x))
}

fn helper(x: Option<u32>) -> u32 {
    // lint: allow(panic_path) — fixture exercises a consumed waiver
    x.unwrap()
}
