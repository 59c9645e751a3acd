#![forbid(unsafe_code)]
#![deny(warnings)]
//! Fixture crate: a Result fn whose helper can abort.

pub fn api(x: Option<u32>) -> Result<u32, String> {
    Ok(helper(x))
}

fn helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
