//! Fixture bin root.

#![forbid(unsafe_code)]
#![deny(warnings)]

fn main() {}
