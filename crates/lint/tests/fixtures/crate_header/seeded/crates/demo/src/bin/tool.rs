//! Fixture bin root missing both headers.

fn main() {}
