//! `swallow_fabric::engine` through its public API: the tests that lived in
//! five `#[cfg(test)]` modules of `engine.rs` until the engine was split into
//! stage files (same names, same bodies), the emission-order pins of
//! `sequence.rs`, and the slice-length guard. See `tests/README.md`.

mod basics;
mod decompression;
mod fast_path;
mod helpers;
mod instrumentation;
mod sequence;
mod slice;
mod traced;
