//! Time-to-solution benchmark for the solver crates, built only on their
//! public API: an independent oracle ([`oracle`]), a layer-timing engine
//! wrapper ([`timed`]) and the solve entry point both share ([`engine`]).

pub mod engine;
pub mod oracle;
pub mod timed;
