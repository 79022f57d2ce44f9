//! Shared lexical infrastructure for every static-analysis command.
//!
//! `cargo xtask lint` and `analyze` are two clients of the same
//! dependency-free source model: [`source::SourceFile`] (comment/string
//! masking, `#[cfg(test)]` regions, waiver markers), the token
//! [`lexer`], and the [`files`] workspace walker.

pub mod files;
pub mod lexer;
pub mod source;

pub use lexer::{lex, matching_close, Tok, Token};
pub use source::{SourceFile, WaiverMarker};
