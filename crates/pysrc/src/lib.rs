//! `pysrc` — front end for the mini-Python subset used by the ProFIPy
//! reproduction.
//!
//! This crate stands in for CPython's `ast` module in the original paper:
//! it provides an indentation-aware [`lexer`], a recursive-descent
//! [`parser`] producing a spanned [`ast`], an [`unparse`]r that turns
//! ASTs back into source text, and [`visit`]ors used by the scanner and
//! mutator in the `injector` crate.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pysrc::ParseError> {
//! let module = pysrc::parse_module("x = 1 + 2\n", "example.py")?;
//! assert_eq!(module.body.len(), 1);
//! let src = pysrc::unparse::unparse_module(&module);
//! assert_eq!(src, "x = 1 + 2\n");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod unparse;
pub mod visit;

pub use ast::{Module, NodeId};
pub use error::ParseError;
pub use parser::parse_module;
