//! `faultdsl` — the ProFIPy bug-specification DSL (paper §III).
//!
//! A *bug specification* has the form:
//!
//! ```text
//! change {
//!     <code pattern>
//! } into {
//!     <code replacement>
//! }
//! ```
//!
//! The pattern mixes literal mini-Python with directives:
//!
//! | Directive | Matches / produces |
//! |---|---|
//! | `$BLOCK{tag=b1; stmts=1,*}` | 1..∞ consecutive statements, taggable |
//! | `$CALL{name=delete_*}(...)` | a call whose dotted callee matches the glob |
//! | `$EXPR{var=node}` | any expression referencing a matching variable |
//! | `$STRING{val=*-*}` | a string literal whose value matches the glob |
//! | `$NUM` | a numeric literal |
//! | `$VAR{name=...}` | a bare name |
//! | `...` (in argument lists) | any run of arguments |
//! | `$CORRUPT(x)` | *(replacement)* `profipy_rt.corrupt(x)` |
//! | `$HOG` | *(replacement)* `profipy_rt.hog()` |
//! | `$TIMEOUT{secs=5}` | *(replacement)* `profipy_rt.delay(5)` |
//!
//! `#tag` after a directive (e.g. `$CALL#c`, `$STRING#s`) names the
//! match for reuse in the replacement, as does `{tag=...}`.
//!
//! The compiler (this crate) lowers a specification to a *meta-model*:
//! the pattern and replacement parsed as mini-Python ASTs in which
//! directives appear as reserved placeholder names, plus a side table
//! of directive descriptors. The `injector` crate interprets the
//! meta-model against target ASTs.
//!
//! # Example
//!
//! ```
//! let spec = faultdsl::parse_spec(
//!     "change {\n    $CALL{name=delete_*}(...)\n} into {\n    pass\n}",
//!     "mfc",
//! ).unwrap();
//! assert_eq!(spec.name, "mfc");
//! assert_eq!(spec.pattern.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod glob;
pub mod library;
pub mod model_io;
pub mod spec;

pub use glob::glob_match;
pub use library::{campaign_a_model, campaign_b_model, campaign_c_model, predefined_models};
pub use model_io::{FaultModel, SpecSource};
pub use spec::{parse_spec, BugSpec, Directive, DirectiveKind, DslError};
