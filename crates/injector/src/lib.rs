//! `injector` — the source-code scanner and mutator of ProFIPy
//! (paper §IV-A/§IV-B).
//!
//! * [`matcher`] interprets a compiled [`faultdsl::BugSpec`] meta-model
//!   against target ASTs: regex-style sequence matching over statement
//!   blocks with variable-length `$BLOCK` elements, argument-list
//!   wildcards (`...`), glob constraints, and tag binding.
//! * [`scanner`] enumerates *fault injection points*: every
//!   deduplicated match of every specification across the target
//!   modules.
//! * [`mutator`] generates *mutated versions*: either direct in-place
//!   mutation, or EDFI-style trigger-switchable mutation
//!   (`if profipy_rt.trigger(): <faulty> else: <original>`, §IV-B),
//!   plus the coverage instrumentation pre-pass of §IV-D.
//!
//! # Example
//!
//! ```
//! use injector::scanner::Scanner;
//!
//! let spec = faultdsl::parse_spec(
//!     "change {\n    $CALL{name=delete_*}(...)\n} into {\n    pass\n}",
//!     "MFC-like",
//! ).unwrap();
//! let module = pysrc::parse_module(
//!     "def f(c):\n    c.prepare()\n    delete_port(c)\n    c.done()\n",
//!     "m.py",
//! ).unwrap();
//! let points = Scanner::new(vec![spec]).scan(&[module]);
//! assert_eq!(points.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod matcher;
pub mod mutator;
pub mod persist;
pub mod scanner;

pub use matcher::{match_at, Bindings};
pub use mutator::{ChangedDef, ModuleText, MutationMode, Mutator, Rendered};
pub use persist::{points_from_portable_value, points_to_portable_value};
pub use scanner::{InjectionPoint, Scanner};
