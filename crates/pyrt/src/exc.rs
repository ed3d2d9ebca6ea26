//! Python exception machinery.

use crate::value::{Heap, Value};
use std::fmt;

/// A raised Python exception travelling up the interpreter stack.
///
/// One pointer wide: every `Result<Value, PyExc>` the interpreter
/// returns stays small, and the fields ([`ExcData`]) are read through
/// `Deref`.
#[derive(Clone, Debug)]
pub struct PyExc(Box<ExcData>);

/// The fields of a [`PyExc`].
///
/// `class_name` is kept denormalized so failure classifiers can match on
/// it even when the exception value is a bare builtin.
#[derive(Clone, Debug)]
pub struct ExcData {
    /// Exception class name (e.g. `"AttributeError"`).
    pub class_name: String,
    /// Human-readable message.
    pub message: String,
    /// The exception object, if one was instantiated (user classes).
    pub value: Option<Value>,
    /// Simulated traceback: function names innermost-last.
    pub traceback: Vec<String>,
}

impl std::ops::Deref for PyExc {
    type Target = ExcData;
    fn deref(&self) -> &ExcData {
        &self.0
    }
}

impl std::ops::DerefMut for PyExc {
    fn deref_mut(&mut self) -> &mut ExcData {
        &mut self.0
    }
}

impl PyExc {
    /// Creates a builtin-class exception.
    pub fn new(class_name: impl Into<String>, message: impl Into<String>) -> PyExc {
        PyExc(Box::new(ExcData {
            class_name: class_name.into(),
            message: message.into(),
            value: None,
            traceback: Vec::new(),
        }))
    }

    /// Creates an exception carrying an instantiated exception object.
    pub fn with_value(
        class_name: impl Into<String>,
        message: impl Into<String>,
        value: Value,
    ) -> PyExc {
        PyExc(Box::new(ExcData {
            class_name: class_name.into(),
            message: message.into(),
            value: Some(value),
            traceback: Vec::new(),
        }))
    }

    /// Takes the fields out (for callers that keep the class name and
    /// message and drop the rest).
    pub fn into_data(self) -> ExcData {
        *self.0
    }

    /// `TypeError`.
    pub fn type_error(message: impl Into<String>) -> PyExc {
        PyExc::new("TypeError", message)
    }

    /// `NameError`.
    pub fn name_error(name: &str) -> PyExc {
        PyExc::new("NameError", format!("name '{name}' is not defined"))
    }

    /// `UnboundLocalError` — the paper's §V-C dominant failure mode.
    pub fn unbound_local(name: &str) -> PyExc {
        PyExc::new(
            "UnboundLocalError",
            format!("local variable '{name}' referenced before assignment"),
        )
    }

    /// `RuntimeError` for a name, attribute or scope that reached either
    /// engine without a resolution from [`crate::prepare`]: a broken
    /// invariant fails its experiment instead of being resolved by
    /// string.
    pub(crate) fn not_prepared(name: &str) -> PyExc {
        PyExc::new(
            "RuntimeError",
            format!("internal error: '{name}' was not prepared"),
        )
    }

    /// `AttributeError` — e.g. the paper's §V-B
    /// `'NoneType' object has no attribute 'startswith'`.
    pub fn attribute_error(type_name: &str, attr: &str) -> PyExc {
        PyExc::new(
            "AttributeError",
            format!("'{type_name}' object has no attribute '{attr}'"),
        )
    }

    /// `KeyError`.
    pub fn key_error(heap: &Heap, key: Value) -> PyExc {
        PyExc::new("KeyError", key.repr(heap))
    }

    /// `IndexError`.
    pub fn index_error(what: &str) -> PyExc {
        PyExc::new("IndexError", format!("{what} index out of range"))
    }

    /// `ValueError`.
    pub fn value_error(message: impl Into<String>) -> PyExc {
        PyExc::new("ValueError", message)
    }

    /// `ZeroDivisionError`.
    pub fn zero_division() -> PyExc {
        PyExc::new("ZeroDivisionError", "division by zero")
    }

    /// Interpreter resource exhaustion (fuel/step budget). Mapped by the
    /// sandbox to the *timeout* failure mode.
    pub fn timeout() -> PyExc {
        PyExc::new("ProfipyFuelExhausted", "interpreter step budget exhausted")
    }

    /// Pushes a frame name onto the simulated traceback.
    pub fn with_frame(mut self, frame: &str) -> PyExc {
        self.traceback.push(frame.to_string());
        self
    }

    /// One-line rendering as CPython would print the final line of a
    /// traceback (`Class: message`).
    pub fn one_line(&self) -> String {
        if self.message.is_empty() {
            self.class_name.clone()
        } else {
            format!("{}: {}", self.class_name, self.message)
        }
    }
}

impl fmt::Display for PyExc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.one_line())
    }
}

impl std::error::Error for PyExc {}

/// Non-exceptional control flow escaping a block.
#[derive(Clone, Debug)]
pub enum Flow {
    /// Normal fallthrough.
    Normal,
    /// `return value`.
    Return(Value),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
}

/// Names of the built-in exception classes, base-first. Used by the VM
/// to construct the builtin class hierarchy.
pub const BUILTIN_EXCEPTIONS: &[(&str, Option<&str>)] = &[
    ("BaseException", None),
    ("Exception", Some("BaseException")),
    ("ArithmeticError", Some("Exception")),
    ("ZeroDivisionError", Some("ArithmeticError")),
    ("AttributeError", Some("Exception")),
    ("LookupError", Some("Exception")),
    ("KeyError", Some("LookupError")),
    ("IndexError", Some("LookupError")),
    ("NameError", Some("Exception")),
    ("UnboundLocalError", Some("NameError")),
    ("TypeError", Some("Exception")),
    ("ValueError", Some("Exception")),
    ("RuntimeError", Some("Exception")),
    ("StopIteration", Some("Exception")),
    ("OSError", Some("Exception")),
    ("IOError", Some("OSError")),
    ("ConnectionError", Some("OSError")),
    ("ConnectionRefusedError", Some("ConnectionError")),
    ("TimeoutError", Some("OSError")),
    ("AssertionError", Some("Exception")),
    ("NotImplementedError", Some("RuntimeError")),
    ("ImportError", Some("Exception")),
    ("KeyboardInterrupt", Some("BaseException")),
    // Internal: fuel exhaustion escapes `except Exception` handlers,
    // like KeyboardInterrupt, so mutants cannot swallow timeouts.
    ("ProfipyFuelExhausted", Some("BaseException")),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_formats_like_cpython() {
        let e = PyExc::attribute_error("NoneType", "startswith");
        assert_eq!(
            e.one_line(),
            "AttributeError: 'NoneType' object has no attribute 'startswith'"
        );
    }

    #[test]
    fn unbound_local_matches_paper_message() {
        let e = PyExc::unbound_local("response");
        assert!(e.one_line().contains("referenced before assignment"));
    }

    #[test]
    fn an_exception_is_one_pointer_wide() {
        assert_eq!(std::mem::size_of::<PyExc>(), std::mem::size_of::<usize>());
        assert!(std::mem::size_of::<Result<Value, PyExc>>() <= 24);
    }

    #[test]
    fn builtin_exception_table_is_closed() {
        // Every base must appear before its subclass.
        for (i, (_, base)) in BUILTIN_EXCEPTIONS.iter().enumerate() {
            if let Some(base) = base {
                assert!(
                    BUILTIN_EXCEPTIONS[..i].iter().any(|(n, _)| n == base),
                    "base {base} must precede its subclass"
                );
            }
        }
    }
}
