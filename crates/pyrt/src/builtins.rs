//! Built-in functions installed into every VM.

use crate::exc::PyExc;
use crate::interp::{call_value, iter_values};
use crate::value::*;
use crate::vm::Vm;
use std::borrow::Cow;
use std::rc::Rc;

/// Registers a native function into a scope.
pub fn native(
    heap: &Heap,
    scope: &ScopeRef,
    name: &str,
    imp: impl Fn(&mut Vm, &[Value], &[(KwName, Value)]) -> Result<Value, PyExc> + 'static,
) {
    let v = heap.new_native(name, Rc::new(imp));
    scope.borrow_mut().set(name, v);
}

/// Creates a standalone native function value.
pub fn native_value(
    heap: &Heap,
    name: &str,
    imp: impl Fn(&mut Vm, &[Value], &[(KwName, Value)]) -> Result<Value, PyExc> + 'static,
) -> Value {
    heap.new_native(name, Rc::new(imp))
}

fn arity_error(name: &str, expected: &str, got: usize) -> PyExc {
    PyExc::type_error(format!("{name}() takes {expected} arguments ({got} given)"))
}

fn one_arg(name: &'static str, args: &[Value]) -> Result<Value, PyExc> {
    match args {
        [v] => Ok(*v),
        _ => Err(arity_error(name, "exactly 1", args.len())),
    }
}

/// Installs the builtin namespace into a freshly created VM.
pub fn install(vm: &Vm) {
    let b = &vm.builtins;
    let heap = &vm.heap;

    native(heap, b, "print", |vm, args, kwargs| {
        let kw = |name: &str, default: &'static str| {
            kwargs
                .iter()
                .find(|(n, _)| n == name)
                .map_or(Cow::Borrowed(default), |(_, v)| v.display(&vm.heap))
        };
        let (sep, end) = (kw("sep", " "), kw("end", "\n"));
        let mut line = String::new();
        for (i, v) in args.iter().enumerate() {
            if i > 0 {
                line.push_str(&sep);
            }
            line.push_str(&v.display(&vm.heap));
        }
        line.push_str(&end);
        vm.write_stdout(&line);
        Ok(Value::None)
    });

    native(heap, b, "len", |vm, args, _| {
        let v = one_arg("len", args)?;
        let n = match v {
            Value::Str(s) => vm.heap.str(s).chars().count(),
            Value::List(l) => vm.heap.list(l).borrow().len(),
            Value::Tuple(t) => vm.heap.tuple(t).len(),
            Value::Dict(d) => vm.heap.dict(d).borrow().len(),
            Value::Set(s) => vm.heap.set(s).borrow().len(),
            other => {
                return Err(PyExc::type_error(format!(
                    "object of type '{}' has no len()",
                    other.type_name()
                )))
            }
        };
        Ok(Value::Int(n as i64))
    });

    native(heap, b, "range", |vm, args, _| {
        let (start, stop, step) = match args.len() {
            1 => (0, int_of(&args[0], "range")?, 1),
            2 => (int_of(&args[0], "range")?, int_of(&args[1], "range")?, 1),
            3 => (
                int_of(&args[0], "range")?,
                int_of(&args[1], "range")?,
                int_of(&args[2], "range")?,
            ),
            n => return Err(arity_error("range", "1 to 3", n)),
        };
        if step == 0 {
            return Err(PyExc::value_error("range() arg 3 must not be zero"));
        }
        // Materialized range; corpus ranges are small, and huge ranges
        // are bounded by the VM fuel anyway.
        const MAX_RANGE: i64 = 4_000_000;
        let mut out = Vec::new();
        let mut i = start;
        while (step > 0 && i < stop) || (step < 0 && i > stop) {
            out.push(Value::Int(i));
            if out.len() as i64 > MAX_RANGE {
                return Err(PyExc::value_error("range too large for this VM"));
            }
            i += step;
        }
        Ok(vm.heap.new_list(out))
    });

    native(heap, b, "str", |vm, args, _| {
        if args.is_empty() {
            return Ok(vm.heap.new_str(""));
        }
        let text = one_arg("str", args)?.display(&vm.heap);
        Ok(vm.heap.new_text(text))
    });

    native(heap, b, "repr", |vm, args, _| {
        let s = one_arg("repr", args)?.repr(&vm.heap);
        Ok(vm.heap.new_string(s))
    });

    native(heap, b, "int", |vm, args, _| {
        if args.is_empty() {
            return Ok(Value::Int(0));
        }
        let v = one_arg("int", args)?;
        match v {
            Value::Int(_) => Ok(v),
            Value::Bool(x) => Ok(Value::Int(x as i64)),
            Value::Float(f) => Ok(Value::Int(f as i64)),
            Value::Str(s) => {
                let text = vm.heap.str(s);
                text.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                    PyExc::value_error(format!(
                        "invalid literal for int() with base 10: '{text}'"
                    ))
                })
            }
            other => Err(PyExc::type_error(format!(
                "int() argument must be a string or a number, not '{}'",
                other.type_name()
            ))),
        }
    });

    native(heap, b, "float", |vm, args, _| {
        let v = one_arg("float", args)?;
        match v {
            Value::Float(_) => Ok(v),
            Value::Int(i) => Ok(Value::Float(i as f64)),
            Value::Bool(x) => Ok(Value::Float(x as i64 as f64)),
            Value::Str(s) => {
                let text = vm.heap.str(s);
                text.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                    PyExc::value_error(format!("could not convert string to float: '{text}'"))
                })
            }
            other => Err(PyExc::type_error(format!(
                "float() argument must be a string or a number, not '{}'",
                other.type_name()
            ))),
        }
    });

    native(heap, b, "bool", |vm, args, _| {
        if args.is_empty() {
            return Ok(Value::Bool(false));
        }
        Ok(Value::Bool(one_arg("bool", args)?.truthy(&vm.heap)))
    });

    native(heap, b, "list", |vm, args, _| {
        if args.is_empty() {
            return Ok(vm.heap.new_list(vec![]));
        }
        let items = iter_values(&vm.heap, one_arg("list", args)?)?;
        Ok(vm.heap.new_list(items))
    });

    native(heap, b, "tuple", |vm, args, _| {
        if args.is_empty() {
            return Ok(vm.heap.new_tuple(vec![]));
        }
        let items = iter_values(&vm.heap, one_arg("tuple", args)?)?;
        Ok(vm.heap.new_tuple(items))
    });

    native(heap, b, "dict", |vm, args, kwargs| {
        let mut d = DictObj::new();
        if let Some(&v) = args.first() {
            match v {
                Value::Dict(src) => {
                    let pairs: Vec<(Value, Value)> =
                        vm.heap.dict(src).borrow().iter().copied().collect();
                    for (k, val) in pairs {
                        d.set(&vm.heap, k, val);
                    }
                }
                other => {
                    for pair in iter_values(&vm.heap, other)? {
                        let items = iter_values(&vm.heap, pair)?;
                        if items.len() != 2 {
                            return Err(PyExc::value_error(
                                "dictionary update sequence element is not a pair",
                            ));
                        }
                        d.set(&vm.heap, items[0], items[1]);
                    }
                }
            }
        }
        for (k, v) in kwargs {
            let key = vm.heap.new_str(k);
            d.set(&vm.heap, key, *v);
        }
        Ok(vm.heap.new_dict(d))
    });

    native(heap, b, "set", |vm, args, _| {
        let mut out: Vec<Value> = Vec::new();
        if let Some(&v) = args.first() {
            for item in iter_values(&vm.heap, v)? {
                if !out.iter().any(|&x| values_eq(&vm.heap, x, item)) {
                    out.push(item);
                }
            }
        }
        Ok(vm.heap.new_set(out))
    });

    native(heap, b, "isinstance", |vm, args, _| {
        if args.len() != 2 {
            return Err(arity_error("isinstance", "exactly 2", args.len()));
        }
        fn check(heap: &Heap, v: Value, ty: Value) -> Result<bool, PyExc> {
            match ty {
                Value::Class(c) => Ok(match v {
                    Value::Instance(i) => heap.class_isa(heap.instance(i).class, c),
                    _ => false,
                }),
                Value::Native(n) => {
                    // type constructors double as type objects:
                    // isinstance(x, str) etc.
                    Ok(matches!(
                        (heap.native(n).name(), v),
                        ("str", Value::Str(_))
                            | ("int", Value::Int(_) | Value::Bool(_))
                            | ("float", Value::Float(_))
                            | ("bool", Value::Bool(_))
                            | ("list", Value::List(_))
                            | ("tuple", Value::Tuple(_))
                            | ("dict", Value::Dict(_))
                            | ("set", Value::Set(_))
                    ))
                }
                Value::Tuple(types) => {
                    for i in 0..heap.tuple(types).len() {
                        let t = heap.tuple(types)[i];
                        if check(heap, v, t)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
                other => Err(PyExc::type_error(format!(
                    "isinstance() arg 2 must be a type, not {}",
                    other.type_name()
                ))),
            }
        }
        Ok(Value::Bool(check(&vm.heap, args[0], args[1])?))
    });

    native(heap, b, "type", |vm, args, _| {
        let v = one_arg("type", args)?;
        let name = match v {
            Value::Instance(i) => vm.heap.class(vm.heap.instance(i).class).name.clone(),
            other => other.type_name().to_string(),
        };
        Ok(vm.heap.new_string(name))
    });

    native(heap, b, "abs", |_vm, args, _| {
        match one_arg("abs", args)? {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(PyExc::type_error(format!(
                "bad operand type for abs(): '{}'",
                other.type_name()
            ))),
        }
    });

    native(heap, b, "min", |vm, args, _| {
        minmax(&vm.heap, "min", args, std::cmp::Ordering::Less)
    });
    native(heap, b, "max", |vm, args, _| {
        minmax(&vm.heap, "max", args, std::cmp::Ordering::Greater)
    });

    native(heap, b, "sum", |vm, args, _| {
        let first = *args.first().ok_or_else(|| arity_error("sum", "at least 1", 0))?;
        let items = iter_values(&vm.heap, first)?;
        let mut acc = Value::Int(0);
        for item in items {
            acc = match (acc, item) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                (Value::Int(a), Value::Float(b)) => Value::Float(a as f64 + b),
                (Value::Float(a), Value::Int(b)) => Value::Float(a + b as f64),
                (Value::Float(a), Value::Float(b)) => Value::Float(a + b),
                (_, other) => {
                    return Err(PyExc::type_error(format!(
                        "unsupported operand type for sum: '{}'",
                        other.type_name()
                    )))
                }
            };
        }
        Ok(acc)
    });

    native(heap, b, "sorted", |vm, args, kwargs| {
        let Some(&iterable) = args.first() else {
            return Err(arity_error("sorted", "at least 1", 0));
        };
        let mut items = iter_values(&vm.heap, iterable)?;
        let key = kwargs.iter().find(|(n, _)| n == "key").map(|&(_, v)| v);
        let reverse = kwargs
            .iter()
            .find(|(n, _)| n == "reverse")
            .map(|(_, v)| v.truthy(&vm.heap))
            .unwrap_or(false);
        // Decorate-sort-undecorate so key functions run through the VM.
        let mut decorated: Vec<(Value, Value)> = Vec::with_capacity(items.len());
        for item in items.drain(..) {
            let k = match key {
                Some(f) => {
                    let mut call_args = vm.take_args();
                    call_args.push(item);
                    call_value(vm, f, call_args, Vec::new())?
                }
                None => item,
            };
            decorated.push((k, item));
        }
        // Insertion sort: values_cmp may be partial; error on incomparable.
        for i in 1..decorated.len() {
            let mut j = i;
            while j > 0 {
                let ord = values_cmp(&vm.heap, decorated[j - 1].0, decorated[j].0)
                    .ok_or_else(|| PyExc::type_error("'<' not supported between sort keys"))?;
                if ord == std::cmp::Ordering::Greater {
                    decorated.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        let mut out: Vec<Value> = decorated.into_iter().map(|(_, v)| v).collect();
        if reverse {
            out.reverse();
        }
        Ok(vm.heap.new_list(out))
    });

    native(heap, b, "enumerate", |vm, args, _| {
        let items = iter_values(&vm.heap, one_arg("enumerate", args)?)?;
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, v)| vm.heap.new_tuple(vec![Value::Int(i as i64), v]))
            .collect();
        Ok(vm.heap.new_list(out))
    });

    native(heap, b, "zip", |vm, args, _| {
        let mut columns = Vec::new();
        for &a in args {
            columns.push(iter_values(&vm.heap, a)?);
        }
        let n = columns.iter().map(Vec::len).min().unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<Value> = columns.iter().map(|c| c[i]).collect();
            out.push(vm.heap.new_tuple(row));
        }
        Ok(vm.heap.new_list(out))
    });

    native(heap, b, "getattr", |vm, args, _| {
        match args.len() {
            2 => {
                let name = str_of(&vm.heap, &args[1], "getattr")?;
                crate::interp::get_attr(vm, args[0], name)
            }
            3 => {
                let name = str_of(&vm.heap, &args[1], "getattr")?;
                Ok(crate::interp::get_attr(vm, args[0], name).unwrap_or(args[2]))
            }
            n => Err(arity_error("getattr", "2 or 3", n)),
        }
    });

    native(heap, b, "hasattr", |vm, args, _| {
        if args.len() != 2 {
            return Err(arity_error("hasattr", "exactly 2", args.len()));
        }
        let name = str_of(&vm.heap, &args[1], "hasattr")?;
        Ok(Value::Bool(crate::interp::get_attr(vm, args[0], name).is_ok()))
    });

    native(heap, b, "setattr", |vm, args, _| {
        if args.len() != 3 {
            return Err(arity_error("setattr", "exactly 3", args.len()));
        }
        match args[0] {
            Value::Instance(i) => {
                let name = str_of(&vm.heap, &args[1], "setattr")?;
                vm.heap.instance(i).set_attr(name, args[2]);
                Ok(Value::None)
            }
            other => Err(PyExc::type_error(format!(
                "setattr target must be an instance, not {}",
                other.type_name()
            ))),
        }
    });

    native(heap, b, "callable", |_vm, args, _| {
        Ok(Value::Bool(matches!(
            one_arg("callable", args)?,
            Value::Func(_) | Value::BoundMethod(_) | Value::Native(_) | Value::Class(_)
        )))
    });
}

fn minmax(
    heap: &Heap,
    name: &'static str,
    args: &[Value],
    want: std::cmp::Ordering,
) -> Result<Value, PyExc> {
    let items = if args.len() == 1 {
        iter_values(heap, args[0])?
    } else {
        args.to_vec()
    };
    let mut best: Option<Value> = None;
    for item in items {
        best = Some(match best {
            None => item,
            Some(cur) => {
                let ord = values_cmp(heap, item, cur)
                    .ok_or_else(|| PyExc::type_error(format!("{name}(): incomparable types")))?;
                if ord == want {
                    item
                } else {
                    cur
                }
            }
        });
    }
    best.ok_or_else(|| PyExc::value_error(format!("{name}() arg is an empty sequence")))
}

pub(crate) fn int_of(v: &Value, ctx: &str) -> Result<i64, PyExc> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Bool(b) => Ok(*b as i64),
        other => Err(PyExc::type_error(format!(
            "{ctx}: expected int, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn float_of(v: &Value, ctx: &str) -> Result<f64, PyExc> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        Value::Bool(b) => Ok(*b as i64 as f64),
        other => Err(PyExc::type_error(format!(
            "{ctx}: expected number, got {}",
            other.type_name()
        ))),
    }
}

/// A native's string argument, borrowed from the heap (no copy at the
/// native boundary).
pub(crate) fn str_of<'h>(heap: &'h Heap, v: &Value, ctx: &str) -> Result<&'h str, PyExc> {
    match v {
        Value::Str(s) => Ok(heap.str(*s)),
        other => Err(PyExc::type_error(format!(
            "{ctx}: expected str, got {}",
            other.type_name()
        ))),
    }
}
