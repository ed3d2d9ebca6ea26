//! Built-in methods on primitive values (`str`, `list`, `dict`, ...).
//!
//! A method fetch allocates one [`NativeObj::Method`] slab slot pairing
//! a [`MethodKind`] with the receiver — a first-class value exactly
//! like in Python (each fetch is a distinct object), but with no
//! per-fetch closure allocation. Calls dispatch on the kind here.

use crate::builtins::{int_of, str_of};
use crate::exc::PyExc;
use crate::interp::{call_value, iter_values};
use crate::value::*;
use crate::vm::Vm;

/// Identifies one built-in method on one receiver type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MethodKind {
    StrStartswith,
    StrEndswith,
    StrSplit,
    StrJoin,
    StrStrip,
    StrLstrip,
    StrRstrip,
    StrReplace,
    StrLower,
    StrUpper,
    StrFind,
    StrFormat,
    StrEncode,
    StrDecode,
    StrIsdigit,
    StrIsalpha,
    StrCount,
    StrZfill,
    ListAppend,
    ListExtend,
    ListInsert,
    ListPop,
    ListRemove,
    ListIndex,
    ListCount,
    ListReverse,
    ListSort,
    DictGet,
    DictKeys,
    DictValues,
    DictItems,
    DictPop,
    DictSetdefault,
    DictUpdate,
    DictClear,
    DictCopy,
    SetAdd,
    SetDiscard,
    TupleCount,
    TupleIndex,
}

impl MethodKind {
    /// Python-visible method name (for error messages and reprs).
    pub fn name(self) -> &'static str {
        use MethodKind::*;
        match self {
            StrStartswith => "startswith",
            StrEndswith => "endswith",
            StrSplit => "split",
            StrJoin => "join",
            StrStrip => "strip",
            StrLstrip => "lstrip",
            StrRstrip => "rstrip",
            StrReplace => "replace",
            StrLower => "lower",
            StrUpper => "upper",
            StrFind => "find",
            StrFormat => "format",
            StrEncode => "encode",
            StrDecode => "decode",
            StrIsdigit => "isdigit",
            StrIsalpha => "isalpha",
            StrCount | ListCount | TupleCount => "count",
            StrZfill => "zfill",
            ListAppend => "append",
            ListExtend => "extend",
            ListInsert => "insert",
            ListPop | DictPop => "pop",
            ListRemove => "remove",
            ListIndex | TupleIndex => "index",
            ListReverse => "reverse",
            ListSort => "sort",
            DictGet => "get",
            DictKeys => "keys",
            DictValues => "values",
            DictItems => "items",
            DictSetdefault => "setdefault",
            DictUpdate => "update",
            DictClear => "clear",
            DictCopy => "copy",
            SetAdd => "add",
            SetDiscard => "discard",
        }
    }
}

/// Looks up a built-in method on a primitive receiver.
pub fn builtin_method(vm: &Vm, recv: Value, name: &str) -> Option<Value> {
    use MethodKind::*;
    let kind = match recv {
        Value::Str(_) => match name {
            "startswith" => StrStartswith,
            "endswith" => StrEndswith,
            "split" => StrSplit,
            "join" => StrJoin,
            "strip" => StrStrip,
            "lstrip" => StrLstrip,
            "rstrip" => StrRstrip,
            "replace" => StrReplace,
            "lower" => StrLower,
            "upper" => StrUpper,
            "find" => StrFind,
            "format" => StrFormat,
            "encode" => StrEncode,
            "decode" => StrDecode,
            "isdigit" => StrIsdigit,
            "isalpha" => StrIsalpha,
            "count" => StrCount,
            "zfill" => StrZfill,
            _ => return None,
        },
        Value::List(_) => match name {
            "append" => ListAppend,
            "extend" => ListExtend,
            "insert" => ListInsert,
            "pop" => ListPop,
            "remove" => ListRemove,
            "index" => ListIndex,
            "count" => ListCount,
            "reverse" => ListReverse,
            "sort" => ListSort,
            _ => return None,
        },
        Value::Dict(_) => match name {
            "get" => DictGet,
            "keys" => DictKeys,
            "values" => DictValues,
            "items" => DictItems,
            "pop" => DictPop,
            "setdefault" => DictSetdefault,
            "update" => DictUpdate,
            "clear" => DictClear,
            "copy" => DictCopy,
            _ => return None,
        },
        Value::Set(_) => match name {
            "add" => SetAdd,
            "discard" => SetDiscard,
            _ => return None,
        },
        Value::Tuple(_) => match name {
            "count" => TupleCount,
            "index" => TupleIndex,
            _ => return None,
        },
        _ => return None,
    };
    Some(vm.heap.new_method(kind, recv))
}

/// Invokes a built-in method (the call side of [`builtin_method`]).
pub fn call_method(
    vm: &mut Vm,
    kind: MethodKind,
    recv: Value,
    args: &[Value],
    kwargs: &[(KwName, Value)],
) -> Result<Value, PyExc> {
    use MethodKind::*;
    match (kind, recv) {
        (
            StrStartswith | StrEndswith | StrSplit | StrJoin | StrStrip | StrLstrip | StrRstrip
            | StrReplace | StrLower | StrUpper | StrFind | StrFormat | StrEncode | StrDecode
            | StrIsdigit | StrIsalpha | StrCount | StrZfill,
            Value::Str(s),
        ) => str_method(&vm.heap, kind, s, recv, args),
        (ListSort, Value::List(l)) => {
            let sorted_fn = vm
                .builtins
                .borrow()
                .get("sorted")
                .expect("sorted is always installed");
            let out = call_value(vm, sorted_fn, vec![recv], kwargs.to_vec())?;
            if let Value::List(new) = out {
                let items = vm.heap.list(new).borrow().clone();
                *vm.heap.list(l).borrow_mut() = items;
            }
            Ok(Value::None)
        }
        (
            ListAppend | ListExtend | ListInsert | ListPop | ListRemove | ListIndex | ListCount
            | ListReverse,
            Value::List(l),
        ) => list_method(&vm.heap, kind, l, args),
        (
            DictGet | DictKeys | DictValues | DictItems | DictPop | DictSetdefault | DictUpdate
            | DictClear | DictCopy,
            Value::Dict(d),
        ) => dict_method(&vm.heap, kind, d, args, kwargs),
        (SetAdd | SetDiscard, Value::Set(s)) => set_method(&vm.heap, kind, s, args),
        (TupleCount | TupleIndex, Value::Tuple(t)) => tuple_method(&vm.heap, kind, t, args),
        _ => unreachable!("method kind/receiver pairing checked at fetch"),
    }
}

fn str_method(
    heap: &Heap,
    kind: MethodKind,
    sid: u32,
    recv: Value,
    args: &[Value],
) -> Result<Value, PyExc> {
    use MethodKind::*;
    let s = heap.str(sid);
    match kind {
        StrStartswith => {
            let prefix = str_of(heap, args.first().ok_or_else(|| miss("startswith"))?, "startswith")?;
            Ok(Value::Bool(s.starts_with(prefix)))
        }
        StrEndswith => {
            let suffix = str_of(heap, args.first().ok_or_else(|| miss("endswith"))?, "endswith")?;
            Ok(Value::Bool(s.ends_with(suffix)))
        }
        StrSplit => {
            let parts: Vec<Value> = match args.first() {
                Some(sep) => {
                    let sep = str_of(heap, sep, "split")?;
                    s.split(sep).map(|p| heap.new_str(p)).collect()
                }
                None => s.split_whitespace().map(|p| heap.new_str(p)).collect(),
            };
            Ok(heap.new_list(parts))
        }
        StrJoin => {
            let items = iter_values(heap, *args.first().ok_or_else(|| miss("join"))?)?;
            let mut out = String::new();
            for (i, item) in items.into_iter().enumerate() {
                match item {
                    Value::Str(p) => {
                        bounded_len(out.len().checked_add(s.len() + heap.str(p).len()))?;
                        if i > 0 {
                            out.push_str(s);
                        }
                        out.push_str(heap.str(p));
                    }
                    other => {
                        return Err(PyExc::type_error(format!(
                            "sequence item: expected str instance, {} found",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(heap.new_string(out))
        }
        StrStrip => Ok(heap.new_str(s.trim())),
        StrLstrip => Ok(heap.new_str(s.trim_start())),
        StrRstrip => Ok(heap.new_str(s.trim_end())),
        StrReplace => {
            if args.len() != 2 {
                return Err(miss("replace"));
            }
            let from = str_of(heap, &args[0], "replace")?;
            let to = str_of(heap, &args[1], "replace")?;
            if to.len() > from.len() {
                let hits = if from.is_empty() {
                    s.chars().count() + 1
                } else {
                    s.matches(from).count()
                };
                let grow = hits.checked_mul(to.len() - from.len());
                bounded_len(grow.and_then(|grow| grow.checked_add(s.len())))?;
            }
            Ok(heap.new_string(s.replace(from, to)))
        }
        StrLower => Ok(heap.new_string(s.to_lowercase())),
        StrUpper => Ok(heap.new_string(s.to_uppercase())),
        StrFind => {
            let sub = str_of(heap, args.first().ok_or_else(|| miss("find"))?, "find")?;
            Ok(Value::Int(match s.find(sub) {
                Some(byte_idx) => s[..byte_idx].chars().count() as i64,
                None => -1,
            }))
        }
        StrFormat => {
            // Positional `{}` placeholders only.
            let mut out = String::new();
            let mut idx = 0usize;
            let mut chars = s.chars().peekable();
            while let Some(c) = chars.next() {
                if c == '{' && chars.peek() == Some(&'}') {
                    chars.next();
                    let v = args
                        .get(idx)
                        .ok_or_else(|| PyExc::new("IndexError", "format index out of range"))?;
                    out.push_str(&v.display(heap));
                    bounded_len(Some(out.len()))?;
                    idx += 1;
                } else {
                    out.push(c);
                }
            }
            Ok(heap.new_string(out))
        }
        // Bytes are modeled as strings in this VM.
        StrEncode | StrDecode => Ok(recv),
        StrIsdigit => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
        )),
        StrIsalpha => Ok(Value::Bool(!s.is_empty() && s.chars().all(char::is_alphabetic))),
        StrCount => {
            let sub = str_of(heap, args.first().ok_or_else(|| miss("count"))?, "count")?;
            if sub.is_empty() {
                return Ok(Value::Int(s.chars().count() as i64 + 1));
            }
            Ok(Value::Int(s.matches(sub).count() as i64))
        }
        StrZfill => {
            // Negative widths clamp to 0 (a plain `as usize` would wrap
            // to a huge width and loop effectively forever).
            let width = int_of(args.first().ok_or_else(|| miss("zfill"))?, "zfill")?.max(0) as usize;
            let pad = width.saturating_sub(s.chars().count());
            bounded_len(s.len().checked_add(pad))?;
            let mut out = "0".repeat(pad);
            out.push_str(s);
            Ok(heap.new_string(out))
        }
        _ => unreachable!("str kind dispatched by caller"),
    }
}

fn list_method(heap: &Heap, kind: MethodKind, lid: u32, args: &[Value]) -> Result<Value, PyExc> {
    use MethodKind::*;
    let l = heap.list(lid);
    match kind {
        ListAppend => {
            if args.len() != 1 {
                return Err(miss("append"));
            }
            l.borrow_mut().push(args[0]);
            Ok(Value::None)
        }
        ListExtend => {
            let items = iter_values(heap, *args.first().ok_or_else(|| miss("extend"))?)?;
            bounded_len(l.borrow().len().checked_add(items.len()))?;
            l.borrow_mut().extend(items);
            Ok(Value::None)
        }
        ListInsert => {
            if args.len() != 2 {
                return Err(miss("insert"));
            }
            let v = args[1];
            let idx = int_of(&args[0], "insert")?;
            let mut list = l.borrow_mut();
            let len = list.len() as i64;
            let pos = if idx < 0 { (idx + len).max(0) } else { idx.min(len) };
            list.insert(pos as usize, v);
            Ok(Value::None)
        }
        ListPop => {
            let mut list = l.borrow_mut();
            if list.is_empty() {
                return Err(PyExc::index_error("pop from empty list"));
            }
            let idx = match args.first() {
                Some(v) => {
                    let i = int_of(v, "pop")?;
                    let len = list.len() as i64;
                    let adj = if i < 0 { i + len } else { i };
                    if adj < 0 || adj >= len {
                        return Err(PyExc::index_error("pop"));
                    }
                    adj as usize
                }
                None => list.len() - 1,
            };
            Ok(list.remove(idx))
        }
        ListRemove => {
            let needle = *args.first().ok_or_else(|| miss("remove"))?;
            let mut list = l.borrow_mut();
            match list.iter().position(|&v| values_eq(heap, v, needle)) {
                Some(i) => {
                    list.remove(i);
                    Ok(Value::None)
                }
                None => Err(PyExc::value_error("list.remove(x): x not in list")),
            }
        }
        ListIndex => {
            let needle = *args.first().ok_or_else(|| miss("index"))?;
            let list = l.borrow();
            list.iter()
                .position(|&v| values_eq(heap, v, needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| PyExc::value_error("x not in list"))
        }
        ListCount => {
            let needle = *args.first().ok_or_else(|| miss("count"))?;
            Ok(Value::Int(
                l.borrow().iter().filter(|&&v| values_eq(heap, v, needle)).count() as i64,
            ))
        }
        ListReverse => {
            l.borrow_mut().reverse();
            Ok(Value::None)
        }
        _ => unreachable!("list kind dispatched by caller"),
    }
}

fn dict_method(
    heap: &Heap,
    kind: MethodKind,
    did: u32,
    args: &[Value],
    kwargs: &[(KwName, Value)],
) -> Result<Value, PyExc> {
    use MethodKind::*;
    let d = heap.dict(did);
    match kind {
        DictGet => {
            let key = *args.first().ok_or_else(|| miss("get"))?;
            Ok(d.borrow()
                .get(heap, key)
                .unwrap_or_else(|| args.get(1).copied().unwrap_or(Value::None)))
        }
        DictKeys => Ok(heap.new_list(d.borrow().iter().map(|&(k, _)| k).collect())),
        DictValues => Ok(heap.new_list(d.borrow().iter().map(|&(_, v)| v).collect())),
        DictItems => {
            let pairs: Vec<(Value, Value)> = d.borrow().iter().copied().collect();
            Ok(heap.new_list(
                pairs
                    .into_iter()
                    .map(|(k, v)| heap.new_tuple(vec![k, v]))
                    .collect(),
            ))
        }
        DictPop => {
            let key = *args.first().ok_or_else(|| miss("pop"))?;
            match d.borrow_mut().remove(heap, key) {
                Some(v) => Ok(v),
                None => match args.get(1) {
                    Some(&default) => Ok(default),
                    None => Err(PyExc::key_error(heap, key)),
                },
            }
        }
        DictSetdefault => {
            let key = *args.first().ok_or_else(|| miss("setdefault"))?;
            let default = args.get(1).copied().unwrap_or(Value::None);
            let mut dict = d.borrow_mut();
            if let Some(v) = dict.get(heap, key) {
                return Ok(v);
            }
            dict.set(heap, key, default);
            Ok(default)
        }
        DictUpdate => {
            if let Some(&Value::Dict(src)) = args.first() {
                let pairs: Vec<(Value, Value)> = heap.dict(src).borrow().iter().copied().collect();
                let mut dst = d.borrow_mut();
                for (k, v) in pairs {
                    dst.set(heap, k, v);
                }
            }
            let mut dst = d.borrow_mut();
            for (k, v) in kwargs {
                let key = heap.new_str(k);
                dst.set(heap, key, *v);
            }
            Ok(Value::None)
        }
        DictClear => {
            *d.borrow_mut() = DictObj::new();
            Ok(Value::None)
        }
        DictCopy => {
            let pairs: Vec<(Value, Value)> = d.borrow().iter().copied().collect();
            Ok(heap.new_dict_from(pairs))
        }
        _ => unreachable!("dict kind dispatched by caller"),
    }
}

fn set_method(heap: &Heap, kind: MethodKind, sid: u32, args: &[Value]) -> Result<Value, PyExc> {
    use MethodKind::*;
    let s = heap.set(sid);
    match kind {
        SetAdd => {
            if args.len() != 1 {
                return Err(miss("add"));
            }
            let v = args[0];
            let mut set = s.borrow_mut();
            if !set.iter().any(|&x| values_eq(heap, x, v)) {
                set.push(v);
            }
            Ok(Value::None)
        }
        SetDiscard => {
            let needle = *args.first().ok_or_else(|| miss("discard"))?;
            s.borrow_mut().retain(|&x| !values_eq(heap, x, needle));
            Ok(Value::None)
        }
        _ => unreachable!("set kind dispatched by caller"),
    }
}

fn tuple_method(heap: &Heap, kind: MethodKind, tid: u32, args: &[Value]) -> Result<Value, PyExc> {
    use MethodKind::*;
    let t = heap.tuple(tid);
    match kind {
        TupleCount => {
            let needle = *args.first().ok_or_else(|| miss("count"))?;
            Ok(Value::Int(
                t.iter().filter(|&&v| values_eq(heap, v, needle)).count() as i64,
            ))
        }
        TupleIndex => {
            let needle = *args.first().ok_or_else(|| miss("index"))?;
            t.iter()
                .position(|&v| values_eq(heap, v, needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| PyExc::value_error("tuple.index(x): x not in tuple"))
        }
        _ => unreachable!("tuple kind dispatched by caller"),
    }
}

fn miss(name: &str) -> PyExc {
    PyExc::type_error(format!("{name}(): wrong number of arguments"))
}
