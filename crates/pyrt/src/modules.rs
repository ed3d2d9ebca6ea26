//! Simulated standard-library modules available to the target program.
//!
//! These are the modules the paper's campaigns inject into (Table I:
//! "API calls to the urllib and os Python modules") plus the support
//! modules the corpus needs (`time`, `random`, `logging`, `threading`)
//! and the ProFIPy runtime support module `profipy_rt` that the mutator
//! links injected code against (`$CORRUPT`, `$HOG`, `$TIMEOUT`,
//! trigger, coverage probes).

use crate::builtins::{float_of, int_of, native_value, str_of};
use crate::exc::PyExc;
use crate::host::TransportError;
use crate::interp::call_value;
use crate::value::*;
use crate::vm::{Severity, Vm};
use rand::Rng;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;

/// Instantiates a native module by import name, or `None` if the name
/// is not a native module. Returns the module's heap handle.
pub fn instantiate_native(vm: &mut Vm, name: &str) -> Option<u32> {
    match name {
        "os" => Some(os_module(vm)),
        "urllib" => Some(urllib_module(vm)),
        "time" => Some(time_module(vm)),
        "random" => Some(random_module(vm)),
        "logging" => Some(logging_module(vm)),
        "threading" => Some(threading_module(vm)),
        "profipy_rt" => Some(profipy_rt_module(vm)),
        _ => None,
    }
}

// ---------- os ----------

fn os_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("os");
    let mo = heap.module(m);
    mo.set(
        "getenv",
        native_value(heap, "getenv", |vm, args, _| {
            let name = str_of(
                &vm.heap,
                args.first().ok_or_else(|| arg_err("getenv"))?,
                "getenv",
            )?;
            Ok(match vm.host.getenv(name) {
                Some(v) => vm.heap.new_string(v),
                None => args.get(1).copied().unwrap_or(Value::None),
            })
        }),
    );
    mo.set(
        "path_exists",
        native_value(heap, "path_exists", |vm, args, _| {
            let p = str_of(
                &vm.heap,
                args.first().ok_or_else(|| arg_err("path_exists"))?,
                "path_exists",
            )?;
            Ok(Value::Bool(vm.host.path_exists(p)))
        }),
    );
    mo.set(
        "read_file",
        native_value(heap, "read_file", |vm, args, _| {
            let p = str_of(
                &vm.heap,
                args.first().ok_or_else(|| arg_err("read_file"))?,
                "read_file",
            )?;
            match vm.host.read_file(p) {
                Ok(contents) => Ok(vm.heap.new_string(contents)),
                Err(msg) => Err(PyExc::new("IOError", msg)),
            }
        }),
    );
    mo.set(
        "write_file",
        native_value(heap, "write_file", |vm, args, _| {
            if args.len() < 2 {
                return Err(arg_err("write_file"));
            }
            let p = str_of(&vm.heap, &args[0], "write_file")?;
            let data = args[1].display(&vm.heap);
            vm.host
                .write_file(p, &data)
                .map_err(|msg| PyExc::new("IOError", msg))?;
            Ok(Value::None)
        }),
    );
    mo.set(
        "execute",
        native_value(heap, "execute", |vm, args, _| {
            // `os.execute(cmd, arg1, arg2, ...)` — the paper's §III WPF
            // target (`utils.execute` invoking iptables/dnsmasq/e2fsck).
            let mut argv = Vec::new();
            for a in args {
                argv.push(a.to_display(&vm.heap));
            }
            if argv.is_empty() {
                return Err(arg_err("execute"));
            }
            let (code, out) = vm.host.execute(&argv);
            if code != 0 {
                return Err(PyExc::new(
                    "OSError",
                    format!("command '{}' failed with exit code {code}: {out}", argv[0]),
                ));
            }
            let out = vm.heap.new_string(out);
            Ok(vm.heap.new_tuple(vec![Value::Int(code as i64), out]))
        }),
    );
    m
}

// ---------- urllib ----------

fn urllib_module(vm: &mut Vm) -> u32 {
    let m = vm.heap.new_module("urllib");
    // Exception classes the simulated transport raises.
    let os_error = vm
        .exception_class("OSError")
        .expect("OSError is a builtin exception");
    for name in ["ConnectTimeoutError", "ProtocolError", "HTTPError"] {
        let class = vm.heap.new_class(ClassObj {
            name: name.to_string(),
            base: Some(os_error),
            attrs: RefCell::new(Vec::new()),
            is_exception: true,
        });
        vm.register_exception_class(class);
        vm.heap.module(m).set(name, Value::Class(class));
    }

    let heap = &vm.heap;
    let mo = heap.module(m);
    mo.set(
        "request",
        native_value(heap, "request", |vm, args, kwargs| {
            // urllib.request(method, url, body='', timeout=5.0) -> response dict
            if args.len() < 2 {
                return Err(arg_err("request"));
            }
            let method = str_of(&vm.heap, &args[0], "request")?;
            let url = str_of(&vm.heap, &args[1], "request")?;
            let body = match args.get(2) {
                Some(Value::None) | None => Cow::Borrowed(""),
                Some(other) => other.display(&vm.heap),
            };
            let timeout = kwargs
                .iter()
                .find(|(n, _)| n == "timeout")
                .map(|(_, v)| float_of(v, "timeout"))
                .transpose()?
                .unwrap_or(5.0);
            http_request(vm, method, url, &body, timeout)
        }),
    );
    mo.set(
        "quote",
        native_value(heap, "quote", |vm, args, _| {
            let s = str_of(
                &vm.heap,
                args.first().ok_or_else(|| arg_err("quote"))?,
                "quote",
            )?;
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                if c.is_ascii_alphanumeric() || "-_.~/".contains(c) {
                    out.push(c);
                } else {
                    let mut utf8 = [0u8; 4];
                    for b in c.encode_utf8(&mut utf8).bytes() {
                        let _ = write!(out, "%{b:02X}");
                    }
                }
            }
            Ok(vm.heap.new_string(out))
        }),
    );
    mo.set(
        "urlencode",
        native_value(heap, "urlencode", |vm, args, _| {
            let d = match args.first() {
                Some(Value::Dict(d)) => *d,
                _ => return Err(arg_err("urlencode")),
            };
            let mut out = String::new();
            for (i, &(k, v)) in vm.heap.dict(d).borrow().iter().enumerate() {
                if i > 0 {
                    out.push('&');
                }
                out.push_str(&k.display(&vm.heap));
                out.push('=');
                out.push_str(&v.display(&vm.heap));
            }
            Ok(vm.heap.new_string(out))
        }),
    );
    m
}

/// Performs a simulated HTTP request through the host, translating
/// transport errors to the exception classes the paper's campaigns
/// inject and observe.
fn http_request(
    vm: &Vm,
    method: &str,
    url: &str,
    body: &str,
    timeout: f64,
) -> Result<Value, PyExc> {
    let (result, elapsed) = vm
        .host
        .http_request(vm.now(), method, url, body, timeout);
    vm.advance_clock(elapsed);
    match result {
        Ok(resp) => {
            let status_key = vm.heap.new_str("status");
            let data_key = vm.heap.new_str("data");
            let data = vm.heap.new_string(resp.body);
            Ok(vm.heap.new_dict_from(vec![
                (status_key, Value::Int(resp.status as i64)),
                (data_key, data),
            ]))
        }
        Err(TransportError::Timeout) => Err(PyExc::new(
            "ConnectTimeoutError",
            format!("timed out after {timeout}s: {method} {url}"),
        )),
        Err(TransportError::ConnectionRefused) => Err(PyExc::new(
            "ConnectionRefusedError",
            format!("connection refused: {method} {url}"),
        )),
        Err(TransportError::Reset) => Err(PyExc::new(
            "ProtocolError",
            format!("connection reset during {method} {url}"),
        )),
    }
}

// ---------- time ----------

fn time_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("time");
    let mo = heap.module(m);
    mo.set(
        "time",
        native_value(heap, "time", |vm, _args, _| Ok(Value::Float(vm.now()))),
    );
    mo.set(
        "monotonic",
        native_value(heap, "monotonic", |vm, _args, _| Ok(Value::Float(vm.now()))),
    );
    mo.set(
        "sleep",
        native_value(heap, "sleep", |vm, args, _| {
            let secs = float_of(args.first().ok_or_else(|| arg_err("sleep"))?, "sleep")?;
            vm.advance_clock(secs.max(0.0));
            // Sleeping still burns a little fuel so sleep loops terminate.
            vm.tick()?;
            Ok(Value::None)
        }),
    );
    m
}

// ---------- random ----------

fn random_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("random");
    let mo = heap.module(m);
    mo.set(
        "random",
        native_value(heap, "random", |vm, _args, _| {
            Ok(Value::Float(vm.rng.borrow_mut().gen::<f64>()))
        }),
    );
    mo.set(
        "randint",
        native_value(heap, "randint", |vm, args, _| {
            if args.len() != 2 {
                return Err(arg_err("randint"));
            }
            let a = int_of(&args[0], "randint")?;
            let b = int_of(&args[1], "randint")?;
            if a > b {
                return Err(PyExc::value_error("empty range for randint()"));
            }
            Ok(Value::Int(vm.rng.borrow_mut().gen_range(a..=b)))
        }),
    );
    mo.set(
        "choice",
        native_value(heap, "choice", |vm, args, _| {
            let src = *args.first().ok_or_else(|| arg_err("choice"))?;
            let items = crate::interp::iter_values(&vm.heap, src)?;
            if items.is_empty() {
                return Err(PyExc::new("IndexError", "cannot choose from an empty sequence"));
            }
            let i = vm.rng.borrow_mut().gen_range(0..items.len());
            Ok(items[i])
        }),
    );
    mo.set(
        "seed",
        native_value(heap, "seed", |_vm, _args, _| Ok(Value::None)),
    );
    m
}

// ---------- logging ----------

fn log_fn(heap: &Heap, name: &'static str, severity: Severity) -> Value {
    native_value(heap, name, move |vm, args, _| {
        let msg = args
            .first()
            .map(|v| v.to_display(&vm.heap))
            .unwrap_or_default();
        vm.log(severity, msg);
        Ok(Value::None)
    })
}

fn logging_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("logging");
    let mo = heap.module(m);
    mo.set("debug", log_fn(heap, "debug", Severity::Debug));
    mo.set("info", log_fn(heap, "info", Severity::Info));
    mo.set("warning", log_fn(heap, "warning", Severity::Warning));
    mo.set("error", log_fn(heap, "error", Severity::Error));
    mo.set("critical", log_fn(heap, "critical", Severity::Critical));
    mo.set(
        "getLogger",
        native_value(heap, "getLogger", |vm, args, _| {
            // Loggers attribute records to the component named at
            // getLogger() time.
            let component = match args.first() {
                Some(Value::Str(s)) => vm.heap.str(*s).to_string(),
                _ => "root".to_string(),
            };
            let logger = vm.heap.new_module(&format!("logger:{component}"));
            for (name, sev) in [
                ("debug", Severity::Debug),
                ("info", Severity::Info),
                ("warning", Severity::Warning),
                ("error", Severity::Error),
                ("critical", Severity::Critical),
            ] {
                let component = component.clone();
                let f = native_value(
                    &vm.heap,
                    name,
                    move |vm: &mut Vm, args: &[Value], _: &[(KwName, Value)]| {
                        let msg = args
                            .first()
                            .map(|v| v.to_display(&vm.heap))
                            .unwrap_or_default();
                        let prev = std::mem::replace(
                            &mut *vm.current_component.borrow_mut(),
                            component.clone(),
                        );
                        vm.log(sev, msg);
                        *vm.current_component.borrow_mut() = prev;
                        Ok(Value::None)
                    },
                );
                vm.heap.module(logger).set(name, f);
            }
            Ok(Value::Module(logger))
        }),
    );
    m
}

// ---------- threading ----------

fn threading_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("threading");
    // Deterministic cooperative model: `Thread.start()` runs the target
    // to completion synchronously. CPU hogs are modeled separately via
    // `profipy_rt.hog()` which starves the *whole* VM — see DESIGN.md.
    let thread_class = heap.new_class(ClassObj {
        name: "Thread".to_string(),
        base: None,
        attrs: RefCell::new(Vec::new()),
        is_exception: false,
    });
    heap.class(thread_class).attrs.borrow_mut().push((
        crate::intern::intern("start"),
        native_value(heap, "start", |vm, args, _| {
            let recv = args.first().copied().ok_or_else(|| arg_err("start"))?;
            if let Value::Instance(i) = recv {
                let target = vm.heap.instance(i).get_attr("_target");
                if let Some(target) = target {
                    let call_args = match vm.heap.instance(i).get_attr("_args") {
                        Some(Value::Tuple(t)) => vm.heap.tuple(t).to_vec(),
                        Some(Value::List(l)) => vm.heap.list(l).borrow().clone(),
                        _ => Vec::new(),
                    };
                    call_value(vm, target, call_args, Vec::new())?;
                }
                vm.heap.instance(i).set_attr("_started", Value::Bool(true));
            }
            Ok(Value::None)
        }),
    ));
    heap.class(thread_class).attrs.borrow_mut().push((
        crate::intern::intern("join"),
        native_value(heap, "join", |_vm, _args, _| Ok(Value::None)),
    ));
    heap.class(thread_class).attrs.borrow_mut().push((
        crate::intern::intern("__init__"),
        native_value(heap, "__init__", |vm, args, kwargs| {
            let recv = args.first().copied().ok_or_else(|| arg_err("Thread"))?;
            if let Value::Instance(i) = recv {
                for (n, v) in kwargs {
                    match &**n {
                        "target" => vm.heap.instance(i).set_attr("_target", *v),
                        "args" => vm.heap.instance(i).set_attr("_args", *v),
                        "daemon" => vm.heap.instance(i).set_attr("daemon", *v),
                        _ => {}
                    }
                }
            }
            Ok(Value::None)
        }),
    ));
    heap.module(m).set("Thread", Value::Class(thread_class));
    m
}

// ---------- profipy_rt ----------

/// Builds the ProFIPy runtime-support module. The mutator emits calls
/// into this module:
///
/// * `profipy_rt.trigger()` — EDFI-style fault switch (paper §IV-B).
/// * `profipy_rt.cov(id)` — coverage probe (paper §IV-D).
/// * `profipy_rt.corrupt(v)` — `$CORRUPT` directive.
/// * `profipy_rt.hog()` — `$HOG` directive (stale CPU-hog thread).
/// * `profipy_rt.delay(secs)` — `$TIMEOUT` directive.
fn profipy_rt_module(vm: &Vm) -> u32 {
    let heap = &vm.heap;
    let m = heap.new_module("profipy_rt");
    let mo = heap.module(m);
    mo.set(
        "trigger",
        native_value(heap, "trigger", |vm, _args, _| {
            Ok(Value::Bool(vm.trigger.get()))
        }),
    );
    mo.set(
        "cov",
        native_value(heap, "cov", |vm, args, _| {
            let id = int_of(args.first().ok_or_else(|| arg_err("cov"))?, "cov")?;
            vm.mark_covered(id as u64);
            Ok(Value::None)
        }),
    );
    mo.set(
        "corrupt",
        native_value(heap, "corrupt", |vm, args, _| {
            let v = args.first().copied().ok_or_else(|| arg_err("corrupt"))?;
            Ok(corrupt_value(vm, v))
        }),
    );
    mo.set(
        "hog",
        native_value(heap, "hog", |vm, _args, _| {
            vm.add_hog();
            vm.host.note_hog();
            Ok(Value::None)
        }),
    );
    mo.set(
        "delay",
        native_value(heap, "delay", |vm, args, _| {
            let secs = float_of(args.first().ok_or_else(|| arg_err("delay"))?, "delay")?;
            vm.advance_clock(secs.max(0.0));
            vm.tick()?;
            Ok(Value::None)
        }),
    );
    m
}

/// `$CORRUPT` semantics: strings get characters randomly replaced
/// (including non-ASCII substitutions — the paper's §V-B "non-ASCII
/// string → 400 Bad Request" failure), ints become random negatives,
/// everything else becomes `None`.
pub fn corrupt_value(vm: &Vm, v: Value) -> Value {
    let mut rng = vm.rng.borrow_mut();
    match v {
        Value::Str(s) => {
            let mut chars: Vec<char> = vm.heap.str(s).chars().collect();
            if chars.is_empty() {
                chars.push('\u{00bf}');
            }
            // Corrupt one or two characters. A minority of the
            // substitutions are non-ASCII — those are the inputs the
            // paper's server rejects with 400 Bad Request; ASCII
            // corruptions produce wrong-but-well-formed inputs whose
            // failures surface later (missing keys, failed checks).
            let n = rng.gen_range(1..=2.min(chars.len()));
            for _ in 0..n {
                let i = rng.gen_range(0..chars.len());
                chars[i] = if rng.gen_bool(0.2) {
                    char::from_u32(rng.gen_range(0xA1..0x17F)).unwrap_or('\u{00bf}')
                } else {
                    char::from(rng.gen_range(b'a'..=b'z'))
                };
            }
            vm.heap.new_string(chars.into_iter().collect::<String>())
        }
        Value::Int(_) => Value::Int(-(rng.gen_range(1..10_000i64))),
        Value::Float(_) => Value::Float(-rng.gen::<f64>() * 1e6),
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::None,
    }
}

fn arg_err(name: &str) -> PyExc {
    PyExc::type_error(format!("{name}(): missing required argument"))
}
