//! DSL parsing: `change { ... } into { ... }` → [`BugSpec`] meta-model.

use pysrc::ast::Stmt;
use std::collections::HashMap;
use std::fmt;

/// Prefix of reserved placeholder identifiers in the meta-model ASTs.
pub const PLACEHOLDER_PREFIX: &str = "__dsl_";
/// The argument-list wildcard placeholder (`...`).
pub const ELLIPSIS: &str = "__dsl_ellipsis__";

/// Error produced while parsing a bug specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DslError {
    /// Human-readable description.
    pub message: String,
}

impl DslError {
    fn new(message: impl Into<String>) -> DslError {
        DslError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DSL error: {}", self.message)
    }
}

impl std::error::Error for DslError {}

impl From<pysrc::ParseError> for DslError {
    fn from(e: pysrc::ParseError) -> Self {
        DslError::new(format!("embedded Python fragment: {e}"))
    }
}

/// What a directive stands for.
#[derive(Clone, Debug, PartialEq)]
pub enum DirectiveKind {
    /// `$BLOCK{stmts=min,max}` — a run of statements.
    Block {
        /// Minimum statements.
        min: usize,
        /// Maximum statements (`None` = unbounded, `*`).
        max: Option<usize>,
    },
    /// `$CALL{name=glob}` — a function/method call.
    Call {
        /// Glob on the dotted callee path.
        name: Option<String>,
    },
    /// `$EXPR{var=glob}` — any expression (optionally referencing a
    /// variable matching the glob).
    Expr {
        /// Glob on a referenced variable name.
        var: Option<String>,
    },
    /// `$STRING{val=glob}` — a string literal.
    Str {
        /// Glob on the literal value.
        val: Option<String>,
    },
    /// `$NUM` — a numeric literal.
    Num,
    /// `$VAR{name=glob}` — a bare name.
    Var {
        /// Glob on the name.
        name: Option<String>,
    },
    /// `$CORRUPT(x)` — replacement-side value corruption.
    Corrupt,
    /// `$HOG` — replacement-side CPU hog.
    Hog,
    /// `$TIMEOUT{secs=x}` — replacement-side artificial delay.
    Timeout {
        /// Seconds to delay.
        secs: f64,
    },
}

/// A parsed directive occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct Directive {
    /// What the directive matches/produces.
    pub kind: DirectiveKind,
    /// Tag for reuse in the replacement (`#c` or `{tag=...}`).
    pub tag: Option<String>,
}

/// A compiled bug specification (the paper's meta-model).
#[derive(Clone, Debug)]
pub struct BugSpec {
    /// Specification name (used in plans and reports).
    pub name: String,
    /// The original DSL source.
    pub source: String,
    /// Pattern statements (mini-Python AST with placeholders).
    pub pattern: Vec<Stmt>,
    /// Replacement statements (mini-Python AST with placeholders).
    pub replacement: Vec<Stmt>,
    /// Placeholder name → directive descriptor.
    pub directives: HashMap<String, Directive>,
}

impl BugSpec {
    /// Looks up the directive behind a placeholder identifier, if the
    /// name is a placeholder of this spec.
    pub fn directive(&self, ident: &str) -> Option<&Directive> {
        self.directives.get(ident)
    }

    /// True if `ident` is the ellipsis wildcard.
    pub fn is_ellipsis(ident: &str) -> bool {
        ident == ELLIPSIS
    }
}

/// Parses a bug specification.
///
/// # Errors
///
/// [`DslError`] for malformed `change`/`into` structure, unknown
/// directives, bad attributes, or unparsable embedded Python.
pub fn parse_spec(text: &str, name: &str) -> Result<BugSpec, DslError> {
    let (pattern_text, replacement_text) = split_change_into(text)?;
    let mut pre = Preprocessor::default();
    let pattern_py = pre.rewrite(&pattern_text)?;
    let replacement_py = pre.rewrite(&replacement_text)?;
    let pattern = parse_fragment(&pattern_py, &format!("{name}:pattern"))?;
    let replacement = parse_fragment(&replacement_py, &format!("{name}:replacement"))?;
    validate(&pattern, &replacement, &pre.directives)?;
    Ok(BugSpec {
        name: name.to_string(),
        source: text.to_string(),
        pattern,
        replacement,
        directives: pre.directives,
    })
}

fn parse_fragment(py: &str, label: &str) -> Result<Vec<Stmt>, DslError> {
    let module = pysrc::parse_module(py, label)?;
    Ok(module.body)
}

/// Splits `change { A } into { B }` with brace-nesting awareness.
fn split_change_into(text: &str) -> Result<(String, String), DslError> {
    let trimmed = text.trim();
    let rest = trimmed
        .strip_prefix("change")
        .ok_or_else(|| DslError::new("specification must start with `change {`"))?
        .trim_start();
    let (pattern, rest) = read_braced(rest)?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix("into")
        .ok_or_else(|| DslError::new("expected `into {` after the pattern block"))?
        .trim_start();
    let (replacement, tail) = read_braced(rest)?;
    if !tail.trim().is_empty() {
        return Err(DslError::new(format!(
            "unexpected trailing text after `into` block: {:?}",
            tail.trim()
        )));
    }
    Ok((dedent(&pattern), dedent(&replacement)))
}

/// Reads a `{ ... }` group (nesting-aware, string-literal-aware),
/// returning (inner text, remainder).
fn read_braced(s: &str) -> Result<(String, String), DslError> {
    let chars: Vec<char> = s.chars().collect();
    if chars.first() != Some(&'{') {
        return Err(DslError::new("expected `{`"));
    }
    let mut depth = 0usize;
    let mut in_str: Option<char> = None;
    for (i, &c) in chars.iter().enumerate() {
        match in_str {
            Some(q) => {
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => in_str = Some(c),
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        let inner: String = chars[1..i].iter().collect();
                        let rest: String = chars[i + 1..].iter().collect();
                        return Ok((inner, rest));
                    }
                }
                _ => {}
            },
        }
    }
    Err(DslError::new("unbalanced braces in specification"))
}

/// Strips the common leading indentation of non-empty lines.
fn dedent(s: &str) -> String {
    let lines: Vec<&str> = s.lines().collect();
    let common = lines
        .iter()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.len() - l.trim_start().len())
        .min()
        .unwrap_or(0);
    let mut out = String::new();
    for line in lines {
        if line.trim().is_empty() {
            out.push('\n');
        } else {
            out.push_str(&line[common.min(line.len())..]);
            out.push('\n');
        }
    }
    out
}

/// Rewrites DSL directives into placeholder identifiers and records
/// their descriptors. Shared between pattern and replacement so tags
/// refer to one table.
#[derive(Default)]
struct Preprocessor {
    directives: HashMap<String, Directive>,
    counter: usize,
}

impl Preprocessor {
    fn fresh(&mut self, d: Directive) -> String {
        let name = format!("{PLACEHOLDER_PREFIX}{}", self.counter);
        self.counter += 1;
        self.directives.insert(name.clone(), d);
        name
    }

    fn rewrite(&mut self, text: &str) -> Result<String, DslError> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        let mut in_str: Option<char> = None;
        while i < chars.len() {
            let c = chars[i];
            if let Some(q) = in_str {
                out.push(c);
                if c == q {
                    in_str = None;
                }
                i += 1;
                continue;
            }
            match c {
                '\'' | '"' => {
                    in_str = Some(c);
                    out.push(c);
                    i += 1;
                }
                '.' if chars.get(i + 1) == Some(&'.') && chars.get(i + 2) == Some(&'.') => {
                    out.push_str(ELLIPSIS);
                    i += 3;
                }
                '$' => {
                    let (placeholder, consumed) = self.read_directive(&chars[i..])?;
                    out.push_str(&placeholder);
                    i += consumed;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        Ok(out)
    }

    /// Parses `$NAME[#tag][{attrs}]` starting at `chars[0] == '$'`.
    /// Returns the placeholder text and how many chars were consumed.
    fn read_directive(&mut self, chars: &[char]) -> Result<(String, usize), DslError> {
        let mut i = 1;
        let mut name = String::new();
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            name.push(chars[i]);
            i += 1;
        }
        if name.is_empty() {
            return Err(DslError::new("`$` must be followed by a directive name"));
        }
        let mut tag = None;
        if chars.get(i) == Some(&'#') {
            i += 1;
            let mut t = String::new();
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                t.push(chars[i]);
                i += 1;
            }
            if t.is_empty() {
                return Err(DslError::new("`#` must be followed by a tag name"));
            }
            tag = Some(t);
        }
        let mut attrs: HashMap<String, String> = HashMap::new();
        if chars.get(i) == Some(&'{') {
            let rest: String = chars[i..].iter().collect();
            let (inner, _) = read_braced(&rest)?;
            // Count consumed chars: inner + the two braces.
            i += inner.chars().count() + 2;
            for part in inner.split(';') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (k, v) = part.split_once('=').ok_or_else(|| {
                    DslError::new(format!("attribute `{part}` must have the form key=value"))
                })?;
                attrs.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
        if tag.is_none() {
            tag = attrs.get("tag").cloned();
        }
        let kind = match name.as_str() {
            "BLOCK" => {
                let (min, max) = match attrs.get("stmts") {
                    Some(spec) => parse_stmt_range(spec)?,
                    None => (1, None),
                };
                DirectiveKind::Block { min, max }
            }
            "CALL" => DirectiveKind::Call {
                name: attrs.get("name").cloned(),
            },
            "EXPR" => DirectiveKind::Expr {
                var: attrs.get("var").cloned(),
            },
            "STRING" => DirectiveKind::Str {
                val: attrs.get("val").cloned(),
            },
            "NUM" => DirectiveKind::Num,
            "VAR" => DirectiveKind::Var {
                name: attrs.get("name").cloned(),
            },
            "CORRUPT" => DirectiveKind::Corrupt,
            "HOG" => DirectiveKind::Hog,
            "TIMEOUT" => DirectiveKind::Timeout {
                secs: attrs
                    .get("secs")
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|_| DslError::new(format!("bad secs value `{s}`")))
                    })
                    .transpose()?
                    .unwrap_or(1.0),
            },
            other => {
                return Err(DslError::new(format!("unknown directive `${other}`")));
            }
        };
        let placeholder = self.fresh(Directive { kind, tag });
        Ok((placeholder, i))
    }
}

fn parse_stmt_range(spec: &str) -> Result<(usize, Option<usize>), DslError> {
    let bad = || DslError::new(format!("bad stmts range `{spec}` (expected `min,max` or `min,*`)"));
    match spec.split_once(',') {
        Some((lo, hi)) => {
            let min = lo.trim().parse::<usize>().map_err(|_| bad())?;
            let max = match hi.trim() {
                "*" => None,
                n => Some(n.parse::<usize>().map_err(|_| bad())?),
            };
            if let Some(m) = max {
                if m < min {
                    return Err(bad());
                }
            }
            Ok((min, max))
        }
        None => {
            let n = spec.trim().parse::<usize>().map_err(|_| bad())?;
            Ok((n, Some(n)))
        }
    }
}

/// Sanity checks: replacement tags must be bound by the pattern;
/// replacement-only directives must not appear in the pattern.
fn validate(
    pattern: &[Stmt],
    replacement: &[Stmt],
    directives: &HashMap<String, Directive>,
) -> Result<(), DslError> {
    let pattern_tags = collect_tags(pattern, directives);
    for ident in collect_placeholders(replacement) {
        let Some(d) = directives.get(&ident) else { continue };
        match &d.kind {
            DirectiveKind::Corrupt | DirectiveKind::Hog | DirectiveKind::Timeout { .. } => {}
            _ => {
                if let Some(tag) = &d.tag {
                    if !pattern_tags.contains(tag) {
                        return Err(DslError::new(format!(
                            "replacement references tag `{tag}` that the pattern does not bind"
                        )));
                    }
                }
            }
        }
    }
    for ident in collect_placeholders(pattern) {
        let Some(d) = directives.get(&ident) else { continue };
        if matches!(
            d.kind,
            DirectiveKind::Corrupt | DirectiveKind::Hog | DirectiveKind::Timeout { .. }
        ) {
            return Err(DslError::new(
                "$CORRUPT/$HOG/$TIMEOUT are replacement-side directives",
            ));
        }
    }
    Ok(())
}

fn collect_tags(stmts: &[Stmt], directives: &HashMap<String, Directive>) -> Vec<String> {
    collect_placeholders(stmts)
        .into_iter()
        .filter_map(|p| directives.get(&p).and_then(|d| d.tag.clone()))
        .collect()
}

/// All placeholder identifiers appearing in a statement list.
pub fn collect_placeholders(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        collect_stmt(s, &mut out);
    }
    out
}

fn collect_stmt(stmt: &Stmt, out: &mut Vec<String>) {
    pysrc::visit::walk_exprs(stmt, &mut |e| {
        if let pysrc::ast::ExprKind::Name(n) = &e.kind {
            if n.starts_with(PLACEHOLDER_PREFIX) && n != ELLIPSIS {
                out.push(n.clone());
            }
        }
    });
    // Recurse into nested statement bodies via the block walker.
    use pysrc::ast::StmtKind;
    match &stmt.kind {
        StmtKind::If { branches, orelse } => {
            for (_, b) in branches {
                for s in b {
                    collect_stmt(s, out);
                }
            }
            for s in orelse {
                collect_stmt(s, out);
            }
        }
        StmtKind::While { body, orelse, .. } | StmtKind::For { body, orelse, .. } => {
            for s in body.iter().chain(orelse) {
                collect_stmt(s, out);
            }
        }
        StmtKind::FuncDef { body, .. }
        | StmtKind::ClassDef { body, .. }
        | StmtKind::With { body, .. } => {
            for s in body {
                collect_stmt(s, out);
            }
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            for s in body.iter().chain(orelse).chain(finalbody) {
                collect_stmt(s, out);
            }
            for h in handlers {
                for s in &h.body {
                    collect_stmt(s, out);
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MFC: &str = r#"
change {
    $BLOCK{tag=b1; stmts=1,*}
    $CALL{name=delete_*}(...)
    $BLOCK{tag=b2; stmts=1,*}
} into {
    $BLOCK{tag=b1}
    $BLOCK{tag=b2}
}
"#;

    const MIFS: &str = r#"
change {
    if $EXPR{var=node}:
        $BLOCK{stmts=1,4}
        continue
} into {
}
"#;

    const WPF: &str = r#"
change {
    $CALL#c{name=utils.execute}(..., $STRING#s{val=*-*}, ...)
} into {
    $CALL#c(..., $CORRUPT($STRING#s), ...)
}
"#;

    #[test]
    fn parses_fig1a_mfc() {
        let spec = parse_spec(MFC, "MFC").unwrap();
        assert_eq!(spec.pattern.len(), 3);
        assert_eq!(spec.replacement.len(), 2);
        let kinds: Vec<_> = spec.directives.values().map(|d| &d.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, DirectiveKind::Call { name: Some(n) } if n == "delete_*")));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, DirectiveKind::Block { min: 1, max: None })));
    }

    #[test]
    fn parses_fig1b_mifs() {
        let spec = parse_spec(MIFS, "MIFS").unwrap();
        assert_eq!(spec.pattern.len(), 1);
        assert!(spec.replacement.is_empty());
        assert!(matches!(
            spec.pattern[0].kind,
            pysrc::ast::StmtKind::If { .. }
        ));
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(&d.kind, DirectiveKind::Expr { var: Some(v) } if v == "node")));
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(&d.kind, DirectiveKind::Block { min: 1, max: Some(4) })));
    }

    #[test]
    fn parses_fig1c_wpf_with_tags() {
        let spec = parse_spec(WPF, "WPF").unwrap();
        assert_eq!(spec.pattern.len(), 1);
        assert_eq!(spec.replacement.len(), 1);
        let call = spec
            .directives
            .values()
            .find(|d| matches!(&d.kind, DirectiveKind::Call { name: Some(n) } if n == "utils.execute"))
            .expect("call directive parsed");
        assert_eq!(call.tag.as_deref(), Some("c"));
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(&d.kind, DirectiveKind::Str { val: Some(v) } if v == "*-*")
                && d.tag.as_deref() == Some("s")));
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(d.kind, DirectiveKind::Corrupt)));
    }

    #[test]
    fn replacement_side_literal_python() {
        let spec = parse_spec(
            "change {\n    $CALL{name=urllib.request}(...)\n} into {\n    raise ConnectTimeoutError('injected')\n}",
            "exc",
        )
        .unwrap();
        assert!(matches!(
            spec.replacement[0].kind,
            pysrc::ast::StmtKind::Raise { .. }
        ));
    }

    #[test]
    fn hog_and_timeout_directives() {
        let spec = parse_spec(
            "change {\n    $CALL#c{name=*}(...)\n} into {\n    $CALL#c(...)\n    $HOG\n    $TIMEOUT{secs=2.5}\n}",
            "hog",
        )
        .unwrap();
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(d.kind, DirectiveKind::Hog)));
        assert!(spec
            .directives
            .values()
            .any(|d| matches!(d.kind, DirectiveKind::Timeout { secs } if (secs - 2.5).abs() < 1e-9)));
    }

    #[test]
    fn unknown_directive_errors() {
        let err = parse_spec("change {\n    $BOGUS\n} into {\n}", "x").unwrap_err();
        assert!(err.message.contains("unknown directive"));
    }

    #[test]
    fn unbound_replacement_tag_errors() {
        let err = parse_spec(
            "change {\n    pass\n} into {\n    $BLOCK{tag=nope}\n}",
            "x",
        )
        .unwrap_err();
        assert!(err.message.contains("does not bind"));
    }

    #[test]
    fn corrupt_in_pattern_errors() {
        let err = parse_spec(
            "change {\n    $CORRUPT($STRING)\n} into {\n    pass\n}",
            "x",
        )
        .unwrap_err();
        assert!(err.message.contains("replacement-side"));
    }

    #[test]
    fn stmt_range_forms() {
        assert_eq!(parse_stmt_range("1,*").unwrap(), (1, None));
        assert_eq!(parse_stmt_range("2,4").unwrap(), (2, Some(4)));
        assert_eq!(parse_stmt_range("3").unwrap(), (3, Some(3)));
        assert!(parse_stmt_range("4,2").is_err());
        assert!(parse_stmt_range("x").is_err());
    }

    #[test]
    fn missing_into_errors() {
        assert!(parse_spec("change { pass }", "x").is_err());
    }

    #[test]
    fn braces_in_strings_do_not_confuse_splitter() {
        let spec = parse_spec(
            "change {\n    $CALL{name=f}(...)\n} into {\n    g('{literal brace}')\n}",
            "x",
        )
        .unwrap();
        assert_eq!(spec.replacement.len(), 1);
    }
}
