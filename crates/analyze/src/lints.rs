//! The lint pass: token-level invariant checks plus the allowlist machinery.
//!
//! Each lint guards one clause of the workspace's determinism / hot-path
//! contract:
//!
//! | lint          | contract clause                                          |
//! |---------------|----------------------------------------------------------|
//! | `nondet-iter` | results bit-identical at any thread count: no hash-order |
//! |               | iteration in result-affecting crates                     |
//! | `no-alloc`    | steady-state Newton/estimator paths allocate nothing     |
//! | `float-eq`    | no accidental `==`/`!=` on floats (only `.to_bits()`     |
//! |               | comparisons express bit-identity intentionally)          |
//! | `float-cast`  | no silent truncation of statistics values                |
//! | `naive-accum` | estimator reductions go through Welford / log-sum-exp,   |
//! |               | not naive `sum +=` loops                                 |
//! | `panic-site`  | the sweep daemon path must not abort; every panic site   |
//! |               | is individually justified                                |
//!
//! Suppression grammar (see README "Static analysis & invariants"):
//!
//! - `// gis-analyze: allow(<lint>, <reason>)` — trailing on the offending
//!   line, or on its own line immediately above it. The reason is mandatory.
//! - `/// gis-analyze: no_alloc` or `#[doc = "gis-analyze: no_alloc"]` — marks
//!   the *next* `fn` as a hot path subject to the `no-alloc` lint.
//!
//! Two meta-lints keep the allowlist honest: `stale-allow` fires on an allow
//! annotation that matches no finding (suppressions can't accumulate), and
//! `bad-annotation` fires on anything that says `gis-analyze:` but does not
//! parse.

use crate::lexer::{lex, Comment, TokKind, Token};

/// Lint identifiers, used in diagnostics and in `allow(...)` annotations.
pub const LINT_NONDET_ITER: &str = "nondet-iter";
/// See [`LINT_NONDET_ITER`].
pub const LINT_NO_ALLOC: &str = "no-alloc";
/// See [`LINT_NONDET_ITER`].
pub const LINT_FLOAT_EQ: &str = "float-eq";
/// See [`LINT_NONDET_ITER`].
pub const LINT_FLOAT_CAST: &str = "float-cast";
/// See [`LINT_NONDET_ITER`].
pub const LINT_NAIVE_ACCUM: &str = "naive-accum";
/// See [`LINT_NONDET_ITER`].
pub const LINT_PANIC_SITE: &str = "panic-site";
/// Meta-lint: an `allow(...)` annotation that suppresses nothing.
pub const LINT_STALE_ALLOW: &str = "stale-allow";
/// Meta-lint: a `gis-analyze:` comment that does not parse.
pub const LINT_BAD_ANNOTATION: &str = "bad-annotation";

/// Every real (suppressible) lint name. The two meta-lints are not
/// suppressible and so are excluded.
pub const ALLOWABLE_LINTS: &[&str] = &[
    LINT_NONDET_ITER,
    LINT_NO_ALLOC,
    LINT_FLOAT_EQ,
    LINT_FLOAT_CAST,
    LINT_NAIVE_ACCUM,
    LINT_PANIC_SITE,
];

/// Analyzer configuration. [`Config::default`] encodes this workspace's
/// contract; fixtures construct custom configs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) whose outputs reach estimator
    /// results, reports, or serialized artifacts. `nondet-iter` applies here.
    pub result_affecting_crates: Vec<String>,
    /// Workspace-relative paths of library files reachable from the sweep
    /// daemon path. `panic-site` applies here.
    pub panic_audit_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            result_affecting_crates: ["core", "stats", "linalg", "circuit"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            panic_audit_files: [
                "crates/core/src/sweep.rs",
                "crates/core/src/exec.rs",
                "crates/core/src/analysis.rs",
                // Fault containment/injection: the module whose whole job
                // is catching panics must itself justify every panic site.
                "crates/core/src/fault.rs",
                // The daemon path: every panic site in the serving stack
                // must carry a written justification — a connection thread
                // that panics on wire data would look like a hung client.
                "crates/serve/src/protocol.rs",
                "crates/serve/src/job.rs",
                "crates/serve/src/cache.rs",
                "crates/serve/src/server.rs",
                "crates/serve/src/client.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

/// One diagnostic produced by the pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint name (one of the `LINT_*` constants).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it (or how to allowlist it).
    pub hint: String,
    /// Whether a matching `allow(...)` annotation suppresses this finding.
    pub allowed: bool,
    /// The source line, for rustc-style rendering.
    pub excerpt: String,
}

/// A parsed `// gis-analyze: allow(<lint>, <reason>)` annotation.
struct AllowAnn {
    lint: String,
    #[allow(dead_code)]
    reason: String,
    /// The code line this annotation covers.
    target_line: u32,
    line: u32,
    col: u32,
    used: bool,
}

const FLOAT_CONSTS: &[&str] = &[
    "INFINITY",
    "NEG_INFINITY",
    "NAN",
    "EPSILON",
    "MAX",
    "MIN",
    "MIN_POSITIVE",
];
const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];
const TRUNCATING_CALLS: &[&str] = &["floor", "ceil", "round", "trunc"];

/// Runs every lint over one file. `rel_path` must be workspace-relative with
/// forward slashes (e.g. `crates/core/src/sweep.rs`) — it selects which lints
/// apply. Returns all findings, including suppressed ones (`allowed = true`)
/// and the meta-lint findings, sorted by position.
pub fn analyze_file(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.to_string())
            .unwrap_or_default()
    };
    let in_test = test_mask(tokens);

    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<AllowAnn> = Vec::new();
    parse_annotations(
        rel_path,
        &lexed.comments,
        tokens,
        &mut allows,
        &mut findings,
        &excerpt,
    );

    let crate_name = crate_dir_name(rel_path);
    let result_affecting = crate_name
        .map(|c| cfg.result_affecting_crates.iter().any(|r| r == c))
        .unwrap_or(false);
    let panic_audited = cfg.panic_audit_files.iter().any(|f| f == rel_path);
    let reduce_owner = is_reduce_owner(source);

    let no_alloc_bodies =
        no_alloc_regions(&lexed.comments, tokens, rel_path, &mut findings, &excerpt);

    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // ---- nondet-iter -------------------------------------------------
        if result_affecting
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            findings.push(Finding {
                lint: LINT_NONDET_ITER,
                path: rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in result-affecting crate `{}`: hash iteration order is \
                     nondeterministic and can leak into results",
                    t.text,
                    crate_name.unwrap_or("?")
                ),
                hint: "use BTreeMap/BTreeSet or sort before iterating; if provably \
                       order-free, annotate `// gis-analyze: allow(nondet-iter, <reason>)`"
                    .to_string(),
                allowed: false,
                excerpt: excerpt(t.line),
            });
        }
        // ---- float-eq ----------------------------------------------------
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let floaty = is_float_operand(tokens, i);
            let bitwise = lines
                .get(t.line as usize - 1)
                .is_some_and(|l| l.contains("to_bits"));
            if floaty && !bitwise {
                findings.push(Finding {
                    lint: LINT_FLOAT_EQ,
                    path: rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` on a floating-point operand: exact float comparison is \
                         almost always a bug outside bit-identity checks",
                        t.text
                    ),
                    hint: "compare via `.to_bits()` for bit-identity, use a tolerance, \
                           or annotate `// gis-analyze: allow(float-eq, <reason>)` for \
                           intentional exact sentinels"
                        .to_string(),
                    allowed: false,
                    excerpt: excerpt(t.line),
                });
            }
        }
        // ---- float-cast --------------------------------------------------
        if t.kind == TokKind::Ident && t.text == "as" {
            if let Some(next) = tokens.get(i + 1) {
                let to_f32 = next.text == "f32";
                let truncating =
                    INT_TYPES.contains(&next.text.as_str()) && float_cast_source(tokens, i);
                if to_f32 || truncating {
                    findings.push(Finding {
                        lint: LINT_FLOAT_CAST,
                        path: rel_path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: if to_f32 {
                            "`as f32` narrows an f64 statistics value, losing ~half the \
                             mantissa"
                                .to_string()
                        } else {
                            format!(
                                "`as {}` truncates a floating-point value; rounding \
                                 direction and overflow behavior are easy to get wrong",
                                next.text
                            )
                        },
                        hint: "keep statistics in f64 / use checked conversion, or \
                               annotate `// gis-analyze: allow(float-cast, <reason>)` \
                               when truncation is the intended semantics"
                            .to_string(),
                        allowed: false,
                        excerpt: excerpt(t.line),
                    });
                }
            }
        }
        // ---- naive-accum -------------------------------------------------
        if reduce_owner && t.kind == TokKind::Punct && t.text == "+=" {
            if let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) {
                if prev.kind == TokKind::Ident && prev.text.to_lowercase().contains("sum") {
                    findings.push(Finding {
                        lint: LINT_NAIVE_ACCUM,
                        path: rel_path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "naive `{} +=` accumulation in an estimator-reduce file; \
                             plain summation loses precision and breaks merge identities",
                            prev.text
                        ),
                        hint: "route through the Welford/Chan or log-sum-exp helpers, or \
                               annotate `// gis-analyze: allow(naive-accum, <reason>)` \
                               explaining why plain summation is exact here"
                            .to_string(),
                        allowed: false,
                        excerpt: excerpt(t.line),
                    });
                }
            }
        }
        // ---- panic-site --------------------------------------------------
        if panic_audited && t.kind == TokKind::Ident {
            let method_panic = (t.text == "unwrap" || t.text == "expect")
                && i >= 1
                && tokens[i - 1].text == "."
                && tokens.get(i + 1).map(|n| n.text == "(").unwrap_or(false);
            let macro_panic = matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && tokens.get(i + 1).map(|n| n.text == "!").unwrap_or(false);
            if method_panic || macro_panic {
                findings.push(Finding {
                    lint: LINT_PANIC_SITE,
                    path: rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` in sweep-daemon-path library code: a panic here aborts a \
                         long-running sweep",
                        t.text
                    ),
                    hint: "return a Result, or annotate \
                           `// gis-analyze: allow(panic-site, <reason>)` stating the \
                           invariant that makes the panic unreachable"
                        .to_string(),
                    allowed: false,
                    excerpt: excerpt(t.line),
                });
            }
        }
    }

    // ---- no-alloc (marker-scoped) ---------------------------------------
    for region in &no_alloc_bodies {
        scan_no_alloc(tokens, region, rel_path, &in_test, &mut findings, &excerpt);
    }

    apply_allows(&mut allows, &mut findings);

    // ---- stale-allow -----------------------------------------------------
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                lint: LINT_STALE_ALLOW,
                path: rel_path.to_string(),
                line: a.line,
                col: a.col,
                message: format!(
                    "stale allowlist entry: `allow({})` matches no `{}` finding on \
                     line {}",
                    a.lint, a.lint, a.target_line
                ),
                hint: "delete the annotation (the code it excused is gone), or move it \
                       next to the site it is meant to cover"
                    .to_string(),
                allowed: false,
                excerpt: excerpt(a.line),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.col, f.lint));
    findings
}

/// `crates/<name>/src/...` → `Some(name)`.
fn crate_dir_name(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// A file "owns" an estimator reduction when it defines both halves of the
/// streaming-accumulator protocol, or hosts the log-sum-exp helper.
fn is_reduce_owner(source: &str) -> bool {
    (source.contains("fn push(") && source.contains("fn merge("))
        || source.contains("fn log_sum_exp")
}

/// Marks every token inside a `#[cfg(test)]` item. The lints are about
/// shipped library code; test modules may compare floats exactly, unwrap,
/// and allocate at will.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let attr_end = i + 6; // index of ']' in `# [ cfg ( test ) ]`
            if let Some(end) = item_end(tokens, attr_end + 1) {
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| tokens[i + k].text == *t)
}

/// Finds the end of the item starting at `start`: either the `}` matching its
/// first body-level `{`, or a `;` reached first at zero delimiter depth
/// (e.g. `#[cfg(test)] use ...;`).
fn item_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut brace = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 && paren == 0 {
                    return Some(j);
                }
            }
            ";" if paren == 0 && brace == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

/// True when the `==`/`!=` at token `i` plausibly compares floats: a float
/// literal or an `f64::CONST`/`f32::CONST` pattern sits immediately on
/// either side.
fn is_float_operand(tokens: &[Token], i: usize) -> bool {
    let prev_float = i >= 1 && tokens[i - 1].kind == TokKind::Float;
    let next_float = tokens
        .get(i + 1)
        .map(|t| t.kind == TokKind::Float)
        .unwrap_or(false);
    let prev_const = i >= 3
        && FLOAT_CONSTS.contains(&tokens[i - 1].text.as_str())
        && tokens[i - 2].text == "::"
        && (tokens[i - 3].text == "f64" || tokens[i - 3].text == "f32");
    let next_const = tokens.len() > i + 3
        && (tokens[i + 1].text == "f64" || tokens[i + 1].text == "f32")
        && tokens[i + 2].text == "::"
        && FLOAT_CONSTS.contains(&tokens[i + 3].text.as_str());
    prev_float || next_float || prev_const || next_const
}

/// True when the value being cast at the `as` token `i` is visibly floating
/// point: a float literal, or a `.floor()`/`.ceil()`/`.round()`/`.trunc()`
/// call result.
fn float_cast_source(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    if prev.kind == TokKind::Float {
        return true;
    }
    // `<expr>.floor() as usize` → tokens `floor` `(` `)` `as`.
    prev.text == ")"
        && i >= 3
        && tokens[i - 2].text == "("
        && TRUNCATING_CALLS.contains(&tokens[i - 3].text.as_str())
}

/// A marker-designated hot-path function body: token index range (inclusive)
/// plus the function name for diagnostics.
struct NoAllocRegion {
    fn_name: String,
    start: usize,
    end: usize,
}

/// Collects `gis-analyze: no_alloc` markers (doc-comment or
/// `#[doc = "..."]` attribute form) and resolves each to the body of the
/// next `fn`. An unresolvable marker is a `bad-annotation` finding.
fn no_alloc_regions(
    comments: &[Comment],
    tokens: &[Token],
    rel_path: &str,
    findings: &mut Vec<Finding>,
    excerpt: &dyn Fn(u32) -> String,
) -> Vec<NoAllocRegion> {
    let mut marker_sites: Vec<(u32, u32, usize)> = Vec::new(); // line, col, first token idx

    for c in comments {
        if let Some(rest) = annotation_body(&c.text) {
            if rest == "no_alloc" {
                let idx = tokens
                    .iter()
                    .position(|t| (t.line, t.col) > (c.line, c.col))
                    .unwrap_or(tokens.len());
                marker_sites.push((c.line, c.col, idx));
            }
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokKind::Str
            && t.text.contains("gis-analyze: no_alloc")
            && i >= 4
            && tokens[i - 1].text == "="
            && tokens[i - 2].text == "doc"
            && tokens[i - 3].text == "["
            && tokens[i - 4].text == "#"
        {
            marker_sites.push((t.line, t.col, i + 2)); // skip the closing `]`
        }
    }

    let mut regions = Vec::new();
    for (line, col, from) in marker_sites {
        match resolve_fn_body(tokens, from) {
            Some((fn_name, start, end)) => regions.push(NoAllocRegion {
                fn_name,
                start,
                end,
            }),
            None => findings.push(Finding {
                lint: LINT_BAD_ANNOTATION,
                path: rel_path.to_string(),
                line,
                col,
                message: "`gis-analyze: no_alloc` marker is not followed by a `fn` with \
                          a body"
                    .to_string(),
                hint: "place the marker directly above the hot-path function it guards".to_string(),
                allowed: false,
                excerpt: excerpt(line),
            }),
        }
    }
    regions
}

/// From token `from`, finds the next `fn`, its name, and its body's token
/// range: the first `{` outside parentheses and brackets after the name
/// through its matching `}`. (A `;` inside brackets belongs to an array
/// type such as `-> [f64; L]`.)
fn resolve_fn_body(tokens: &[Token], from: usize) -> Option<(String, usize, usize)> {
    let fn_idx = tokens[from..]
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "fn")
        .map(|p| p + from)?;
    let name = tokens.get(fn_idx + 1)?.text.clone();
    let mut paren = 0i32;
    let mut body_start = None;
    for (j, t) in tokens.iter().enumerate().skip(fn_idx + 2) {
        match t.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => {
                body_start = Some(j);
                break;
            }
            ";" if paren == 0 => return None, // trait method without body
            _ => {}
        }
    }
    let start = body_start?;
    let mut brace = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    return Some((name, start, j));
                }
            }
            _ => {}
        }
    }
    None
}

/// Forbidden-token scan of one `no_alloc` body. `debug_assert!(...)`
/// arguments are exempt: they vanish in release builds, which is exactly
/// where the contract applies.
fn scan_no_alloc(
    tokens: &[Token],
    region: &NoAllocRegion,
    rel_path: &str,
    in_test: &[bool],
    findings: &mut Vec<Finding>,
    excerpt: &dyn Fn(u32) -> String,
) {
    let mut i = region.start;
    while i <= region.end && i < tokens.len() {
        let t = &tokens[i];
        if in_test[i] {
            i += 1;
            continue;
        }
        // Skip `debug_assert!(...)` / `debug_assert_eq!(...)` arguments.
        if t.kind == TokKind::Ident
            && t.text.starts_with("debug_assert")
            && tokens.get(i + 1).map(|n| n.text == "!").unwrap_or(false)
        {
            i = skip_macro_args(tokens, i + 2).unwrap_or(i + 2);
            continue;
        }
        let hit: Option<&str> = if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "Vec" | "Box"
                    if tokens.get(i + 1).map(|n| n.text == "::").unwrap_or(false)
                        && tokens.get(i + 2).map(|n| n.text == "new").unwrap_or(false) =>
                {
                    Some(if t.text == "Vec" {
                        "Vec::new"
                    } else {
                        "Box::new"
                    })
                }
                "vec" if tokens.get(i + 1).map(|n| n.text == "!").unwrap_or(false) => Some("vec!"),
                "clone" if tokens.get(i + 1).map(|n| n.text == "(").unwrap_or(false) => {
                    Some("clone()")
                }
                "to_vec" => Some("to_vec"),
                "collect" => Some("collect"),
                _ => None,
            }
        } else {
            None
        };
        if let Some(what) = hit {
            findings.push(Finding {
                lint: LINT_NO_ALLOC,
                path: rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` inside `{}`, which is marked `gis-analyze: no_alloc`",
                    what, region.fn_name
                ),
                hint: "hoist the allocation into the workspace set up before the hot \
                       loop, or annotate `// gis-analyze: allow(no-alloc, <reason>)` \
                       if it is provably cold"
                    .to_string(),
                allowed: false,
                excerpt: excerpt(t.line),
            });
        }
        i += 1;
    }
}

/// Given the index of a macro's opening delimiter, returns the index just
/// past its matching close delimiter.
fn skip_macro_args(tokens: &[Token], open: usize) -> Option<usize> {
    let (open_text, close_text) = match tokens.get(open)?.text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    None
}

/// Extracts the payload of a `gis-analyze:` line comment: `Some("allow(...)")`
/// or `Some("no_alloc")`, with doc-comment slashes stripped. `None` when the
/// comment is not an annotation. The `gis-analyze:` tag must be the first
/// thing in the comment — prose that merely *mentions* the grammar (like
/// this doc comment) is not an annotation.
fn annotation_body(comment_text: &str) -> Option<&str> {
    let stripped = comment_text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    Some(stripped.strip_prefix("gis-analyze:")?.trim())
}

/// Parses every `gis-analyze:` comment into either an [`AllowAnn`] or a
/// `bad-annotation` finding.
fn parse_annotations(
    rel_path: &str,
    comments: &[Comment],
    tokens: &[Token],
    allows: &mut Vec<AllowAnn>,
    findings: &mut Vec<Finding>,
    excerpt: &dyn Fn(u32) -> String,
) {
    for c in comments {
        let Some(body) = annotation_body(&c.text) else {
            continue;
        };
        if body == "no_alloc" {
            continue; // handled by no_alloc_regions
        }
        let bad = |msg: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                lint: LINT_BAD_ANNOTATION,
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                message: msg,
                hint: format!(
                    "annotation grammar: `// gis-analyze: allow(<lint>, <reason>)` with \
                     lint one of {}",
                    ALLOWABLE_LINTS.join(", ")
                ),
                allowed: false,
                excerpt: excerpt(c.line),
            });
        };
        let Some(inner) = body
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            bad(
                format!("unparseable `gis-analyze:` annotation: `{}`", body),
                findings,
            );
            continue;
        };
        let Some((lint, reason)) = inner.split_once(',') else {
            bad(
                format!(
                    "`allow({})` is missing a reason: every suppression must say why",
                    inner
                ),
                findings,
            );
            continue;
        };
        let (lint, reason) = (lint.trim(), reason.trim());
        if !ALLOWABLE_LINTS.contains(&lint) {
            bad(
                format!("unknown lint `{}` in allow annotation", lint),
                findings,
            );
            continue;
        }
        if reason.is_empty() {
            bad(
                format!(
                    "`allow({})` has an empty reason: every suppression must say why",
                    lint
                ),
                findings,
            );
            continue;
        }
        let target_line = if c.own_line {
            tokens
                .iter()
                .find(|t| t.line > c.line)
                .map(|t| t.line)
                .unwrap_or(c.line)
        } else {
            c.line
        };
        allows.push(AllowAnn {
            lint: lint.to_string(),
            reason: reason.to_string(),
            target_line,
            line: c.line,
            col: c.col,
            used: false,
        });
    }
}

/// Marks findings covered by an allow annotation, and annotations that cover
/// at least one finding as used. One annotation may cover several findings of
/// its lint on its target line (e.g. two casts in one expression).
fn apply_allows(allows: &mut [AllowAnn], findings: &mut [Finding]) {
    for a in allows.iter_mut() {
        for f in findings.iter_mut() {
            if f.lint == a.lint && f.line == a.target_line {
                f.allowed = true;
                a.used = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        analyze_file(path, src, &Config::default())
    }

    fn unallowed(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| !f.allowed).collect()
    }

    #[test]
    fn hashmap_flagged_only_in_result_affecting_crates() {
        let src = "use std::collections::HashMap;\n";
        let hit = run("crates/core/src/x.rs", src);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].lint, LINT_NONDET_ITER);
        assert_eq!(hit[0].line, 1);
        let miss = run("crates/bench/src/x.rs", src);
        assert!(miss.is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_and_is_not_stale() {
        let src =
            "use std::collections::HashMap; // gis-analyze: allow(nondet-iter, lookup only)\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src =
            "// gis-analyze: allow(nondet-iter, lookup only)\nuse std::collections::HashMap;\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// gis-analyze: allow(nondet-iter, nothing here)\nlet x = 1;\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_STALE_ALLOW);
    }

    #[test]
    fn bad_annotations_are_reported() {
        for src in [
            "// gis-analyze: allow(nondet-iter)\nlet x = 1;\n", // no reason
            "// gis-analyze: allow(bogus-lint, reason)\nlet x = 1;\n", // unknown lint
            "// gis-analyze: disallow(x)\nlet x = 1;\n",        // unknown verb
        ] {
            let f = run("crates/core/src/x.rs", src);
            assert_eq!(f.len(), 1, "src: {src}");
            assert_eq!(f[0].lint, LINT_BAD_ANNOTATION, "src: {src}");
        }
    }

    #[test]
    fn float_eq_heuristics() {
        let f = run("crates/stats/src/x.rs", "if x == 0.0 { }\n");
        assert_eq!(unallowed(&f).len(), 1);
        assert_eq!(f[0].lint, LINT_FLOAT_EQ);
        let f = run("crates/stats/src/x.rs", "if lo == f64::NEG_INFINITY { }\n");
        assert_eq!(unallowed(&f).len(), 1);
        // to_bits comparisons are the sanctioned way to express bit-identity.
        let f = run(
            "crates/stats/src/x.rs",
            "if a.to_bits() == b.to_bits() { }\n",
        );
        assert!(f.is_empty());
        // Integer comparison is fine.
        let f = run("crates/stats/src/x.rs", "if n == 0 { }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn float_cast_heuristics() {
        let f = run("crates/stats/src/x.rs", "let n = x.floor() as usize;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_FLOAT_CAST);
        let f = run("crates/stats/src/x.rs", "let y = sigma as f32;\n");
        assert_eq!(f.len(), 1);
        // Plain integer widening is fine.
        let f = run("crates/stats/src/x.rs", "let y = n as u64;\n");
        assert!(f.is_empty());
    }

    #[test]
    fn naive_accum_only_in_reduce_owner_files() {
        let owner = "impl A { fn push(&mut self) { self.sum_w += 1.0; } fn merge(&mut self) {} }\n";
        let f = run("crates/stats/src/x.rs", owner);
        assert_eq!(f.iter().filter(|f| f.lint == LINT_NAIVE_ACCUM).count(), 1);
        let not_owner =
            "fn f(xs: &[f64]) -> f64 { let mut sum = 0.0; for x in xs { sum += x; } sum }\n";
        let f = run("crates/stats/src/x.rs", not_owner);
        assert!(f.iter().all(|f| f.lint != LINT_NAIVE_ACCUM));
    }

    #[test]
    fn panic_site_only_in_audited_files() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = run("crates/core/src/sweep.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_PANIC_SITE);
        let f = run("crates/core/src/other.rs", src);
        assert!(f.is_empty());
        let f = run("crates/core/src/sweep.rs", "fn g() { panic!(\"boom\"); }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn no_alloc_marker_scopes_the_next_fn() {
        let src = "\
/// gis-analyze: no_alloc
fn hot(&mut self) { self.buf.clear(); }
fn cold(&self) -> Vec<f64> { self.buf.to_vec() }
";
        let f = run("crates/linalg/src/x.rs", src);
        assert!(f.is_empty(), "clear() is fine, cold fn is unmarked: {f:?}");
        let src = "\
/// gis-analyze: no_alloc
fn hot(&mut self) -> Vec<f64> { self.buf.to_vec() }
";
        let f = run("crates/linalg/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_NO_ALLOC);
        assert!(f[0].message.contains("hot"));
        // An array in the signature is not the end of a bodiless fn.
        let src = "\
/// gis-analyze: no_alloc
fn hot<const L: usize>(x: [f64; L]) -> [f64; L] { x.to_vec(); x }
";
        let f = run("crates/linalg/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LINT_NO_ALLOC);
    }

    #[test]
    fn no_alloc_attribute_form_and_debug_assert_escape() {
        let src = "\
#[doc = \"gis-analyze: no_alloc\"]
fn hot(&mut self) {
    debug_assert!(self.buf.iter().map(|x| x).collect::<Vec<_>>().len() > 0);
    self.buf.clear();
}
";
        let f = run("crates/linalg/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { assert!(0.5 == 0.5); }
}
";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_use_item_does_not_swallow_the_file() {
        let src = "\
#[cfg(test)]
use foo::bar;
use std::collections::HashMap;
";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(
            f.len(),
            1,
            "HashMap after the cfg(test) use must still fire"
        );
    }
}
