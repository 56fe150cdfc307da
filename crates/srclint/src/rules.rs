//! The per-file rules: R1001–R1008, R1011 and R1012.
//!
//! Each rule walks the code-token stream of one file (comments removed,
//! test regions masked) and emits [`Diagnostic`]s with `file:line`
//! locations and fix-it hints. R1009 (catalogue/doc drift) and R1010
//! (suppression hygiene) live in the crate root: they operate on the
//! whole workspace and on the suppressions themselves rather than on
//! one file's tokens.

use crate::lexer::{Token, TokenKind};
use crate::scope::TestRegions;
use chopin_lint::Diagnostic;

/// Everything a per-file rule needs to see.
pub struct FileCtx<'a> {
    /// Repo-relative path with forward slashes, e.g. `crates/obs/src/json.rs`.
    pub path: &'a str,
    /// Code tokens only (comments stripped).
    pub code: &'a [&'a Token],
    /// Test-region mask for the file.
    pub regions: &'a TestRegions,
    /// Lines that carry a comment of either flavour (for R1008's
    /// adjacent-justification check).
    pub comment_lines: &'a [usize],
}

impl FileCtx<'_> {
    fn loc(&self, line: usize) -> String {
        format!("{}:{}", self.path, line)
    }

    fn in_test(&self, line: usize) -> bool {
        self.regions.contains(line)
    }

    /// Whether `code[i..]` starts with `first :: second`.
    fn path_call(&self, i: usize, first: &str, second: &str) -> bool {
        self.code[i].is_ident(first)
            && matches!(self.code.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(self.code.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(self.code.get(i + 3), Some(t) if t.is_ident(second))
    }
}

/// Files allowed to call `thread::spawn`: the supervision layer. The
/// fleet module qualifies for the same reason the sandbox does — its
/// acceptor, per-connection readers, child reapers and worker
/// heartbeats are supervision plumbing, each joined to a socket or
/// child whose closure ends the thread.
const SPAWN_ALLOWED: [&str; 3] = [
    "crates/harness/src/fleet.rs",
    "crates/harness/src/sandbox.rs",
    "crates/harness/src/supervisor.rs",
];

/// Files that write persisted artifacts (CSV rows, journals, JSON
/// exports): their format strings must marshal floats via `{:?}`.
const FLOAT_WRITER_FILES: [&str; 6] = [
    "crates/harness/src/codec.rs",
    "crates/harness/src/journal.rs",
    "crates/harness/src/output.rs",
    "crates/harness/src/sandbox.rs",
    "crates/obs/src/json.rs",
    "crates/perf/src/report.rs",
];

/// Run every per-file rule over one file's tokens.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    r1001_hash_collections(ctx, &mut out);
    r1002_wall_clock(ctx, &mut out);
    r1003_thread_spawn(ctx, &mut out);
    r1004_float_format(ctx, &mut out);
    r1005_unsafe(ctx, &mut out);
    r1006_process_exit(ctx, &mut out);
    r1007_ambient_entropy(ctx, &mut out);
    r1008_allow_justification(ctx, &mut out);
    r1011_debug_macros(ctx, &mut out);
    r1012_partial_cmp_unwrap(ctx, &mut out);
    out.sort_by_key(|d| parse_line(&d.location));
    out
}

fn parse_line(location: &str) -> usize {
    location
        .rsplit(':')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// R1001: hash-ordered collections in production code.
fn r1001_hash_collections(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.code {
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(
                Diagnostic::error(
                    "R1001",
                    ctx.loc(t.line),
                    format!(
                        "{} iteration order is nondeterministic and leaks into \
                         persisted bytes",
                        t.text
                    ),
                )
                .with_hint("use BTreeMap/BTreeSet, or collect and sort before draining"),
            );
        }
    }
}

/// R1002: raw wall-clock reads.
fn r1002_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if ctx.in_test(t.line) {
            continue;
        }
        for clock in ["Instant", "SystemTime"] {
            if ctx.path_call(i, clock, "now") {
                out.push(
                    Diagnostic::error(
                        "R1002",
                        ctx.loc(t.line),
                        format!("raw {clock}::now() outside the clock abstractions"),
                    )
                    .with_hint(
                        "route through chopin_sandbox::clock::WallSpan or the \
                         harness SupervisorClock",
                    ),
                );
            }
        }
    }
}

/// R1003: thread creation outside the supervision layer.
fn r1003_thread_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.path.starts_with("crates/sandbox/src/") || SPAWN_ALLOWED.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if ctx.in_test(t.line) {
            continue;
        }
        if ctx.path_call(i, "thread", "spawn") {
            out.push(
                Diagnostic::error(
                    "R1003",
                    ctx.loc(t.line),
                    "thread::spawn outside the supervision layer".to_string(),
                )
                .with_hint(
                    "only crates/sandbox and the harness supervisor own threads; \
                     submit work to them instead",
                ),
            );
        }
    }
}

/// R1004: lossy float format specs in persisted-artifact writers.
fn r1004_float_format(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !FLOAT_WRITER_FILES.contains(&ctx.path) {
        return;
    }
    for t in ctx.code {
        if t.kind != TokenKind::Str || ctx.in_test(t.line) {
            continue;
        }
        if has_lossy_float_spec(&t.text) {
            out.push(
                Diagnostic::error(
                    "R1004",
                    ctx.loc(t.line),
                    "fixed-precision or scientific float spec in a persisted-artifact \
                     writer"
                        .to_string(),
                )
                .with_hint("marshal floats with {:?}: shortest round-trip, byte-stable"),
            );
        }
    }
}

/// Whether a format string contains a lossy float spec: a precision
/// (`{:.3}`, `{wall_s:8.2}`) or scientific notation (`{:e}`, `{x:E}`).
/// `{:?}` and plain `{}` are the sanctioned float marshalling forms.
fn has_lossy_float_spec(text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] != '{' {
            i += 1;
            continue;
        }
        if chars.get(i + 1) == Some(&'{') {
            i += 2;
            continue;
        }
        let mut j = i + 1;
        while j < chars.len() && chars[j] != '}' {
            j += 1;
        }
        let segment: String = chars[i + 1..j].iter().collect();
        if let Some((_, spec)) = segment.split_once(':') {
            if spec.contains('.') || spec.ends_with('e') || spec.ends_with('E') {
                return true;
            }
        }
        i = j + 1;
    }
    false
}

/// R1005: `unsafe` outside the audited FFI boundary.
fn r1005_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.path.starts_with("crates/sandbox/src/") {
        return;
    }
    for t in ctx.code {
        if t.is_ident("unsafe") {
            out.push(
                Diagnostic::error(
                    "R1005",
                    ctx.loc(t.line),
                    "`unsafe` outside crates/sandbox".to_string(),
                )
                .with_hint("the sandbox crate is the one audited FFI boundary"),
            );
        }
    }
}

/// R1006: process exits from library code.
fn r1006_process_exit(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.path.contains("/src/bin/") || ctx.path.ends_with("src/main.rs") {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if ctx.in_test(t.line) {
            continue;
        }
        if ctx.path_call(i, "process", "exit") {
            out.push(
                Diagnostic::error(
                    "R1006",
                    ctx.loc(t.line),
                    "std::process::exit in library code skips destructors and \
                     journal flushes"
                        .to_string(),
                )
                .with_hint("return the exit code; only bin entry points may exit"),
            );
        }
    }
}

/// R1007: ambient (unseeded) entropy sources.
fn r1007_ambient_entropy(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let ambient = matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng")
            || ctx.path_call(i, "rand", "random");
        if ambient {
            out.push(
                Diagnostic::error(
                    "R1007",
                    ctx.loc(t.line),
                    format!("ambient entropy via `{}`", t.text),
                )
                .with_hint("derive every RNG from an explicit seed (SmallRng::seed_from_u64)"),
            );
        }
    }
}

/// R1008: `#[allow(...)]` without an adjacent justification comment.
///
/// A justification is any comment on the attribute's own line or the
/// line directly above it. The check runs on the full token stream via
/// the comment-line set the caller computed for us.
fn r1008_allow_justification(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if !t.is_punct('#') || ctx.in_test(t.line) {
            continue;
        }
        let mut j = i + 1;
        if matches!(ctx.code.get(j), Some(n) if n.is_punct('!')) {
            j += 1;
        }
        let is_allow = matches!(ctx.code.get(j), Some(n) if n.is_punct('['))
            && matches!(ctx.code.get(j + 1), Some(n) if n.is_ident("allow"));
        if is_allow && !has_adjacent_comment(ctx, t.line) {
            out.push(
                Diagnostic::error(
                    "R1008",
                    ctx.loc(t.line),
                    "#[allow(...)] without a justification comment".to_string(),
                )
                .with_hint("say why the lint is wrong here, on the line above"),
            );
        }
    }
}

/// R1011: leftover debug/stub macros.
fn r1011_debug_macros(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let is_macro = matches!(t.text.as_str(), "dbg" | "todo" | "unimplemented")
            && matches!(ctx.code.get(i + 1), Some(n) if n.is_punct('!'));
        if is_macro {
            out.push(
                Diagnostic::error(
                    "R1011",
                    ctx.loc(t.line),
                    format!("`{}!` left in non-test code", t.text),
                )
                .with_hint("finish the code path or return an error"),
            );
        }
    }
}

/// R1012: panicking float comparisons.
fn r1012_partial_cmp_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if !t.is_ident("partial_cmp") || ctx.in_test(t.line) {
            continue;
        }
        // Skip the call's balanced argument parens, then look for
        // `.unwrap(` / `.expect(`.
        if !matches!(ctx.code.get(i + 1), Some(n) if n.is_punct('(')) {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while let Some(n) = ctx.code.get(j) {
            match n.kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let panicking = matches!(ctx.code.get(j + 1), Some(n) if n.is_punct('.'))
            && matches!(ctx.code.get(j + 2), Some(n) if n.is_ident("unwrap") || n.is_ident("expect"));
        if panicking {
            out.push(
                Diagnostic::error(
                    "R1012",
                    ctx.loc(t.line),
                    "partial_cmp().unwrap() panics on NaN mid-suite".to_string(),
                )
                .with_hint("use f64::total_cmp"),
            );
        }
    }
}

/// Whether any comment sits on `line` or the line directly above it.
fn has_adjacent_comment(ctx: &FileCtx<'_>, line: usize) -> bool {
    ctx.comment_lines
        .iter()
        .any(|&l| l == line || l + 1 == line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_regions;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let comment_lines: Vec<usize> = tokens
            .iter()
            .filter(|t| t.is_comment())
            .map(|t| t.line)
            .collect();
        let ctx = FileCtx {
            path,
            code: &code,
            regions: &regions,
            comment_lines: &comment_lines,
        };
        check_file(&ctx)
    }

    #[test]
    fn hashmap_in_tests_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { let m = HashMap::new(); }\n}\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn string_mentions_do_not_trip_ident_rules() {
        let src = "fn f() { let s = \"HashMap unsafe thread_rng\"; }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn spawn_is_allowed_in_the_supervision_layer() {
        let src = "fn f() { thread::spawn(|| {}); }\n";
        assert!(run("crates/sandbox/src/parent.rs", src).is_empty());
        assert!(run("crates/harness/src/supervisor.rs", src).is_empty());
        assert_eq!(run("crates/x/src/lib.rs", src)[0].rule, "R1003");
    }

    #[test]
    fn exit_is_allowed_in_bins() {
        let src = "fn main() { std::process::exit(2); }\n";
        assert!(run("crates/harness/src/bin/artifact.rs", src).is_empty());
        assert_eq!(run("crates/harness/src/lib.rs", src)[0].rule, "R1006");
    }

    #[test]
    fn float_specs_only_matter_in_writer_files() {
        let src = "fn f() { let s = format!(\"{:.3}\", x); }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
        assert_eq!(run("crates/obs/src/json.rs", src)[0].rule, "R1004");
    }

    #[test]
    fn justified_allow_passes() {
        let src =
            "// the FFI struct is read by the kernel, not us\n#[allow(dead_code)]\nstruct S;\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
        let bare = "#[allow(dead_code)]\nstruct S;\n";
        assert_eq!(run("crates/x/src/lib.rs", bare)[0].rule, "R1008");
    }

    #[test]
    fn partial_cmp_without_unwrap_passes() {
        let src = "fn f() { a.partial_cmp(&b).unwrap_or(Ordering::Equal); }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
        let bad = "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(run("crates/x/src/lib.rs", bad)[0].rule, "R1012");
    }
}
