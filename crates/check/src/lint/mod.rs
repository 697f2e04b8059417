//! `nova-lint` — source-level enforcement of the workspace's prose
//! invariants.
//!
//! Five rules, all driven by the dependency-free [`lexer`](crate::lexer)
//! (so keywords inside strings, comments, and identifiers like
//! `unsafe_code` never fire):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `unsafe-carve-out` | every `.rs` file | the `unsafe` keyword appears only in the audited carve-out (`crates/core/src/spsc.rs`) |
//! | `wall-clock` | deterministic crates (fixed/approx/lut/noc/synth/serde/workloads) | no `Instant`, `SystemTime`, or `thread::sleep` — simulation results must not depend on the host clock |
//! | `atomic-facade` | `crates/core/src/**` | atomics are named through `nova_check::sync`, never `std::sync::atomic`, so model builds instrument every site |
//! | `safety-comment` | the carve-out files | every `unsafe` keyword has a `SAFETY` comment within the six lines above it |
//! | `ordering-rationale` | `crates/core/src/**` | every atomic callsite naming an `Ordering` carries an `ordering:` rationale comment on the same line or the four above |
//!
//! [`lint_source`] checks one file (used by the tests with seeded
//! violations); [`lint_workspace`] walks a tree; the `nova-lint` binary
//! wraps the latter with `-D`-style (non-zero exit) failure.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, Token};

/// The audited files allowed to contain `unsafe` (and required to
/// comment every site).
pub const UNSAFE_CARVE_OUT: [&str; 1] = ["crates/core/src/spsc.rs"];

/// Crate prefixes that must stay wall-clock free (deterministic
/// simulation / fitting / serialization code).
pub const WALL_CLOCK_FREE: [&str; 7] = [
    "crates/fixed/",
    "crates/approx/",
    "crates/lut/",
    "crates/noc/",
    "crates/synth/",
    "crates/serde/",
    "crates/workloads/",
];

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Atomic method names whose callsites want an ordering rationale.
const ATOMIC_METHODS: [&str; 8] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "compare_exchange",
];

/// The ordering identifiers that mark a callsite as atomic.
const ORDERINGS: [&str; 5] = ["SeqCst", "Acquire", "Release", "AcqRel", "Relaxed"];

fn comment_lines_containing(toks: &[Token<'_>], needle: &str) -> Vec<u32> {
    let is_comment = |t: &Token<'_>| matches!(t.tok, Tok::LineComment(_) | Tok::BlockComment(_));
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let hit = match toks[i].tok {
            Tok::LineComment(c) | Tok::BlockComment(c) => c.contains(needle),
            _ => false,
        };
        if hit {
            // The marker counts from its own line AND from the last
            // line of the contiguous comment run it opens — a long
            // `SAFETY:` rationale spanning a dozen lines still covers
            // the `unsafe` right below it.
            out.push(toks[i].line);
            let mut j = i;
            while j + 1 < toks.len()
                && is_comment(&toks[j + 1])
                && toks[j + 1].line <= toks[j].line + 1
            {
                j += 1;
            }
            if j > i {
                out.push(toks[j].line);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn has_marker_within(marks: &[u32], line: u32, above: u32) -> bool {
    marks.iter().any(|&m| m <= line && m + above >= line)
}

/// Index of the first token of a `cfg(test)` attribute, if any — the
/// comment-discipline rules stop there (test modules sit at file end
/// in this workspace and assert, they don't document orderings).
fn test_module_start(toks: &[Token<'_>]) -> usize {
    for (i, w) in toks.windows(4).enumerate() {
        if let (Tok::Ident("cfg"), Tok::Punct('('), Tok::Ident("test"), Tok::Punct(')')) =
            (w[0].tok, w[1].tok, w[2].tok, w[3].tok)
        {
            return i;
        }
    }
    toks.len()
}

/// Lints one file's source. `rel_path` is the workspace-relative path
/// with forward slashes — it decides which rules apply.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let mut out = Vec::new();
    let in_carve_out = UNSAFE_CARVE_OUT.contains(&rel_path);
    let wall_clock_free = WALL_CLOCK_FREE.iter().any(|p| rel_path.starts_with(p));
    let in_core = rel_path.starts_with("crates/core/src/");
    let test_start = test_module_start(&toks);
    let safety_marks = comment_lines_containing(&toks, "SAFETY");
    let ordering_marks = comment_lines_containing(&toks, "ordering:");

    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = t.tok else { continue };
        match name {
            "unsafe" => {
                if !in_carve_out {
                    out.push(Finding {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: "unsafe-carve-out",
                        message: "`unsafe` outside the audited carve-out \
                                  (crates/core/src/spsc.rs); move the code \
                                  there or find a safe shape"
                            .into(),
                    });
                } else if i < test_start && !has_marker_within(&safety_marks, t.line, 6) {
                    out.push(Finding {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: "safety-comment",
                        message: "`unsafe` without a `SAFETY:` comment in the six \
                                  lines above it"
                            .into(),
                    });
                }
            }
            "Instant" | "SystemTime" if wall_clock_free => {
                out.push(Finding {
                    path: rel_path.to_string(),
                    line: t.line,
                    rule: "wall-clock",
                    message: format!(
                        "`{name}` in a deterministic crate — results must not \
                         depend on the host clock"
                    ),
                });
            }
            "sleep" if wall_clock_free => {
                // Only `thread::sleep` (path-qualified) counts.
                let path_qualified = i >= 3
                    && matches!(toks[i - 3].tok, Tok::Ident("thread"))
                    && matches!(toks[i - 2].tok, Tok::Punct(':'))
                    && matches!(toks[i - 1].tok, Tok::Punct(':'));
                if path_qualified {
                    out.push(Finding {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: "wall-clock",
                        message: "`thread::sleep` in a deterministic crate — \
                                  results must not depend on the host clock"
                            .into(),
                    });
                }
            }
            "atomic" if in_core => {
                // The raw path `std::sync::atomic` (import or inline).
                let raw_std_path = i >= 6
                    && matches!(toks[i - 6].tok, Tok::Ident("std"))
                    && matches!(toks[i - 5].tok, Tok::Punct(':'))
                    && matches!(toks[i - 4].tok, Tok::Punct(':'))
                    && matches!(toks[i - 3].tok, Tok::Ident("sync"))
                    && matches!(toks[i - 2].tok, Tok::Punct(':'))
                    && matches!(toks[i - 1].tok, Tok::Punct(':'));
                if raw_std_path {
                    out.push(Finding {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: "atomic-facade",
                        message: "raw `std::sync::atomic` in nova-core — import \
                                  through `nova_check::sync` so model builds \
                                  instrument the site"
                            .into(),
                    });
                }
            }
            // A `.load(..)`-shaped call is atomic when an Ordering
            // identifier appears inside its parentheses.
            m if in_core
                && i < test_start
                && ATOMIC_METHODS.contains(&m)
                && matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| t.tok),
                    Some(Tok::Punct('.'))
                )
                && call_names_an_ordering(&toks, i)
                && !has_marker_within(&ordering_marks, t.line, 4) =>
            {
                out.push(Finding {
                    path: rel_path.to_string(),
                    line: t.line,
                    rule: "ordering-rationale",
                    message: format!(
                        "atomic `.{m}(..)` without an `ordering:` rationale \
                         comment on the same line or the four above"
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Whether the call whose method ident sits at `toks[i]` names one of
/// the `Ordering` variants inside its parentheses.
fn call_names_an_ordering(toks: &[Token<'_>], i: usize) -> bool {
    let mut j = i + 1;
    let Some(Tok::Punct('(')) = toks.get(j).map(|t| t.tok) else {
        return false;
    };
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(id) if ORDERINGS.contains(&id) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Recursively lints every `.rs` file under `root` (skipping `target`,
/// VCS, and hidden directories). Paths in findings are relative to
/// `root`, `/`-separated.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        out.extend(lint_source(&rel_str, &src));
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_unsafe_outside_carve_out_is_flagged() {
        let src = "pub fn f(p: *mut u8) { unsafe { *p = 0; } }";
        for path in ["crates/noc/src/bad.rs", "crates/core/src/serving.rs"] {
            let findings = lint_source(path, src);
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert_eq!(findings[0].rule, "unsafe-carve-out");
            assert_eq!(findings[0].line, 1);
        }
    }

    #[test]
    fn unsafe_code_attribute_is_not_the_unsafe_keyword() {
        let src = "#![forbid(unsafe_code)]\npub fn ok() {}\n";
        assert!(lint_source("crates/noc/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_wall_clock_in_sim_crate_is_flagged() {
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); \
                   std::thread::sleep(std::time::Duration::from_millis(1)); }";
        let findings = lint_source("crates/approx/src/bad.rs", src);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.iter().all(|&r| r == "wall-clock"));
        assert_eq!(
            findings.len(),
            3,
            "two Instant hits + one sleep: {findings:?}"
        );
        // The same source is fine where wall clocks are allowed.
        assert!(lint_source("crates/bench/src/bad.rs", src).is_empty());
    }

    #[test]
    fn seeded_raw_atomic_import_in_core_is_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "atomic-facade");
        // Facade imports are the sanctioned spelling.
        let good = "use nova_check::sync::atomic::AtomicUsize;\n";
        assert!(lint_source("crates/core/src/engine.rs", good).is_empty());
        // Outside nova-core the rule does not apply.
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_carve_out_requires_safety_comment() {
        let bad = "fn f(p: *mut u8) { unsafe { *p = 0; } }";
        let findings = lint_source("crates/core/src/spsc.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "safety-comment");
        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes.\n    \
                    unsafe { *p = 0; }\n}";
        assert!(lint_source("crates/core/src/spsc.rs", good).is_empty());
    }

    #[test]
    fn atomic_callsite_requires_ordering_rationale() {
        let bad = "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }";
        let good = "fn f(a: &AtomicBool) {\n    // ordering: Dekker flag, must be SC.\n    \
                    a.store(true, Ordering::SeqCst);\n}";
        // Non-atomic `.swap(i, j)` never needs one.
        let slice = "fn f(v: &mut Vec<u32>) { v.swap(0, 1); }";
        for path in ["crates/core/src/spsc.rs", "crates/core/src/serving.rs"] {
            let findings = lint_source(path, bad);
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert_eq!(findings[0].rule, "ordering-rationale");
            assert!(lint_source(path, good).is_empty(), "{path}");
            assert!(lint_source(path, slice).is_empty(), "{path}");
        }
    }

    #[test]
    fn test_modules_are_exempt_from_comment_discipline() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicBool) { \
                   a.store(true, Ordering::SeqCst); }\n}";
        assert!(lint_source("crates/core/src/spsc.rs", src).is_empty());
    }

    #[test]
    fn workspace_walk_is_clean() {
        // The real tree must pass its own lint (this is the same check
        // CI runs via the nova-lint binary).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_workspace(&root).expect("workspace readable");
        assert!(
            findings.is_empty(),
            "nova-lint found violations:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
