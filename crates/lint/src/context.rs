//! Per-file analysis context: test regions and escape-hatch directives.
//!
//! Two structural facts qualify every token before the rules see it:
//!
//! 1. **Test regions.** `P001` exempts test code. A test region is the
//!    brace-delimited body of any item carrying a `test`-mentioning
//!    attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`), with
//!    `#[cfg(not(test))]` explicitly *not* counting. Regions nest freely;
//!    membership is a line-span lookup.
//!
//! 2. **Allow directives.** The escape hatch is a comment of the form
//!    `// sd-lint: allow(RULE, reason)`. A trailing directive suppresses
//!    findings of that rule on its own line; a standalone directive (first
//!    thing on its line) suppresses findings on the *next* line. The
//!    reason is mandatory — an escape without a justification is itself a
//!    finding ([`RuleId::A000`]) — and every accepted escape is counted in
//!    the report artifact so suppressed debt stays visible.

use crate::diagnostics::{Diagnostic, RuleId};
use crate::lexer::{Lexed, Token, TokenKind};

/// An accepted `sd-lint: allow(RULE, reason)` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule being allowed.
    pub rule: RuleId,
    /// The mandatory human justification.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line whose findings it suppresses.
    pub target_line: u32,
}

/// Structural context for one file.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Inclusive `(start, end)` line spans of test code.
    pub test_regions: Vec<(u32, u32)>,
    /// Accepted allow directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed directives, reported as [`RuleId::A000`] findings.
    pub malformed: Vec<Diagnostic>,
}

impl FileContext {
    /// Builds the context from a lexed file.
    pub fn build(file: &str, lexed: &Lexed) -> FileContext {
        let mut ctx = FileContext {
            test_regions: test_regions(&lexed.tokens),
            ..FileContext::default()
        };
        collect_directives(file, lexed, &mut ctx);
        ctx
    }

    /// Whether `line` lies inside any test region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Whether a finding of `rule` at `line` is suppressed by a directive.
    pub fn is_allowed(&self, rule: RuleId, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.target_line == line)
    }
}

fn is_punct(t: &Token, c: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == c
}

fn is_ident(t: &Token, name: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == name
}

/// Scans the token stream for `test`-attributed items and returns their
/// body line spans.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while i < tokens.len() {
        // Attribute: `#[...]` (outer) or `#![...]` (inner, ignored).
        if is_punct(&tokens[i], "#") {
            let mut j = i + 1;
            let inner = tokens.get(j).is_some_and(|t| is_punct(t, "!"));
            if inner {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| is_punct(t, "[")) {
                let mut depth = 1usize;
                let mut k = j + 1;
                let mut has_test = false;
                let mut has_not = false;
                while k < tokens.len() && depth > 0 {
                    let t = &tokens[k];
                    if is_punct(t, "[") {
                        depth += 1;
                    } else if is_punct(t, "]") {
                        depth -= 1;
                    } else if is_ident(t, "test") {
                        has_test = true;
                    } else if is_ident(t, "not") {
                        has_not = true;
                    }
                    k += 1;
                }
                if !inner && has_test && !has_not {
                    pending = true;
                }
                i = k;
                continue;
            }
        }
        if pending {
            if is_punct(&tokens[i], "{") {
                let close = matching_brace(tokens, i);
                regions.push((tokens[i].line, tokens[close].line));
                pending = false;
                // The region covers everything inside; resume after it.
                i = close + 1;
                continue;
            }
            if is_punct(&tokens[i], ";") || is_punct(&tokens[i], "}") {
                // `#[cfg(test)] mod tests;` — out-of-line test module; the
                // span cannot be tracked here (and the workspace keeps test
                // modules inline), so just stop carrying the attribute. A
                // `}` first means the attribute sat on a field, which ends
                // with its struct; the next block is not its body.
                pending = false;
            }
        }
        i += 1;
    }
    regions
}

/// Index of the `}` closing the `{` at `open` (or the last token when the
/// file is truncated — lexing is total, matching must be too).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// The directive marker inside a comment.
const MARKER: &str = "sd-lint:";

fn collect_directives(file: &str, lexed: &Lexed, ctx: &mut FileContext) {
    for comment in &lexed.comments {
        // A directive is the *whole* comment: `// sd-lint: allow(…)`.
        // Prefix-matching keeps prose that merely mentions the syntax
        // (doc comments, this very file) from parsing as a directive.
        let Some(rest) = comment.text.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let malformed = |why: &str| Diagnostic {
            rule: RuleId::A000,
            file: file.to_string(),
            line: comment.line,
            col: comment.col,
            message: format!("malformed sd-lint directive: {why}"),
            suggestion: "write `// sd-lint: allow(RULE, reason)` with a non-empty reason".into(),
        };
        let Some(body) = rest.strip_prefix("allow(") else {
            ctx.malformed.push(malformed("expected `allow(`"));
            continue;
        };
        let Some(close) = body.rfind(')') else {
            ctx.malformed.push(malformed("missing closing `)`"));
            continue;
        };
        let inner = &body[..close];
        let Some((rule_text, reason)) = inner.split_once(',') else {
            ctx.malformed
                .push(malformed("expected `allow(RULE, reason)` with a reason"));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            ctx.malformed
                .push(malformed("the reason must be non-empty"));
            continue;
        }
        let Some(rule) = RuleId::parse(rule_text.trim()) else {
            ctx.malformed
                .push(malformed(&format!("unknown rule `{}`", rule_text.trim())));
            continue;
        };
        // Trailing directive → this line; standalone → the next line.
        let standalone = !lexed
            .tokens
            .iter()
            .any(|t| t.line == comment.line && t.col < comment.col);
        let target_line = if standalone {
            comment.line + 1
        } else {
            comment.line
        };
        ctx.allows.push(AllowDirective {
            rule,
            reason: reason.to_string(),
            line: comment.line,
            target_line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> FileContext {
        FileContext::build("test.rs", &lex(src))
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let c = ctx(src);
        assert!(!c.in_test(1));
        assert!(c.in_test(4));
    }

    #[test]
    fn test_fn_is_a_region() {
        let src = "#[test]\nfn check() {\n    body();\n}\nfn live() {}\n";
        let c = ctx(src);
        assert!(c.in_test(3));
        assert!(!c.in_test(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let c = ctx("#[cfg(not(test))]\nmod live {\n    fn f() {}\n}\n");
        assert!(!c.in_test(3));
    }

    #[test]
    fn cfg_any_test_is_a_region() {
        let c = ctx("#[cfg(any(test, doctest))]\nmod helpers {\n    fn f() {}\n}\n");
        assert!(c.in_test(3));
    }

    #[test]
    fn inner_attribute_is_not_a_region() {
        // A crate-level `#![cfg(test)]`-ish attribute must not mark the
        // whole file; only outer item attributes open regions.
        let c = ctx("#![allow(clippy::test)]\nfn live() {}\n");
        assert!(!c.in_test(2));
    }

    #[test]
    fn cfg_test_field_does_not_mark_the_next_item() {
        // A test-only field ends at its struct's `}`; the `impl` after it
        // is live code.
        let src = "struct S {\n    #[cfg(test)]\n    hook: u8,\n}\nimpl S {\n    fn live() {}\n}\n";
        assert!(!ctx(src).in_test(6));
    }

    #[test]
    fn stacked_attributes_keep_the_region() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\n";
        assert!(ctx(src).in_test(4));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = m.get(k); // sd-lint: allow(P001, slot proven filled)\n";
        let c = ctx(src);
        assert_eq!(c.allows.len(), 1);
        assert_eq!(c.allows[0].target_line, 1);
        assert!(c.is_allowed(RuleId::P001, 1));
        assert!(!c.is_allowed(RuleId::D001, 1));
    }

    #[test]
    fn standalone_allow_targets_next_line() {
        let src = "// sd-lint: allow(D004, the approved implementation)\nscope.spawn(work);\n";
        let c = ctx(src);
        assert_eq!(c.allows[0].target_line, 2);
    }

    #[test]
    fn malformed_directives_are_findings() {
        for bad in [
            "// sd-lint: allow(P001)",
            "// sd-lint: allow(P001, )",
            "// sd-lint: allow(Z999, reason)",
            "// sd-lint: deny(P001, reason)",
        ] {
            let c = ctx(bad);
            assert_eq!(c.allows.len(), 0, "{bad}");
            assert_eq!(c.malformed.len(), 1, "{bad}");
            assert_eq!(c.malformed[0].rule, RuleId::A000);
        }
    }

    #[test]
    fn plain_comments_are_ignored() {
        let c = ctx("// ordinary note about HashMap\nlet x = 1;\n");
        assert!(c.allows.is_empty() && c.malformed.is_empty());
    }
}
