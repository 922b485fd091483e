//! D001–D004: the determinism rules.
//!
//! The paper's core claim — measured statistical distortion is a property
//! of the data and the cleaning strategy — survives only if no result path
//! depends on hash seeds, entropy, wall clocks, or thread scheduling. The
//! dynamic bit-identity suites catch such leaks *sometimes*; these rules
//! refuse the constructs outright.

use super::{RuleInput, APPROVED_PARALLEL_FILES, BENCH_CRATE};
use crate::diagnostics::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};

/// Entropy-seeded RNG constructors (D002): each draws from the OS, so two
/// runs of the same experiment stop being comparable.
const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// Wall-clock types (D003): time-dependent values in a compute path make
/// outputs depend on machine load.
const CLOCK_IDENTS: [&str; 2] = ["Instant", "SystemTime"];

pub(super) fn check(input: RuleInput<'_>, diags: &mut Vec<Diagnostic>) {
    let tokens = &input.lexed.tokens;
    let in_bench = input.crate_name == BENCH_CRATE;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if !in_bench && (name == "HashMap" || name == "HashSet") {
            diags.push(diag(
                RuleId::D001,
                input,
                t,
                format!("`{name}` iteration order depends on the hash seed"),
                format!(
                    "use `BTree{}` (or drain through a sorted Vec) so iteration \
                     order is a property of the keys",
                    &name[4..]
                ),
            ));
        }
        if !in_bench && ENTROPY_IDENTS.contains(&name) {
            diags.push(diag(
                RuleId::D002,
                input,
                t,
                format!("`{name}` seeds from OS entropy, so runs are not reproducible"),
                "derive a seeded `StdRng` (e.g. `StdRng::seed_from_u64`) from the \
                 experiment seed"
                    .into(),
            ));
        }
        if !in_bench && CLOCK_IDENTS.contains(&name) {
            diags.push(diag(
                RuleId::D003,
                input,
                t,
                format!("`{name}` reads the wall clock inside a compute path"),
                "time from outside the library (perfbench); result paths must \
                 be pure functions of data and seed"
                    .into(),
            ));
        }
        if name == "spawn"
            && !APPROVED_PARALLEL_FILES.contains(&input.file)
            && is_call_position(tokens, i)
        {
            diags.push(diag(
                RuleId::D004,
                input,
                t,
                "thread spawn outside the approved `parallel_map` idiom".into(),
                "route parallel work through `sd_core::parallel_map`, whose \
                 preallocated per-index slots keep f64 reduction order fixed"
                    .into(),
            ));
        }
    }
}

/// `spawn` counts only in call position — `.spawn(`, `::spawn(` — so an
/// unrelated identifier (a local named `spawn_count`, say) never fires.
fn is_call_position(tokens: &[Token], i: usize) -> bool {
    let preceded = i > 0
        && tokens[i - 1].kind == TokenKind::Punct
        && (tokens[i - 1].text == "." || tokens[i - 1].text == ":");
    let called = tokens
        .get(i + 1)
        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
    preceded && called
}

fn diag(
    rule: RuleId,
    input: RuleInput<'_>,
    t: &Token,
    message: String,
    suggestion: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        file: input.file.to_string(),
        line: t.line,
        col: t.col,
        message,
        suggestion,
    }
}
