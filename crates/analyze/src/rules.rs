//! The rule set: each rule is a token-stream pass over one
//! [`SourceFile`] (plus two whole-workspace passes: lock ordering and
//! dead `pub` items).
//!
//! Every rule is a deliberate *under-approximation*: purely lexical,
//! no type inference, tuned so that a finding is almost always real and
//! the reviewer burden lands on the annotated waivers
//! (`// rp-analyze: allow(<rule>, "<reason>")`), never on noise. The
//! scoping tables at the top of this module are the contract: they name
//! exactly which files each invariant governs.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Rule names, in reporting order. `pragma` is the meta-rule flagging
/// malformed or unknown suppressions.
pub const RULES: &[&str] = &[
    "determinism",
    "fault-facade",
    "no-panic-serving",
    "canonical-floats",
    "lock-order",
    "safety",
    "obs-clock",
    "dead-pub",
    "pragma",
];

/// One diagnostic: a rule violation at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong, and what the fix direction is.
    pub message: String,
}

/// One pragma-suppressed would-be finding, kept so the summary can show
/// what was waived and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The waived rule.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the waived finding.
    pub line: usize,
    /// The reason recorded in the pragma.
    pub reason: String,
}

// ---------------------------------------------------------------------------
// Scoping: which files each invariant governs.
// ---------------------------------------------------------------------------

/// Output-producing modules whose iteration order and clocks feed
/// publication/WAL/wire bytes: all of `rp-core` and `rp-table`, plus
/// the artifact/stream side of `rp-engine`. The serving layer (cache,
/// catalog, sockets) is excluded — its hash maps never order bytes.
fn determinism_scope(path: &str) -> bool {
    if path.starts_with("crates/core/src/") || path.starts_with("crates/table/src/") {
        return true;
    }
    if let Some(rest) = path.strip_prefix("crates/engine/src/") {
        return rest.starts_with("stream/")
            || matches!(
                rest,
                "publication.rs" | "codec.rs" | "engine.rs" | "publisher.rs"
            );
    }
    false
}

/// Durability-relevant I/O must route through the `FaultIo` facade; the
/// named files *are* the facade (plus the WAL, which owns its file).
fn fault_facade_scope(path: &str) -> bool {
    path.starts_with("crates/engine/src/")
        && !path.ends_with("/fsutil.rs")
        && !path.ends_with("/fault.rs")
        && !path.ends_with("/wal.rs")
}

/// The serving stack: a panic here kills a session thread, so these
/// files must degrade through typed errors instead.
fn serving_scope(path: &str) -> bool {
    matches!(
        path,
        "crates/engine/src/protocol.rs"
            | "crates/engine/src/serve.rs"
            | "crates/engine/src/server.rs"
            | "crates/engine/src/service.rs"
            | "crates/engine/src/catalog.rs"
    )
}

/// Float bytes on the wire and in artifacts must go through the codec's
/// canonical formatter ([`canon_f64`-style wrappers] in `codec.rs`).
fn floats_scope(path: &str) -> bool {
    path.starts_with("crates/engine/src/") && path != "crates/engine/src/codec.rs"
}

/// Every wall-clock read in the workspace must route through the
/// observability clock (`obs::Clock` / `Registry::now_ns`), so tests can
/// inject a `MockClock` and timing behavior stays reproducible. Only the
/// obs module itself — where the production `MonotonicClock` lives — may
/// read `Instant`/`SystemTime` directly.
fn obs_clock_scope(path: &str) -> bool {
    !path.starts_with("crates/engine/src/obs")
}

/// `pub` items of the library crates: rustc's `dead_code` already
/// covers private and `pub(crate)` items, so exported ones are the gap.
fn dead_pub_scope(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

// ---------------------------------------------------------------------------
// The per-file pass.
// ---------------------------------------------------------------------------

/// Accumulates findings, routing each through the file's pragmas.
pub struct Sink<'f> {
    file: &'f SourceFile,
    /// Surviving findings.
    pub findings: Vec<Finding>,
    /// Pragma-waived findings.
    pub suppressed: Vec<Suppression>,
}

impl<'f> Sink<'f> {
    fn new(file: &'f SourceFile) -> Self {
        Self {
            file,
            findings: Vec::new(),
            suppressed: Vec::new(),
        }
    }

    fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        if let Some(allow) = self.file.allow_for(rule, line) {
            self.suppressed.push(Suppression {
                rule,
                path: self.file.path.clone(),
                line,
                reason: allow.reason.clone(),
            });
        } else {
            self.findings.push(Finding {
                rule,
                path: self.file.path.clone(),
                line,
                message,
            });
        }
    }
}

/// A directed lock-acquisition edge: `from` was held when `to` was
/// taken, at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Where the inner acquisition happened.
    pub path: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// Runs every per-file rule over `file`, returning the sink plus the
/// file's lock-acquisition edges for the global ordering pass.
pub fn check_file(file: &SourceFile) -> (Vec<Finding>, Vec<Suppression>, Vec<LockEdge>) {
    let mut sink = Sink::new(file);
    pragma_rule(file, &mut sink);
    safety_rule(file, &mut sink);
    if determinism_scope(&file.path) {
        determinism_rule(file, &mut sink);
    }
    if fault_facade_scope(&file.path) {
        fault_facade_rule(file, &mut sink);
    }
    if serving_scope(&file.path) {
        no_panic_rule(file, &mut sink);
    }
    if floats_scope(&file.path) {
        canonical_floats_rule(file, &mut sink);
    }
    if obs_clock_scope(&file.path) {
        obs_clock_rule(file, &mut sink);
    }
    let edges = lock_edges(file, &mut sink);
    (sink.findings, sink.suppressed, edges)
}

/// Flags malformed pragmas and pragmas naming a rule that does not
/// exist (a typo would otherwise silently suppress nothing).
fn pragma_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    for (line, message) in &file.bad_pragmas {
        sink.findings.push(Finding {
            rule: "pragma",
            path: file.path.clone(),
            line: *line,
            message: message.clone(),
        });
    }
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for allows in file.all_allows() {
        for a in allows {
            if !RULES.contains(&a.rule.as_str()) && seen.insert((a.line, a.rule.clone())) {
                sink.findings.push(Finding {
                    rule: "pragma",
                    path: file.path.clone(),
                    line: a.line,
                    message: format!(
                        "pragma allows unknown rule `{}` (known: {})",
                        a.rule,
                        RULES.join(", ")
                    ),
                });
            }
        }
    }
}

/// `unsafe` needs an adjacent `// SAFETY:` comment, and every crate
/// root must carry `#![deny(unsafe_code)]` (or `forbid`) — a crate that
/// genuinely needs `unsafe` waives the root check with a pragma.
fn safety_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    for &i in &file.code {
        let t = file.toks[i];
        if t.kind == TokKind::Ident && t.text(&file.src) == "unsafe" {
            let documented = file.toks.iter().any(|c| {
                matches!(c.kind, TokKind::LineComment | TokKind::BlockComment)
                    && c.line + 3 > t.line
                    && c.line <= t.line
                    && c.text(&file.src).contains("SAFETY:")
            });
            if !documented {
                sink.emit(
                    "safety",
                    t.line,
                    "`unsafe` without a `// SAFETY:` comment on or just above it".to_string(),
                );
            }
        }
    }
    if file.path.ends_with("src/lib.rs") && !has_deny_unsafe(file) {
        sink.emit(
            "safety",
            1,
            "crate root is missing `#![deny(unsafe_code)]` (waive with a pragma on line 1 \
             if the crate must contain `unsafe`)"
                .to_string(),
        );
    }
}

/// Does the file contain `#![deny(unsafe_code)]` / `#![forbid(unsafe_code)]`?
fn has_deny_unsafe(file: &SourceFile) -> bool {
    let code = &file.code;
    (0..code.len()).any(|c| {
        file.kind_at(c) == Some(TokKind::Punct('#'))
            && file.kind_at(c + 1) == Some(TokKind::Punct('!'))
            && file.kind_at(c + 2) == Some(TokKind::Punct('['))
            && matches!(file.text_at(c + 3), Some("deny") | Some("forbid"))
            && file.kind_at(c + 4) == Some(TokKind::Punct('('))
            && file.text_at(c + 5) == Some("unsafe_code")
    })
}

/// Methods whose call on a `HashMap`/`HashSet` observes its unordered
/// iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// No unordered iteration or wall-clock reads in output-producing
/// modules: published bytes must be a pure function of `(input, seed)`.
fn determinism_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    let code = &file.code;
    for (c, &tok_idx) in code.iter().enumerate() {
        let t = file.toks[tok_idx];
        if file.is_test_line(t.line) {
            continue;
        }
        // `SystemTime::now` / `Instant::now`.
        if t.kind == TokKind::Ident
            && matches!(t.text(&file.src), "SystemTime" | "Instant")
            && file.kind_at(c + 1) == Some(TokKind::Punct(':'))
            && file.kind_at(c + 2) == Some(TokKind::Punct(':'))
            && file.text_at(c + 3) == Some("now")
        {
            sink.emit(
                "determinism",
                t.line,
                format!(
                    "`{}::now()` in an output-producing module — published bytes must be a \
                     pure function of (input, seed)",
                    t.text(&file.src)
                ),
            );
        }
        // `<hash-ident> . <iter-method> (`.
        if t.kind == TokKind::Punct('.')
            && file
                .text_at(c + 1)
                .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
            && file.kind_at(c + 2) == Some(TokKind::Punct('('))
        {
            if let Some(receiver) = file.ident_before(c) {
                if file.hash_idents.contains(receiver) {
                    sink.emit(
                        "determinism",
                        t.line,
                        format!(
                            "unordered iteration: `{receiver}.{}()` on a HashMap/HashSet in an \
                             output-producing module — sort before emission or use a BTree map",
                            file.text_at(c + 1).unwrap_or("?"),
                        ),
                    );
                }
            }
        }
        // `for _ in [&]<hash-ident> {`.
        if t.kind == TokKind::Ident && t.text(&file.src) == "in" {
            let mut j = c + 1;
            while matches!(file.kind_at(j), Some(TokKind::Punct('&')))
                || file.text_at(j) == Some("mut")
            {
                j += 1;
            }
            if let Some(name) = file.text_at(j) {
                if file.hash_idents.contains(name)
                    && file.kind_at(j + 1) == Some(TokKind::Punct('{'))
                {
                    sink.emit(
                        "determinism",
                        t.line,
                        format!(
                            "unordered iteration: `for .. in {name}` over a HashMap/HashSet in \
                             an output-producing module"
                        ),
                    );
                }
            }
        }
    }
}

/// Raw wall-clock reads outside the obs module: every timestamp must
/// come from the injectable `obs::Clock` (`Registry::now_ns`) so tests
/// can drive timing with a `MockClock` and the clock has one producer.
fn obs_clock_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    let code = &file.code;
    for (c, &tok_idx) in code.iter().enumerate() {
        let t = file.toks[tok_idx];
        if file.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text(&file.src), "SystemTime" | "Instant")
            && file.kind_at(c + 1) == Some(TokKind::Punct(':'))
            && file.kind_at(c + 2) == Some(TokKind::Punct(':'))
            && file.text_at(c + 3) == Some("now")
        {
            sink.emit(
                "obs-clock",
                t.line,
                format!(
                    "raw `{}::now()` outside the obs module — read the clock through \
                     `obs::Clock` (`Registry::now_ns`) so tests can inject a MockClock",
                    t.text(&file.src)
                ),
            );
        }
    }
}

/// Raw filesystem mutation outside the facade files: every
/// durability-relevant write must consult the injectable `FaultIo`
/// schedule, or crash-safety tests cannot reach it.
fn fault_facade_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    let code = &file.code;
    for (c, &tok_idx) in code.iter().enumerate() {
        let t = file.toks[tok_idx];
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let text = t.text(&file.src);
        let is_path_call = |c: usize, head: &str, tail: &str| {
            file.text_at(c) == Some(head)
                && file.kind_at(c + 1) == Some(TokKind::Punct(':'))
                && file.kind_at(c + 2) == Some(TokKind::Punct(':'))
                && file.text_at(c + 3) == Some(tail)
        };
        let hit = if is_path_call(c, "File", "create") || is_path_call(c, "File", "options") {
            Some(format!("`File::{}`", file.text_at(c + 3).unwrap_or("?")))
        } else if is_path_call(c, "fs", "write") || is_path_call(c, "fs", "remove_file") {
            Some(format!("`fs::{}`", file.text_at(c + 3).unwrap_or("?")))
        } else if text == "OpenOptions"
            && file.kind_at(c + 1) == Some(TokKind::Punct(':'))
            && file.kind_at(c + 2) == Some(TokKind::Punct(':'))
        {
            Some("`OpenOptions`".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            sink.emit(
                "fault-facade",
                t.line,
                format!(
                    "{what} outside fsutil.rs/fault.rs/wal.rs — durability-relevant I/O must \
                     route through the FaultIo facade (CheckedFile / write_atomic_with)"
                ),
            );
        }
        // `.sync_data(` / `.sync_all(` / `.set_len(` method calls.
        if t.kind == TokKind::Ident
            && matches!(text, "sync_data" | "sync_all" | "set_len")
            && file.kind_at(c + 1) == Some(TokKind::Punct('('))
            && c > 0
            && file.kind_at(c - 1) == Some(TokKind::Punct('.'))
        {
            sink.emit(
                "fault-facade",
                t.line,
                format!(
                    "raw `.{text}()` outside fsutil.rs/fault.rs/wal.rs — syncs must go \
                     through the FaultIo facade so fault schedules can observe them"
                ),
            );
        }
    }
}

/// Macros that abort the session thread when reached.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// No panics in the serving stack: a malformed internal state must
/// surface as a typed `error code=internal` response, never kill the
/// session thread.
fn no_panic_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    let code = &file.code;
    for c in 0..code.len() {
        let t = file.toks[code[c]];
        if file.is_test_line(t.line) {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let text = t.text(&file.src);
                // `.unwrap(` / `.expect(`.
                if matches!(text, "unwrap" | "expect")
                    && c > 0
                    && file.kind_at(c - 1) == Some(TokKind::Punct('.'))
                    && file.kind_at(c + 1) == Some(TokKind::Punct('('))
                {
                    sink.emit(
                        "no-panic-serving",
                        t.line,
                        format!(
                            "`.{text}()` in the serving stack — degrade to a typed \
                             `ErrorCode::Internal` response instead of panicking"
                        ),
                    );
                }
                // `panic!(` and friends.
                if PANIC_MACROS.contains(&text) && file.kind_at(c + 1) == Some(TokKind::Punct('!'))
                {
                    sink.emit(
                        "no-panic-serving",
                        t.line,
                        format!("`{text}!` in the serving stack — return a typed error instead"),
                    );
                }
            }
            // Indexing: `expr[...]` where expr ends in an identifier,
            // `)`, `]` or a literal. Types (`&[u8]`), attributes
            // (`#[..]`) and macro brackets (`vec![`) never match.
            TokKind::Punct('[') if c > 0 => {
                let prev = file.toks[code[c - 1]];
                let indexes = match prev.kind {
                    TokKind::Ident => {
                        // Keywords before `[` introduce types/patterns,
                        // not index expressions.
                        !matches!(
                            prev.text(&file.src),
                            "mut" | "dyn" | "as" | "in" | "return" | "box" | "const"
                        )
                    }
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    sink.emit(
                        "no-panic-serving",
                        t.line,
                        "indexing (`expr[..]`) in the serving stack can panic — use `.get()` \
                         and degrade on `None`"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Format-family macros whose output feeds wire/artifact bytes.
/// (`format!` is deliberately absent: it builds human-facing error
/// messages, which are not canonical bytes.)
const WRITE_MACROS: &[&str] = &["write", "writeln", "format_args"];

/// Floats formatted outside the codec: `write!`/`writeln!` of an
/// `f32`/`f64`-typed value must wrap it in the codec's canonical
/// formatter so every float byte on disk and wire has one producer.
fn canonical_floats_rule(file: &SourceFile, sink: &mut Sink<'_>) {
    let code = &file.code;
    let mut c = 0usize;
    while c < code.len() {
        let t = file.toks[code[c]];
        let is_write = t.kind == TokKind::Ident
            && WRITE_MACROS.contains(&t.text(&file.src))
            && file.kind_at(c + 1) == Some(TokKind::Punct('!'))
            && file.kind_at(c + 2) == Some(TokKind::Punct('('));
        if !is_write || file.is_test_line(t.line) {
            c += 1;
            continue;
        }
        // Scan the macro arguments to the matching `)`.
        let mut depth = 0usize;
        let mut j = c + 2;
        let mut call_stack: Vec<&str> = Vec::new();
        let mut saw_format_str = false;
        while j < code.len() {
            let a = file.toks[code[j]];
            match a.kind {
                TokKind::Punct('(') => {
                    depth += 1;
                    // Track the call wrapping these arguments, so floats
                    // inside `canon_f64(...)` are recognized as routed
                    // through the codec.
                    let callee = if j > 0 && file.kind_at(j - 1) == Some(TokKind::Ident) {
                        file.text_at(j - 1).unwrap_or("")
                    } else {
                        ""
                    };
                    call_stack.push(callee);
                }
                TokKind::Punct(')') => {
                    depth = depth.saturating_sub(1);
                    call_stack.pop();
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Str if !saw_format_str => {
                    saw_format_str = true;
                    for name in inline_captures(a.text(&file.src)) {
                        if file.float_idents.contains(&name) {
                            sink.emit(
                                "canonical-floats",
                                a.line,
                                format!(
                                    "float `{{{name}}}` formatted outside codec.rs — route \
                                     through the codec's canonical float formatter"
                                ),
                            );
                        }
                    }
                }
                TokKind::Ident => {
                    let text = a.text(&file.src);
                    let canonical = call_stack.contains(&"canon_f64");
                    if !canonical
                        && file.float_idents.contains(text)
                        && file.kind_at(j + 1) != Some(TokKind::Punct('('))
                        && file.kind_at(j + 1) != Some(TokKind::Punct(':'))
                    {
                        sink.emit(
                            "canonical-floats",
                            a.line,
                            format!(
                                "float `{text}` formatted outside codec.rs — wrap it in the \
                                 codec's `canon_f64(..)`"
                            ),
                        );
                    }
                    if !canonical
                        && text == "as"
                        && matches!(file.text_at(j + 1), Some("f32") | Some("f64"))
                    {
                        sink.emit(
                            "canonical-floats",
                            a.line,
                            "float cast formatted outside codec.rs — wrap it in the codec's \
                             `canon_f64(..)`"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
            j += 1;
        }
        c = j + 1;
    }
}

/// Extracts `{name}` / `{name:spec}` inline captures from a format
/// string literal (outer quotes included in `lit`).
fn inline_captures(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = lit.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if i + 1 < bytes.len() && bytes[i + 1] == b'{' {
                i += 2; // escaped `{{`
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
                j += 1;
            }
            let name = &lit[i + 1..j];
            if !name.is_empty()
                && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                && !name.bytes().next().is_some_and(|b| b.is_ascii_digit())
            {
                out.push(name.to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// One live lock guard while scanning a function body.
struct Guard {
    /// Normalized lock name (last path segment before `.lock()`).
    lock: String,
    /// Variable the guard is bound to, for `drop(var)` tracking.
    var: Option<String>,
    /// Brace depth the binding was declared at; dies below it.
    depth: usize,
    /// Statement temporary (no `let`): dies at the next `;`.
    temp: bool,
}

/// Extracts intra-function lock-acquisition edges: for each `.lock()`
/// (and `.read()`/`.write()` on an `RwLock`-ascribed receiver) taken
/// while another guard is live, records `held → taken`. The global
/// pass assembles these into the workspace acquisition graph and
/// reports cycles.
fn lock_edges(file: &SourceFile, sink: &mut Sink<'_>) -> Vec<LockEdge> {
    let mut edges: Vec<LockEdge> = Vec::new();
    let code = &file.code;
    let mut c = 0usize;
    while c < code.len() {
        // Find the next `fn name ... {`.
        if !(file.toks[code[c]].kind == TokKind::Ident && file.text(code[c]) == "fn") {
            c += 1;
            continue;
        }
        // Walk to the body's opening brace at paren/bracket depth 0.
        let mut j = c + 1;
        let mut pd = 0i32;
        let body_open = loop {
            match file.kind_at(j) {
                None => break None,
                Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) => pd += 1,
                Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) => pd -= 1,
                Some(TokKind::Punct('{')) if pd == 0 => break Some(j),
                // An associated-fn declaration (trait method without a
                // body) ends at `;`.
                Some(TokKind::Punct(';')) if pd == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else {
            c = j.max(c + 1);
            continue;
        };
        // Scan the body.
        let mut depth = 1usize;
        let mut bracket = 0i32;
        let mut guards: Vec<Guard> = Vec::new();
        let mut stmt_start = open + 1;
        j = open + 1;
        while j < code.len() && depth > 0 {
            let t = file.toks[code[j]];
            match t.kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    stmt_start = j + 1;
                }
                TokKind::Punct('}') => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    stmt_start = j + 1;
                }
                TokKind::Punct('(') | TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct(';') if bracket == 0 => {
                    guards.retain(|g| !g.temp);
                    stmt_start = j + 1;
                }
                TokKind::Ident => {
                    let text = t.text(&file.src);
                    // `drop(var)` releases a named guard early.
                    if text == "drop" && file.kind_at(j + 1) == Some(TokKind::Punct('(')) {
                        if let Some(var) = file.text_at(j + 2) {
                            guards.retain(|g| g.var.as_deref() != Some(var));
                        }
                    }
                    let acquires = (text == "lock"
                        && file.kind_at(j + 1) == Some(TokKind::Punct('('))
                        && j > 0
                        && file.kind_at(j - 1) == Some(TokKind::Punct('.')))
                        || (matches!(text, "read" | "write")
                            && file.kind_at(j + 1) == Some(TokKind::Punct('('))
                            && j > 0
                            && file.kind_at(j - 1) == Some(TokKind::Punct('.'))
                            && file
                                .ident_before(j - 1)
                                .is_some_and(|r| file.rwlock_idents.contains(r)));
                    if acquires {
                        let lock = file.ident_before(j - 1).unwrap_or("<lock>").to_string();
                        if file.is_test_line(t.line) {
                            j += 1;
                            continue;
                        }
                        for g in &guards {
                            if g.lock != lock {
                                // A pragma on the acquisition line drops
                                // the edge before cycle detection.
                                if let Some(allow) = file.allow_for("lock-order", t.line) {
                                    sink.suppressed.push(Suppression {
                                        rule: "lock-order",
                                        path: file.path.clone(),
                                        line: t.line,
                                        reason: allow.reason.clone(),
                                    });
                                } else {
                                    edges.push(LockEdge {
                                        from: g.lock.clone(),
                                        to: lock.clone(),
                                        path: file.path.clone(),
                                        line: t.line,
                                    });
                                }
                            }
                        }
                        // Bind the new guard: `let [mut] <var> =` at the
                        // statement head makes it block-scoped, anything
                        // else is a statement temporary.
                        let mut var = None;
                        let mut temp = true;
                        if file.text_at(stmt_start) == Some("let") {
                            temp = false;
                            let mut v = stmt_start + 1;
                            while matches!(file.text_at(v), Some("mut") | Some("ref")) {
                                v += 1;
                            }
                            var = file.text_at(v).map(str::to_string);
                        }
                        guards.push(Guard {
                            lock,
                            var,
                            depth,
                            temp,
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
        c = j;
    }
    edges
}

/// Assembles the workspace acquisition graph from every file's edges
/// and reports each cycle once, at the lexicographically first edge on
/// it. Deterministic: edges are sorted before the search.
pub fn lock_order_findings(mut edges: Vec<LockEdge>) -> Vec<Finding> {
    edges.sort();
    edges.dedup();
    // adjacency: from → [(to, edge index)]
    let mut adj: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(&e.from).or_default().push((&e.to, i));
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    // DFS from every node; a path revisiting its start is a cycle.
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut stack: Vec<(&str, Vec<usize>)> = vec![(start, Vec::new())];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for &(next, ei) in adj.get(node).into_iter().flatten() {
                let mut p = path.clone();
                p.push(ei);
                if next == *start {
                    // Canonical form: the cycle's lock names, rotated to
                    // the smallest, so each cycle reports once.
                    let mut names: Vec<&str> = p.iter().map(|&i| edges[i].from.as_str()).collect();
                    let rot = names
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    names.rotate_left(rot);
                    if reported.insert(names.clone()) {
                        let chain = p
                            .iter()
                            .map(|&i| {
                                let e = &edges[i];
                                format!("{} → {} ({}:{})", e.from, e.to, e.path, e.line)
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        let e0 = &edges[p[0]];
                        findings.push(Finding {
                            rule: "lock-order",
                            path: e0.path.clone(),
                            line: e0.line,
                            message: format!(
                                "lock acquisition cycle: {chain} — a consistent global order \
                                 is required to rule out deadlock"
                            ),
                        });
                    }
                } else if visited.insert(next) && p.len() < 16 {
                    stack.push((next, p));
                }
            }
        }
    }
    findings
}

/// Flags every `pub fn`, `pub const` or `pub static` under
/// `crates/*/src` whose name occurs as a code identifier nowhere but
/// its own definition. `#[cfg(test)]` code of `files`, comments
/// (doc tests included) and `pub use` lines are not uses; `refs`
/// (integration tests, benches, examples, the perf harness) are read
/// whole, since they are callers by nature. Any same-named token
/// counts, so the rule can miss a dead item but never flags a live one.
pub fn dead_pub_findings(
    files: &[SourceFile],
    refs: &[SourceFile],
) -> (Vec<Finding>, Vec<Suppression>) {
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    let linted = files.iter().map(|f| (f, false));
    for (file, whole) in linted.chain(refs.iter().map(|f| (f, true))) {
        let mut c = 0;
        while c < file.code.len() {
            if file.text_at(c) == Some("pub") && file.text_at(c + 1) == Some("use") {
                while c < file.code.len() && file.kind_at(c) != Some(TokKind::Punct(';')) {
                    c += 1;
                }
            } else if file.kind_at(c) == Some(TokKind::Ident)
                && (whole || !file.is_test_line(file.toks[file.code[c]].line))
            {
                *uses.entry(file.text_at(c).unwrap_or("")).or_default() += 1;
            }
            c += 1;
        }
    }
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for file in files.iter().filter(|f| dead_pub_scope(&f.path)) {
        let mut sink = Sink::new(file);
        for (kind, name) in pub_items(file) {
            let text = file.text_at(name).unwrap_or("");
            // The definition's own name token is the one counted use.
            if uses.get(text).copied().unwrap_or(0) <= 1 {
                sink.emit(
                    "dead-pub",
                    file.toks[file.code[name]].line,
                    format!(
                        "`pub {kind} {text}` is used only by its definition, test code, \
                         comments or `pub use` lines — delete it (with its tests)"
                    ),
                );
            }
        }
        findings.extend(sink.findings);
        suppressed.extend(sink.suppressed);
    }
    (findings, suppressed)
}

/// The non-test `pub fn` / `pub const` / `pub static` items of `file`,
/// as `(keyword, code index of the name)`. Bare `pub` only: a
/// `pub(crate)` item is rustc's to flag.
fn pub_items(file: &SourceFile) -> Vec<(&'static str, usize)> {
    let mut items = Vec::new();
    for c in 0..file.code.len() {
        if file.text_at(c) != Some("pub") || file.is_test_line(file.toks[file.code[c]].line) {
            continue;
        }
        // Skip fn qualifiers: `const`, `unsafe`, `async`, `extern "C"`.
        let mut k = c + 1;
        while matches!(
            file.text_at(k),
            Some("const" | "unsafe" | "async" | "extern")
        ) || file.kind_at(k) == Some(TokKind::Str)
        {
            k += 1;
        }
        let item = match file.text_at(k) {
            Some("fn") => ("fn", k + 1),
            Some("static") if file.text_at(k + 1) == Some("mut") => ("static", k + 2),
            Some("static") => ("static", k + 1),
            _ if file.text_at(c + 1) == Some("const") => ("const", c + 2),
            _ => continue,
        };
        if file.kind_at(item.1) == Some(TokKind::Ident) && file.text_at(item.1) != Some("_") {
            items.push(item);
        }
    }
    items
}
