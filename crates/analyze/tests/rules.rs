//! Fixture tests: for every rule, one fixture proving it fires and one
//! proving the `allow` pragma suppresses it with a recorded reason.
//! Fixtures are analyzed through the library entry point with virtual
//! workspace paths, so scoping behaves exactly as on disk.

use rp_analyze::{analyze_sources, Report};

fn run(path: &str, src: &str) -> Report {
    analyze_sources(&[(path, src)])
}

fn rules_hit(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// -- determinism ------------------------------------------------------------

#[test]
fn determinism_fires_on_hash_iteration_and_clock() {
    let src = r#"
use std::collections::HashMap;
use std::time::SystemTime;
pub fn emit(m: &HashMap<u32, u32>) -> Vec<u32> {
    let t = SystemTime::now();
    let _ = t;
    let mut out = Vec::new();
    for (_k, v) in m.iter() {
        out.push(*v);
    }
    out
}
"#;
    let report = run("crates/core/src/emit.rs", src);
    // The clock read also violates obs-clock (workspace-wide scope);
    // findings report in line order, so it lands between the two
    // determinism hits (clock line 5, iteration line 8).
    assert_eq!(
        rules_hit(&report),
        vec!["determinism", "obs-clock", "determinism"]
    );
}

#[test]
fn determinism_pragma_suppresses_with_reason() {
    let src = r#"
use std::collections::HashMap;
pub fn total(m: &HashMap<u32, u64>) -> u64 {
    // rp-analyze: allow(determinism, "commutative sum, order-independent")
    m.values().sum()
}
"#;
    let report = run("crates/core/src/emit.rs", src);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "determinism");
    assert_eq!(
        report.suppressed[0].reason,
        "commutative sum, order-independent"
    );
}

#[test]
fn determinism_ignores_out_of_scope_files_and_test_code() {
    let src = r#"
use std::collections::HashMap;
pub fn emit(m: &HashMap<u32, u32>) -> usize {
    m.iter().count()
}
"#;
    // Serving layer is out of determinism scope.
    assert!(run("crates/engine/src/service.rs", src).clean());
    let test_src = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    pub fn emit(m: &std::collections::HashMap<u32, u32>) -> usize {
        let m2: HashMap<u32, u32> = HashMap::new();
        let _ = m2.iter().count();
        m.iter().count()
    }
}
"#;
    assert!(run("crates/core/src/emit.rs", test_src).clean());
}

// -- fault-facade -----------------------------------------------------------

#[test]
fn fault_facade_fires_on_raw_io() {
    let src = r#"
use std::fs::{File, OpenOptions};
pub fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let f = File::create(path)?;
    let g = OpenOptions::new().write(true).open(path)?;
    g.sync_data()?;
    f.set_len(0)?;
    std::fs::write(path, bytes)
}
"#;
    let report = run("crates/engine/src/stream/persist.rs", src);
    assert_eq!(
        rules_hit(&report),
        vec!["fault-facade"; 5],
        "{:?}",
        report.findings
    );
}

#[test]
fn fault_facade_pragma_and_facade_files_are_exempt() {
    let pragma_src = r#"
pub fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    // rp-analyze: allow(fault-facade, "test fixture: facade-equivalent atomic write")
    std::fs::write(path, bytes)
}
"#;
    let report = run("crates/engine/src/stream/persist.rs", pragma_src);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "fault-facade");

    let raw_src = r#"
pub fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
"#;
    // The facade files themselves may perform raw I/O.
    assert!(run("crates/engine/src/fsutil.rs", raw_src).clean());
    assert!(run("crates/engine/src/fault.rs", raw_src).clean());
    assert!(run("crates/engine/src/stream/wal.rs", raw_src).clean());
    // Other crates are out of scope.
    assert!(run("crates/core/src/io.rs", raw_src).clean());
}

// -- no-panic-serving -------------------------------------------------------

#[test]
fn no_panic_serving_fires_on_unwrap_panic_and_indexing() {
    let src = r#"
pub fn respond(x: Option<u32>, xs: &[u32]) -> u32 {
    if xs.is_empty() {
        panic!("empty");
    }
    let first = xs[0];
    first + x.unwrap()
}
"#;
    let report = run("crates/engine/src/serve.rs", src);
    assert_eq!(
        rules_hit(&report),
        vec!["no-panic-serving"; 3],
        "{:?}",
        report.findings
    );
}

#[test]
fn no_panic_serving_pragma_and_scope() {
    let src = r#"
pub fn respond(x: Option<u32>) -> u32 {
    // rp-analyze: allow(no-panic-serving, "checked one line above, cannot be None")
    x.unwrap()
}
"#;
    let report = run("crates/engine/src/catalog.rs", src);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "no-panic-serving");
    assert_eq!(
        report.suppressed[0].reason,
        "checked one line above, cannot be None"
    );

    // Out of serving scope: the same code passes elsewhere.
    let plain = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(run("crates/engine/src/engine.rs", plain).clean());
    // Test code inside a serving file passes.
    let test_src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let xs = vec![1u32];
        assert_eq!(xs[0], Some(1).unwrap());
    }
}
"#;
    assert!(run("crates/engine/src/serve.rs", test_src).clean());
}

// -- canonical-floats -------------------------------------------------------

#[test]
fn canonical_floats_fires_on_inline_and_positional_floats() {
    let src = r#"
use std::fmt::Write;
pub fn enc(p: f64, q: f64) -> String {
    let mut out = String::new();
    let _ = write!(out, "p={p}");
    let _ = write!(out, "q={}", q);
    out
}
"#;
    let report = run("crates/engine/src/proto.rs", src);
    assert_eq!(
        rules_hit(&report),
        vec!["canonical-floats"; 2],
        "{:?}",
        report.findings
    );
}

#[test]
fn canonical_floats_accepts_canon_wrapper_pragma_and_codec() {
    let wrapped = r#"
use std::fmt::Write;
pub fn enc(p: f64) -> String {
    let mut out = String::new();
    let _ = write!(out, "p={}", canon_f64(p));
    out
}
"#;
    assert!(run("crates/engine/src/proto.rs", wrapped).clean());

    let pragma = r#"
use std::fmt::Write;
pub fn enc(p: f64) -> String {
    let mut out = String::new();
    // rp-analyze: allow(canonical-floats, "human-facing debug text, not wire bytes")
    let _ = write!(out, "p={p}");
    out
}
"#;
    let report = run("crates/engine/src/proto.rs", pragma);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "canonical-floats");

    // codec.rs is the one legitimate float formatter.
    let raw = r#"
use std::fmt::Write;
pub fn enc(p: f64) -> String {
    let mut out = String::new();
    let _ = write!(out, "p={p}");
    out
}
"#;
    assert!(run("crates/engine/src/codec.rs", raw).clean());
}

// -- lock-order -------------------------------------------------------------

const LOCK_CYCLE: &str = r#"
use std::sync::Mutex;
pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}
impl S {
    pub fn ab(&self) -> u32 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }
    pub fn ba(&self) -> u32 {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        *ga + *gb
    }
}
"#;

#[test]
fn lock_order_reports_a_cycle() {
    let report = run("crates/engine/src/state.rs", LOCK_CYCLE);
    assert_eq!(
        rules_hit(&report),
        vec!["lock-order"],
        "{:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert!(f.message.contains("a → b"), "{}", f.message);
    assert!(f.message.contains("b → a"), "{}", f.message);
}

#[test]
fn lock_order_pragma_drops_the_edge() {
    let src = LOCK_CYCLE.replace(
        "    pub fn ba(&self) -> u32 {\n        let gb = self.b.lock().unwrap();\n        let ga = self.a.lock().unwrap();",
        "    pub fn ba(&self) -> u32 {\n        let gb = self.b.lock().unwrap();\n        // rp-analyze: allow(lock-order, \"startup-only path, never concurrent with ab\")\n        let ga = self.a.lock().unwrap();",
    );
    assert_ne!(src, LOCK_CYCLE);
    let report = run("crates/engine/src/state.rs", &src);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "lock-order");
}

#[test]
fn lock_order_consistent_order_and_scoped_guards_are_clean() {
    let src = r#"
use std::sync::Mutex;
pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}
impl S {
    pub fn ab(&self) -> u32 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }
    pub fn also_ab(&self) -> u32 {
        let ga = self.a.lock().unwrap();
        drop(ga);
        // `ga` was dropped: this is not nested acquisition.
        let gb = self.b.lock().unwrap();
        *gb
    }
    pub fn scoped(&self) -> u32 {
        {
            let gb = self.b.lock().unwrap();
            let _ = *gb;
        }
        // The block above closed: no edge from b here.
        let ga = self.a.lock().unwrap();
        *ga
    }
}
"#;
    let report = run("crates/engine/src/state.rs", src);
    assert!(report.clean(), "{:?}", report.findings);
}

// -- obs-clock --------------------------------------------------------------

#[test]
fn obs_clock_fires_on_raw_clock_reads_anywhere() {
    let src = r#"
use std::time::Instant;
pub fn pace() -> Instant {
    Instant::now()
}
"#;
    // The serving layer is outside determinism scope, so only the
    // obs-clock rule fires on the raw read.
    let report = run("crates/engine/src/service.rs", src);
    assert_eq!(
        rules_hit(&report),
        vec!["obs-clock"],
        "{:?}",
        report.findings
    );
    // Other crates are in scope too: the rule is workspace-wide.
    let report = run("crates/experiments/src/bin/rpctl.rs", src);
    assert_eq!(
        rules_hit(&report),
        vec!["obs-clock"],
        "{:?}",
        report.findings
    );
}

#[test]
fn obs_clock_pragma_obs_module_and_test_code_are_exempt() {
    let pragma_src = r#"
use std::time::Instant;
pub fn pace() -> Instant {
    // rp-analyze: allow(obs-clock, "bootstrap: runs before the registry exists")
    Instant::now()
}
"#;
    let report = run("crates/engine/src/service.rs", pragma_src);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "obs-clock");

    let raw_src = r#"
use std::time::Instant;
pub fn pace() -> Instant {
    Instant::now()
}
"#;
    // The obs module is where the production MonotonicClock lives.
    assert!(run("crates/engine/src/obs.rs", raw_src).clean());
    assert!(run("crates/engine/src/obs/clock.rs", raw_src).clean());

    let test_src = r#"
#[cfg(test)]
mod tests {
    pub fn pace() -> std::time::Instant {
        std::time::Instant::now()
    }
}
"#;
    assert!(run("crates/engine/src/service.rs", test_src).clean());
}

// -- safety -----------------------------------------------------------------

#[test]
fn safety_fires_on_undocumented_unsafe_and_missing_deny() {
    let missing_attr = "pub fn f() -> u32 { 1 }\n";
    let report = run("crates/foo/src/lib.rs", missing_attr);
    assert_eq!(rules_hit(&report), vec!["safety"]);
    assert_eq!(report.findings[0].line, 1);

    let undocumented = r#"
pub fn peek(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let report = run("crates/engine/src/raw.rs", undocumented);
    assert_eq!(rules_hit(&report), vec!["safety"], "{:?}", report.findings);
}

#[test]
fn safety_comment_attr_and_pragma_satisfy_the_rule() {
    let documented = r#"
pub fn peek(p: *const u32) -> u32 {
    // SAFETY: caller guarantees `p` is valid and aligned.
    unsafe { *p }
}
"#;
    assert!(run("crates/engine/src/raw.rs", documented).clean());

    let with_attr = "#![deny(unsafe_code)]\npub fn f() -> u32 { 1 }\n";
    assert!(run("crates/foo/src/lib.rs", with_attr).clean());
    let with_forbid = "#![forbid(unsafe_code)]\npub fn f() -> u32 { 1 }\n";
    assert!(run("crates/foo/src/lib.rs", with_forbid).clean());

    let waived = "// rp-analyze: allow(safety, \"crate wraps raw mmap and must use unsafe\")\npub fn f() -> u32 { 1 }\n";
    let report = run("crates/foo/src/lib.rs", waived);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed[0].rule, "safety");
}

// -- pragma (meta-rule) -----------------------------------------------------

#[test]
fn pragma_fires_on_malformed_and_unknown() {
    let missing_reason = "// rp-analyze: allow(determinism)\npub fn f() {}\n";
    let report = run("crates/core/src/x.rs", missing_reason);
    assert_eq!(rules_hit(&report), vec!["pragma"], "{:?}", report.findings);

    let empty_reason = "// rp-analyze: allow(determinism, \"\")\npub fn f() {}\n";
    assert_eq!(
        rules_hit(&run("crates/core/src/x.rs", empty_reason)),
        vec!["pragma"]
    );

    let unknown_rule = "// rp-analyze: allow(no-such-rule, \"reason\")\npub fn f() {}\n";
    let report = run("crates/core/src/x.rs", unknown_rule);
    assert_eq!(rules_hit(&report), vec!["pragma"]);
    assert!(report.findings[0].message.contains("no-such-rule"));
}

#[test]
fn pragma_prose_mentions_are_not_pragmas() {
    let src = "/// Mentions the rp-analyze: marker mid-doc, not a pragma.\npub fn f() {}\n";
    // Comment starts with `///` prose, not the marker — ignored.
    assert!(run("crates/core/src/x.rs", src).clean());
}

// -- report mechanics -------------------------------------------------------

#[test]
fn counts_cover_every_rule_and_exit_contract_matches_clean() {
    let report = run("crates/core/src/x.rs", "pub fn f() {}\n");
    assert!(report.clean());
    let counts = report.counts();
    assert_eq!(counts.len(), rp_analyze::RULES.len());
    assert!(counts
        .iter()
        .all(|&(_, found, allowed)| found == 0 && allowed == 0));
}

// -- dead-pub ---------------------------------------------------------------

/// Runs the whole-tree entry point: `lib` is linted, `refs` are
/// reference-only.
fn tree(lib: &[(&str, &str)], refs: &[(&str, &str)]) -> rp_analyze::Report {
    rp_analyze::analyze_tree(lib, refs)
}

const DEAD_LIB: &str = r#"
pub fn unused_fn() -> u32 { 1 }
pub const UNUSED_CONST: u32 = 2;
pub static UNUSED_STATIC: u32 = 3;
pub(crate) fn crate_only() -> u32 { 4 }
"#;

#[test]
fn dead_pub_fires_on_unreferenced_pub_items() {
    let report = tree(&[("crates/core/src/x.rs", DEAD_LIB)], &[]);
    assert_eq!(
        rules_hit(&report),
        vec!["dead-pub", "dead-pub", "dead-pub"],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("`pub fn unused_fn`"));
    assert!(report.findings[1]
        .message
        .contains("`pub const UNUSED_CONST`"));
    assert_eq!(report.findings[2].line, 4);
    // `pub(crate)` is rustc's `dead_code` territory; the root package
    // and the partial-tree fixture entry point are out of scope.
    assert!(tree(
        &[("src/lib.rs", "#![deny(unsafe_code)]\npub fn f() {}\n")],
        &[]
    )
    .clean());
    assert!(run("crates/core/src/x.rs", DEAD_LIB).clean());
}

#[test]
fn dead_pub_is_cleared_by_any_outside_reference() {
    let lib = "pub fn used() -> u32 { 1 }\n";
    let call = "fn main() { let _ = rp_core::x::used(); }\n";
    // Another crate or the root package, both linted themselves...
    for caller in ["crates/engine/src/y.rs", "src/lib.rs"] {
        let report = tree(&[("crates/core/src/x.rs", lib), (caller, call)], &[]);
        assert!(
            !rules_hit(&report).contains(&"dead-pub"),
            "a call from {caller} must keep `used` alive: {:?}",
            report.findings
        );
    }
    // ...or a reference-only file.
    for caller in [
        "tests/it.rs",
        "crates/core/tests/it.rs",
        "crates/bench/benches/b.rs",
        "examples/demo.rs",
        "perfbench/harness/src/main.rs",
    ] {
        let report = tree(&[("crates/core/src/x.rs", lib)], &[(caller, call)]);
        assert!(
            report.clean(),
            "a call from {caller}: {:?}",
            report.findings
        );
    }
}

#[test]
fn dead_pub_ignores_test_code_comments_and_reexports() {
    let lib = r#"
/// Call it as `helper()`:
/// ```
/// rp_core::x::helper();
/// ```
pub fn helper() -> u32 { 1 }

// helper() is mentioned here too.
#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() { assert_eq!(super::helper(), 1); }
}
"#;
    let root = "#![deny(unsafe_code)]\npub use x::helper;\npub use y::{helper as h};\n";
    let report = tree(
        &[
            ("crates/core/src/x.rs", lib),
            ("crates/core/src/lib.rs", root),
        ],
        &[],
    );
    assert_eq!(
        rules_hit(&report),
        vec!["dead-pub"],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 6);
}

#[test]
fn dead_pub_pragma_waives_with_reason() {
    let lib = "// rp-analyze: allow(dead-pub, \"called by the operator runbook's script\")\npub fn kept() {}\n";
    let report = tree(&[("crates/core/src/x.rs", lib)], &[]);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "dead-pub");
    assert_eq!(
        report.suppressed[0].reason,
        "called by the operator runbook's script"
    );
    let summary = report.counts();
    assert!(summary.contains(&("dead-pub", 0, 1)), "{summary:?}");
}
