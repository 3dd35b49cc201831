//! Per-function lease summaries for rule R7 (`lease-summary`).
//!
//! R1/R3 judge each function in isolation: a helper that allocates on behalf
//! of a caller whose lease already covers the words (the "folded into the
//! caller's lease" pattern of `lemma2::larger_endpoints_of` and friends) looks
//! unleased and needs a waiver. This module removes that blind spot with a
//! first pass over every scoped file of the workspace:
//!
//! * **Definitions** — each non-test `fn` is summarised by name: does it
//!   hold lease machinery itself (`holds_lease`), does it take a `&MemLease`
//!   / `&mut MemLease` parameter, and is it `pub` beyond the crate (public
//!   functions can be called from unscoped code, so they are never assumed
//!   covered).
//! * **Call sites** — word-bounded `name(` occurrences outside test spans
//!   and definitions, each attributed to its enclosing function.
//! * **Fixpoint** — a function is *covered* when it has at least one known
//!   call site and every call site's caller is itself leased-context
//!   (holds a lease, or is covered in turn). Coverage propagates up the
//!   call graph until stable.
//!
//! Two fns sharing a name are merged conservatively: all defs must be
//! non-public and all call sites leased for the name to count as covered.
//!
//! The rule pack uses the summaries in two directions: R1/R3 findings inside
//! a covered function are suppressed (the caller's lease owns the words),
//! and a call to a `MemLease`-parameter-taking helper from a caller that is
//! *not* leased-context is reported as an R7 finding at the call line.

use std::collections::BTreeMap;

use crate::analysis::{fn_name, is_ident_byte, Analysis};
use crate::source::SourceView;
use crate::taint::signature_params;

/// One call site of a summarised function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// File the call appears in (as handed to the linter).
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Name of the enclosing function, if any.
    pub caller: Option<String>,
    /// Whether the enclosing function holds lease machinery itself.
    pub caller_holds_lease: bool,
}

/// Merged per-name definition facts.
#[derive(Debug, Default)]
struct DefFacts {
    /// Some definition takes a `&MemLease`/`&mut MemLease` parameter.
    takes_lease_param: bool,
    /// Some definition is `pub` beyond the crate.
    any_public: bool,
}

/// Workspace-wide lease summaries, built once per `lint_workspace` run.
#[derive(Debug, Default)]
pub struct Summaries {
    facts: BTreeMap<String, DefFacts>,
    sites: BTreeMap<String, Vec<CallSite>>,
    covered: BTreeMap<String, bool>,
}

impl Summaries {
    /// Builds summaries from `(file, text)` pairs — every file the workspace
    /// run will lint. Single-file callers can pass just that file.
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Summaries {
        let parsed: Vec<(String, SourceView, Analysis)> = files
            .into_iter()
            .map(|(path, text)| {
                let view = SourceView::parse(text);
                let analysis = Analysis::scan(&view);
                (path.to_string(), view, analysis)
            })
            .collect();

        let mut s = Summaries::default();
        for (_, view, analysis) in &parsed {
            for f in &analysis.fns {
                if analysis.in_test(f.sig_start) {
                    continue;
                }
                let Some(name) = fn_name(&view.cleaned, f) else {
                    continue;
                };
                let facts = s.facts.entry(name.to_string()).or_default();
                facts.takes_lease_param |= signature_params(&view.cleaned, f).contains("MemLease");
                facts.any_public |= is_public_fn(&view.cleaned, f.sig_start);
            }
        }

        // Call sites of every known name, across every file.
        for (path, view, analysis) in &parsed {
            for name in s.facts.keys() {
                for pos in call_sites_in(&view.cleaned, name) {
                    if analysis.in_test(pos) {
                        continue;
                    }
                    let caller = analysis.enclosing_fn(pos).filter(|f| {
                        // The definition's own span: `fn name(` is not a call.
                        !(pos >= f.sig_start
                            && fn_name(&view.cleaned, f) == Some(name.as_str())
                            && pos < f.body.start)
                    });
                    if caller.is_none() && analysis.enclosing_fn(pos).is_some() {
                        continue; // the definition itself
                    }
                    s.sites.entry(name.clone()).or_default().push(CallSite {
                        file: path.clone(),
                        line: view.line_of(pos),
                        caller: caller.and_then(|f| fn_name(&view.cleaned, f).map(String::from)),
                        caller_holds_lease: caller.is_some_and(|f| f.holds_lease),
                    });
                }
            }
        }

        // Fixpoint: covered(name) ⇐ has sites ∧ every caller leased-context.
        let names: Vec<String> = s.facts.keys().cloned().collect();
        for name in &names {
            s.covered.insert(name.clone(), false);
        }
        loop {
            let mut changed = false;
            for name in &names {
                if s.covered[name] {
                    continue;
                }
                let now = s.compute_covered(name);
                if now {
                    s.covered.insert(name.clone(), true);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        s
    }

    fn compute_covered(&self, name: &str) -> bool {
        let Some(facts) = self.facts.get(name) else {
            return false;
        };
        if facts.any_public {
            return false; // callable from unscoped code; never assume covered
        }
        let Some(sites) = self.sites.get(name) else {
            return false;
        };
        !sites.is_empty() && sites.iter().all(|site| self.site_is_leased(site))
    }

    fn site_is_leased(&self, site: &CallSite) -> bool {
        site.caller_holds_lease
            || site
                .caller
                .as_deref()
                .is_some_and(|c| self.covered.get(c).copied().unwrap_or(false))
    }

    /// Whether every known call site of `name` is leased-context (and at
    /// least one exists): R1/R3 findings inside `name` are then owned by the
    /// callers' leases.
    pub fn covered(&self, name: &str) -> bool {
        self.covered.get(name).copied().unwrap_or(false)
    }

    /// R7 violations whose call site lies in `file`: calls to a
    /// `MemLease`-parameter-taking helper from a caller that is not
    /// leased-context, as `(line, helper, caller)`.
    pub fn unleased_lease_taker_calls(&self, file: &str) -> Vec<(usize, String, String)> {
        let mut out = Vec::new();
        for (name, facts) in &self.facts {
            if !facts.takes_lease_param {
                continue;
            }
            for site in self.sites.get(name).map_or(&[][..], |v| v.as_slice()) {
                if site.file == file && !self.site_is_leased(site) {
                    out.push((
                        site.line,
                        name.clone(),
                        site.caller.clone().unwrap_or_else(|| "<top level>".into()),
                    ));
                }
            }
        }
        out.sort();
        out
    }
}

/// Whether the `fn` at `sig_start` is `pub` beyond the crate: the preceding
/// tokens end in `pub` (not `pub(crate)`/`pub(super)`/`pub(in …)`).
fn is_public_fn(cleaned: &str, sig_start: usize) -> bool {
    let before = cleaned[..sig_start].trim_end();
    if before.ends_with("pub") {
        let head = before.len() - 3;
        return head == 0 || !is_ident_byte(before.as_bytes()[head - 1]);
    }
    false
}

/// Word-bounded `name(`/`name (`/`name::<…>(` call positions in `cleaned`
/// (definitions included; the caller filters those).
fn call_sites_in(cleaned: &str, name: &str) -> Vec<usize> {
    let bytes = cleaned.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = cleaned[from..].find(name) {
        let pos = from + rel;
        from = pos + 1;
        if pos > 0 && is_ident_byte(bytes[pos - 1]) {
            continue;
        }
        let mut end = pos + name.len();
        if end < bytes.len() && is_ident_byte(bytes[end]) {
            continue;
        }
        // Skip `::<Turbofish>` then require `(`.
        if cleaned[end..].starts_with("::<") {
            let mut depth = 0usize;
            let mut i = end + 2;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            end = i;
        }
        while end < bytes.len() && bytes[end] == b' ' {
            end += 1;
        }
        if bytes.get(end) == Some(&b'(') {
            out.push(pos);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_with_all_leased_callers_is_covered() {
        let src = "fn helper(n: usize) -> Vec<u32> {\n    Vec::with_capacity(n)\n}\nfn caller(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = helper(8);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(s.covered("helper"));
        assert!(!s.covered("caller"));
    }

    #[test]
    fn an_unleased_caller_breaks_coverage() {
        let src = "fn helper(n: usize) -> Vec<u32> {\n    Vec::with_capacity(n)\n}\nfn leased(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = helper(8);\n}\nfn bare() {\n    let v = helper(8);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(!s.covered("helper"));
    }

    #[test]
    fn coverage_propagates_transitively() {
        let src = "fn inner(n: usize) -> Vec<u32> { Vec::with_capacity(n) }\nfn mid(n: usize) -> Vec<u32> { inner(n) }\nfn top(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = mid(8);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(s.covered("mid"));
        assert!(s.covered("inner"));
    }

    #[test]
    fn public_fns_and_unreferenced_fns_are_never_covered() {
        let src = "pub fn api(n: usize) -> Vec<u32> { Vec::with_capacity(n) }\nfn orphan(n: usize) -> Vec<u32> { Vec::with_capacity(n) }\nfn caller(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = api(8);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(
            !s.covered("api"),
            "pub fns can be called from unscoped code"
        );
        assert!(!s.covered("orphan"), "no call sites means no evidence");
    }

    #[test]
    fn pub_crate_fns_are_coverable() {
        let src = "pub(crate) fn helper(n: usize) -> Vec<u32> {\n    Vec::with_capacity(n)\n}\nfn caller(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = helper(8);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(s.covered("helper"));
    }

    #[test]
    fn lease_taker_called_from_unleased_scope_is_reported() {
        let src = "fn fill(lease: &mut MemLease, n: usize) -> Vec<u32> {\n    Vec::with_capacity(n)\n}\nfn bare(n: usize) {\n    let v = fill(unrelated(), n);\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        let v = s.unleased_lease_taker_calls("a.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, "fill");
        assert_eq!(v[0].2, "bare");
    }

    #[test]
    fn test_spans_contribute_neither_defs_nor_sites() {
        let src = "fn helper(n: usize) -> Vec<u32> { Vec::with_capacity(n) }\nfn caller(m: &Machine) {\n    let _l = m.gauge().lease(8);\n    let v = helper(8);\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = helper(8); }\n}\n";
        let s = Summaries::build([("a.rs", src)]);
        assert!(
            s.covered("helper"),
            "test call sites must not break coverage"
        );
    }
}
