//! Baseline algorithms the paper compares against (Section 1.1).
//!
//! * [`nested_loop`] — the pipelined block-nested-loop three-way join,
//!   `O(E³/(M²·B))` I/Os.
//! * [`dementiev`] — the sort-based listing algorithm of Dementiev's thesis,
//!   `O((E^{3/2}/B)·log_{M/B}(E/B))` I/Os; it also closes the oversized
//!   depth-limit leaves of the paper's cache-oblivious recursion.
//! * [`hu_tao_chung`] — the SIGMOD 2013 algorithm of Hu, Tao and Chung,
//!   `O(E²/(M·B) + t/B)` I/Os (here used as an enumeration algorithm, so the
//!   `t/B` listing term does not apply).

pub(crate) mod dementiev;
pub(crate) mod hu_tao_chung;
pub(crate) mod nested_loop;
