//! # ddcr-tree — balanced m-ary tree collision-resolution analysis
//!
//! Exact and asymptotic worst-case search times for deterministic balanced
//! m-ary tree searches, reproducing section 4 (problems **P1** and **P2**)
//! of *"A Protocol and Correctness Proofs for Real-Time High-Performance
//! Broadcast Networks"* (J.-F. Hermant & G. Le Lann, ICDCS 1998).
//!
//! The central quantity is `ξ_k^t`, the worst-case number of channel slots
//! (collision slots + empty slots; successful transmissions are free) needed
//! by a deterministic m-ary tree search to isolate `k` active leaves out of
//! `t = m^n`. This crate provides **four independent routes** to it, all
//! cross-validated against one another:
//!
//! 1. [`exact::SearchTimeTable`] — `O(t²)` dynamic program on the defining
//!    recursion Eq. (1);
//! 2. [`divide::xi_divide`] — the paper's divide-and-conquer recursion
//!    Eq. (2)–(4), `O(m·log t)` per query;
//! 3. [`closed_form::xi_closed`] — the closed form Eq. (9)–(10) in exact
//!    integer arithmetic, plus the named identities Eq. (5)–(8), (15);
//! 4. [`search::worst_case_exhaustive`] — brute-force maximisation of the
//!    *actual replayed search* over all `binomial(t, k)` leaf subsets
//!    (small `t`), proving achievability.
//!
//! On top of these sit the asymptotic bound `ξ̃_k^t`
//! ([`asymptotic::xi_tilde`], Eq. 11–14), the multi-tree problem P2
//! ([`multi::MultiTreeProblem`], Eq. 16–19), branching-degree selection
//! ([`optimal`], the Fig. 2 comparison generalised), direct worst-case
//! witness construction ([`witness::worst_case_witness`], DP traceback,
//! achieving `ξ` on trees far beyond exhaustive reach), and the exact
//! average-case analysis ([`average::ExpectedSearchTable`], hypergeometric
//! recursion) behind the §3.1 channel-efficiency claims. The [`visit`]
//! module synthesizes the **pre-split** visit sequence of a *live* protocol
//! search (the root collision is paid on the channel, never probed), the
//! per-slot schedule the simulator's contention fast-forward is checked
//! against.
//!
//! ## Quickstart
//!
//! ```
//! use ddcr_tree::{asymptotic, closed_form, TreeShape};
//!
//! # fn main() -> Result<(), ddcr_tree::TreeError> {
//! // Fig. 1 of the paper: 64-leaf balanced quaternary tree.
//! let shape = TreeShape::new(4, 3)?;
//! let exact = closed_form::xi_closed(shape, 8)?;      // ξ_8^64 = 29
//! let bound = asymptotic::xi_tilde(shape, 8.0);        // coincides at k = 2·4^i
//! assert_eq!(exact, 29);
//! assert!((bound - 29.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asymptotic;
pub mod average;
pub mod cache;
pub mod closed_form;
pub mod divide;
mod error;
pub mod exact;
mod geometry;
pub mod multi;
pub mod optimal;
pub mod search;
pub mod visit;
pub mod witness;

pub use cache::TableCache;
pub use error::TreeError;
pub use exact::SearchTimeTable;
pub use geometry::{ceil_log, ceil_log_ratio, checked_pow, floor_log, floor_log_ratio, TreeShape};
pub use visit::VisitCache;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TreeShape>();
        assert_send_sync::<TreeError>();
        assert_send_sync::<SearchTimeTable>();
        assert_send_sync::<multi::MultiTreeProblem>();
    }

    #[test]
    fn crate_level_docs_example_holds() {
        let shape = TreeShape::new(4, 3).unwrap();
        assert_eq!(closed_form::xi_closed(shape, 8).unwrap(), 29);
    }
}
