#![warn(missing_docs)]

//! Dense fixed-length bit strings for beeping-model codes.
//!
//! This crate provides [`BitVec`], the core data structure underlying every
//! code and every transmitted frame in the `noisy-beeps` workspace. The paper
//! ("Optimal Message-Passing with Noisy Beeps", Davies, PODC 2023) works
//! entirely with binary strings `s ∈ {0,1}^a` and three primitive operations
//! on them:
//!
//! * **superimposition** — bitwise OR of a set of strings, written `∨(S)`
//!   (what a listening node hears when several neighbors beep),
//! * **`1(s)`** — the number of 1s in a string (Definition 2),
//! * **`d`-intersection** — `1(s ∧ s′) ≥ d` (Definition 2), and
//! * **Hamming distance** — used by the distance codes of Lemma 6.
//!
//! [`BitVec`] implements all of these over packed `u64` words, plus the
//! sampling primitives the paper's probabilistic constructions need
//! (uniformly random strings, uniformly random strings of *exact* weight,
//! per-bit Bernoulli noise flips).
//!
//! # Example
//!
//! ```
//! use beep_bits::BitVec;
//!
//! let a = BitVec::from_str_01("10110").unwrap();
//! let b = BitVec::from_str_01("01100").unwrap();
//! assert_eq!((&a | &b).to_string(), "11110");
//! assert_eq!(a.intersection_count(&b), 1);
//! assert_eq!(a.hamming_distance(&b), 3);
//! assert!(a.d_intersects(&b, 1));
//! assert!(!a.d_intersects(&b, 2));
//! ```

mod bitvec;
mod fmt;
mod iter;
mod ops;
mod random;

pub use bitvec::BitVec;
pub use fmt::ParseBitVecError;
pub use iter::Ones;
pub use ops::{superimpose, transpose64};
