//! # nwdp-hash — coordination hashing substrate
//!
//! Hash-based packet selection is the mechanism that turns a fractional
//! optimization solution into a concrete, coordination-free division of
//! labor: every node hashes the same packet header fields onto the
//! lattice of 32-bit values with the same function, and analyzes the
//! packet only if the hash lands in the node's assigned range. Because the
//! ranges partition the 2³² lattice points, exactly one node (or exactly
//! `r` nodes, with redundancy) handles each item, with **no inter-node
//! communication**.
//!
//! This crate provides:
//! - [`lookup3`]: a verified port of Bob Jenkins' lookup3 ("Bob hash"), the
//!   function recommended for packet sampling by Molina et al. (ITC 2005)
//!   and used by the paper's Bro prototype;
//! - [`key`]: flow-key encodings for the aggregation levels the paper's
//!   analysis classes need (unidirectional flow, bidirectional session,
//!   per-source, per-destination, host pair);
//! - [`keyed`]: a keyed hasher (§3.2: private keys defeat adversarial
//!   evasion of the sampling checks);
//! - [`range`]: range sets on the 2³² hash lattice, including the
//!   wraparound ranges produced by the redundancy-`r` extension (§2.5).

pub mod key;
pub mod keyed;
pub mod lookup3;
pub mod range;

pub use key::{FiveTuple, FlowKeyKind};
pub use keyed::KeyedHasher;
pub use range::{RangeSet, Segment, HASH_SPACE};
