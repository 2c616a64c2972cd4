//! Keyed coordination hashing.
//!
//! §3.2 of the paper: "administrators can use private keyed hash functions
//! to prevent adversaries from evading the hash checks". A [`KeyedHasher`]
//! folds a 64-bit secret into the Bob hash seed words so that an adversary
//! who does not know the key cannot craft headers that land in a chosen
//! node's hash range.

use crate::key::{flow_key_words, FiveTuple, FlowKeyKind};
use crate::lookup3::hashword2;

/// A seeded/keyed hash function from flow keys to the 2³² hash lattice.
///
/// Two hashers with different keys behave as independent hash functions;
/// with the same key they are identical (nodes across the network must share
/// the key so that a connection hashes identically everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedHasher {
    key: u64,
}

impl KeyedHasher {
    /// An unkeyed hasher (key 0) — adequate when adversarial evasion of the
    /// sampling checks is not a concern.
    pub fn unkeyed() -> Self {
        KeyedHasher { key: 0 }
    }

    pub fn with_key(key: u64) -> Self {
        KeyedHasher { key }
    }

    pub fn key(&self) -> u64 {
        self.key
    }

    /// 32-bit keyed hash of the selected header fields: the `HASH(pkt, i)`
    /// of the paper's Fig. 3, compared directly with a node's
    /// [`RangeSet`](crate::RangeSet).
    pub fn hash32(&self, t: &FiveTuple, kind: FlowKeyKind) -> u32 {
        let (words, n) = flow_key_words(t, kind);
        let (c, _b) = hashword2(&words[..n], self.key as u32, (self.key >> 32) as u32);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> FiveTuple {
        FiveTuple::new(0x0a000000 + i, 0xc0a80107, 40000 + (i as u16 % 1000), 80, 6)
    }

    #[test]
    fn same_key_same_hash() {
        let h1 = KeyedHasher::with_key(0xfeed_beef_dead_cafe);
        let h2 = KeyedHasher::with_key(0xfeed_beef_dead_cafe);
        assert_eq!(h1.hash32(&t(1), FlowKeyKind::UniFlow), h2.hash32(&t(1), FlowKeyKind::UniFlow));
    }

    #[test]
    fn different_keys_differ() {
        let h1 = KeyedHasher::with_key(1);
        let h2 = KeyedHasher::with_key(2);
        // With overwhelming probability over 64 samples at least one differs.
        let differs = (0..64).any(|i| {
            h1.hash32(&t(i), FlowKeyKind::UniFlow) != h2.hash32(&t(i), FlowKeyKind::UniFlow)
        });
        assert!(differs);
    }

    #[test]
    fn bidirectional_hash_consistent() {
        let h = KeyedHasher::with_key(99);
        let f = t(7);
        assert_eq!(
            h.hash32(&f, FlowKeyKind::BiSession),
            h.hash32(&f.reversed(), FlowKeyKind::BiSession)
        );
    }

    #[test]
    fn hash_roughly_uniform() {
        // Chi-square over 16 buckets, 8192 distinct flows; threshold is the
        // 99.9% quantile of chi2(15) ≈ 37.7.
        let h = KeyedHasher::with_key(0x1234_5678);
        let mut buckets = [0usize; 16];
        let n = 8192;
        for i in 0..n {
            let x = h.hash32(&t(i), FlowKeyKind::UniFlow);
            buckets[(x >> 28) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&o| {
                let d = o as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 37.7, "hash output not uniform: chi2 = {chi2}");
    }
}
