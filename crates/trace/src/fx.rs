//! The Fx hasher for simulation-internal keys.
//!
//! A multiply-xor over 8-byte chunks (the workspace has no external
//! dependencies, so this is an in-tree copy of the FxHash idea): not
//! DoS-resistant, which is irrelevant for keys the simulation makes
//! itself, and several times faster than the standard library's SipHash
//! on short strings and integers. The executor's process-name table, the
//! sparse RAM's page map and the L2 model's resident-line set use it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash-style multiply-xor hasher.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

// `#[inline]` throughout: the hasher is called across crates, and a
// non-generic method is not inlined there without it.
impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed through [`FxHasher`]; make one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed through [`FxHasher`]; make one with `default()`.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn h(v: impl Hash) -> u64 {
        let mut hh = FxHasher::default();
        v.hash(&mut hh);
        hh.finish()
    }

    #[test]
    fn hasher_is_deterministic() {
        assert_eq!(h("gpu0.warp"), h("gpu0.warp"));
        assert_ne!(h("gpu0.warp"), h("gpu1.warp"));
        assert_eq!(h(0x1234u64), h(0x1234u64));
        assert_ne!(h(1u64), h(2u64));
    }

    #[test]
    fn a_word_hashes_like_its_little_endian_bytes() {
        let mut a = FxHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = FxHasher::default();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_work_through_it() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for k in 0..1000u64 {
            m.insert(k << 12, k as u32);
            s.insert(k * 128);
        }
        assert_eq!(m.get(&(7 << 12)), Some(&7));
        assert!(s.contains(&(999 * 128)) && !s.contains(&1));
    }
}
