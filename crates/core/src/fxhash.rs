//! The hasher the passes use for their per-program maps.
//!
//! Most per-function tables are plain vectors indexed by the dense
//! [`rsti_ir::ValueId`]s. The maps that remain — storage keys and
//! `(slot, modifier, key)` facts to their numbers, the block-local auth
//! cache, small value-id sets — are rebuilt for every program on the cold
//! serve path. Their keys are compiler-assigned ids plus class modifiers
//! fixed per storage class, so a submitted program cannot choose colliding
//! keys, and SipHash's flooding resistance buys nothing here. This is the
//! multiply-rotate hash of rustc's `FxHasher`: deterministic, seedless,
//! one multiply per word. No pass iterates one of these maps, so the
//! hasher never affects output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
