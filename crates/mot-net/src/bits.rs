//! The bit-level rules every layer must agree on.
//!
//! Backend parity, repair ≡ rebuild and `--jobs` parity all rest on a
//! handful of numeric conventions being *the same function* everywhere:
//! how a Dijkstra distance becomes a stored distance, how far a bounded
//! ball over-collects before that rule filters it, and which hash keys
//! identity-based priorities and coins. They are defined here once.
//!
//! One rule is about speed rather than bits: per-object and per-node
//! state is keyed by small integer identities the program itself hands
//! out, and every table an operation probes — detection lists, trail
//! records, the admission ledger, shard positions — hashes them with
//! [`IdHasher`] through the [`IdMap`] / [`IdSet`] aliases instead of
//! `std`'s keyed SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Quantizes through `f32` exactly like every oracle backend stores
/// distances, so graph-side Dijkstra sums and oracle reads agree
/// bit-for-bit.
#[inline]
pub fn q32(d: f64) -> f64 {
    d as f32 as f64
}

/// Relative padding applied to bounded-ball radii when the selection
/// predicate compares f32-quantized distances with `<=`: quantization
/// can round a distance just above the radius down onto it, so the ball
/// must over-collect by at least half an f32 ulp (2⁻²⁵ relative). The
/// exact quantized predicate then filters the candidates, so padding
/// only costs a few extra settles, never changes the result.
pub const BALL_PAD: f64 = 1.0 + 1e-6;

/// SplitMix64 — the stateless hash behind the repairable hierarchy's
/// per-`(level, node)` MIS priorities and the service's identity-keyed
/// fault coins.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Multiply-fold hasher for the integer identities this codebase keys
/// its state on: `ObjectId`, `NodeId`, `OpId`, `(ObjectId, u8)`,
/// `(NodeId, NodeId)`.
///
/// Each integer written is xored into the state, multiplied by an odd
/// 64-bit constant into 128 bits, and the two halves are xored back
/// together. The low half is Fibonacci hashing — it spreads consecutive
/// and strided ids over the *top* bits, which `std`'s table uses as the
/// 7-bit control tag — and the high half carries `⌊key / φ⌋` down into
/// the *low* bits, which pick the bucket; so both stay full on dense
/// ids, on ids of one residue class (a shard sees `object % shards`
/// constant) and on stride-8 op ids. Chaining through the state makes
/// multi-field keys order-sensitive.
///
/// The hash is unkeyed: the same key hashes the same in every process,
/// so an [`IdMap`]'s iteration order is a function of its insert
/// history rather than of a per-process seed. That is only safe because
/// these keys are identities the program assigns, never input an
/// adversary could choose to collide. Tables keyed by strings or bytes
/// from outside — `CellKey` labels, CLI name tables — stay on `std`'s
/// default hasher; [`Hasher::write`] works here (eight bytes a step)
/// but nothing on an operation's path calls it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2⁶⁴ / φ, odd.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(Self::K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
}

/// A `HashMap` keyed by an internal identity (see [`IdHasher`]).
/// Construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of internal identities (see [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Heap bytes behind a `HashMap` of `capacity()` entries, by the
/// standard table's layout: a power-of-two bucket count (capacity + 1
/// below 8 buckets, else 8/7 of it), each bucket an entry and a control
/// byte, plus one 16-byte control group. What the heap ledgers count for
/// a map; it does not follow any heap the keys or values own.
pub fn map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 { cap + 1 } else { cap * 8 / 7 }.next_power_of_two();
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    const KEYS: usize = 1 << 16;

    fn id_hash<K: Hash>(key: &K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Over `cells` equally likely cells: how many are hit at all, and
    /// the largest number of hashes sharing one.
    fn spread(cells: usize, hashes: impl Iterator<Item = usize>) -> (usize, usize) {
        let mut load = vec![0usize; cells];
        for h in hashes {
            load[h] += 1;
        }
        let occupied = load.iter().filter(|&&c| c > 0).count();
        (occupied, load.into_iter().max().unwrap_or(0))
    }

    /// Both bit ranges `std`'s table reads — the low `b` bits for every
    /// table size from 128 buckets to 2¹⁶ (the bucket index) and the top
    /// 7 bits (the control tag) — must fill within 2× of what a uniform
    /// hash (`splitmix64` of the key's index) achieves on as many keys:
    /// at least half the cells hit, no cell more than twice as loaded.
    fn assert_fills_like_uniform<K: Hash>(shape: &str, keys: &[K]) {
        assert_eq!(keys.len(), KEYS, "{shape}");
        let ours: Vec<u64> = keys.iter().map(id_hash).collect();
        let uniform: Vec<u64> = (0..KEYS as u64).map(splitmix64).collect();
        let check = |what: String, cells: usize, cell: &dyn Fn(u64) -> usize| {
            let (hit, max) = spread(cells, ours.iter().map(|&h| cell(h)));
            let (ref_hit, ref_max) = spread(cells, uniform.iter().map(|&h| cell(h)));
            assert!(
                2 * hit >= ref_hit && max <= 2 * ref_max,
                "{shape}, {what}: {hit} of {cells} cells hit, fullest {max}; \
                 uniform hits {ref_hit}, fullest {ref_max}"
            );
        };
        for bits in 7..=16 {
            let mask = (1usize << bits) - 1;
            check(format!("low {bits} bits"), mask + 1, &|h| h as usize & mask);
        }
        check("top 7 bits".into(), 128, &|h| (h >> 57) as usize);
    }

    #[test]
    fn sequential_ids_fill_buckets_and_tags() {
        let ids: Vec<u32> = (0..KEYS as u32).collect();
        assert_fills_like_uniform("sequential u32", &ids);
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        assert_fills_like_uniform("sequential NodeId", &nodes);
    }

    #[test]
    fn one_residue_class_fills_buckets_and_tags() {
        // What shard 3 of 8 keys its ledger by: `object % shards == 3`.
        let ids: Vec<u32> = (0..KEYS as u32).map(|i| 8 * i + 3).collect();
        assert_fills_like_uniform("u32 ≡ 3 mod 8", &ids);
    }

    #[test]
    fn strided_op_ids_fill_buckets_and_tags() {
        let ids: Vec<u64> = (0..KEYS as u64).map(|i| 8 * i).collect();
        assert_fills_like_uniform("stride-8 u64", &ids);
    }

    #[test]
    fn object_level_pairs_fill_buckets_and_tags() {
        let pairs: Vec<(u32, u8)> = (0..KEYS as u32).map(|i| (i / 16, (i % 16) as u8)).collect();
        assert_fills_like_uniform("(object, level)", &pairs);
    }

    #[test]
    fn ordered_node_pairs_fill_buckets_and_tags() {
        // The edges of a 256-wide grid, smaller endpoint first — the
        // keys of `DetectionRates`.
        let edges: Vec<(NodeId, NodeId)> = (0..KEYS as u32 / 2)
            .flat_map(|u| [(NodeId(u), NodeId(u + 1)), (NodeId(u), NodeId(u + 256))])
            .collect();
        assert_fills_like_uniform("(node, node)", &edges);
    }

    #[test]
    fn field_order_is_part_of_the_key() {
        for a in 0..64u32 {
            for b in a + 1..64 {
                assert_ne!(id_hash(&(a, b)), id_hash(&(b, a)), "({a}, {b})");
                assert_ne!(
                    id_hash(&(a, b as u8)),
                    id_hash(&(b, a as u8)),
                    "({a}, {b}u8)"
                );
            }
        }
    }

    #[test]
    fn iteration_order_is_a_function_of_insert_history() {
        let build = || {
            let mut m: IdMap<u32, u32> = IdMap::default();
            for i in 0..5000u32 {
                m.insert(i.wrapping_mul(2_654_435_761) % 20_000, i);
                if i % 3 == 0 {
                    m.remove(&(i / 2));
                }
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.len() > 1000);
        assert!(a.iter().eq(b.iter()));
    }
}
