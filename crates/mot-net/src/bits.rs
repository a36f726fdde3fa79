//! The bit-level rules every layer must agree on.
//!
//! Backend parity, repair ≡ rebuild and `--jobs` parity all rest on a
//! handful of numeric conventions being *the same function* everywhere:
//! how a Dijkstra distance becomes a stored distance, how far a bounded
//! ball over-collects before that rule filters it, and which hash keys
//! identity-based priorities and coins. They are defined here once.

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
