//! Topology generators for the evaluation.
//!
//! The paper's experiments run on square grids of 10–1024 nodes; rings are
//! called out as the adversarial case for spanning-tree baselines
//! (cost ratios up to `O(D)`); random-geometric graphs (unit-disk graphs)
//! are the standard constant-doubling sensor deployment model; trees and
//! lines round out the test matrix.

use crate::builder::GraphBuilder;
use crate::error::NetError;
use crate::graph::Graph;
use crate::node::{NodeId, Point};
use crate::Result;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// `rows × cols` unit-weight grid with integer coordinates.
///
/// Node `(r, c)` has id `r * cols + c` and position `(c, r)`.
pub fn grid(rows: usize, cols: usize) -> Result<Graph> {
    if rows == 0 || cols == 0 {
        return Err(NetError::EmptyGraph);
    }
    // Written straight into CSR form — each row's neighbors in ascending
    // id order (up, left, right, down), connected by construction —
    // rather than through `GraphBuilder`'s per-node vectors: this is the
    // generator every large bed starts from, and at 65 536 nodes the
    // builder's small allocations cost more than the grid itself.
    let n = rows * cols;
    assert!(4 * n <= u32::MAX as usize, "grid overflows the CSR offsets");
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(4 * n - 2 * (rows + cols));
    let mut positions = Vec::with_capacity(n);
    offsets.push(0u32);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Point::new(c as f64, r as f64));
            let id = r * cols + c;
            let mut link = |to: usize| targets.push(NodeId::from_index(to));
            if r > 0 {
                link(id - cols);
            }
            if c > 0 {
                link(id - 1);
            }
            if c + 1 < cols {
                link(id + 1);
            }
            if r + 1 < rows {
                link(id + cols);
            }
            offsets.push(targets.len() as u32);
        }
    }
    Ok(Graph::from_csr(offsets, targets, None, Some(positions)))
}

/// `rows × cols` grid with wrap-around edges (a torus). Diameter is half
/// that of the grid; useful for stressing hierarchy level counts.
pub fn torus(rows: usize, cols: usize) -> Result<Graph> {
    if rows < 3 || cols < 3 {
        return Err(NetError::EmptyGraph);
    }
    let mut b = GraphBuilder::new(rows * cols);
    let mut positions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Point::new(c as f64, r as f64));
            let id = NodeId::from_index(r * cols + c);
            b.add_edge(id, NodeId::from_index(r * cols + (c + 1) % cols), 1.0)?;
            b.add_edge(id, NodeId::from_index(((r + 1) % rows) * cols + c), 1.0)?;
        }
    }
    b.with_positions(positions).build()
}

/// Ring of `n >= 3` nodes with unit edges, laid out on a circle.
///
/// Rings are where tree-based trackers (STUN, DAT) pay `Θ(D)` cost ratios:
/// two adjacent ring nodes can be distance `D` apart in any spanning tree.
pub fn ring(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(NetError::EmptyGraph);
    }
    let mut b = GraphBuilder::new(n);
    let radius = n as f64 / (2.0 * std::f64::consts::PI);
    let mut positions = Vec::with_capacity(n);
    for i in 0..n {
        let theta = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        positions.push(Point::new(radius * theta.cos(), radius * theta.sin()));
        b.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0)?;
    }
    b.with_positions(positions).build()
}

/// Path (line) of `n >= 1` nodes with unit edges — the maximum-diameter
/// topology for a given `n`.
pub fn line(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(NetError::EmptyGraph);
    }
    let mut b = GraphBuilder::new(n);
    let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
    for i in 0..n.saturating_sub(1) {
        b.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1), 1.0)?;
    }
    b.with_positions(positions).build()
}

/// Uniform random spanning tree over `n` nodes (random attachment), unit
/// weights. Trees exercise the hierarchy on graphs with no cycles.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(NetError::EmptyGraph);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(NodeId::from_index(i), NodeId::from_index(parent), 1.0)?;
    }
    let positions = (0..n)
        .map(|i| Point::new((i % 32) as f64, (i / 32) as f64))
        .collect();
    Ok(b.with_positions(positions).build_unchecked())
}

/// Random geometric graph (unit-disk graph): `n` sensors dropped uniformly
/// in a `side × side` square, an edge between any pair within `radius`,
/// edge weight = Euclidean distance (then normalized so the minimum edge
/// weight is 1). If the sample is disconnected, the nearest pair across
/// components is bridged — standard practice so experiments always run on
/// connected deployments.
///
/// Edge discovery runs through a uniform spatial hash (near-linear for
/// the sparse deployments the benchmarks use, so 100k+-sensor fields
/// build in milliseconds rather than the minutes the old all-pairs scan
/// took) but emits edges in the exact ascending `(i, j)` order that
/// scan used, so generated graphs are bit-identical across releases.
pub fn random_geometric(n: usize, side: f64, radius: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(NetError::EmptyGraph);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let mut b = GraphBuilder::new(n);
    add_geometric_edges(&mut b, &positions, radius)?;
    let g = b.with_positions(positions.clone()).build_unchecked();
    bridge_to_connectivity(g, &positions).map(|g| g.normalized())
}

/// Adds every edge `{i, j}` with `0 < dist(i, j) <= radius` in ascending
/// `(i, j)` order — the exact set and insertion order of a naive
/// all-pairs scan, found through a bucket grid instead of O(n²) pair
/// tests. Cell edges are at least `radius`, so every qualifying partner
/// of `i` lives in the 3×3 cell neighborhood around `i`; the grid is
/// capped at 1024² cells so degenerate radii cannot blow up memory
/// (larger cells only mean more candidates, never missed ones).
fn add_geometric_edges(b: &mut GraphBuilder, positions: &[Point], radius: f64) -> Result<()> {
    if radius <= 0.0 {
        return Ok(()); // `d <= radius && d > 0` is unsatisfiable
    }
    let n = positions.len();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let span = (max_x - min_x).max(max_y - min_y).max(radius);
    let cell = radius.max(span / 1024.0);
    let nx = ((max_x - min_x) / cell) as usize + 1;
    let ny = ((max_y - min_y) / cell) as usize + 1;
    let cell_of = |p: &Point| {
        let cx = (((p.x - min_x) / cell) as usize).min(nx - 1);
        let cy = (((p.y - min_y) / cell) as usize).min(ny - 1);
        (cx, cy)
    };
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nx * ny];
    for (i, p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * nx + cx].push(i as u32);
    }
    let mut candidates: Vec<u32> = Vec::new();
    for i in 0..n {
        let (cx, cy) = cell_of(&positions[i]);
        candidates.clear();
        for y in cy.saturating_sub(1)..=(cy + 1).min(ny - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(nx - 1) {
                candidates.extend(
                    buckets[y * nx + x]
                        .iter()
                        .copied()
                        .filter(|&j| j as usize > i),
                );
            }
        }
        candidates.sort_unstable();
        for &j in &candidates {
            let d = positions[i].distance(&positions[j as usize]);
            if d <= radius && d > 0.0 {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j as usize), d)?;
            }
        }
    }
    Ok(())
}

fn component_labels(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        label[s] = next;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(NodeId::from_index(u)) {
                if label[v.index()] == usize::MAX {
                    label[v.index()] = next;
                    stack.push(v.index());
                }
            }
        }
        next += 1;
    }
    label
}

/// A grid whose sensors are jittered off their lattice points (real
/// deployments are never perfectly regular): node `(r, c)` sits within
/// `jitter` of `(c, r)`, edges follow the grid topology with Euclidean
/// weights, normalized to a unit minimum.
pub fn perturbed_grid(rows: usize, cols: usize, jitter: f64, seed: u64) -> Result<Graph> {
    if rows == 0 || cols == 0 {
        return Err(NetError::EmptyGraph);
    }
    assert!(
        (0.0..0.5).contains(&jitter),
        "jitter must stay below half the spacing"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let positions: Vec<Point> = (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            Point::new(
                c as f64 + rng.gen_range(-jitter..=jitter),
                r as f64 + rng.gen_range(-jitter..=jitter),
            )
        })
        .collect();
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                b.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(i + 1),
                    positions[i].distance(&positions[i + 1]).max(1e-6),
                )?;
            }
            if r + 1 < rows {
                b.add_edge(
                    NodeId::from_index(i),
                    NodeId::from_index(i + cols),
                    positions[i].distance(&positions[i + cols]).max(1e-6),
                )?;
            }
        }
    }
    Ok(b.with_positions(positions).build()?.normalized())
}

/// A clustered deployment: `clusters` Gaussian clouds of sensors (dense
/// villages connected by sparse corridors) — the kind of
/// non-uniform-density field where hierarchical overlays earn their keep.
/// Built as a random-geometric graph over the clustered positions, then
/// bridged to connectivity like [`random_geometric`].
pub fn clustered(n: usize, clusters: usize, side: f64, radius: f64, seed: u64) -> Result<Graph> {
    if n == 0 || clusters == 0 {
        return Err(NetError::EmptyGraph);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let spread = side / (clusters as f64).sqrt() / 4.0;
    let positions: Vec<Point> = (0..n)
        .map(|i| {
            let c = centers[i % clusters];
            // Box-Muller Gaussian offsets around the cluster center.
            let (u1, u2): (f64, f64) = (rng.gen_range(1e-9..1.0), rng.gen_range(0.0..1.0));
            let mag = spread * (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            Point::new(
                (c.x + mag * theta.cos()).clamp(0.0, side),
                (c.y + mag * theta.sin()).clamp(0.0, side),
            )
        })
        .collect();
    // Reuse the geometric construction over fixed positions.
    let mut b = GraphBuilder::new(n);
    add_geometric_edges(&mut b, &positions, radius)?;
    let g = b.with_positions(positions.clone()).build_unchecked();
    bridge_to_connectivity(g, &positions).map(|g| g.normalized())
}

/// Bridges the nearest pair across components until `g` is connected.
/// Each round adds the bridge between component 0 and the rest that a
/// full `(i asc, j asc)` pair scan with a strict `<` would pick, but
/// scans only `|comp 0| × |rest|` pairs — when the sample is one giant
/// component plus a few stragglers (the typical supercritical case),
/// that is linear, not quadratic.
fn bridge_to_connectivity(mut g: Graph, positions: &[Point]) -> Result<Graph> {
    let n = g.node_count();
    loop {
        let comp = component_labels(&g);
        if comp.iter().copied().max().map(|m| m + 1).unwrap_or(0) <= 1 {
            return Ok(g);
        }
        let (inside, outside): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| comp[i] == 0);
        let mut best: Option<(usize, usize, f64)> = None;
        for &i in &inside {
            for &j in &outside {
                let d = positions[i].distance(&positions[j]).max(1e-9);
                if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        let (i, j, d) = best.expect("multiple components imply a bridgeable pair");
        let mut b = GraphBuilder::new(n);
        for (a, c, w) in g.edges() {
            b.add_edge(a, c, w)?;
        }
        b.add_edge(NodeId::from_index(i), NodeId::from_index(j), d)?;
        g = b.with_positions(positions.to_vec()).build_unchecked();
    }
}

/// The grid sizes used throughout the paper's evaluation (≈10 → 1024
/// nodes). Returns `(rows, cols)` pairs.
pub fn paper_grid_sizes() -> Vec<(usize, usize)> {
    vec![
        (3, 3),
        (4, 4),
        (6, 6),
        (8, 8),
        (12, 12),
        (16, 16),
        (23, 23),
        (32, 32),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_structure() {
        let g = grid(4, 5).unwrap();
        assert_eq!(g.node_count(), 20);
        // edges: rows*(cols-1) + (rows-1)*cols
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert!(g.is_connected());
        // corner has degree 2, interior degree 4
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(6)), 4);
        assert_eq!(g.position(NodeId(7)).unwrap(), Point::new(2.0, 1.0));
    }

    #[test]
    fn grid_rows_are_what_the_builder_would_store() {
        // `grid` writes CSR rows itself; the builder is the specification.
        for (rows, cols) in [(1, 1), (1, 6), (6, 1), (2, 2), (5, 7)] {
            let g = grid(rows, cols).unwrap();
            let mut b = GraphBuilder::new(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    let id = NodeId::from_index(r * cols + c);
                    if c + 1 < cols {
                        b.add_edge(id, NodeId::from_index(r * cols + c + 1), 1.0)
                            .unwrap();
                    }
                    if r + 1 < rows {
                        b.add_edge(id, NodeId::from_index((r + 1) * cols + c), 1.0)
                            .unwrap();
                    }
                }
            }
            let want = b.build().unwrap();
            assert_eq!(g.edge_count(), want.edge_count(), "{rows}x{cols}");
            for u in g.nodes() {
                assert_eq!(g.neighbors(u), want.neighbors(u), "{rows}x{cols} row {u}");
            }
        }
    }

    #[test]
    fn unit_weight_generators_say_so_and_euclidean_ones_do_not() {
        for (g, name) in [
            (grid(5, 7).unwrap(), "grid"),
            (grid(1, 1).unwrap(), "grid 1x1"),
            (torus(4, 5).unwrap(), "torus"),
            (ring(9).unwrap(), "ring"),
            (line(6).unwrap(), "line"),
            (random_tree(40, 3).unwrap(), "tree"),
        ] {
            assert!(g.is_unit_weight(), "{name}");
            assert!(g.edges().all(|(_, _, w)| w == 1.0), "{name}");
        }
        for (g, name) in [
            (random_geometric(60, 8.0, 2.0, 3).unwrap(), "geometric"),
            (perturbed_grid(5, 5, 0.3, 3).unwrap(), "perturbed"),
            (clustered(60, 3, 12.0, 3.0, 3).unwrap(), "clustered"),
        ] {
            assert!(!g.is_unit_weight(), "{name}");
        }
        // No jitter: Euclidean weights that all come out at exactly 1.0.
        assert!(perturbed_grid(4, 4, 0.0, 3).unwrap().is_unit_weight());
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 4);
        }
    }

    #[test]
    fn ring_structure() {
        let g = ring(10).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 10);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
        assert!(g.has_edge(NodeId(9), NodeId(0)));
    }

    #[test]
    fn line_structure() {
        let g = line(5).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        let g = random_tree(64, 7).unwrap();
        assert_eq!(g.node_count(), 64);
        assert_eq!(g.edge_count(), 63);
        assert!(g.is_connected());
    }

    #[test]
    fn random_geometric_is_connected_and_normalized() {
        for seed in 0..3 {
            let g = random_geometric(80, 10.0, 1.8, seed).unwrap();
            assert!(g.is_connected(), "seed {seed}");
            let min = g.min_edge_weight().unwrap();
            assert!((min - 1.0).abs() < 1e-9, "seed {seed}: min weight {min}");
        }
    }

    #[test]
    fn bucketed_edges_match_the_naive_pair_scan() {
        // The spatial hash must reproduce the old O(n²) scan exactly:
        // same edges, same insertion order, same weights.
        for (n, side, radius, seed) in [
            (80usize, 10.0, 1.8, 0u64),
            (120, 6.0, 2.5, 3),
            (60, 30.0, 1.0, 7), // sparse: many singleton cells
            (50, 1.0, 2.0, 9),  // radius beyond the field: complete graph
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let mut bucketed = GraphBuilder::new(n);
            add_geometric_edges(&mut bucketed, &positions, radius).unwrap();
            let mut naive = GraphBuilder::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = positions[i].distance(&positions[j]);
                    if d <= radius && d > 0.0 {
                        naive
                            .add_edge(NodeId::from_index(i), NodeId::from_index(j), d)
                            .unwrap();
                    }
                }
            }
            let gb = bucketed.build_unchecked();
            let gn = naive.build_unchecked();
            assert_eq!(
                gb.edges().collect::<Vec<_>>(),
                gn.edges().collect::<Vec<_>>(),
                "n={n} side={side} radius={radius} seed={seed}"
            );
        }
    }

    #[test]
    fn random_geometric_deterministic_per_seed() {
        let a = random_geometric(50, 10.0, 2.0, 42).unwrap();
        let b = random_geometric(50, 10.0, 2.0, 42).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn degenerate_sizes_rejected() {
        assert!(grid(0, 5).is_err());
        assert!(ring(2).is_err());
        assert!(line(0).is_err());
        assert!(torus(2, 5).is_err());
        assert!(random_tree(0, 1).is_err());
        assert!(random_geometric(0, 1.0, 1.0, 1).is_err());
    }

    #[test]
    fn perturbed_grid_keeps_topology_with_irregular_weights() {
        let g = perturbed_grid(5, 5, 0.3, 4).unwrap();
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 40);
        assert!(g.is_connected());
        let min = g.min_edge_weight().unwrap();
        assert!((min - 1.0).abs() < 1e-9, "normalized min weight, got {min}");
        // jitter must actually vary the weights
        let weights: Vec<f64> = g.edges().map(|(_, _, w)| w).collect();
        let spread = weights.iter().cloned().fold(f64::MIN, f64::max)
            - weights.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.01, "weights all equal despite jitter");
    }

    #[test]
    fn perturbed_grid_deterministic_per_seed() {
        let a = perturbed_grid(4, 4, 0.2, 9).unwrap();
        let b = perturbed_grid(4, 4, 0.2, 9).unwrap();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "jitter must stay below half the spacing")]
    fn perturbed_grid_rejects_wild_jitter() {
        let _ = perturbed_grid(3, 3, 0.6, 1);
    }

    #[test]
    fn clustered_deployment_is_connected_and_clumped() {
        let g = clustered(120, 4, 20.0, 3.0, 11).unwrap();
        assert_eq!(g.node_count(), 120);
        assert!(g.is_connected());
        // clumping: mean degree well above a uniform deployment with the
        // same radius would give
        let uniform = random_geometric(120, 20.0, 3.0, 11).unwrap();
        let deg = |g: &Graph| 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            deg(&g) > deg(&uniform),
            "clusters should be denser: {} vs {}",
            deg(&g),
            deg(&uniform)
        );
    }

    #[test]
    fn clustered_rejects_degenerate_params() {
        assert!(clustered(0, 3, 10.0, 2.0, 1).is_err());
        assert!(clustered(10, 0, 10.0, 2.0, 1).is_err());
    }

    #[test]
    fn paper_sizes_span_10_to_1024() {
        let sizes = paper_grid_sizes();
        let ns: Vec<usize> = sizes.iter().map(|(r, c)| r * c).collect();
        assert!(*ns.first().unwrap() <= 10);
        assert_eq!(*ns.last().unwrap(), 1024);
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
    }
}
