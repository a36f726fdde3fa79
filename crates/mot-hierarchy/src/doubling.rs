//! Overlay construction for constant-doubling networks (§2.2).
//!
//! Level 0 contains every sensor. Level `ℓ+1` is a maximal independent set
//! of the connectivity graph `I_ℓ = (V_ℓ, E_ℓ)` where `E_ℓ` joins level-ℓ
//! members closer than `2^{ℓ+1}`; consequently level-(ℓ+1) members are
//! pairwise `≥ 2^{ℓ+1}` apart and every level-ℓ member lies within
//! `2^{ℓ+1}` of one (its *default parent*). Construction ends when a level
//! holds a single member — the root. `h ≤ ⌈log D⌉ + 1` levels.
//!
//! # Hot path
//!
//! Construction used to scan all-pairs oracle distances: `O(k²)` virtual
//! `dist` calls per level for the connectivity graph and `O(n · k_ℓ)`
//! more for the detection-path stations. It now runs radius-bounded
//! Dijkstra (`bounded_ball` on a reusable
//! [`mot_net::DijkstraWorkspace`]: distances only, in nondecreasing
//! order, which is all a row reads) straight over the CSR graph, touching
//! only the `O(2^{dim·ℓ})`-sized neighborhoods the doubling predicate
//! actually inspects — **one ball pass per level, not three**. The
//! connectivity rows of `I_ℓ`, the default parents and the level-(ℓ+1)
//! stations all ask about the same sources (the level-ℓ members) within
//! `max(1, mult) · 2^{ℓ+1}`, so each member's ball is run once and its
//! row — the level members inside it, with quantized distances — is kept
//! until the level's MIS is known and then read three ways.
//!
//! The same balls fill the overlay's station table, so no hop length is
//! ever asked of the oracle:
//!
//! * hops *inside* a level-ℓ station (both directions): its members are
//!   level-ℓ nodes within `max(1, mult) · 2^{ℓ+1}` of each other, so
//!   each is in the other's pass-ℓ row, rooted at the hop's source;
//! * the `up` hop from a level-ℓ station's last member to the first
//!   member of the station above: read from the last member's own row
//!   where that reaches (always at level 0); otherwise — it can be
//!   `(3 · max(1, mult) + 1) · 2^ℓ` long — it waits for pass ℓ+1, whose
//!   ball around that first member covers `max(1, mult) · 2^{ℓ+2}`.
//!   That ball is rooted at the hop's *far* end, and on weighted graphs
//!   the two directions of a shortest path can quantize differently, so
//!   its value is taken only where `quantizes_alike` proves they cannot
//!   and the hop is re-solved forwards elsewhere;
//! * the *drop* from each member of a level-ℓ station into the
//!   level-(ℓ−1) station below it on the same paths (what prunes and
//!   query descents bill): at most `(3 · max(1, mult) + 1) · 2^{ℓ−1}`
//!   long, so inside that member's pass-ℓ ball, and read while the ball
//!   is live — the targets are not level-ℓ members, so the rows do not
//!   keep them. The ball is rooted at the drop's source; direction is
//!   not a question.
//!
//! So the only Dijkstra runs besides the one ball per member per level
//! are the forward re-solves and one ball around the root, whose level
//! has no pass of its own but has hops up into it and drops out of it.
//!
//! Per-level scratch (the rows, the member → waiting-reads index)
//! is allocated for its level and freed with it: the level-0 instances
//! are several times the size of all later ones together, and kept to
//! the end they, not the table, would set the build's peak memory.
//!
//! Every ball is a pure function of the graph, the level's members and
//! the finished lower levels, so from `PARALLEL_MIN_NODES` (4 096)
//! nodes up two per-member passes run on
//! `std::thread::available_parallelism()` threads, at most
//! `MAX_THREADS` (8), spawned per pass under `std::thread::scope`
//! (`blocks::in_blocks`): the ball pass (rows, I_ℓ edges, drops and
//! deferred `up` hops) and the default parents with their stations. The
//! calling thread works too; each thread claims the next block of at
//! most 64 members from one atomic counter, so a descheduled helper
//! delays one block, not half the level. A block's output waits until
//! the blocks before it are applied, and the calling thread applies
//! them in member order: rows, edges and stations are appended, every
//! drop and `up` slot is written, exactly as one thread walking the
//! members would. So the overlay is the same bits for any thread count,
//! which `any_thread_count_builds_the_same_bits` pins at 1, 2, 3 and 8.
//! The member → waiting-reads index (`Waiting::index`) is built in one
//! part per thread, each from its share of the records; a member's reads
//! are the concatenation of its parts', and their order is free, since
//! each read writes its own slot. Luby's draw (one stream), opening a
//! level's drop slots (one call) and the node-major index stay on the
//! calling thread, and so do the hops inside stations and the `up` hops
//! read from rows: split into blocks they ran no faster, their cost
//! being the table writes the calling thread makes either way. Smaller
//! graphs, every figure, scenario and
//! service bed among them, run the same passes on the calling thread
//! alone; nothing else selects the thread count (the experiment
//! runner's `--jobs` does not).
//!
//! Stations are stored once per `(level, home)` pair — every node whose
//! detection path passes through the same home shares the same station
//! by definition. All predicates quantize the exact f64 Dijkstra
//! distances through `f32` before comparing, exactly like every oracle
//! backend does, so the overlay meets the doubling rules as the oracle
//! states them: [`validate`](crate::validate::validate) checks each
//! level, default parent and station against the oracle, and the
//! `hierarchy_parity` and `hop_table` suites run it on every topology
//! generator. Which maximal independent set Luby's stream picks is no
//! rule; the determinism pins (golden cost tuples, the standard CSV
//! manifest, the seed-1 digests) hold that. See DESIGN.md §13.

use crate::blocks::in_blocks;
use crate::config::OverlayConfig;
use crate::mis::luby_mis;
use crate::overlay::{Overlay, OverlayKind};
use crate::table::{DropHop, StationTable};
use mot_net::{DijkstraWorkspace, DistanceOracle, Graph, NodeId, BALL_PAD};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Graphs with fewer nodes build on the calling thread alone. Their
/// levels are too small to pay for threads, and every figure, scenario
/// and service bed is below it.
const PARALLEL_MIN_NODES: usize = 4096;

/// Most threads one build uses. Each holds a workspace of 12 bytes a
/// node (balls and distances write no parents), and past a few threads
/// the serial share (Luby's draw, the table writes) sets the build's
/// time, not the ball passes.
const MAX_THREADS: usize = 8;

/// Builds the MIS-coarsened overlay for a (constant-doubling) network
/// by radius-bounded Dijkstra over the CSR graph (see the module docs).
/// It never asks the oracle for a distance, so it runs warm-up-free on
/// the on-demand backend, at every size. From 4 096 nodes up each
/// level's per-member work runs on every available core (up to 8); the
/// overlay is the same bits on any number of them.
///
/// `seed` drives Luby's random priorities; identical seeds yield identical
/// overlays.
pub fn build_doubling(
    g: &Graph,
    m: &dyn DistanceOracle,
    cfg: &OverlayConfig,
    seed: u64,
) -> Overlay {
    let threads = if g.node_count() < PARALLEL_MIN_NODES {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |t| t.get().min(MAX_THREADS))
    };
    build_on_threads(g, m, cfg, seed, threads)
}

/// A thread's workspaces: `ws` holds one member's ball, `fwd` runs the
/// forward re-solves while it is held (it grows on first use, which
/// unit-weight graphs never reach).
struct Scratch {
    ws: DijkstraWorkspace,
    fwd: DijkstraWorkspace,
}

/// What one waiting read found in its member's ball.
enum Answer {
    Up(f32),
    Drop(DropHop),
}

/// [`build_doubling`] on exactly `threads` threads, whatever the size
/// of the graph.
pub(crate) fn build_on_threads(
    g: &Graph,
    m: &dyn DistanceOracle,
    cfg: &OverlayConfig,
    seed: u64,
    threads: usize,
) -> Overlay {
    assert_eq!(
        g.node_count(),
        m.node_count(),
        "graph and oracle disagree on n"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = g.node_count();
    let mult = cfg.parent_set_radius_mult;
    let mut scratch: Vec<Scratch> = (0..threads.max(1))
        .map(|_| Scratch {
            ws: DijkstraWorkspace::with_capacity(n),
            fwd: DijkstraWorkspace::new(),
        })
        .collect();
    let slack = reversal_slack(n);
    // Position of each node in the level being processed (stamped so a
    // new level needs no O(n) clear; level ℓ's stamp is ℓ + 1).
    let mut pos: Vec<(u32, u32)> = (0..n as u32).map(|i| (1, i)).collect();

    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    let mut cur: Vec<NodeId> = g.nodes().collect();
    let mut table = StationTable::new();
    // Level-0 stations are the nodes themselves: node u is record u.
    for &u in &cur {
        table.push_record(&[u]);
    }
    // The stations whose members are `cur` nodes are records
    // `base + i`, one per home `i` of the level below (at level 0 a
    // node is its own home). `station_base[ℓ]` is the `base` of level
    // ℓ + 1 and `parents[ℓ][i]` the position in level ℓ + 1 of level-ℓ
    // member `i`'s default parent: together they are every node's chain
    // of homes, from which the index is written at the end.
    let mut base = 0u32;
    let mut station_base: Vec<u32> = Vec::new();
    let mut parents: Vec<Vec<u32>> = Vec::new();
    // What the balls of the `cur` nodes have to answer, by position.
    let mut waiting = Waiting::default();
    let mut pending: Vec<(NodeId, u32)> = Vec::new();

    // Hard cap: radii double each level, so ⌈log2 D⌉ + 2 levels always
    // suffice; 64 guards against pathological float behaviour.
    for level in 0..64usize {
        let stamp = level as u32 + 1;
        let at = |v: NodeId| {
            let (s, i) = pos[v.index()];
            debug_assert_eq!(s, stamp, "{v} is not a level-{level} member");
            i
        };
        // Position in `cur` of the default parent of home `i` of the
        // level below: record `base + i` continues into the station of
        // that parent.
        let above = |i: u32| match level.checked_sub(1) {
            Some(below) => parents[below][i as usize],
            None => i,
        };
        // Level-ℓ members closer than `link` are joined in I_ℓ and every
        // one of them has a level-(ℓ+1) member within `link`; stations
        // reach out to `reach`. One ball per member serves all three,
        // every drop out of that member and every deferred hop up into it.
        let link = (1u64 << (level + 1)) as f64;
        let reach = mult * link;
        let radius = link.max(reach) * BALL_PAD;
        // Fresh per level: the level-0 rows are the largest by far, and
        // capacity carried past them would sit at the build's peak.
        let mut rows = Rows::default();
        // Luby's input stays one vector per member, allocated on this
        // thread. A flat one is faster to read, but freed it leaves no
        // resident heap for the next bed's grid, which then pays ≈ 320
        // more page faults (PERFORMANCE.md, "Cold start on every core").
        let mut adjacency: Vec<Vec<usize>> = Vec::with_capacity(cur.len());
        let reads = std::mem::take(&mut waiting);
        let next_base = table.record_count() as u32;
        let (stations, mut fill) = table.split();
        in_blocks(
            &mut scratch,
            cur.len(),
            |Scratch { ws, fwd }, members| {
                let mut block_rows = Rows::with_capacity(members.len(), 32);
                let mut linked = Rows::with_capacity(members.len(), 8);
                let mut answers = Vec::with_capacity(reads.count(members.clone()));
                for i in members {
                    let u = cur[i];
                    ws.bounded_ball(g, u, radius);
                    block_rows.push_ball(ws, &pos, stamp);
                    // I_ℓ's edges out of `u`.
                    let row = block_rows.row(block_rows.len() - 1).iter();
                    let near = row.filter(|&&(j, d)| j as usize != i && (d as f64) < link);
                    linked.push(near.map(|&(j, _)| j));
                    answers.extend(reads.of(i).map(|&(r, k)| {
                        if k == UP_HOP {
                            // --- a deferred hop up into `u` --------------
                            // The ball is rooted at the hop's far end.
                            // Its distance is used only where the
                            // reversed sum provably quantizes alike;
                            // otherwise (and outside the ball) the hop is
                            // solved forwards.
                            let last = *stations.get(r as usize).last().expect("non-empty");
                            let back = ws.dist(last);
                            let d = if back <= radius && quantizes_alike(back, slack) {
                                back
                            } else {
                                fwd.distance(g, last, u)
                            };
                            return Answer::Up(d as f32);
                        }
                        // --- a drop from `u` into a station one level down
                        // With R = max(link, reach): a target sits in the
                        // station of a level-(ℓ−2) home, within R/4 of it
                        // (at ℓ = 1 it is that home); the home is within
                        // link/4 of its default parent; and `u` is in
                        // that parent's station, within R/2 of it.
                        // 3R/4 + link/4 ≤ R in all, so every target is
                        // inside this ball — which is rooted at the
                        // drop's source, so its sums are the oracle's
                        // own. A target the ball missed all the same is
                        // solved forwards.
                        let targets = stations.get(r as usize).iter();
                        let dists = targets.map(|&t| ball_dist(ws, radius, fwd, g, u, t) as f32);
                        Answer::Drop(DropHop::toward(dists))
                    }));
                }
                (block_rows, linked, answers)
            },
            |members, (block_rows, linked, answers)| {
                let waited = members.clone().flat_map(|i| reads.of(i));
                for (&(r, k), answer) in waited.zip(answers) {
                    match answer {
                        Answer::Up(d) => fill.set_up(r, d),
                        Answer::Drop(hop) => fill.set_drop(r, k as usize, hop),
                    }
                }
                rows.append(&block_rows);
                adjacency.extend(
                    (0..linked.len()).map(|i| linked.row(i).iter().map(|&j| j as usize).collect()),
                );
            },
        );
        drop(reads);
        if cur.len() == 1 {
            break;
        }

        // --- hop lengths inside the stations made of `cur` nodes ---------
        // Two members a, b of one station both lie within
        // max(link, reach) / 2 of its home (quantized, so a relative
        // 2⁻²⁴ over), hence within max(link, reach) of each other up to
        // rounding far below BALL_PAD: b is in a's row and a in b's.
        for r in base..next_base {
            for j in 1..table.station(r as usize).len() {
                let s = table.station(r as usize);
                let (a, b) = (at(s[j - 1]), at(s[j]));
                let pair = "station members lie in each other's level ball";
                let hop = [rows.dist(a, b).expect(pair), rows.dist(b, a).expect(pair)];
                table.set_hop(r, j, hop);
            }
        }

        // --- level ℓ+1: an MIS of the connectivity graph -----------------
        let next = luby_mis(&cur, &adjacency, &mut rng);
        drop(adjacency);
        let mut next_pos = vec![u32::MAX; cur.len()];
        for (i, &v) in next.iter().enumerate() {
            next_pos[at(v) as usize] = i as u32;
        }

        // --- default parents and level-(ℓ+1) stations, per home ----------
        // The station of a node depends only on its level-ℓ home, so each
        // distinct (level, home) station is one record shared by every
        // path through that home.
        // Position in `next` of each `cur` member's default parent.
        let mut parent: Vec<u32> = Vec::with_capacity(cur.len());
        in_blocks(
            &mut scratch,
            cur.len(),
            |_, members| {
                let mut block_parents = Vec::with_capacity(members.len());
                let mut block_stations = Rows::with_capacity(members.len(), 8);
                for i in members {
                    let upper = rows
                        .row(i)
                        .iter()
                        .filter(|&&(j, _)| next_pos[j as usize] != u32::MAX);
                    // MIS maximality guarantees a next-level member with
                    // quantized distance < link; rows are in id order, so
                    // (distance, position) is the (distance, id) tie-break.
                    let &(dp, dp_dist) = upper
                        .clone()
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
                        .expect("non-empty upper level");
                    debug_assert!(
                        (dp_dist as f64) < link + 1e-6,
                        "default parent of {} must lie within 2^{}: {dp_dist}",
                        cur[i],
                        level + 1
                    );
                    let station = upper.filter(|&&(j, d)| (d as f64) <= reach || j == dp);
                    block_stations.push(station.map(|&(j, _)| cur[j as usize]));
                    block_parents.push(next_pos[dp as usize]);
                }
                (block_parents, block_stations)
            },
            |_, (block_parents, block_stations)| {
                table.push_records(&block_stations.start, &block_stations.items);
                parent.extend_from_slice(&block_parents);
            },
        );

        // --- the hop from each `cur`-level station up to the next one ----
        // Read forwards from the last member's own row where that
        // reaches. The rest, at most (3·max(mult, 1) + 1)·2^ℓ long, wait
        // for the next level's pass: its ball around the first member
        // above covers max(mult, 1)·2^(ℓ+2).
        pending.clear();
        for r in base..next_base {
            let last = *table.station(r as usize).last().expect("non-empty");
            let first = table.station((next_base + above(r - base)) as usize)[0];
            match rows.dist(at(last), at(first)) {
                Some(d) => table.set_up(r, d),
                None => pending.push((first, r)),
            }
        }
        drop(rows);

        // --- drop slots of the `cur`-level stations ----------------------
        // One per member of the station above, opened now that it exists
        // and written during the next level's ball pass, which is rooted
        // at those members; `waiting` is that pass's way back from a
        // member to what its ball has to answer.
        drop(next_pos);
        for (i, &v) in next.iter().enumerate() {
            pos[v.index()] = (stamp + 1, i as u32);
        }
        // One share of the records per thread, the deferred `up` hops
        // with the last: the index is built on as many threads as the
        // passes run on.
        let next_at = &pos;
        let above = &above;
        let (records, shares) = (next_base - base, scratch.len() as u32);
        let sources: Vec<_> = (0..shares)
            .map(|t| {
                let share = base + records * t / shares..base + records * (t + 1) / shares;
                let table = &table;
                let drops = share.flat_map(move |r| {
                    let sources = table.station((next_base + above(r - base)) as usize);
                    let slots = sources.iter().enumerate();
                    slots.map(move |(k, &a)| (next_at[a.index()].1, r, k as u32))
                });
                let ups = if t + 1 == shares { &pending[..] } else { &[] };
                let ups = ups
                    .iter()
                    .map(|&(first, r)| (next_at[first.index()].1, r, UP_HOP));
                drops.chain(ups)
            })
            .collect();
        waiting = Waiting::index(next.len(), sources);
        let above_lens: Vec<usize> = (base..next_base)
            .map(|r| table.station((next_base + above(r - base)) as usize).len())
            .collect();
        table.push_drops(&above_lens);

        station_base.push(next_base);
        base = next_base;
        parents.push(parent);
        levels.push(std::mem::replace(&mut cur, next));
    }
    levels.push(cur);
    // The finished table and its index are the build's peak: the
    // workspaces go first.
    drop(scratch);
    // The loop above always terminates with a singleton: once
    // 2^ℓ > diameter the connectivity graph is complete.
    assert_eq!(
        levels.last().map(Vec::len),
        Some(1),
        "doubling construction did not converge to a root (n = {n}, D = {})",
        m.diameter()
    );
    // Top-level stations have nowhere to drop from.
    table.push_drops(&vec![0; table.record_count() - base as usize]);

    // --- the node-major index: every node's chain of homes ---------------
    let stride = levels.len();
    let mut index = Vec::with_capacity(n * stride);
    for u in 0..n as u32 {
        index.push(u);
        let mut home = u;
        for (first, parent) in station_base.iter().zip(&parents) {
            index.push(first + home);
            home = parent[home as usize];
        }
    }
    table.set_index(stride, index);
    Overlay::new(OverlayKind::Doubling, levels, table, cfg.sp_gap)
}

/// Distance from `root`, whose ball of `radius` is live in `ws`, to
/// `to`: the ball's own where it reached, otherwise solved forwards.
fn ball_dist(
    ws: &DijkstraWorkspace,
    radius: f64,
    fwd_ws: &mut DijkstraWorkspace,
    g: &Graph,
    root: NodeId,
    to: NodeId,
) -> f64 {
    let d = ws.dist(to);
    if d <= radius {
        d
    } else {
        fwd_ws.distance(g, root, to)
    }
}

/// Relative bound on how far the two Dijkstra sums of one shortest path
/// can differ by direction. A run from either end yields the minimum
/// over paths of the path's left-to-right f64 sum; a k-edge sum is
/// within (k−1)·2⁻⁵³ of exact, k < n, so the directions agree within
/// n·2⁻⁵². Doubled for the two multiplications of the check itself,
/// and floored at 2⁻³⁰: a wider margin only re-solves more (≈ 2% of the
/// reversed reads on Euclidean weights, none on unit weights), which
/// keeps that branch exercised by graphs the test suite can afford.
fn reversal_slack(n: usize) -> f64 {
    (n as f64 * (-51f64).exp2()).max((-30f64).exp2())
}

/// Whether every distance within relative `slack` of `d` quantizes to
/// the same f32 as `d` (rounding is monotone, so the endpoints decide).
#[inline]
fn quantizes_alike(d: f64, slack: f64) -> bool {
    (d * (1.0 - slack)) as f32 == (d * (1.0 + slack)) as f32
}

/// Rows of items back to back, row `i` at `items[start[i]..start[i + 1]]`:
/// a level's rows (below), and one block's share of them, of its I_ℓ
/// edges or of its stations on their way to the table.
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            start: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Rows<T> {
    /// Room for `rows` rows of `per_row` items each: a block's output
    /// is sized once, not grown by doubling on every thread at once.
    fn with_capacity(rows: usize, per_row: usize) -> Self {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            start,
            items: Vec::with_capacity(rows * per_row),
        }
    }

    fn push(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.close_row();
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.items.len()).expect("level rows exceed u32 offsets");
        self.start.push(end);
    }

    /// Appends every row of `other`, in order.
    fn append(&mut self, other: &Rows<T>) {
        let offset = self.items.len() as u32;
        self.items.extend_from_slice(&other.items);
        u32::try_from(self.items.len()).expect("level rows exceed u32 offsets");
        self.start
            .extend(other.start[1..].iter().map(|&s| offset + s));
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }
}

impl Rows<(u32, f32)> {
    /// Appends the row of the next member from its ball, live in `ws`
    /// (level positions are stamped into `pos`): the level members
    /// inside the ball with their quantized distances, in position —
    /// hence id — order.
    fn push_ball(&mut self, ws: &DijkstraWorkspace, pos: &[(u32, u32)], stamp: u32) {
        let from = self.items.len();
        self.items.extend(
            ws.settled()
                .iter()
                .filter(|v| pos[v.index()].0 == stamp)
                .map(|&v| (pos[v.index()].1, ws.dist(v) as f32)),
        );
        self.items[from..].sort_unstable_by_key(|e| e.0);
        self.close_row();
    }

    /// Quantized distance from member `a` to member `b`, if `b` lies in
    /// `a`'s ball.
    fn dist(&self, a: u32, b: u32) -> Option<f32> {
        let row = self.row(a as usize);
        row.binary_search_by_key(&b, |e| e.0).ok().map(|k| row[k].1)
    }
}

/// `k` of a [`Waiting`] read that is a station's deferred `up` hop, not
/// a drop slot.
const UP_HOP: u32 = u32::MAX;

/// What waits for one level's ball pass: per member of that level (by
/// position) the `(record, k)` drop slots it is the source of — it is
/// member `k` of the record above `record` — and, as `(record, UP_HOP)`,
/// the records whose `up` hop ends at it and was out of their own rows'
/// reach. Built for one pass and dropped after it, so the large
/// low-level ones do not outlive the levels they serve.
///
/// It is built in parts, one per thread, each from its own share of the
/// triples; a member's reads are the concatenation of its parts'. Their
/// order within a member is free: each read writes its own slot.
#[derive(Default)]
struct Waiting {
    parts: Vec<Part>,
}

/// One part of a [`Waiting`]: its triples grouped by member position,
/// member `i`'s at `reads[start[i]..start[i + 1]]`.
struct Part {
    start: Vec<u32>,
    reads: Vec<(u32, u32)>,
}

impl Waiting {
    /// Indexes each source of `(member position, record, k)` triples as
    /// one part, the first on the calling thread and each other on a
    /// thread of its own.
    fn index<I>(members: usize, sources: Vec<I>) -> Self
    where
        I: Iterator<Item = (u32, u32, u32)> + Clone + Send,
    {
        let mut sources = sources.into_iter();
        let Some(first) = sources.next() else {
            return Waiting::default();
        };
        let parts = std::thread::scope(|s| {
            let helpers: Vec<_> = sources
                .map(|triples| s.spawn(move || Part::index(members, triples)))
                .collect();
            let mut parts = vec![Part::index(members, first)];
            parts.extend(helpers.into_iter().map(|h| match h.join() {
                Ok(part) => part,
                Err(panic) => std::panic::resume_unwind(panic),
            }));
            parts
        });
        Waiting { parts }
    }

    /// The reads waiting for member `i`'s ball; none before any were
    /// indexed.
    fn of(&self, i: usize) -> impl Iterator<Item = &(u32, u32)> + '_ {
        self.parts.iter().flat_map(move |p| p.of(i))
    }

    /// How many reads wait for the balls of `members`.
    fn count(&self, members: Range<usize>) -> usize {
        let part = |p: &Part| (p.start[members.end] - p.start[members.start]) as usize;
        self.parts.iter().map(part).sum()
    }
}

impl Part {
    /// Groups the triples by position (a counting sort: they are walked
    /// twice, nothing is resized).
    fn index(members: usize, triples: impl Iterator<Item = (u32, u32, u32)> + Clone) -> Self {
        let mut start = vec![0u32; members + 1];
        for (p, _, _) in triples.clone() {
            start[p as usize + 1] += 1;
        }
        for i in 0..members {
            start[i + 1] += start[i];
        }
        let mut reads = vec![(0, 0); start[members] as usize];
        let mut fill = start.clone();
        for (p, r, k) in triples {
            reads[fill[p as usize] as usize] = (r, k);
            fill[p as usize] += 1;
        }
        Part { start, reads }
    }

    fn of(&self, i: usize) -> &[(u32, u32)] {
        &self.reads[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;
    use mot_net::DenseOracle;

    fn build(rows: usize, cols: usize, cfg: OverlayConfig) -> (Overlay, DenseOracle) {
        let g = generators::grid(rows, cols).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &cfg, 7);
        (o, m)
    }

    #[test]
    fn reversed_reads_are_trusted_only_away_from_f32_rounding_boundaries() {
        let slack = reversal_slack(1 << 16);
        assert_eq!(slack, (-30f64).exp2(), "floored for small graphs");
        assert!(reversal_slack(1 << 30) > slack, "grows with path length");
        // Exactly representable, and a grid distance: safe.
        assert!(quantizes_alike(1.0, slack));
        assert!(quantizes_alike(37.0, slack));
        // The tie between 1.0f32 and its successor, and a hair either
        // side of it: the reversed sum could land across the boundary.
        let tie = 1.0 + (-24f64).exp2();
        assert!(!quantizes_alike(tie, slack));
        assert!(!quantizes_alike(tie * (1.0 + slack / 2.0), slack));
        assert!(!quantizes_alike(tie * (1.0 - slack / 2.0), slack));
        assert!(quantizes_alike(tie * (1.0 + 4.0 * slack), slack));
    }

    #[test]
    fn a_target_the_ball_missed_is_solved_forwards() {
        let g = generators::line(8).unwrap();
        let (mut ws, mut fwd_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
        ws.bounded_ball(&g, NodeId(2), 1.5);
        let mut dist = |to| ball_dist(&ws, 1.5, &mut fwd_ws, &g, NodeId(2), to);
        assert_eq!(dist(NodeId(3)), 1.0);
        // Relaxed to 2.0 but never settled: not the ball's to answer.
        assert_eq!(dist(NodeId(4)), 2.0);
        assert_eq!(dist(NodeId(7)), 5.0);
    }

    #[test]
    fn any_thread_count_builds_the_same_bits() {
        // The perturbed grid is weighted: its `up` hops take the
        // reversed-read and forward re-solve branches. The churned grid
        // serves its rows from the patch overlay; the grid with a heavy
        // star is a unit grid whose weights were written out on restore.
        let mut churned = generators::grid(20, 20).unwrap();
        for u in [21, 57, 210, 399, 57] {
            let star = churned.remove_node(NodeId(u)).unwrap();
            churned.restore_node(NodeId(u), &star).unwrap();
        }
        assert!(churned.is_unit_weight());
        let mut heavy = generators::grid(20, 20).unwrap();
        let mut star = heavy.remove_node(NodeId(190)).unwrap();
        star[1].weight = 3.0;
        heavy.restore_node(NodeId(190), &star).unwrap();
        assert!(!heavy.is_unit_weight());
        let beds = [
            ("grid 24x24", generators::grid(24, 24).unwrap()),
            ("churned grid", churned),
            ("grid with a heavy star", heavy),
            (
                "perturbed grid",
                generators::perturbed_grid(16, 16, 0.3, 5).unwrap(),
            ),
            ("ring", generators::ring(300).unwrap()),
            (
                "random geometric",
                generators::random_geometric(250, 16.0, 2.5, 3).unwrap(),
            ),
        ];
        for (name, g) in &beds {
            let m = DenseOracle::build(g).unwrap();
            for cfg in [OverlayConfig::practical(), OverlayConfig::paper_exact()] {
                let serial = build_on_threads(g, &m, &cfg, 11, 1);
                for threads in [2, 3, 8] {
                    let o = build_on_threads(g, &m, &cfg, 11, threads);
                    assert!(o == serial, "{name}: {threads} threads built other bits");
                }
            }
        }
    }

    #[test]
    fn the_parallel_build_starts_at_4096_nodes_with_the_serial_bits() {
        assert_eq!(PARALLEL_MIN_NODES, 4096);
        // 64 × 64 is the smallest grid on the parallel side; the
        // builder never asks the oracle, so the cheap one will do.
        let g = generators::grid(64, 64).unwrap();
        assert_eq!(g.node_count(), PARALLEL_MIN_NODES);
        let m = mot_net::CachedOracle::new(&g).unwrap();
        let cfg = OverlayConfig::practical();
        let serial = build_on_threads(&g, &m, &cfg, 2, 1);
        assert!(build_doubling(&g, &m, &cfg, 2) == serial);
        assert!(build_on_threads(&g, &m, &cfg, 2, 2) == serial);
    }

    #[test]
    fn a_hub_station_past_256_members_builds() {
        // A star is connected but not doubling: the hub's station above
        // a leaf can hold every other leaf, far past Observation 1's 64.
        let mut b = mot_net::GraphBuilder::new(601);
        for leaf in 1..601 {
            b.add_edge(NodeId(0), NodeId(leaf), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let cfg = OverlayConfig::practical();
        for seed in 0..5 {
            let o = build_doubling(&g, &m, &cfg, seed);
            crate::validate::assert_valid(&o, &m, &cfg);
        }
    }

    #[test]
    fn single_node_graph_degenerates_gracefully() {
        let g = generators::line(1).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 1);
        assert_eq!(o.height(), 0);
        assert_eq!(o.root(), NodeId(0));
        assert_eq!(o.station(NodeId(0), 0), &[NodeId(0)]);
    }

    #[test]
    fn level_counts_shrink_to_root() {
        let (o, m) = build(8, 8, OverlayConfig::practical());
        let h = o.height();
        assert_eq!(o.level_members(h).len(), 1);
        for l in 0..h {
            assert!(
                o.level_members(l).len() >= o.level_members(l + 1).len(),
                "level {l} smaller than level {}",
                l + 1
            );
        }
        // h <= ceil(log2 D) + 1
        let bound = (m.diameter().log2().ceil() as usize) + 1;
        assert!(h <= bound, "h = {h} > {bound}");
    }

    #[test]
    fn levels_are_nested_independent_sets() {
        let cfg = OverlayConfig::practical();
        let (o, m) = build(8, 8, cfg.clone());
        crate::validate::assert_valid(&o, &m, &cfg);
    }

    #[test]
    fn every_node_covered_by_next_level() {
        let cfg = OverlayConfig::practical();
        let (o, m) = build(12, 12, cfg.clone());
        crate::validate::assert_valid(&o, &m, &cfg);
    }

    #[test]
    fn stations_start_at_self_and_end_at_root() {
        let (o, _) = build(6, 6, OverlayConfig::practical());
        for u in 0..o.node_count() {
            let u = NodeId::from_index(u);
            assert_eq!(o.station(u, 0), &[u]);
            assert_eq!(o.station(u, o.height()), &[o.root()]);
            for l in 0..=o.height() {
                let s = o.station(u, l);
                assert!(!s.is_empty());
                assert!(s.windows(2).all(|w| w[0] < w[1]), "station not sorted");
            }
        }
    }

    #[test]
    fn singleton_profile_yields_single_parent_stations() {
        let (o, _) = build(8, 8, OverlayConfig::singleton_parents());
        for u in 0..o.node_count() {
            let u = NodeId::from_index(u);
            for l in 0..=o.height() {
                assert_eq!(o.station(u, l).len(), 1, "node {u} level {l}");
            }
        }
    }

    #[test]
    fn observation_1_station_size_bounded() {
        // Obs. 1: at most 2^{3ρ} parents; on a 2-D grid with the paper
        // radius multiplier the packing bound gives a modest constant.
        let (o, _) = build(16, 16, OverlayConfig::paper_exact());
        assert!(
            o.max_station_size() <= 64,
            "station size {} exceeds the 2-D packing bound",
            o.max_station_size()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let a = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let b = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        for l in 0..=a.height() {
            assert_eq!(a.level_members(l), b.level_members(l));
        }
    }

    #[test]
    fn meet_lemma_2_1_with_paper_constants() {
        // Lemma 2.1: DPath(u), DPath(v) meet by level ⌈log dist(u,v)⌉ + 1.
        let (o, m) = build(8, 8, OverlayConfig::paper_exact());
        for u in 0..o.node_count() {
            for v in 0..o.node_count() {
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                if u == v {
                    continue;
                }
                let d = m.dist(u, v);
                let bound = ((d.log2().ceil() as i64).max(0) as usize + 1).min(o.height());
                assert!(
                    o.meet_level(u, v) <= bound,
                    "meet({u},{v}) = {} > {bound} (d = {d})",
                    o.meet_level(u, v)
                );
            }
        }
    }

    #[test]
    fn path_length_grows_geometrically_lemma_2_2() {
        // Lemma 2.2: length(DPath_j(u)) ≤ c · 2^j for a topology-dependent
        // constant c. Verify the ratio length/2^j is bounded uniformly.
        let (o, _) = build(16, 16, OverlayConfig::practical());
        let mut worst: f64 = 0.0;
        for u in (0..o.node_count()).step_by(7) {
            let u = NodeId::from_index(u);
            for j in 1..=o.height() {
                let len = o.path_length(u, j);
                worst = worst.max(len / (1u64 << j) as f64);
            }
        }
        assert!(worst <= 64.0, "path length ratio {worst} not geometric");
    }
}
