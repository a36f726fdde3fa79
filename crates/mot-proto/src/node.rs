//! Per-sensor state machine.
//!
//! Each sensor keeps, per (object, level) internal-node role it currently
//! plays, a [`DlEntry`]: membership plus the routing state a distributed
//! node actually needs — the complete holder list of the level below
//! (*down members*, where deletes and query descents go) and the static
//! member list of its own level (*level members*, the repoint fan-out
//! targets after a splice). The invariant maintained by the protocol —
//! every trail level is the complete parent set of a single origin, meet
//! levels included (partial additions are rolled back) — keeps both lists
//! exact at all times.

use crate::arena::RouteArena;
use crate::message::{Message, Payload};
use mot_core::ObjectId;
use mot_hierarchy::Overlay;
use mot_net::{DistanceOracle, IdMap, NodeId};

/// One detection-list entry with its distributed routing state.
#[derive(Clone, Debug)]
pub struct DlEntry {
    /// Complete holder list of the trail level below (empty at level 0).
    pub down_members: Vec<NodeId>,
    /// Member list of this entry's own level (the creating origin's
    /// parent set) — repoint fan-out targets.
    pub level_members: Vec<NodeId>,
    /// Where this entry's SDL guard lives, if special parents are on.
    pub sp_host: Option<NodeId>,
}

/// Context shared by every handler invocation.
pub struct Ctx<'a> {
    /// The hierarchy the node machines climb.
    pub overlay: &'a Overlay,
    /// Distance backend used for cost accounting and proxy checks.
    pub oracle: &'a dyn DistanceOracle,
    /// Whether SDL guards (Definition 3) are installed and consulted.
    pub use_special_parents: bool,
}

impl Ctx<'_> {
    /// Mirror of the direct implementation's special-parent policy.
    fn sp_for(&self, origin: NodeId, level: usize, index: usize) -> Option<NodeId> {
        if !self.use_special_parents {
            return None;
        }
        if self.overlay.sp_level(level) == level {
            return None;
        }
        Some(self.overlay.sp_host(origin, level, index))
    }
}

/// The state of one sensor node.
#[derive(Clone, Debug, Default)]
pub struct NodeState {
    dl: IdMap<(ObjectId, u8), DlEntry>,
    sdl: IdMap<ObjectId, Vec<(u8, NodeId)>>,
}

impl NodeState {
    /// Whether this node holds `o` at role `level`.
    pub fn holds(&self, o: ObjectId, level: usize) -> bool {
        self.dl.contains_key(&(o, level as u8))
    }

    /// The lowest level at which this node holds `o`, if any.
    pub fn lowest_level(&self, o: ObjectId) -> Option<usize> {
        self.dl
            .keys()
            .filter(|(obj, _)| *obj == o)
            .map(|&(_, l)| l as usize)
            .min()
    }

    /// The canonical SDL entry for `o` (minimum (level, child) pair — the
    /// same canonical choice as the direct implementation).
    pub fn sdl_entry(&self, o: ObjectId) -> Option<(usize, NodeId)> {
        self.sdl
            .get(&o)
            .and_then(|v| v.iter().min())
            .map(|&(l, c)| (l as usize, c))
    }

    /// Number of DL + SDL entries stored here (the load metric).
    pub fn load(&self) -> usize {
        self.dl.len() + self.sdl.values().map(Vec::len).sum::<usize>()
    }

    /// Installs a DL entry directly (used by the runtime to seed the
    /// proxy's own level-0 entry).
    pub(crate) fn insert_entry(&mut self, o: ObjectId, level: usize, entry: DlEntry) {
        self.dl.insert((o, level as u8), entry);
    }

    /// Handles one incoming message at node `me`, appending the outgoing
    /// messages to `out`. Route buffers carried by the consumed payload
    /// are either forwarded in an outgoing message or retired into
    /// `arena` — never silently dropped — so a steady-state message loop
    /// allocates nothing.
    pub fn handle(
        &mut self,
        me: NodeId,
        msg: Payload,
        ctx: &Ctx<'_>,
        arena: &mut RouteArena,
        out: &mut Vec<Message>,
    ) {
        match msg {
            Payload::Climb {
                object,
                origin,
                level,
                index,
                prev_members,
                added,
                publish,
            } => self.on_climb(
                me,
                ctx,
                object,
                origin,
                level,
                index,
                prev_members,
                added,
                publish,
                arena,
                out,
            ),
            Payload::Repoint {
                object,
                level,
                new_down,
                mut targets_remaining,
            } => {
                if let Some(e) = self.dl.get_mut(&(object, level as u8)) {
                    e.down_members.clear();
                    e.down_members.extend_from_slice(&new_down);
                }
                if targets_remaining.is_empty() {
                    arena.recycle(new_down);
                    arena.recycle(targets_remaining);
                } else {
                    let next = targets_remaining.remove(0);
                    out.push(Message {
                        src: me,
                        dst: next,
                        payload: Payload::Repoint {
                            object,
                            level,
                            new_down,
                            targets_remaining,
                        },
                    });
                }
            }
            Payload::Delete {
                object,
                level,
                members_remaining,
                continue_down,
            } => self.on_delete(
                me,
                object,
                level,
                members_remaining,
                continue_down,
                arena,
                out,
            ),
            Payload::SpInstall {
                object,
                guarded_level,
                child,
            } => {
                self.sdl
                    .entry(object)
                    .or_default()
                    .push((guarded_level as u8, child));
            }
            Payload::SpRemove {
                object,
                guarded_level,
                child,
            } => {
                if let Some(v) = self.sdl.get_mut(&object) {
                    if let Some(pos) = v
                        .iter()
                        .position(|&(l, c)| l == guarded_level as u8 && c == child)
                    {
                        v.swap_remove(pos);
                    }
                    if v.is_empty() {
                        self.sdl.remove(&object);
                    }
                }
            }
            Payload::Query {
                object,
                origin,
                level,
                index,
            } => self.on_query(me, ctx, object, origin, level, index, out),
            Payload::Descend {
                object,
                origin,
                level,
            } => self.on_descend(me, ctx, object, origin, level, out),
            Payload::Reply { .. } => {} // intercepted by the runtime
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_climb(
        &mut self,
        me: NodeId,
        ctx: &Ctx<'_>,
        object: ObjectId,
        origin: NodeId,
        level: usize,
        index: usize,
        prev_members: Vec<NodeId>,
        mut added: Vec<NodeId>,
        publish: bool,
        arena: &mut RouteArena,
        out: &mut Vec<Message>,
    ) {
        let station = ctx.overlay.station(origin, level);
        debug_assert_eq!(station.get(index), Some(&me), "climb misrouted");
        let key = (object, level as u8);

        if !publish && self.dl.contains_key(&key) {
            // --- the meet: lowest ancestor already holding the object ---
            let fresh_down = arena.take_from(&prev_members);
            let entry = self.dl.get_mut(&key).expect("checked above");
            let mut old_down = std::mem::replace(&mut entry.down_members, fresh_down);
            let mut repoint_targets = arena.take();
            repoint_targets.extend(entry.level_members.iter().copied().filter(|&t| t != me));
            // Roll back this pass's partial additions at the meet level
            // (reverse walk, continue_down = false: the rolled-back
            // entries point at the *fresh* fragment, which must survive),
            // keeping the level a complete parent set.
            match added.pop() {
                Some(first_back) => {
                    added.reverse();
                    out.push(Message {
                        src: me,
                        dst: first_back,
                        payload: Payload::Delete {
                            object,
                            level,
                            members_remaining: added,
                            continue_down: false,
                        },
                    });
                }
                None => arena.recycle(added),
            }
            // Repoint co-holders' down lists to the fresh fragment.
            if repoint_targets.is_empty() {
                arena.recycle(repoint_targets);
                arena.recycle(prev_members);
            } else {
                let first = repoint_targets.remove(0);
                out.push(Message {
                    src: me,
                    dst: first,
                    payload: Payload::Repoint {
                        object,
                        level,
                        new_down: prev_members,
                        targets_remaining: repoint_targets,
                    },
                });
            }
            // Delete the stale trail below the meet.
            debug_assert!(!old_down.is_empty(), "meet below level 1 is filtered out");
            if old_down.is_empty() {
                arena.recycle(old_down);
            } else {
                let first = old_down.remove(0);
                out.push(Message {
                    src: me,
                    dst: first,
                    payload: Payload::Delete {
                        object,
                        level: level - 1,
                        members_remaining: old_down,
                        continue_down: true,
                    },
                });
            }
            return;
        }

        // --- fresh addition ------------------------------------------------
        let sp_host = ctx.sp_for(origin, level, index);
        let entry = DlEntry {
            down_members: arena.take_from(&prev_members),
            level_members: arena.take_from(station),
            sp_host,
        };
        self.dl.insert(key, entry);
        if let Some(host) = sp_host {
            out.push(Message {
                src: me,
                dst: host,
                payload: Payload::SpInstall {
                    object,
                    guarded_level: level,
                    child: me,
                },
            });
        }
        added.push(me);
        if index + 1 < station.len() {
            out.push(Message {
                src: me,
                dst: station[index + 1],
                payload: Payload::Climb {
                    object,
                    origin,
                    level,
                    index: index + 1,
                    prev_members,
                    added,
                    publish,
                },
            });
        } else if level < ctx.overlay.height() {
            let next_station = ctx.overlay.station(origin, level + 1);
            arena.recycle(prev_members);
            out.push(Message {
                src: me,
                dst: next_station[0],
                payload: Payload::Climb {
                    object,
                    origin,
                    level: level + 1,
                    index: 0,
                    prev_members: added,
                    added: arena.take(),
                    publish,
                },
            });
        } else {
            debug_assert!(publish, "an insert must meet at the root at the latest");
            arena.recycle(prev_members);
            arena.recycle(added);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_delete(
        &mut self,
        me: NodeId,
        object: ObjectId,
        level: usize,
        mut members_remaining: Vec<NodeId>,
        continue_down: bool,
        arena: &mut RouteArena,
        out: &mut Vec<Message>,
    ) {
        let removed = self.dl.remove(&(object, level as u8));
        debug_assert!(removed.is_some(), "delete routed to a non-holder");
        let mut down_members = Vec::new();
        if let Some(entry) = removed {
            if let Some(host) = entry.sp_host {
                out.push(Message {
                    src: me,
                    dst: host,
                    payload: Payload::SpRemove {
                        object,
                        guarded_level: level,
                        child: me,
                    },
                });
            }
            arena.recycle(entry.level_members);
            down_members = entry.down_members;
        }
        if !members_remaining.is_empty() {
            let next = members_remaining.remove(0);
            arena.recycle(down_members);
            out.push(Message {
                src: me,
                dst: next,
                payload: Payload::Delete {
                    object,
                    level,
                    members_remaining,
                    continue_down,
                },
            });
        } else if continue_down && level > 0 && !down_members.is_empty() {
            // Last member of this level: continue to the level below via
            // this entry's down members.
            arena.recycle(members_remaining);
            let first = down_members.remove(0);
            out.push(Message {
                src: me,
                dst: first,
                payload: Payload::Delete {
                    object,
                    level: level - 1,
                    members_remaining: down_members,
                    continue_down: true,
                },
            });
        } else {
            arena.recycle(members_remaining);
            arena.recycle(down_members);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_query(
        &mut self,
        me: NodeId,
        ctx: &Ctx<'_>,
        object: ObjectId,
        origin: NodeId,
        level: usize,
        index: usize,
        out: &mut Vec<Message>,
    ) {
        // A physical node knows every role's DL: probe all levels, lowest
        // first (matches the direct implementation).
        if let Some(lowest) = self.lowest_level(object) {
            return self.descend_step(me, ctx, object, origin, lowest, out);
        }
        if ctx.use_special_parents {
            if let Some((guarded_level, child)) = self.sdl_entry(object) {
                out.push(Message {
                    src: me,
                    dst: child,
                    payload: Payload::Descend {
                        object,
                        origin,
                        level: guarded_level,
                    },
                });
                return;
            }
        }
        // Continue climbing DPath(origin).
        let station = ctx.overlay.station(origin, level);
        if index + 1 < station.len() {
            out.push(Message {
                src: me,
                dst: station[index + 1],
                payload: Payload::Query {
                    object,
                    origin,
                    level,
                    index: index + 1,
                },
            });
        } else {
            debug_assert!(
                level < ctx.overlay.height(),
                "the root always resolves a published object"
            );
            let next_station = ctx.overlay.station(origin, level + 1);
            out.push(Message {
                src: me,
                dst: next_station[0],
                payload: Payload::Query {
                    object,
                    origin,
                    level: level + 1,
                    index: 0,
                },
            });
        }
    }

    fn on_descend(
        &mut self,
        me: NodeId,
        ctx: &Ctx<'_>,
        object: ObjectId,
        origin: NodeId,
        level: usize,
        out: &mut Vec<Message>,
    ) {
        debug_assert!(self.holds(object, level), "descend routed to a non-holder");
        self.descend_step(me, ctx, object, origin, level, out)
    }

    /// One step of the downward phase from a holder at `level`: reply if
    /// this is the proxy, otherwise forward to the nearest holder below.
    fn descend_step(
        &self,
        me: NodeId,
        ctx: &Ctx<'_>,
        object: ObjectId,
        origin: NodeId,
        level: usize,
        out: &mut Vec<Message>,
    ) {
        if level == 0 {
            out.push(Message {
                src: me,
                dst: origin,
                payload: Payload::Reply { object, proxy: me },
            });
            return;
        }
        let entry = &self.dl[&(object, level as u8)];
        let next = ctx
            .oracle
            .nearest_in(me, &entry.down_members)
            .expect("trail levels are never empty");
        out.push(Message {
            src: me,
            dst: next,
            payload: Payload::Descend {
                object,
                origin,
                level: level - 1,
            },
        });
    }
}
