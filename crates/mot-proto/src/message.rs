//! The wire protocol between sensor nodes.

use mot_core::ObjectId;
use mot_net::NodeId;

/// Message payloads. `Climb` doubles as the paper's `publish` and
/// `insert` detection messages (a publish is an insert that never meets);
/// `Delete` walks stale holders downward; `Repoint` refreshes the
/// down-member routing state of meet-level holders after a splice;
/// `SpInstall`/`SpRemove` maintain special detection lists; `Query` /
/// `Descend` / `Reply` implement lookups.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A detection message climbing `DPath(origin)`, currently visiting
    /// `station(origin, level)[index]`.
    Climb {
        /// The tracked object being inserted or published.
        object: ObjectId,
        /// The (new) proxy whose detection path this climb follows.
        origin: NodeId,
        /// Level currently being visited on the detection path.
        level: usize,
        /// Position within the level's station currently being visited.
        index: usize,
        /// Complete holder list of the level below (becomes each new
        /// entry's down-member routing state).
        prev_members: Vec<NodeId>,
        /// Members already holding the object at the current level from
        /// this pass.
        added: Vec<NodeId>,
        /// Publish climbs never stop at a meet; inserts do.
        publish: bool,
    },
    /// Refresh the down-members of co-holders at the meet level after a
    /// splice (bookkeeping fan-out; not charged, mirroring the analysis'
    /// treatment of special-parent probing).
    Repoint {
        /// The object whose holder chain is being refreshed.
        object: ObjectId,
        /// The meet level whose holders are repointed.
        level: usize,
        /// The fresh down-member list each target installs.
        new_down: Vec<NodeId>,
        /// Meet-level holders still awaiting the refresh.
        targets_remaining: Vec<NodeId>,
    },
    /// Remove the object from holders at `level`: walk
    /// `members_remaining`, then — for stale-trail deletes
    /// (`continue_down`) — proceed to the level below via the last
    /// member's down-members. Rollback deletes (undoing a meet level's
    /// partial additions) set `continue_down = false`: the entries they
    /// remove point at the *fresh* fragment, which must survive.
    Delete {
        /// The object whose stale entries are removed.
        object: ObjectId,
        /// Level the deletion currently walks.
        level: usize,
        /// Holders at this level still awaiting removal.
        members_remaining: Vec<NodeId>,
        /// Whether the walk proceeds to the level below afterwards.
        continue_down: bool,
    },
    /// Install an SDL entry at a special parent.
    SpInstall {
        /// The object the SDL entry tracks.
        object: ObjectId,
        /// The level this special parent guards.
        guarded_level: usize,
        /// The guarded child holding the object below.
        child: NodeId,
    },
    /// Remove an SDL entry from a special parent.
    SpRemove {
        /// The object the SDL entry tracked.
        object: ObjectId,
        /// The level the special parent guarded.
        guarded_level: usize,
        /// The formerly guarded child.
        child: NodeId,
    },
    /// A query climbing `DPath(origin)`.
    Query {
        /// The object being looked up.
        object: ObjectId,
        /// The querying sensor whose detection path the climb follows.
        origin: NodeId,
        /// Level currently being visited on the detection path.
        level: usize,
        /// Position within the level's station currently being visited.
        index: usize,
    },
    /// A located query descending the holder chain; the receiver holds
    /// the object at `level`.
    Descend {
        /// The object being looked up.
        object: ObjectId,
        /// The querying sensor awaiting the reply.
        origin: NodeId,
        /// The level at which the receiver holds the object.
        level: usize,
    },
    /// The proxy's answer heading back to the querier.
    Reply {
        /// The object that was looked up.
        object: ObjectId,
        /// The bottom-level proxy currently nearest the object.
        proxy: NodeId,
    },
}

impl Payload {
    /// Whether the message's travel distance counts toward the
    /// operation's reported cost (the paper's ratios exclude
    /// special-parent maintenance; `Repoint` is the same kind of
    /// bookkeeping; `Reply` is reported separately).
    pub fn charged(&self) -> bool {
        matches!(
            self,
            Payload::Climb { .. }
                | Payload::Delete { .. }
                | Payload::Query { .. }
                | Payload::Descend { .. }
        )
    }

    /// The object this message concerns (named in trace events).
    pub fn object(&self) -> ObjectId {
        match *self {
            Payload::Climb { object, .. }
            | Payload::Repoint { object, .. }
            | Payload::Delete { object, .. }
            | Payload::SpInstall { object, .. }
            | Payload::SpRemove { object, .. }
            | Payload::Query { object, .. }
            | Payload::Descend { object, .. }
            | Payload::Reply { object, .. } => object,
        }
    }

    /// The trace ledger this payload's travel distance is billed under:
    /// the charged kinds split into publish / maintenance / query, the
    /// uncharged ones (SP updates, repoints, replies) are bookkeeping.
    pub fn trace_ledger(&self) -> mot_core::LedgerKind {
        use mot_core::LedgerKind;
        match self {
            Payload::Climb { publish: true, .. } => LedgerKind::Publish,
            Payload::Climb { .. } | Payload::Delete { .. } => LedgerKind::Maintenance,
            Payload::Query { .. } | Payload::Descend { .. } => LedgerKind::Query,
            Payload::Repoint { .. }
            | Payload::SpInstall { .. }
            | Payload::SpRemove { .. }
            | Payload::Reply { .. } => LedgerKind::Bookkeeping,
        }
    }

    /// The hierarchy level a trace event for this message is tagged with
    /// (the level being visited / guarded; 0 for replies, which carry no
    /// level of their own).
    pub fn trace_level(&self) -> usize {
        match *self {
            Payload::Climb { level, .. }
            | Payload::Repoint { level, .. }
            | Payload::Delete { level, .. }
            | Payload::Query { level, .. }
            | Payload::Descend { level, .. } => level,
            Payload::SpInstall { guarded_level, .. } | Payload::SpRemove { guarded_level, .. } => {
                guarded_level
            }
            Payload::Reply { .. } => 0,
        }
    }

    /// Short kind label for ledgers and debugging.
    pub fn kind(&self) -> &'static str {
        KIND_LABELS[self.kind_index()]
    }

    /// Dense index of this payload's ledger kind into [`KIND_LABELS`].
    /// Lets the transport ledger bill into a flat array instead of
    /// hashing a label per delivery.
    pub fn kind_index(&self) -> usize {
        match self {
            Payload::Climb { publish: true, .. } => 0,
            Payload::Climb { .. } => 1,
            Payload::Repoint { .. } => 2,
            Payload::Delete { .. } => 3,
            Payload::SpInstall { .. } => 4,
            Payload::SpRemove { .. } => 5,
            Payload::Query { .. } => 6,
            Payload::Descend { .. } => 7,
            Payload::Reply { .. } => 8,
        }
    }
}

/// Number of ledger-kind accounts: the nine payload kinds of
/// [`Payload::kind_index`].
pub const KIND_COUNT: usize = 9;

/// Ledger labels, indexed by [`Payload::kind_index`].
pub const KIND_LABELS: [&str; KIND_COUNT] = [
    "publish",
    "insert",
    "repoint",
    "delete",
    "sp_install",
    "sp_remove",
    "query",
    "descend",
    "reply",
];

/// A message in flight between two sensors (routed along a shortest
/// physical path; its cost is the shortest-path distance).
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sending sensor.
    pub src: NodeId,
    /// Receiving sensor.
    pub dst: NodeId,
    /// Protocol payload carried.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_policy_matches_the_analysis() {
        let climb = Payload::Climb {
            object: ObjectId(0),
            origin: NodeId(0),
            level: 1,
            index: 0,
            prev_members: vec![],
            added: vec![],
            publish: false,
        };
        assert!(climb.charged());
        assert_eq!(climb.kind(), "insert");
        let sp = Payload::SpInstall {
            object: ObjectId(0),
            guarded_level: 1,
            child: NodeId(2),
        };
        assert!(!sp.charged());
        let rp = Payload::Repoint {
            object: ObjectId(0),
            level: 1,
            new_down: vec![],
            targets_remaining: vec![],
        };
        assert!(!rp.charged());
        let reply = Payload::Reply {
            object: ObjectId(0),
            proxy: NodeId(1),
        };
        assert!(!reply.charged());
        assert_eq!(reply.kind(), "reply");
    }
}
