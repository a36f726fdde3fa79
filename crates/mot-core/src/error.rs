//! Error type for tracking operations.

use crate::object::ObjectId;
use mot_net::NodeId;
use std::fmt;

/// Errors raised by tracking structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// `move_object`/`query` on an object that was never published.
    UnknownObject(ObjectId),
    /// `publish` called twice for the same object (the paper applies
    /// publish exactly once per object).
    AlreadyPublished(ObjectId),
    /// A node id outside the network was used.
    UnknownNode(NodeId),
    /// The operation hit tracking state lost to a crashed (or
    /// rebooted-with-amnesia) sensor. A read-only `query` surfaces this
    /// so a caller with mutable access can run
    /// [`crate::Tracker::repair_object`] and retry; mutating operations
    /// self-repair instead of returning it.
    NodeDown(NodeId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownObject(o) => write!(f, "object {o} was never published"),
            CoreError::AlreadyPublished(o) => write!(f, "object {o} published twice"),
            CoreError::UnknownNode(u) => write!(f, "node {u} is not part of the network"),
            CoreError::NodeDown(u) => {
                write!(f, "node {u} crashed and lost its tracking state")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_culprit() {
        assert!(CoreError::UnknownObject(ObjectId(3))
            .to_string()
            .contains('3'));
        assert!(CoreError::AlreadyPublished(ObjectId(9))
            .to_string()
            .contains('9'));
        assert!(CoreError::UnknownNode(NodeId(5)).to_string().contains('5'));
        assert!(CoreError::NodeDown(NodeId(4)).to_string().contains('4'));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<CoreError>();
    }
}
