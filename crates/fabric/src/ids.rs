//! Small, copyable identifier types used across the workspace.
//!
//! Keeping these as newtypes (rather than bare integers) prevents the classic
//! bug of indexing a sender table with a flow id; keeping them `u32`/`u64`
//! keeps hot scheduler maps compact (see the type-size guidance in the Rust
//! perf book).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A machine (equivalently: one ingress + one egress port on the big switch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A single network flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// A coflow: the set of flows belonging to one computation stage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoflowId(pub u64);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Debug for CoflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CoflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u64> for FlowId {
    fn from(v: u64) -> Self {
        FlowId(v)
    }
}

impl From<u64> for CoflowId {
    fn from(v: u64) -> Self {
        CoflowId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(FlowId(1));
        set.insert(FlowId(1));
        set.insert(FlowId(2));
        assert_eq!(set.len(), 2);
        assert!(FlowId(1) < FlowId(2));
        assert!(CoflowId(3) > CoflowId(2));
    }

    #[test]
    fn node_index_roundtrip() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId::from(9u32), NodeId(9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", FlowId(4)), "f4");
        assert_eq!(format!("{:?}", CoflowId(5)), "c5");
    }

    #[test]
    fn ids_serde_roundtrip() {
        // The transparent-newtype JSON encoding is the subject; the offline
        // stub serializer renders everything as `{}`, so the property only
        // exists under a real toolchain.
        swallow_metrics::skip_if_stub!();
        let f = FlowId(42);
        let s = serde_json::to_string(&f).unwrap();
        assert_eq!(s, "42");
        let back: FlowId = serde_json::from_str(&s).unwrap();
        assert_eq!(back, f);
    }
}
