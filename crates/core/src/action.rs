//! Action types.
//!
//! §3 of the paper: "Every switch to be operated on has its action type,
//! which is decided by its switch type R_s and the operation type (drain or
//! undrain)." Operation blocks can merge neighboring symmetry blocks of
//! different switch roles (Figure 5 merges FADU and FAUU blocks into one
//! grid block), so the action type here is keyed by the *block class* — the
//! layer-level unit being operated — its hardware generation, and the
//! operation. Two consecutive actions with the same type can be executed by
//! operators in parallel at negligible extra cost; a type change costs one
//! serial phase (Eq. 1).

use klotski_topology::Generation;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Drain (take out of service) or undrain (bring into service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpType {
    /// Remove traffic from the block, then take it out of service.
    Drain,
    /// Bring the block into service and let it attract traffic.
    Undrain,
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpType::Drain => "drain",
            OpType::Undrain => "undrain",
        })
    }
}

/// What kind of unit an operation block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BlockClass {
    /// An HGRID grid (FADUs + FAUUs operated together, Figure 5).
    FaGrid,
    /// A group of spine switches on one plane (SSW forklift, §5).
    Ssw,
    /// A group of MA switches homed under one EB (DMAG, §5).
    Ma,
    /// A bundle of direct FAUU–EB circuits grouped by EB (DMAG drains, §5).
    DirectCircuit,
}

impl fmt::Display for BlockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockClass::FaGrid => "fa-grid",
            BlockClass::Ssw => "ssw",
            BlockClass::Ma => "ma",
            BlockClass::DirectCircuit => "direct-ckt",
        })
    }
}

/// An action type: (block class, generation, operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActionKind {
    pub class: BlockClass,
    pub generation: Generation,
    pub op: OpType,
}

impl ActionKind {
    /// Shorthand constructor.
    pub fn new(class: BlockClass, generation: Generation, op: OpType) -> Self {
        Self {
            class,
            generation,
            op,
        }
    }
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}-{}", self.op, self.class, self.generation)
    }
}

/// Dense index of an action type within one migration's [`ActionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ActionTypeId(pub u8);

impl ActionTypeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActionTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The set `A` of action types of one migration, with stable dense ids.
///
/// Drain types are registered before undrain types so that id order matches
/// the natural narrative of a plan; nothing in the planners depends on it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionTable {
    kinds: Vec<ActionKind>,
}

impl ActionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a kind, returning its id (existing or fresh).
    pub fn intern(&mut self, kind: ActionKind) -> ActionTypeId {
        if let Some(pos) = self.kinds.iter().position(|k| *k == kind) {
            return ActionTypeId(pos as u8);
        }
        assert!(
            self.kinds.len() < u8::MAX as usize,
            "more than {} action types",
            u8::MAX
        );
        self.kinds.push(kind);
        ActionTypeId((self.kinds.len() - 1) as u8)
    }

    /// Looks up an id's kind.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn kind(&self, id: ActionTypeId) -> ActionKind {
        self.kinds[id.index()]
    }

    /// Number of action types `|A|`.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// All ids in dense order.
    pub fn ids(&self) -> impl Iterator<Item = ActionTypeId> {
        (0..self.kinds.len() as u8).map(ActionTypeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(op: OpType) -> ActionKind {
        ActionKind::new(BlockClass::FaGrid, Generation::V1, op)
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = ActionTable::new();
        let a = t.intern(kind(OpType::Drain));
        let b = t.intern(kind(OpType::Drain));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        let c = t.intern(kind(OpType::Undrain));
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn kind_roundtrips() {
        let mut t = ActionTable::new();
        let k = ActionKind::new(BlockClass::Ma, Generation::V2, OpType::Undrain);
        let id = t.intern(k);
        assert_eq!(t.kind(id), k);
    }

    #[test]
    fn ids_enumerate_in_order() {
        let mut t = ActionTable::new();
        t.intern(kind(OpType::Drain));
        t.intern(kind(OpType::Undrain));
        let ids: Vec<ActionTypeId> = t.ids().collect();
        assert_eq!(ids, vec![ActionTypeId(0), ActionTypeId(1)]);
    }

    #[test]
    fn kinds_with_different_generation_are_distinct() {
        let mut t = ActionTable::new();
        let v1 = t.intern(ActionKind::new(
            BlockClass::Ssw,
            Generation::V1,
            OpType::Drain,
        ));
        let v2 = t.intern(ActionKind::new(
            BlockClass::Ssw,
            Generation::V2,
            OpType::Drain,
        ));
        assert_ne!(v1, v2);
    }

    #[test]
    fn display_is_readable() {
        let k = ActionKind::new(BlockClass::FaGrid, Generation::V1, OpType::Drain);
        assert_eq!(k.to_string(), "drain-fa-grid-v1");
        assert_eq!(ActionTypeId(3).to_string(), "a3");
    }
}
