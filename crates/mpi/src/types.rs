//! Shared MPI-level types and constants.

/// The `MPI_COMM_WORLD` context id. User point-to-point traffic lives
/// here.
pub const CTX_WORLD: u16 = 1;

/// Context reserved for internal traffic (barriers and other collectives)
/// so it can never match user receives — the "system-assigned message tag
/// provides a safe message passing context" property from §II.
pub const CTX_INTERNAL: u16 = 0;

/// Wildcard source marker for the convenience APIs (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<u16> = None;

/// Wildcard tag marker (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<u16> = None;

/// Basic MPI datatypes (the prototype supports "only basic MPI
/// Datatypes", §V-C). Lengths in bytes multiply the element count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Datatype {
    /// `MPI_BYTE`.
    Byte,
    /// `MPI_INT` (4 bytes).
    Int,
    /// `MPI_DOUBLE` (8 bytes).
    Double,
}

impl Datatype {
    /// Size in bytes of one element.
    pub fn size(self) -> u32 {
        match self {
            Datatype::Byte => 1,
            Datatype::Int => 4,
            Datatype::Double => 8,
        }
    }

    /// Buffer length for `count` elements.
    pub fn extent(self, count: u32) -> u32 {
        self.size() * count
    }
}

/// Typed MPI-level errors, after the User-Level Failure Mitigation (ULFM)
/// model: a failure surfaces as an error on the operations it dooms, not
/// as a hang or an aborted job. The subset the simulated cluster can
/// produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpiError {
    /// The operation's peer rank was declared dead (crash-stop node or a
    /// link past its retry budget) before the operation could complete —
    /// ULFM's `MPI_ERR_PROC_FAILED`. The request *is* complete: waits
    /// return, and the program decides how to go on around the hole.
    RankFailed {
        /// The dead peer rank.
        rank: u16,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RankFailed { rank } => write!(f, "peer rank {rank} failed"),
        }
    }
}

/// Completion status of a receive — the useful subset of `MPI_Status`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MpiStatus {
    /// Actual source rank (wildcards resolved).
    pub source: u16,
    /// Actual tag.
    pub tag: u16,
    /// Bytes delivered.
    pub len: u32,
    /// The request was cancelled (`MPI_Cancel`) rather than matched.
    pub cancelled: bool,
    /// The matched message lost its eager payload to receiver buffer-pool
    /// exhaustion (`MPI_ERR_TRUNCATE`-like): the envelope is intact, `len`
    /// is what actually arrived. Never set when overload protection is
    /// unconfigured.
    pub overflow: bool,
    /// Typed failure, if the operation ended in one instead of a match
    /// (`MPI_ERROR` field). `None` on every success path, so status
    /// checks written before fault domains existed keep their meaning.
    pub error: Option<MpiError>,
}

impl MpiStatus {
    /// Did the operation end in a typed rank failure?
    pub fn rank_failed(&self) -> bool {
        matches!(self.error, Some(MpiError::RankFailed { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_extents() {
        assert_eq!(Datatype::Byte.extent(10), 10);
        assert_eq!(Datatype::Int.extent(10), 40);
        assert_eq!(Datatype::Double.extent(3), 24);
    }

    #[test]
    fn contexts_are_distinct() {
        assert_ne!(CTX_WORLD, CTX_INTERNAL);
    }

    /// `mpiq_nic::coll` duplicates the internal-context constant because
    /// it cannot depend on this crate; pin the two together.
    #[test]
    fn coll_ctx_matches_ctx_internal() {
        assert_eq!(mpiq_nic::coll::COLL_CTX, CTX_INTERNAL);
    }
}
