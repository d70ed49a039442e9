//! The integer/branch operations each firmware step charges the embedded
//! core ([`Run::int`](mpiq_cpusim::Run::int)), one constant per step. The
//! loads, stores and bus transactions a step also makes carry addresses,
//! so its call site charges them. A queue walk's chained load plus
//! [`ENTRY_COMPARE`] is ≈15 ns/entry in L1 and ≈64 ns spilled (DESIGN.md §3).

// Network receive path.

/// Poll the Rx ring and pick up an arrived header (two header-line loads).
pub const RX_PICKUP: u32 = 10;
/// Reclaim a tombstone the posted ALPU matched (one entry load).
pub const GHOST_RECLAIM: u32 = 12;
/// Hash a header's match triplet before walking its bins.
pub const HASH_PROBE: u32 = 10;
/// Compare one queue entry against a probe, after its chained load.
pub const ENTRY_COMPARE: u32 = 12;
/// Read and unlink the posted receive a header matched (entry load, store).
pub const POSTED_UNLINK: u32 = 8;
/// Find an unlinked receive's link in its hash bin (up to eight bin loads).
pub const BIN_UNLINK: u32 = 10;
/// Append an unmatched arrival to the unexpected queue (two stores).
pub const STAGE: u32 = 10;
/// Finish an eager message matched on arrival.
pub const DELIVER_EAGER: u32 = 10;
/// Answer a rendezvous request matched on arrival with a clear-to-send.
pub const DELIVER_RNDV: u32 = 14;
/// Start the search of parked sends for a clear-to-send's token.
pub const PARK_SCAN: u32 = 8;
/// Compare one parked send, after its chained load.
pub const PARK_COMPARE: u32 = 6;
/// Ship a parked send's data once its clear-to-send arrived.
pub const RNDV_SHIP: u32 = 10;
/// Look up the matched receive that arriving rendezvous data belongs to.
pub const RNDV_DATA_LOOKUP: u32 = 12;
/// Complete the receive the rendezvous data landed in.
pub const RNDV_DATA_COMPLETE: u32 = 6;

// Host request path.

/// Pick a host request out of its mailbox slot (one slot load).
pub const MAILBOX: u32 = 8;
/// Accept or decline a collective offload.
pub const COLL_DISPATCH: u32 = 12;
/// Inject one offloaded collective step's frame (one doorbell write).
pub const COLL_SEND: u32 = 6;
/// Dispatch a send request.
pub const SEND_DISPATCH: u32 = 12;
/// Start an eager send (one doorbell write).
pub const EAGER_SEND: u32 = 6;
/// Park a rendezvous send until its clear-to-send (one record store).
pub const RNDV_PARK: u32 = 8;
/// Take a matched message off the unexpected queue, releasing its staged
/// bytes and returning its sender's credit (entry load, store).
pub const CONSUME: u32 = 10;
/// Append a receive to the posted queue (two stores).
pub const POST_RECV: u32 = 10;
/// Hash a new receive and link it into its bin (bin load, two stores).
pub const HASH_INSERT: u32 = 24;
/// Start an `MPI_Iprobe` walk of the unexpected queue.
pub const PROBE: u32 = 8;
/// Start a cancel's search of the posted queue.
pub const CANCEL_SCAN: u32 = 8;
/// Compare one posted receive against a cancel, after its chained load.
pub const CANCEL_COMPARE: u32 = 10;
/// Retire a cancelled receive (one store).
pub const CANCEL_COMPLETE: u32 = 6;

// ALPU management (§IV).

/// Decode a match response after its four local-bus reads.
pub const RESPONSE_DECODE: u32 = 4;
/// Decode the status word that shows a unit went offline (one bus read).
pub const STATUS_DECODE: u32 = 4;
/// Push a command (RESET, START INSERT) to a unit (one bus write).
pub const ALPU_COMMAND: u32 = 6;
/// Put off an insert session behind an in-flight probe.
pub const SESSION_DEFER: u32 = 4;
/// Insert one queue entry (entry load, two bus writes).
pub const INSERT_ENTRY: u32 = 4;
/// Drop the posted queue's tombstones after a RESET (a store each).
pub const PURGE_SWEEP: u32 = 8;
/// Return a quarantined unit to service (one bus write).
pub const REENGAGE: u32 = 8;
