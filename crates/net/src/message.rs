//! Wire messages: headers and payloads.

use bytes::Bytes;

/// Physical node identifier (one NIC + host per node).
pub type NodeId = u32;

/// Protocol-level message kinds for the MPI transport.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Self-contained message: header + full payload (short messages).
    Eager,
    /// Rendezvous request: header only; payload stays at the sender until
    /// the receiver matches and replies.
    RndvRequest,
    /// Receiver's clear-to-send for a rendezvous. `token` echoes the
    /// request's `seq` so the sender can find the parked send.
    RndvReply {
        /// The `seq` of the original request being acknowledged.
        token: u64,
    },
    /// The bulk data of a rendezvous transfer. `token` echoes the request
    /// `seq` so the receiver can find the matched receive.
    RndvData {
        /// The `seq` of the original request.
        token: u64,
    },
    /// Link-level cumulative acknowledgement: every frame from the sending
    /// node with link sequence `<= cum` has been accepted. Carries no MPI
    /// envelope content and never enters the matching path.
    Ack {
        /// Highest link sequence accepted in order.
        cum: u64,
    },
    /// Link-level negative acknowledgement: the receiver saw a gap and is
    /// waiting for link sequence `expect`. Asks the peer to go back and
    /// retransmit from there.
    Nack {
        /// The link sequence the receiver needs next.
        expect: u64,
    },
}

impl MsgKind {
    /// True for link-layer control frames (ACK/NACK), which are consumed
    /// by the reliability layer and never reach MPI matching.
    pub fn is_link_control(&self) -> bool {
        matches!(self, MsgKind::Ack { .. } | MsgKind::Nack { .. })
    }
}

/// Link-layer state stamped on each wire message by the sending NIC's
/// reliability layer (when enabled) and mutated by fabric fault injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkState {
    /// Per-(src,dst) link sequence number, assigned at transmit time.
    /// `0` means unsequenced: reliability disabled, or a control frame.
    pub seq: u64,
    /// Whether the frame's CRC checked out at the receiver. Fault
    /// injection clears this to model in-flight corruption; receivers must
    /// discard frames with `crc_ok == false`.
    pub crc_ok: bool,
    /// Eager flow-control credits granted to the *receiving* NIC of this
    /// frame (credits flow opposite to the eager data they authorize).
    /// Piggybacked on ACK frames by the reliability layer; `0` everywhere
    /// when credit flow control is unconfigured.
    pub credit: u32,
    /// The sending node's incarnation epoch, stamped by the reliability
    /// layer. `0` from boot; bumped each time the node restarts after a
    /// crash. Receivers fence go-back-N state keyed to an older epoch and
    /// drop frames *from* an older epoch — the reincarnation guard.
    pub incarnation: u32,
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            seq: 0,
            crc_ok: true,
            credit: 0,
            incarnation: 0,
        }
    }
}

/// The MPI envelope carried by every message. The matching-relevant
/// triplet is {`context`, `src_rank`, `tag`}; the rest is addressing and
/// protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgHeader {
    /// Sending node.
    pub src_node: NodeId,
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination process's global rank (multi-process-per-node support:
    /// the receiving NIC derives the local process id from it).
    pub dst_rank: u32,
    /// Communicator context id.
    pub context: u16,
    /// Sender's rank within the communicator.
    pub src_rank: u16,
    /// User tag.
    pub tag: u16,
    /// Payload bytes carried (for `Eager`/`RndvData`) or advertised
    /// (for `RndvRequest`).
    pub payload_len: u32,
    /// Protocol kind.
    pub kind: MsgKind,
    /// Sender-local sequence number; unique per source node.
    pub seq: u64,
}

/// A message on the wire: envelope plus (possibly empty) payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// The envelope.
    pub header: MsgHeader,
    /// Payload contents. Cheap to clone (refcounted).
    pub payload: Bytes,
    /// Link-layer state (sequence number + CRC verdict).
    pub link: LinkState,
}

impl Message {
    /// Build a message with pristine link state (unsequenced, CRC good).
    pub fn new(header: MsgHeader, payload: Bytes) -> Message {
        Message {
            header,
            payload,
            link: LinkState::default(),
        }
    }

    /// Total bytes on the wire: a fixed header size plus the payload.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES + self.payload.len() as u64
    }

    /// Modeled header size on the wire.
    pub const HEADER_BYTES: u64 = 32;

    /// Build a deterministic test payload of `len` bytes.
    pub fn test_payload(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect::<Vec<u8>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_includes_header() {
        let m = Message::new(
            MsgHeader {
                src_node: 0,
                dst_node: 1,
                dst_rank: 1,
                context: 0,
                src_rank: 0,
                tag: 0,
                payload_len: 100,
                kind: MsgKind::Eager,
                seq: 0,
            },
            Message::test_payload(100, 7),
        );
        assert_eq!(m.wire_bytes(), 132);
        assert_eq!(m.link, LinkState::default());
        assert!(m.link.crc_ok);
    }

    #[test]
    fn link_control_kinds() {
        assert!(MsgKind::Ack { cum: 3 }.is_link_control());
        assert!(MsgKind::Nack { expect: 1 }.is_link_control());
        assert!(!MsgKind::Eager.is_link_control());
        assert!(!MsgKind::RndvData { token: 0 }.is_link_control());
    }

    #[test]
    fn test_payload_is_deterministic() {
        assert_eq!(Message::test_payload(64, 3), Message::test_payload(64, 3));
        assert_ne!(Message::test_payload(64, 3), Message::test_payload(64, 4));
    }
}
