//! Fixture: wire-tags violations (lines asserted by tests/fixtures.rs).
//! `TAG_PONG` is encoded but never matched in `decode`, `Ack` has no
//! constant at all, `OP_TAG_CLEAR` reuses `OP_TAG_SET`'s value, and
//! `OP_TAG_DROP` is never wired through `encode`.

pub const TAG_PING: u8 = 0;
pub const TAG_PONG: u8 = 1;

pub const OP_TAG_SET: u8 = 0;
pub const OP_TAG_CLEAR: u8 = 0;
pub const OP_TAG_DROP: u8 = 2;

pub enum Message {
    Ping,
    Pong,
    Ack,
}

pub enum CellOp {
    Set,
    Clear,
    Drop,
}

impl Message {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Ping => buf.push(TAG_PING),
            Message::Pong => buf.push(TAG_PONG),
            Message::Ack => buf.push(2),
        }
        buf.push(OP_TAG_SET);
        buf.push(OP_TAG_CLEAR);
    }

    pub fn decode(tag: u8) -> Option<Message> {
        match tag {
            TAG_PING => Some(Message::Ping),
            OP_TAG_SET | OP_TAG_CLEAR | OP_TAG_DROP => None,
            _ => None,
        }
    }
}
