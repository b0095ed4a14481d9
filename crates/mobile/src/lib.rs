//! # wadc-mobile — the operator-mobility substrate
//!
//! The paper's infrastructure requirement (1): "the placement algorithm
//! should be able to specify the location of combination operations and
//! to move operators during computation", provided in 1998 by mobile
//! object systems (Sumatra, Aglets, Mole, Telescript) or — "for
//! frequently used servers" — by pre-installing code everywhere and
//! shipping only control messages. A simulated move needs only its size,
//! so this crate prices one:
//!
//! - [`STATE_PACKET_BYTES`] — the framed state every move ships,
//! - [`registry::CodeRegistry`] — the code package a move must carry
//!   too, under either [`registry::MobilityMode`].
//!
//! The engine consumes this through
//! [`wadc_core::engine::EngineConfig`]'s mobility settings and enforces
//! the light-move requirement itself; the `ablations` bench quantifies
//! the substrate choice.
//!
//! [`wadc_core::engine::EngineConfig`]: ../wadc_core/engine/struct.EngineConfig.html
//!
//! # Examples
//!
//! ```
//! use wadc_mobile::registry::{CodeRegistry, MobilityMode};
//! use wadc_mobile::STATE_PACKET_BYTES;
//! use wadc_plan::ids::HostId;
//!
//! let mut code = CodeRegistry::new(MobilityMode::MobileObjects, 24_000);
//! let to = HostId::new(1);
//! // A first visit ships the state and the code package ...
//! assert_eq!(STATE_PACKET_BYTES + code.code_bytes_for_move(to), 24_034);
//! code.install(to);
//! // ... and a later one the state alone.
//! assert_eq!(STATE_PACKET_BYTES + code.code_bytes_for_move(to), 34);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;

pub use registry::{CodeRegistry, MobilityMode};

/// Wire bytes of the framed state a moving operator ships, on top of the
/// application's own state and any code package. The frame is a 4-byte
/// magic and a version byte; then the 8-byte operator id, three 4-byte
/// counters (the last dispatched iteration, and the local algorithm's
/// later-producer marks and dispatches this epoch) and one byte of its
/// critical-path flags; then an 8-byte checksum.
pub const STATE_PACKET_BYTES: u64 = 4 + 1 + 8 + 3 * 4 + 1 + 8;
