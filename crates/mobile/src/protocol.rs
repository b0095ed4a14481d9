//! The operator move protocol.
//!
//! [`MoveProtocol`] turns a relocation decision into the concrete wire
//! payload a move must ship — operator state, plus a code package on the
//! first visit of a mobile-object host — while enforcing the paper's
//! **light-move requirement**: "relocation of operators must be done only
//! when the size of their state is small", i.e. at a light point, with no
//! held output and no gathered inputs.

use wadc_plan::ids::{HostId, OperatorId};

use crate::registry::CodeRegistry;
use crate::state::OperatorState;

/// Why a move request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveError {
    /// Source and destination are the same host.
    SameHost,
    /// The operator is not at a light point: it holds an undelivered
    /// output.
    HoldingOutput,
    /// The operator is not at a light point: it has gathered (partial)
    /// inputs for an iteration in progress.
    GatherInProgress,
}

impl std::fmt::Display for MoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveError::SameHost => write!(f, "move to the operator's current host"),
            MoveError::HoldingOutput => {
                write!(
                    f,
                    "light-move violation: operator holds an undelivered output"
                )
            }
            MoveError::GatherInProgress => {
                write!(
                    f,
                    "light-move violation: operator has gathered inputs in flight"
                )
            }
        }
    }
}

impl std::error::Error for MoveError {}

/// A snapshot of the operator's runtime condition, presented by the
/// engine when requesting a move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LightPointWitness {
    /// Whether the operator currently holds an output awaiting demand.
    pub holds_output: bool,
    /// Whether any inputs for the current gather have already arrived.
    pub has_gathered_inputs: bool,
}

impl LightPointWitness {
    /// A clean light point.
    pub fn clean() -> Self {
        LightPointWitness {
            holds_output: false,
            has_gathered_inputs: false,
        }
    }
}

/// A priced, validated move: what must travel and how big it is.
#[derive(Debug, Clone, PartialEq)]
pub struct MovePlan {
    /// The operator being moved.
    pub op: OperatorId,
    /// The old host.
    pub from: HostId,
    /// The new host.
    pub to: HostId,
    /// Encoded operator state (framed and checksummed).
    pub state_packet: Vec<u8>,
    /// Code-package bytes that must accompany the state (0 when the
    /// destination already holds the code).
    pub code_bytes: u64,
}

impl MovePlan {
    /// Total payload bytes the move puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.state_packet.len() as u64 + self.code_bytes
    }
}

/// Plans operator moves against a [`CodeRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveProtocol {
    registry: CodeRegistry,
}

impl MoveProtocol {
    /// Creates a protocol over the given registry.
    pub fn new(registry: CodeRegistry) -> Self {
        MoveProtocol { registry }
    }

    /// The registry (e.g. to pre-install code at chosen hosts).
    pub fn registry(&self) -> &CodeRegistry {
        &self.registry
    }

    /// Validates and prices a move of `state.op` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns a [`MoveError`] when `from == to` or the witness shows the
    /// operator is not at a light point.
    pub fn plan_move(
        &self,
        state: &OperatorState,
        from: HostId,
        to: HostId,
        witness: LightPointWitness,
    ) -> Result<MovePlan, MoveError> {
        if from == to {
            return Err(MoveError::SameHost);
        }
        if witness.holds_output {
            return Err(MoveError::HoldingOutput);
        }
        if witness.has_gathered_inputs {
            return Err(MoveError::GatherInProgress);
        }
        Ok(MovePlan {
            op: state.op,
            from,
            to,
            state_packet: state.encode(),
            code_bytes: self.registry.code_bytes_for_move(to),
        })
    }

    /// Plans the **respawn** of an orphaned operator: its resident host
    /// died, so a fresh state snapshot — reconstructed from the origin
    /// images rather than received from the (unreachable) old host — is
    /// shipped to a surviving host.
    ///
    /// Unlike [`MoveProtocol::plan_move`] there is no light-point
    /// witness (a dead host cannot testify; the reconstructed state *is*
    /// a light point by construction) and `origin == to` is allowed: the
    /// respawn may land on the very host that rebuilds the state.
    pub fn plan_respawn(&self, state: &OperatorState, origin: HostId, to: HostId) -> MovePlan {
        MovePlan {
            op: state.op,
            from: origin,
            to,
            state_packet: state.encode(),
            code_bytes: self.registry.code_bytes_for_move(to),
        }
    }

    /// Completes a move at the destination: decodes the state and records
    /// the code installation.
    ///
    /// # Errors
    ///
    /// Returns the decode error for a corrupted state packet.
    pub fn complete_move(
        &mut self,
        plan: &MovePlan,
    ) -> Result<OperatorState, crate::state::DecodeError> {
        let state = OperatorState::decode(&plan.state_packet)?;
        self.registry.install(plan.to);
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MobilityMode;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn proto(mode: MobilityMode) -> MoveProtocol {
        MoveProtocol::new(CodeRegistry::new(mode, 30_000))
    }

    fn state() -> OperatorState {
        OperatorState {
            op: OperatorId::new(2),
            last_dispatched: 9,
            later_marks: 1,
            dispatches_this_epoch: 4,
            consumer_on_cp: true,
            on_cp: true,
        }
    }

    #[test]
    fn clean_move_round_trips_state() {
        let mut p = proto(MobilityMode::PreInstalled);
        let plan = p
            .plan_move(&state(), h(0), h(1), LightPointWitness::clean())
            .unwrap();
        assert_eq!(plan.code_bytes, 0);
        assert_eq!(plan.wire_bytes(), crate::state::ENCODED_LEN as u64);
        let restored = p.complete_move(&plan).unwrap();
        assert_eq!(restored, state());
    }

    #[test]
    fn mobile_objects_pay_code_on_first_visit_only() {
        let mut p = proto(MobilityMode::MobileObjects);
        let first = p
            .plan_move(&state(), h(0), h(1), LightPointWitness::clean())
            .unwrap();
        assert_eq!(first.code_bytes, 30_000);
        p.complete_move(&first).unwrap();
        let second = p
            .plan_move(&state(), h(2), h(1), LightPointWitness::clean())
            .unwrap();
        assert_eq!(second.code_bytes, 0, "code cached after first visit");
    }

    #[test]
    fn light_move_violations_are_refused() {
        let p = proto(MobilityMode::PreInstalled);
        assert_eq!(
            p.plan_move(&state(), h(0), h(0), LightPointWitness::clean()),
            Err(MoveError::SameHost)
        );
        assert_eq!(
            p.plan_move(
                &state(),
                h(0),
                h(1),
                LightPointWitness {
                    holds_output: true,
                    has_gathered_inputs: false
                }
            ),
            Err(MoveError::HoldingOutput)
        );
        assert_eq!(
            p.plan_move(
                &state(),
                h(0),
                h(1),
                LightPointWitness {
                    holds_output: false,
                    has_gathered_inputs: true
                }
            ),
            Err(MoveError::GatherInProgress)
        );
    }

    #[test]
    fn respawn_needs_no_witness_and_allows_same_host() {
        let mut p = proto(MobilityMode::MobileObjects);
        // plan_move would refuse from == to; a respawn may land exactly
        // where its state was rebuilt.
        let plan = p.plan_respawn(&state(), h(3), h(3));
        assert_eq!(plan.from, h(3));
        assert_eq!(plan.to, h(3));
        assert_eq!(plan.code_bytes, 30_000, "first visit still ships code");
        let restored = p.complete_move(&plan).unwrap();
        assert_eq!(restored, state());
        // Second respawn to the installed host is code-free.
        assert_eq!(p.plan_respawn(&state(), h(0), h(3)).code_bytes, 0);
    }

    #[test]
    fn corrupted_plan_is_rejected_at_completion() {
        let mut p = proto(MobilityMode::PreInstalled);
        let mut plan = p
            .plan_move(&state(), h(0), h(1), LightPointWitness::clean())
            .unwrap();
        plan.state_packet[6] ^= 0xFF;
        assert!(p.complete_move(&plan).is_err());
    }
}
