//! The operator code registry.
//!
//! The paper offers two mobility substrates: full mobile-object systems
//! (Sumatra, Aglets, Mole, Telescript), which ship code with state, and —
//! "for frequently used servers" — pre-installing "all the code at all
//! servers and using control messages to transfer operators between
//! hosts". The [`CodeRegistry`] tracks which hosts hold the combination
//! operator's code so a move can be priced: a state-only control message
//! when the code is already present, code + state otherwise.

use wadc_plan::ids::HostId;

/// Which mobility substrate a deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MobilityMode {
    /// Code pre-installed at every participating host; moves ship only
    /// the operator's (small) state. The paper's recommendation for
    /// frequently used servers, and this crate's default.
    #[default]
    PreInstalled,
    /// Mobile objects: the first visit to a host must ship the code
    /// package too; later visits find it cached.
    MobileObjects,
}

/// Tracks code presence per host.
///
/// The combination operator is one code package (every operator runs the
/// same composition code), so presence is per *host*, not per operator.
///
/// # Examples
///
/// ```
/// use wadc_mobile::registry::{CodeRegistry, MobilityMode};
/// use wadc_plan::ids::HostId;
///
/// let mut reg = CodeRegistry::new(MobilityMode::MobileObjects, 20_000);
/// let h = HostId::new(3);
/// assert_eq!(reg.code_bytes_for_move(h), 20_000); // first visit ships code
/// reg.install(h);
/// assert_eq!(reg.code_bytes_for_move(h), 0); // cached afterwards
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeRegistry {
    mode: MobilityMode,
    code_package_bytes: u64,
    /// Under [`MobilityMode::MobileObjects`], whether the host of each
    /// index holds the code; grown on the first install.
    installed: Vec<bool>,
}

impl CodeRegistry {
    /// Creates a registry. `code_package_bytes` is the size of the
    /// operator's code package (ignored under
    /// [`MobilityMode::PreInstalled`]).
    pub fn new(mode: MobilityMode, code_package_bytes: u64) -> Self {
        CodeRegistry {
            mode,
            code_package_bytes,
            installed: Vec::new(),
        }
    }

    /// Records that `host` now holds the code package (a completed first
    /// visit). Does nothing under [`MobilityMode::PreInstalled`], where
    /// every host holds it.
    pub fn install(&mut self, host: HostId) {
        if self.mode == MobilityMode::PreInstalled {
            return;
        }
        if self.installed.len() <= host.index() {
            self.installed.resize(host.index() + 1, false);
        }
        self.installed[host.index()] = true;
    }

    /// Extra bytes a move to `host` must carry for code.
    pub fn code_bytes_for_move(&self, host: HostId) -> u64 {
        match self.mode {
            MobilityMode::MobileObjects if self.installed.get(host.index()) != Some(&true) => {
                self.code_package_bytes
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn preinstalled_mode_never_ships_code() {
        let reg = CodeRegistry::new(MobilityMode::PreInstalled, 50_000);
        for i in 0..10 {
            assert_eq!(reg.code_bytes_for_move(h(i)), 0);
        }
    }

    #[test]
    fn mobile_objects_ship_code_once() {
        let mut reg = CodeRegistry::new(MobilityMode::MobileObjects, 50_000);
        assert_eq!(reg.code_bytes_for_move(h(2)), 50_000);
        reg.install(h(2));
        assert_eq!(reg.code_bytes_for_move(h(2)), 0);
        assert_eq!(
            reg.code_bytes_for_move(h(3)),
            50_000,
            "other hosts unaffected"
        );
    }
}
