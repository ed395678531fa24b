//! A bank of hazard monitors stepped against one physics pass.
//!
//! The paper's evaluation pits a *zoo* of competing monitors against
//! the same fault scenarios. Simulating the patient once per monitor
//! multiplies the dominant cost (the ODE integration) by the zoo size
//! for no reason: a monitor that only observes cannot perturb the
//! loop, so every member sees the identical input stream. A
//! [`MonitorBank`] exploits that — it is the *ordered collection* a
//! simulation engine fans each cycle's [`MonitorInput`] out to,
//! recording one alert stream per member (the stepping itself lives in
//! the engine, `aps_sim`'s session module, which consumes the bank via
//! [`as_dyn_mut`](MonitorBank::as_dyn_mut)).
//!
//! The bank's *primary* member (index 0) is the one whose verdicts
//! drive mitigation when the harness has mitigation enabled; under
//! active mitigation the non-primary streams describe how each monitor
//! judges the *mitigated* loop, not the loop it would itself have
//! produced.
//!
//! [`MonitorInput`]: crate::monitors::MonitorInput

use crate::monitors::HazardMonitor;

/// An ordered collection of stateful monitors sharing one closed loop.
#[derive(Default)]
pub struct MonitorBank {
    monitors: Vec<Box<dyn HazardMonitor>>,
}

impl MonitorBank {
    /// An empty bank.
    pub fn new() -> MonitorBank {
        MonitorBank::default()
    }

    /// Builds a bank from monitors in priority order (index 0 is the
    /// primary).
    pub fn from_monitors(monitors: Vec<Box<dyn HazardMonitor>>) -> MonitorBank {
        MonitorBank { monitors }
    }

    /// Appends a monitor (later members never drive mitigation).
    pub fn push(&mut self, monitor: Box<dyn HazardMonitor>) {
        self.monitors.push(monitor);
    }

    /// Number of monitors in the bank.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// `true` when the bank holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// The members' names, in bank order.
    pub fn names(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.name().to_owned()).collect()
    }

    /// Consumes the bank, yielding the owned members in bank order.
    pub fn into_monitors(self) -> Vec<Box<dyn HazardMonitor>> {
        self.monitors
    }

    /// Mutable trait-object views of the members, in bank order (the
    /// shape the simulation engine consumes).
    pub fn as_dyn_mut(&mut self) -> Vec<&mut dyn HazardMonitor> {
        self.monitors
            .iter_mut()
            .map(|m| m.as_mut() as &mut dyn HazardMonitor)
            .collect()
    }
}

impl std::fmt::Debug for MonitorBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorBank")
            .field("monitors", &self.names())
            .finish()
    }
}

impl FromIterator<Box<dyn HazardMonitor>> for MonitorBank {
    fn from_iter<I: IntoIterator<Item = Box<dyn HazardMonitor>>>(iter: I) -> MonitorBank {
        MonitorBank::from_monitors(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::{MonitorInput, NullMonitor};
    use aps_types::{Hazard, MgDl, Step, UnitsPerHour};

    /// Alerts on every check with a fixed hazard (test double).
    struct Always(Hazard);

    impl HazardMonitor for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn check(&mut self, _input: &MonitorInput) -> Option<Hazard> {
            Some(self.0)
        }
        fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}
        fn reset(&mut self) {}
        fn fork(&self) -> Box<dyn HazardMonitor> {
            Box::new(Always(self.0))
        }
    }

    #[test]
    fn bank_preserves_member_order() {
        let mut bank =
            MonitorBank::from_monitors(vec![Box::new(NullMonitor), Box::new(Always(Hazard::H1))]);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.names(), vec!["none", "always"]);
        bank.push(Box::new(NullMonitor));
        assert_eq!(bank.names(), vec!["none", "always", "none"]);
        // The engine-facing views keep the same order.
        let input = MonitorInput {
            step: Step(0),
            bg: MgDl(120.0),
            commanded: UnitsPerHour(1.0),
            previous_rate: UnitsPerHour(1.0),
        };
        let verdicts: Vec<_> = bank
            .as_dyn_mut()
            .iter_mut()
            .map(|m| m.check(&input))
            .collect();
        assert_eq!(verdicts, vec![None, Some(Hazard::H1), None]);
        let owned = bank.into_monitors();
        assert_eq!(owned.len(), 3);
    }

    #[test]
    fn collected_bank_round_trips() {
        let bank: MonitorBank = vec![
            Box::new(Always(Hazard::H2)) as Box<dyn HazardMonitor>,
            Box::new(NullMonitor),
        ]
        .into_iter()
        .collect();
        assert_eq!(bank.names(), vec!["always", "none"]);
        assert!(!bank.is_empty());
        assert!(format!("{bank:?}").contains("always"));
    }

    #[test]
    fn empty_bank_is_harmless() {
        let mut bank = MonitorBank::new();
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        assert!(bank.as_dyn_mut().is_empty());
        assert!(bank.into_monitors().is_empty());
    }
}
