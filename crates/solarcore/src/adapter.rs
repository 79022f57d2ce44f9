//! The per-core load adapter: turns "increase/decrease the load one step"
//! into V/F transitions and power gating (Section 4.3, Figure 12).

use archsim::{CoreId, MultiCoreChip};

use crate::error::CoreError;
use crate::policy::{LoadScheduler, Policy};

/// Applies scheduler-chosen V/F steps to the chip, falling back to per-core
/// power gating (PCPG) when DVFS alone cannot shed enough load.
///
/// For [`Policy::MpptChipWide`] the tuner instead moves *every* running
/// core one step at a time in lock-step, emulating a single voltage domain.
#[derive(Debug)]
pub struct LoadTuner {
    scheduler: Box<dyn LoadScheduler>,
    gated: Vec<CoreId>,
    chip_wide: bool,
}

impl LoadTuner {
    /// Builds a tuner for a policy's scheduler.
    pub fn new(policy: Policy) -> Self {
        Self {
            scheduler: policy.scheduler(),
            gated: Vec::new(),
            chip_wide: matches!(policy, Policy::MpptChipWide),
        }
    }

    /// Cores this tuner has gated, in gating order.
    pub fn gated_cores(&self) -> &[CoreId] {
        &self.gated
    }

    /// Increases the chip load by one step: ungate the most recently gated
    /// core (it resumes at its pre-gating level, i.e. the lowest, since
    /// gating only happens from the floor), otherwise speed up the
    /// scheduler-chosen core. Returns `Ok(false)` if the load is already
    /// maximal.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the scheduler hands back a core id the chip
    /// rejects or a core with no faster level — internal consistency
    /// failures between scheduler and chip state.
    pub fn increase(&mut self, chip: &mut MultiCoreChip) -> Result<bool, CoreError> {
        if let Some(id) = self.gated.pop() {
            chip.gate(id, false)?;
            return Ok(true);
        }
        if self.chip_wide {
            return self.shift_all(chip, true);
        }
        match self.scheduler.pick_increase(chip) {
            Some(id) => {
                let next = chip
                    .core(id)?
                    .level()
                    .faster()
                    .ok_or(CoreError::LevelExhausted { core: id.0 })?;
                chip.set_level(id, next)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Decreases the chip load by one step: slow down the scheduler-chosen
    /// core, or — once every running core sits at the lowest level — gate
    /// the highest-indexed running core. Returns `Ok(false)` if the chip is
    /// fully gated.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on scheduler/chip inconsistencies, as with
    /// [`Self::increase`].
    pub fn decrease(&mut self, chip: &mut MultiCoreChip) -> Result<bool, CoreError> {
        if self.chip_wide {
            if self.shift_all(chip, false)? {
                return Ok(true);
            }
            return self.gate_one(chip);
        }
        if let Some(id) = self.scheduler.pick_decrease(chip) {
            let next = chip
                .core(id)?
                .level()
                .slower()
                .ok_or(CoreError::LevelExhausted { core: id.0 })?;
            chip.set_level(id, next)?;
            return Ok(true);
        }
        // All running cores at the floor: gate one.
        self.gate_one(chip)
    }

    /// Gates the highest-indexed running core, if any.
    fn gate_one(&mut self, chip: &mut MultiCoreChip) -> Result<bool, CoreError> {
        let mut victim = None;
        for id in (0..chip.core_count()).rev().map(CoreId) {
            if !chip.core(id)?.is_gated() {
                victim = Some(id);
                break;
            }
        }
        match victim {
            Some(id) => {
                chip.gate(id, true)?;
                self.gated.push(id);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Chip-wide lock-step: move every running core one level (`true` =
    /// faster). Returns `Ok(false)` if no core could move.
    fn shift_all(&mut self, chip: &mut MultiCoreChip, faster: bool) -> Result<bool, CoreError> {
        let moves: Vec<_> = chip
            .cores()
            .iter()
            .filter(|c| !c.is_gated())
            .filter_map(|c| {
                let next = if faster {
                    c.level().faster()
                } else {
                    c.level().slower()
                };
                next.map(|n| (c.id(), n))
            })
            .collect();
        if moves.is_empty() {
            return Ok(false);
        }
        for (id, level) in moves {
            chip.set_level(id, level)?;
        }
        Ok(true)
    }

    /// Ungates every gated core on the chip, whoever gated it, and forgets
    /// this tuner's gating history (used on supply transfers: the chip runs
    /// as a conventional CMP on utility power and comes up from a minimal
    /// load on solar).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arch`] if the chip rejects one of its own core
    /// ids (an internal inconsistency).
    pub fn ungate_all(&mut self, chip: &mut MultiCoreChip) -> Result<(), CoreError> {
        self.gated.clear();
        for id in (0..chip.core_count()).map(CoreId) {
            if chip.core(id)?.is_gated() {
                chip.gate(id, false)?;
            }
        }
        Ok(())
    }

    /// Takes over the chip's gated cores as if this tuner had gated them,
    /// so [`increase`](Self::increase) can bring each back. Used when
    /// another allocator (the degraded-mode budget fill) gated and ungated
    /// cores behind the tuner's back. Cores for which `tunable` returns
    /// `false` (held gated by a fault mask) are left out. The stack is
    /// ordered as [`decrease`](Self::decrease) would have built it —
    /// highest index gated first — so the lowest-indexed core comes back
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arch`] if the chip rejects one of its own core
    /// ids (an internal inconsistency).
    pub fn adopt_gated(
        &mut self,
        chip: &MultiCoreChip,
        mut tunable: impl FnMut(CoreId) -> bool,
    ) -> Result<(), CoreError> {
        self.gated.clear();
        for id in (0..chip.core_count()).rev().map(CoreId) {
            if chip.core(id)?.is_gated() && tunable(id) {
                self.gated.push(id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::VfLevel;
    use pv::units::Watts;
    use workloads::Mix;

    #[test]
    fn increase_raises_power_decrease_lowers_it() {
        let mut chip = MultiCoreChip::new(&Mix::m2());
        chip.set_all_levels(VfLevel::from_index(3).unwrap());
        let mut tuner = LoadTuner::new(Policy::MpptOpt);
        let p0 = chip.total_power();
        assert!(tuner.increase(&mut chip).unwrap());
        let p1 = chip.total_power();
        assert!(p1 > p0);
        assert!(tuner.decrease(&mut chip).unwrap());
        assert!(tuner.decrease(&mut chip).unwrap());
        assert!(chip.total_power() < p1);
    }

    #[test]
    fn decrease_gates_cores_at_the_floor() {
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptRr);
        assert!(tuner.decrease(&mut chip).unwrap());
        assert_eq!(tuner.gated_cores(), &[CoreId(7)]);
        assert!(chip.core(CoreId(7)).unwrap().is_gated());
        // Gate everything.
        for _ in 0..7 {
            assert!(tuner.decrease(&mut chip).unwrap());
        }
        assert_eq!(chip.total_power(), Watts::ZERO);
        // Fully gated: no further decrease possible.
        assert!(!tuner.decrease(&mut chip).unwrap());
    }

    #[test]
    fn increase_ungates_before_speeding_up() {
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptOpt);
        tuner.decrease(&mut chip).unwrap(); // gates core 7
        tuner.decrease(&mut chip).unwrap(); // gates core 6
        assert!(tuner.increase(&mut chip).unwrap()); // ungates core 6
        assert!(!chip.core(CoreId(6)).unwrap().is_gated());
        assert!(chip.core(CoreId(7)).unwrap().is_gated());
        assert!(tuner.increase(&mut chip).unwrap()); // ungates core 7
        assert!(!chip.core(CoreId(7)).unwrap().is_gated());
        // Next increase is a V/F step.
        let levels_before: Vec<_> = chip.cores().iter().map(|c| c.level()).collect();
        assert!(tuner.increase(&mut chip).unwrap());
        let raised = chip
            .cores()
            .iter()
            .zip(&levels_before)
            .filter(|(c, before)| c.level() != **before)
            .count();
        assert_eq!(raised, 1);
    }

    #[test]
    fn increase_saturates_at_full_speed() {
        let mut chip = MultiCoreChip::new(&Mix::h1()); // boots at top
        let mut tuner = LoadTuner::new(Policy::MpptIc);
        assert!(!tuner.increase(&mut chip).unwrap());
    }

    #[test]
    fn chip_wide_tuner_moves_all_cores_in_lockstep() {
        let mut chip = MultiCoreChip::new(&Mix::m1());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptChipWide);
        assert!(tuner.increase(&mut chip).unwrap());
        assert!(chip
            .cores()
            .iter()
            .all(|c| c.level().index() == VfLevel::lowest().index() - 1));
        assert!(tuner.decrease(&mut chip).unwrap());
        assert!(chip.cores().iter().all(|c| c.level() == VfLevel::lowest()));
        // At the floor, decrease falls back to gating.
        assert!(tuner.decrease(&mut chip).unwrap());
        assert_eq!(tuner.gated_cores(), &[CoreId(7)]);
        // Increase first ungates, then lock-steps the rest.
        assert!(tuner.increase(&mut chip).unwrap());
        assert!(tuner.gated_cores().is_empty());
    }

    #[test]
    fn chip_wide_tuner_saturates_at_top() {
        let mut chip = MultiCoreChip::new(&Mix::m1()); // boots at top
        let mut tuner = LoadTuner::new(Policy::MpptChipWide);
        assert!(!tuner.increase(&mut chip).unwrap());
    }

    #[test]
    fn ungate_all_restores_every_core() {
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptOpt);
        for _ in 0..4 {
            tuner.decrease(&mut chip).unwrap();
        }
        // A core gated behind the tuner's back comes back too.
        chip.gate(CoreId(0), true).unwrap();
        tuner.ungate_all(&mut chip).unwrap();
        assert!(chip.cores().iter().all(|c| !c.is_gated()));
        assert!(tuner.gated_cores().is_empty());
    }

    #[test]
    fn adopted_cores_can_all_be_ungated() {
        // An outside allocator gates cores 5 and 7; the tuner's own stack
        // still names core 6, which the allocator has since ungated.
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptRr);
        tuner.decrease(&mut chip).unwrap(); // gates core 7
        tuner.decrease(&mut chip).unwrap(); // gates core 6
        chip.gate(CoreId(6), false).unwrap();
        chip.gate(CoreId(5), true).unwrap();

        tuner.adopt_gated(&chip, |_| true).unwrap();
        assert_eq!(tuner.gated_cores(), &[CoreId(7), CoreId(5)]);
        // Every increase that reports success ungates a gated core, until
        // none is left.
        for _ in 0..2 {
            let gated_before = chip.cores().iter().filter(|c| c.is_gated()).count();
            assert!(tuner.increase(&mut chip).unwrap());
            let gated_after = chip.cores().iter().filter(|c| c.is_gated()).count();
            assert_eq!(gated_after + 1, gated_before);
        }
        assert!(chip.cores().iter().all(|c| !c.is_gated()));
    }

    #[test]
    fn adoption_leaves_masked_cores_alone() {
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.gate(CoreId(2), true).unwrap();
        chip.gate(CoreId(3), true).unwrap();
        let mut tuner = LoadTuner::new(Policy::MpptOpt);
        tuner.adopt_gated(&chip, |id| id != CoreId(2)).unwrap();
        assert_eq!(tuner.gated_cores(), &[CoreId(3)]);
    }
}
