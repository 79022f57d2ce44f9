//! Controller configuration (Section 4 / Section 5 operating parameters).

use pv::units::Volts;

/// Tunable parameters of the SolarCore controller.
///
/// Defaults follow the paper: a 12 V processor bus, MPP tracking triggered
/// every 10 minutes, and a one-step load power margin for robustness
/// ("the existence of a power margin is necessary since it improves the
/// robustness of the system", Section 4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Nominal load-bus voltage `Vdd` the converter output is regulated to.
    pub nominal_bus_voltage: Volts,
    /// Relative tolerance around `Vdd` considered "restored" by load
    /// matching (step 1 / step 3 of the tracking algorithm). Must be wide
    /// enough that one discrete V/F load step cannot jump across the whole
    /// band, or load matching would limit-cycle; ±5 % matches a typical
    /// VRM input range.
    pub voltage_tolerance: f64,
    /// Minutes between periodic MPP tracking triggers.
    pub tracking_interval_minutes: u32,
    /// Relative bus-voltage excursion that triggers an *event-driven*
    /// re-track between periodic triggers ("the processor starts tuning its
    /// load when the controller detects a change in PV power supply",
    /// Figure 12).
    pub retrack_voltage_band: f64,
    /// Maximum k/load tuning rounds per tracking invocation: a safety net.
    /// Calls normally end on the controller's convergence test (see
    /// [`TrackEnd`](crate::controller::TrackEnd)) within a few rounds.
    pub max_rounds: u32,
    /// Load-decrease steps applied after convergence as a power margin.
    pub margin_steps: u32,
}

impl ControllerConfig {
    /// The paper's configuration.
    pub fn paper_defaults() -> Self {
        Self {
            nominal_bus_voltage: Volts::new(12.0),
            voltage_tolerance: 0.05,
            tracking_interval_minutes: 10,
            retrack_voltage_band: 0.08,
            max_rounds: 60,
            margin_steps: 1,
        }
    }

    /// Validates the configuration, returning a description of the first
    /// violated constraint if any.
    pub fn validate(&self) -> Result<(), &'static str> {
        let vdd = self.nominal_bus_voltage.get();
        if vdd <= 0.0 || vdd.is_nan() {
            return Err("nominal bus voltage must be positive");
        }
        if !(self.voltage_tolerance > 0.0 && self.voltage_tolerance < 0.5) {
            return Err("voltage tolerance must be in (0, 0.5)");
        }
        if self.tracking_interval_minutes == 0 {
            return Err("tracking interval must be at least one minute");
        }
        if self.retrack_voltage_band < self.voltage_tolerance {
            return Err("retrack band must be at least the voltage tolerance");
        }
        if self.max_rounds == 0 {
            return Err("max rounds must be positive");
        }
        Ok(())
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        let cfg = ControllerConfig::paper_defaults();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.nominal_bus_voltage, Volts::new(12.0));
        assert_eq!(cfg.tracking_interval_minutes, 10);
    }

    #[test]
    fn validation_catches_each_violation() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.nominal_bus_voltage = Volts::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = ControllerConfig::paper_defaults();
        cfg.voltage_tolerance = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ControllerConfig::paper_defaults();
        cfg.tracking_interval_minutes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ControllerConfig::paper_defaults();
        cfg.retrack_voltage_band = 0.001;
        assert!(cfg.validate().is_err());

        let mut cfg = ControllerConfig::paper_defaults();
        cfg.max_rounds = 0;
        assert!(cfg.validate().is_err());
    }
}
