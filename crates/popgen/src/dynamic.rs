//! Evolving traffic (paper Section 5.4).
//!
//! *"These techniques capture static network state while the real traffic
//! inside a POP evolves. A drastic change in the traffic throughput may
//! invalidate all previous optimizations."* The process below perturbs a
//! traffic matrix step by step: every volume takes a multiplicative random
//! step (a geometric random walk, clamped to a floor), and occasionally a
//! *shift event* re-boosts a fresh pair while deflating an old one —
//! modelling the drastic changes that force the controller to re-optimize.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::families::{check_min, check_range, spec_line, SpecError};
use crate::traffic::TrafficSet;

/// Parameters of the traffic evolution process, serialized to/from the
/// one-line form
///
/// ```text
/// dynamic jitter=0.1 shift_probability=0.15 shift_boost=20 floor=0.1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSpec {
    /// Per-step multiplicative jitter: volumes are scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Probability of a drastic shift event at each step.
    pub shift_probability: f64,
    /// Boost applied to the promoted traffic during a shift event.
    pub shift_boost: f64,
    /// Minimum volume floor (volumes never decay below this).
    pub floor: f64,
}

impl Default for DynamicSpec {
    fn default() -> Self {
        Self {
            jitter: 0.1,
            shift_probability: 0.15,
            shift_boost: 20.0,
            floor: 0.1,
        }
    }
}

impl DynamicSpec {
    /// Validates every parameter, rejecting NaN / out-of-range values
    /// (`shift_probability ∉ [0, 1]`, negative jitter, boost below 1, …)
    /// with a typed [`SpecError`] instead of silently producing a
    /// degenerate process.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !self.jitter.is_finite() || self.jitter < 0.0 || self.jitter >= 1.0 {
            return Err(SpecError::new(
                "jitter",
                format!(
                    "must be in [0, 1) (volumes stay positive), got {}",
                    self.jitter
                ),
            ));
        }
        check_range("shift_probability", self.shift_probability, 0.0, 1.0)?;
        check_min("shift_boost", self.shift_boost, 1.0)?;
        check_min("floor", self.floor, 0.0)?;
        Ok(())
    }
}

impl fmt::Display for DynamicSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dynamic jitter={} shift_probability={} shift_boost={} floor={}",
            self.jitter, self.shift_probability, self.shift_boost, self.floor
        )
    }
}

impl FromStr for DynamicSpec {
    type Err = SpecError;

    /// Parses the one-line form emitted by [`fmt::Display`]: the literal
    /// process name `dynamic` followed by `key=value` fields. Missing
    /// fields keep the defaults; unknown keys and malformed values are
    /// rejected with a typed error, and the result is
    /// [`DynamicSpec::validate`]d before it is returned.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (model, fields) = spec_line(s, "dynamic")?;
        if model != "dynamic" {
            return Err(SpecError::new(
                "dynamic",
                format!("unknown traffic process {model:?} (dynamic)"),
            ));
        }
        let mut spec = DynamicSpec::default();
        for field in fields {
            let (key, value) = field?;
            match key {
                "jitter" => spec.jitter = value.number("jitter")?,
                "shift_probability" => {
                    spec.shift_probability = value.number("shift_probability")?
                }
                "shift_boost" => spec.shift_boost = value.number("shift_boost")?,
                "floor" => spec.floor = value.number("floor")?,
                _ => {
                    return Err(SpecError::new(
                        "spec",
                        format!("unknown key {key:?} for traffic process \"dynamic\""),
                    ))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// A stateful traffic process producing successive [`TrafficSet`] snapshots.
///
/// Paths are fixed (routing does not change); only volumes evolve, exactly
/// the setting of `PPME*(x, h, k)` where installed devices cannot move but
/// sampling rates adapt.
#[derive(Debug, Clone)]
pub struct TrafficProcess {
    current: TrafficSet,
    spec: DynamicSpec,
    rng: StdRng,
    steps: usize,
}

impl TrafficProcess {
    /// Starts a process from an initial matrix.
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid (see [`DynamicSpec::validate`]);
    /// use [`TrafficProcess::try_new`] to surface the typed error.
    pub fn new(initial: TrafficSet, spec: DynamicSpec, seed: u64) -> Self {
        Self::try_new(initial, spec, seed).unwrap_or_else(|e| panic!("invalid DynamicSpec: {e}"))
    }

    /// Fallible variant of [`TrafficProcess::new`]: validates the spec and
    /// returns the typed [`SpecError`] instead of panicking.
    pub fn try_new(initial: TrafficSet, spec: DynamicSpec, seed: u64) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self {
            current: initial,
            spec,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
        })
    }

    /// The current snapshot.
    pub fn current(&self) -> &TrafficSet {
        &self.current
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Advances the process one step and returns the new snapshot.
    pub fn step(&mut self) -> &TrafficSet {
        self.steps += 1;
        let n = self.current.traffics.len();
        for t in &mut self.current.traffics {
            let f = self
                .rng
                .gen_range(1.0 - self.spec.jitter..=1.0 + self.spec.jitter);
            t.volume = (t.volume * f).max(self.spec.floor);
        }
        if n >= 2
            && self
                .rng
                .gen_bool(self.spec.shift_probability.clamp(0.0, 1.0))
        {
            // Drastic shift: promote one traffic, deflate another.
            let up = self.rng.gen_range(0..n);
            let down = self.rng.gen_range(0..n);
            self.current.traffics[up].volume *= self.spec.shift_boost;
            self.current.traffics[down].volume =
                (self.current.traffics[down].volume / self.spec.shift_boost).max(self.spec.floor);
        }
        &self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PopSpec;
    use crate::traffic::TrafficSpec;

    fn start() -> TrafficSet {
        let pop = PopSpec::paper_10().build();
        TrafficSpec::default().generate(&pop, 1)
    }

    #[test]
    fn volumes_stay_positive() {
        let mut p = TrafficProcess::new(start(), DynamicSpec::default(), 3);
        for _ in 0..50 {
            p.step();
        }
        assert!(p.current().traffics.iter().all(|t| t.volume >= 0.1));
        assert_eq!(p.steps(), 50);
    }

    #[test]
    fn paths_never_change() {
        let initial = start();
        let edges_before: Vec<_> = initial
            .traffics
            .iter()
            .map(|t| t.path.edges().to_vec())
            .collect();
        let mut p = TrafficProcess::new(initial, DynamicSpec::default(), 3);
        for _ in 0..20 {
            p.step();
        }
        for (t, before) in p.current().traffics.iter().zip(edges_before) {
            assert_eq!(t.path.edges(), &before[..]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TrafficProcess::new(start(), DynamicSpec::default(), 9);
        let mut b = TrafficProcess::new(start(), DynamicSpec::default(), 9);
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(a.current().total_volume(), b.current().total_volume());
    }

    #[test]
    fn shifts_eventually_move_mass() {
        let spec = DynamicSpec {
            shift_probability: 1.0,
            ..Default::default()
        };
        let initial = start();
        let before = initial.total_volume();
        let mut p = TrafficProcess::new(initial, spec, 5);
        for _ in 0..30 {
            p.step();
        }
        let after = p.current().total_volume();
        assert!(
            (after - before).abs() > before * 0.05,
            "mass should have shifted"
        );
    }

    #[test]
    fn spec_round_trips_through_display() {
        for spec in [
            DynamicSpec::default(),
            DynamicSpec {
                jitter: 0.25,
                shift_probability: 0.5,
                shift_boost: 4.0,
                floor: 0.0,
            },
        ] {
            let line = spec.to_string();
            let back: DynamicSpec = line.parse().expect("round-trip");
            assert_eq!(back, spec, "{line}");
        }
    }

    #[test]
    fn parser_rejects_bad_specs() {
        for (line, field) in [
            ("", "dynamic"),
            ("static jitter=0", "dynamic"),
            ("dynamic jitter=2", "jitter"),
            ("dynamic shift_boost=nope", "shift_boost"),
            ("dynamic floor=0.1 floor=0.2", "spec"),
            ("dynamic wibble=1", "spec"),
            ("dynamic jitter", "spec"),
        ] {
            let err = line.parse::<DynamicSpec>().unwrap_err();
            assert_eq!(err.field, field, "{line:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DynamicSpec::default().validate().is_ok());
        let bad = DynamicSpec {
            shift_probability: 1.5,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "shift_probability");
        let bad = DynamicSpec {
            shift_probability: f64::NAN,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "shift_probability");
        let bad = DynamicSpec {
            jitter: -0.1,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "jitter");
        let bad = DynamicSpec {
            jitter: 1.0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "jitter");
        let bad = DynamicSpec {
            shift_boost: 0.5,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "shift_boost");
        let bad = DynamicSpec {
            floor: f64::NEG_INFINITY,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "floor");

        assert!(TrafficProcess::try_new(
            start(),
            DynamicSpec {
                shift_probability: 2.0,
                ..Default::default()
            },
            1
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid DynamicSpec")]
    fn new_panics_on_invalid_spec() {
        TrafficProcess::new(
            start(),
            DynamicSpec {
                shift_probability: f64::NAN,
                ..Default::default()
            },
            1,
        );
    }

    #[test]
    fn zero_jitter_no_shift_is_stationary_modulo_floor() {
        let spec = DynamicSpec {
            jitter: 0.0,
            shift_probability: 0.0,
            shift_boost: 1.0,
            floor: 0.0,
        };
        let initial = start();
        let before = initial.total_volume();
        let mut p = TrafficProcess::new(initial, spec, 5);
        p.step();
        assert!((p.current().total_volume() - before).abs() < 1e-9);
    }
}
