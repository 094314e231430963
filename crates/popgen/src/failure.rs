//! Seeded failure ensembles: SRLG link groups, independent link faults,
//! node churn, and diurnal demand perturbation.
//!
//! The paper places monitors against one static topology and traffic
//! matrix; production fleets see *correlated* link failures (a conduit cut
//! takes down every fiber it carries) and demand churn. This module samples
//! those as i.i.d. scenarios: a [`FailureSpec`] parameterizes shared-risk
//! link groups (SRLGs) layered on any generated topology, independent
//! per-link failures and optional node churn; demand perturbation rides the
//! existing [`DynamicSpec`] process parameters. A [`FailureModel`] binds
//! the spec to one [`Pop`] and turns `(spec, seed)` into a reproducible
//! scenario ensemble that `placement::resilience` scores through a warm
//! delta chain.
//!
//! ## SRLG grouping
//!
//! [`Pop`] exposes no coordinates, so grouping is *structural*, uniform
//! across all families (presets, Waxman, Barabási–Albert, hierarchical):
//! every link is assigned to the conduit of its **site** — the router
//! endpoint with the smaller index, falling back to the smaller endpoint
//! when both or neither are routers — and sites are folded into
//! `groups` buckets (`site mod groups`). Links leaving the same site share
//! fate, which is exactly the conduit-cut failure mode SRLGs model; the
//! family generators concentrate hub sites differently, so the induced
//! group structure *is* family-specific (Barabási–Albert hubs produce a
//! few huge groups, Waxman spreads them evenly).
//!
//! ## Seeding contract
//!
//! Sampling is a pure function of `(FailureSpec, DynamicSpec?, seed)`.
//! Each scenario consumes the RNG stream in a fixed documented order —
//! SRLG pass → independent-link pass → churn pass → demand-jitter pass →
//! shift event — and every pass always draws (a zero rate draws and
//! discards), so adding parameters must never reorder existing draws.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dynamic::DynamicSpec;
use crate::families::{check_range, spec_line, SpecError};
use crate::topology::Pop;

/// Parameters of the scenario sampler: SRLG bucket count, the three
/// failure rates, serialized to/from the one-line form
///
/// ```text
/// srlg groups=8 group_rate=0.05 link_rate=0.01 churn=0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSpec {
    /// Number of SRLG buckets sites are folded into (≥ 1).
    pub groups: usize,
    /// Per-scenario probability that a whole SRLG fails, `∈ [0, 1]`.
    pub group_rate: f64,
    /// Independent per-link failure probability, `∈ [0, 1]`.
    pub link_rate: f64,
    /// Per-node churn probability (a churned node fails every incident
    /// link), `∈ [0, 1]`.
    pub churn: f64,
}

impl Default for FailureSpec {
    fn default() -> Self {
        Self {
            groups: 8,
            group_rate: 0.05,
            link_rate: 0.01,
            churn: 0.0,
        }
    }
}

impl FailureSpec {
    /// Validates every parameter, rejecting NaN / out-of-range values with
    /// a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.groups == 0 {
            return Err(SpecError::new("groups", "must be at least 1".to_string()));
        }
        check_range("group_rate", self.group_rate, 0.0, 1.0)?;
        check_range("link_rate", self.link_rate, 0.0, 1.0)?;
        check_range("churn", self.churn, 0.0, 1.0)?;
        Ok(())
    }
}

impl fmt::Display for FailureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "srlg groups={} group_rate={} link_rate={} churn={}",
            self.groups, self.group_rate, self.link_rate, self.churn
        )
    }
}

impl FromStr for FailureSpec {
    type Err = SpecError;

    /// Parses the one-line form emitted by [`fmt::Display`]: the literal
    /// model name `srlg` followed by `key=value` fields. Missing fields
    /// keep the defaults; unknown keys and malformed values are rejected
    /// with a typed error, and the result is [`FailureSpec::validate`]d
    /// before it is returned.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (model, fields) = spec_line(s, "failure")?;
        if model != "srlg" {
            return Err(SpecError::new(
                "failure",
                format!("unknown failure model {model:?} (srlg)"),
            ));
        }
        let mut spec = FailureSpec::default();
        for field in fields {
            let (key, value) = field?;
            match key {
                "groups" => spec.groups = value.count("groups")?,
                "group_rate" => spec.group_rate = value.number("group_rate")?,
                "link_rate" => spec.link_rate = value.number("link_rate")?,
                "churn" => spec.churn = value.number("churn")?,
                _ => {
                    return Err(SpecError::new(
                        "spec",
                        format!("unknown key {key:?} for failure model \"srlg\""),
                    ))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// One sampled scenario: the failed links and the (sparse) demand
/// perturbation, both in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Failed links, sorted and duplicate-free.
    pub failed_links: Vec<usize>,
    /// `(traffic, factor)` multiplicative demand perturbations, ascending
    /// by traffic index; traffics not listed keep factor 1.
    pub demand_factors: Vec<(usize, f64)>,
}

/// A [`FailureSpec`] bound to one topology: the SRLG partition and the
/// node–link incidence the churn pass needs (see the module docs for the
/// grouping rule and the seeding contract).
#[derive(Debug, Clone)]
pub struct FailureModel {
    spec: FailureSpec,
    num_links: usize,
    num_nodes: usize,
    /// SRLG bucket → member links (ascending; buckets may be empty).
    group_links: Vec<Vec<usize>>,
    /// Node → incident links (ascending).
    incident: Vec<Vec<usize>>,
}

impl FailureModel {
    /// Binds a validated spec to a topology. The SRLG partition and the
    /// incidence lists are fixed here; all randomness lives in
    /// [`FailureModel::sample_scenarios`].
    pub fn try_new(pop: &Pop, spec: &FailureSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let graph = &pop.graph;
        let mut group_links = vec![Vec::new(); spec.groups];
        let mut incident = vec![Vec::new(); graph.node_count()];
        for edge in graph.edges() {
            let (u, v) = graph.endpoints(edge);
            let site = match (pop.is_router(u), pop.is_router(v)) {
                (true, false) => u.index(),
                (false, true) => v.index(),
                _ => u.index().min(v.index()),
            };
            group_links[site % spec.groups].push(edge.index());
            incident[u.index()].push(edge.index());
            incident[v.index()].push(edge.index());
        }
        Ok(FailureModel {
            spec: spec.clone(),
            num_links: graph.edge_count(),
            num_nodes: graph.node_count(),
            group_links,
            incident,
        })
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &FailureSpec {
        &self.spec
    }

    /// The SRLG partition: bucket → member links (buckets may be empty).
    pub fn group_links(&self) -> &[Vec<usize>] {
        &self.group_links
    }

    /// Samples `count` i.i.d. scenarios for an instance with `traffics`
    /// demands. Pure in `(self, dynamic, count, seed)`; the RNG stream
    /// order is fixed per scenario (see the module docs):
    ///
    /// 1. **SRLG pass** — one Bernoulli(`group_rate`) per bucket; a hit
    ///    fails every member link.
    /// 2. **Link pass** — one Bernoulli(`link_rate`) per link.
    /// 3. **Churn pass** — one Bernoulli(`churn`) per node; a hit fails
    ///    every incident link.
    /// 4. **Demand-jitter pass** (only with `dynamic`) — one
    ///    Bernoulli(`shift_probability`) per traffic; a hit draws
    ///    `u ∈ [-1, 1)` and applies factor `max(floor, 1 + jitter·u)`.
    /// 5. **Shift event** (only with `dynamic`, ≥ 2 traffics) — one
    ///    Bernoulli(`shift_probability`); a hit promotes one seeded
    ///    traffic by `shift_boost` and deflates another by it (floored),
    ///    mirroring [`crate::dynamic::TrafficProcess::step`] as an
    ///    i.i.d. time sample instead of a temporal walk.
    ///
    /// The `dynamic` spec is validated here, so an invalid perturbation
    /// surfaces as a typed error instead of a degenerate ensemble.
    pub fn sample_scenarios(
        &self,
        traffics: usize,
        dynamic: Option<&DynamicSpec>,
        count: usize,
        seed: u64,
    ) -> Result<Vec<Scenario>, SpecError> {
        if let Some(d) = dynamic {
            d.validate()?;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut failed: Vec<usize> = Vec::new();
            for links in &self.group_links {
                if rng.gen_bool(self.spec.group_rate) {
                    failed.extend_from_slice(links);
                }
            }
            for e in 0..self.num_links {
                if rng.gen_bool(self.spec.link_rate) {
                    failed.push(e);
                }
            }
            for n in 0..self.num_nodes {
                if rng.gen_bool(self.spec.churn) {
                    failed.extend_from_slice(&self.incident[n]);
                }
            }
            failed.sort_unstable();
            failed.dedup();

            let mut demand_factors: Vec<(usize, f64)> = Vec::new();
            if let Some(d) = dynamic {
                let mut factor = vec![1.0f64; traffics];
                let mut touched = vec![false; traffics];
                for (t, f) in factor.iter_mut().enumerate() {
                    if rng.gen_bool(d.shift_probability) {
                        let u: f64 = rng.gen_range(-1.0..1.0);
                        *f = (1.0 + d.jitter * u).max(d.floor);
                        touched[t] = true;
                    }
                }
                if traffics >= 2 && rng.gen_bool(d.shift_probability) {
                    let up = rng.gen_range(0..traffics);
                    let down = rng.gen_range(0..traffics);
                    factor[up] *= d.shift_boost;
                    factor[down] = (factor[down] / d.shift_boost).max(d.floor);
                    touched[up] = true;
                    touched[down] = true;
                }
                for (t, &f) in factor.iter().enumerate() {
                    if touched[t] {
                        demand_factors.push((t, f));
                    }
                }
            }
            out.push(Scenario {
                failed_links: failed,
                demand_factors,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PopSpec;

    fn model(spec: &FailureSpec) -> FailureModel {
        let pop = PopSpec::paper_10().build();
        FailureModel::try_new(&pop, spec).expect("valid spec")
    }

    #[test]
    fn spec_round_trips_through_display() {
        for spec in [
            FailureSpec::default(),
            FailureSpec {
                groups: 3,
                group_rate: 0.25,
                link_rate: 0.0,
                churn: 0.125,
            },
        ] {
            let line = spec.to_string();
            let back: FailureSpec = line.parse().expect("round-trip");
            assert_eq!(back, spec, "{line}");
        }
    }

    #[test]
    fn parser_rejects_bad_specs() {
        for (line, field) in [
            ("", "failure"),
            ("geo groups=2", "failure"),
            ("srlg groups=0", "groups"),
            ("srlg group_rate=1.5", "group_rate"),
            ("srlg link_rate=nope", "link_rate"),
            ("srlg churn=0.1 churn=0.2", "spec"),
            ("srlg wibble=1", "spec"),
            ("srlg groups", "spec"),
        ] {
            let err = line.parse::<FailureSpec>().unwrap_err();
            assert_eq!(err.field, field, "{line:?}");
        }
    }

    #[test]
    fn srlg_partition_covers_every_link_once() {
        let spec = FailureSpec {
            groups: 5,
            ..Default::default()
        };
        let m = model(&spec);
        let mut seen: Vec<usize> = m.group_links().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..m.num_links).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let spec = FailureSpec {
            groups: 4,
            group_rate: 0.2,
            link_rate: 0.05,
            churn: 0.02,
        };
        let m = model(&spec);
        let dynamic = DynamicSpec::default();
        let a = m
            .sample_scenarios(132, Some(&dynamic), 50, 9)
            .expect("valid");
        let b = m
            .sample_scenarios(132, Some(&dynamic), 50, 9)
            .expect("valid");
        assert_eq!(a, b, "same seed, same ensemble");
        for s in &a {
            assert!(s.failed_links.windows(2).all(|w| w[0] < w[1]), "sorted");
            assert!(s.failed_links.iter().all(|&e| e < m.num_links));
            assert!(s.demand_factors.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(s
                .demand_factors
                .iter()
                .all(|&(t, f)| t < 132 && f.is_finite() && f >= 0.0));
        }
        let c = m
            .sample_scenarios(132, Some(&dynamic), 50, 10)
            .expect("valid");
        assert_ne!(a, c, "different seed, different ensemble");
    }

    #[test]
    fn group_failures_are_correlated() {
        // With only group failures, every scenario's failure set is a
        // union of whole SRLG buckets.
        let spec = FailureSpec {
            groups: 4,
            group_rate: 0.5,
            link_rate: 0.0,
            churn: 0.0,
        };
        let m = model(&spec);
        let scenarios = m.sample_scenarios(0, None, 40, 3).expect("valid");
        assert!(scenarios.iter().all(|s| s.demand_factors.is_empty()));
        for s in &scenarios {
            for links in m.group_links() {
                let hit = links.iter().filter(|e| s.failed_links.contains(e)).count();
                assert!(
                    hit == 0 || hit == links.len(),
                    "partial SRLG failure: {hit}/{} of {links:?}",
                    links.len()
                );
            }
        }
        assert!(
            scenarios.iter().any(|s| !s.failed_links.is_empty()),
            "rate 0.5 must fail something across 40 scenarios"
        );
    }

    #[test]
    fn zero_rates_produce_empty_scenarios() {
        let spec = FailureSpec {
            groups: 2,
            group_rate: 0.0,
            link_rate: 0.0,
            churn: 0.0,
        };
        let m = model(&spec);
        let scenarios = m.sample_scenarios(10, None, 5, 0).expect("valid");
        assert!(scenarios
            .iter()
            .all(|s| s.failed_links.is_empty() && s.demand_factors.is_empty()));
    }

    #[test]
    fn invalid_dynamic_spec_is_a_typed_error() {
        let m = model(&FailureSpec::default());
        let bad = DynamicSpec {
            jitter: 2.0,
            ..Default::default()
        };
        let err = m.sample_scenarios(10, Some(&bad), 1, 0).unwrap_err();
        assert_eq!(err.field, "jitter");
    }

    #[test]
    fn try_new_rejects_invalid_spec() {
        let pop = PopSpec::small().build();
        let bad = FailureSpec {
            groups: 0,
            ..Default::default()
        };
        assert_eq!(
            FailureModel::try_new(&pop, &bad).unwrap_err().field,
            "groups"
        );
    }
}
