//! Parameterized random topology families — the open instance space.
//!
//! The paper evaluates on five hand-built POP presets ([`crate::PopSpec`]);
//! this module opens the instance space with seeded, parameterized random
//! families so every solver can be exercised (and differentially tested)
//! on an unbounded set of topologies:
//!
//! * [`FamilyKind::Waxman`] — the classic Waxman random geometric graph:
//!   routers at seeded uniform positions in the unit square, link
//!   probability `density · α · exp(−d / (β·L))` decaying with distance,
//!   plus a seeded random spanning tree so instances are always connected;
//! * [`FamilyKind::BarabasiAlbert`] — preferential attachment: each new
//!   router links to `attach` existing routers picked proportionally to
//!   degree, producing the heavy-tailed degree structure of measured ISP
//!   maps (the Rocketfuel shape the paper points at);
//! * [`FamilyKind::HierIsp`] — a randomized two-level ISP: a backbone ring
//!   with seeded chords, access routers uplinked (possibly dual-homed) to
//!   random backbone routers — the stochastic counterpart of the
//!   deterministic [`crate::PopSpec`] construction, reusing the same
//!   [`NodeRole`] tiers.
//!
//! Every family produces a [`Pop`] — roles, backbone/access lists, virtual
//! customer/peer endpoints — so the whole placement stack (passive taps,
//! PPME sampling, active beacons) runs on generated instances unchanged,
//! and [`crate::fileio`] round-trips them through the text format.
//!
//! **Seeding contract:** generation is a pure function of
//! `(FamilySpec, seed)`. The RNG stream is consumed in a fixed documented
//! order (positions → spanning tree → extra links → endpoint attachment),
//! so adding parameters must never reorder existing draws; golden tests in
//! `crates/bench` pin seed-0 instances of each family.

use std::fmt;
use std::str::FromStr;

use netgraph::{bfs, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::topology::{NodeRole, Pop};

/// Typed validation error for generator specifications ([`FamilySpec`],
/// [`crate::dynamic::DynamicSpec`], [`crate::traffic::GravitySpec`]):
/// NaN, out-of-range, or structurally impossible parameters are rejected
/// before they can silently produce degenerate instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending parameter.
    pub field: &'static str,
    /// Why the value was rejected.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        SpecError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Splits a one-line spec (`head key=value key=value …`) into its head
/// word and its `key=value` fields. An empty line is an error on
/// `head_field`; a token without `=` and a repeated key are errors too.
/// The fields come out lazily, in order, so the first bad token is the
/// one reported.
pub(crate) fn spec_line<'a>(
    s: &'a str,
    head_field: &'static str,
) -> Result<(&'a str, impl Iterator<Item = SpecField<'a>>), SpecError> {
    let mut tokens = s.split_whitespace();
    let head = tokens
        .next()
        .ok_or_else(|| SpecError::new(head_field, "empty spec".to_string()))?;
    let mut seen: Vec<&str> = Vec::new();
    let fields = tokens.map(move |tok| {
        let (key, raw) = tok
            .split_once('=')
            .ok_or_else(|| SpecError::new("spec", format!("expected key=value, got {tok:?}")))?;
        if seen.contains(&key) {
            return Err(SpecError::new("spec", format!("duplicate key {key:?}")));
        }
        seen.push(key);
        Ok((key, SpecValue(raw)))
    });
    Ok((head, fields))
}

/// One `key=value` field of a spec line, or the error for its token.
pub(crate) type SpecField<'a> = Result<(&'a str, SpecValue<'a>), SpecError>;

/// The raw value of one spec field, parsed on demand.
pub(crate) struct SpecValue<'a>(&'a str);

impl SpecValue<'_> {
    /// The value as a number; a malformed one is an error on `field`.
    pub(crate) fn number(&self, field: &'static str) -> Result<f64, SpecError> {
        let raw = self.0;
        raw.parse()
            .map_err(|_| SpecError::new(field, format!("bad number {raw:?}")))
    }

    /// The value as a count; a malformed one is an error on `field`.
    pub(crate) fn count(&self, field: &'static str) -> Result<usize, SpecError> {
        let raw = self.0;
        raw.parse()
            .map_err(|_| SpecError::new(field, format!("bad count {raw:?}")))
    }
}

/// Checks that `v` is finite and inside `[lo, hi]` (both bounds are
/// rendered in the message, so callers pass human-readable bounds —
/// use [`check_positive`] / [`check_min`] for open or unbounded ranges).
pub(crate) fn check_range(field: &'static str, v: f64, lo: f64, hi: f64) -> Result<(), SpecError> {
    if !v.is_finite() {
        return Err(SpecError::new(field, format!("must be finite, got {v}")));
    }
    if v < lo || v > hi {
        return Err(SpecError::new(
            field,
            format!("must be in [{lo}, {hi}], got {v}"),
        ));
    }
    Ok(())
}

/// Checks that `v` is finite and inside `(0, hi]` (`hi` is rendered in
/// the message, so callers pass a human-readable bound).
pub(crate) fn check_positive(field: &'static str, v: f64, hi: f64) -> Result<(), SpecError> {
    if !v.is_finite() {
        return Err(SpecError::new(field, format!("must be finite, got {v}")));
    }
    if v <= 0.0 || v > hi {
        return Err(SpecError::new(
            field,
            format!("must be in (0, {hi}], got {v}"),
        ));
    }
    Ok(())
}

/// Checks that `v` is finite and strictly positive (no upper bound).
pub(crate) fn check_positive_finite(field: &'static str, v: f64) -> Result<(), SpecError> {
    if !v.is_finite() || v <= 0.0 {
        return Err(SpecError::new(
            field,
            format!("must be positive and finite, got {v}"),
        ));
    }
    Ok(())
}

/// Checks that `v` is finite and at least `lo` (no upper bound).
pub(crate) fn check_min(field: &'static str, v: f64, lo: f64) -> Result<(), SpecError> {
    if !v.is_finite() {
        return Err(SpecError::new(field, format!("must be finite, got {v}")));
    }
    if v < lo {
        return Err(SpecError::new(
            field,
            format!("must be at least {lo}, got {v}"),
        ));
    }
    Ok(())
}

/// The family-specific shape parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyKind {
    /// Waxman random geometric graph.
    Waxman {
        /// Overall link probability scale `α ∈ (0, 1]`.
        alpha: f64,
        /// Distance decay scale `β ∈ (0, 1]` (larger = longer links).
        beta: f64,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Links each new router creates (≥ 1; scaled by `density`).
        attach: usize,
    },
    /// Randomized two-level backbone/access ISP hierarchy.
    HierIsp {
        /// Fraction of routers in the backbone tier, `∈ (0, 1)`.
        backbone_fraction: f64,
        /// Probability an access router gets a second backbone uplink,
        /// `∈ [0, 1]`.
        dual_home_probability: f64,
    },
}

impl FamilyKind {
    /// Short stable name used in CSV rows and the [`FromStr`] format.
    pub fn name(&self) -> &'static str {
        match self {
            FamilyKind::Waxman { .. } => "waxman",
            FamilyKind::BarabasiAlbert { .. } => "ba",
            FamilyKind::HierIsp { .. } => "hier",
        }
    }
}

/// A parameterized, seeded topology family: the generator counterpart of
/// the hand-built [`crate::PopSpec`] presets.
///
/// Serializes to/from a one-line text form (see [`fmt::Display`] /
/// [`FromStr`]) that the `popmon_cli family` subcommand accepts, and the
/// generated instances round-trip through [`crate::fileio`]:
///
/// ```text
/// waxman routers=30 endpoints=15 density=0.6 alpha=0.9 beta=0.35
/// ba     routers=30 endpoints=15 density=0.6 attach=2
/// hier   routers=30 endpoints=15 density=0.6 backbone=0.2 dualhome=0.5
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// The family and its shape parameters.
    pub kind: FamilyKind,
    /// Number of routers (≥ 2).
    pub routers: usize,
    /// Number of virtual traffic endpoints (≥ 2; split ~5:1 between
    /// customers below access routers and peers on the backbone).
    pub endpoints: usize,
    /// Density knob `∈ (0, 1]`, the sweep axis shared by all families:
    /// scales the Waxman link probability, interpolates the fractional
    /// Barabási–Albert attachment count between 1 and `attach`, and
    /// scales the hierarchical chord and extra-access-link budgets. The
    /// expected link count is strictly increasing in density at every
    /// size (for `ba` this requires `attach ≥ 2`; `attach = 1` is the
    /// preferential tree at every density).
    pub density: f64,
}

impl FamilySpec {
    /// A Waxman family with the canonical shape (`α = 0.9`, `β = 0.35`,
    /// density `0.6`).
    pub fn waxman(routers: usize, endpoints: usize) -> Self {
        FamilySpec {
            kind: FamilyKind::Waxman {
                alpha: 0.9,
                beta: 0.35,
            },
            routers,
            endpoints,
            density: 0.6,
        }
    }

    /// A Barabási–Albert family with the canonical shape (`attach = 2`,
    /// density `0.6`).
    pub fn barabasi_albert(routers: usize, endpoints: usize) -> Self {
        FamilySpec {
            kind: FamilyKind::BarabasiAlbert { attach: 2 },
            routers,
            endpoints,
            density: 0.6,
        }
    }

    /// A hierarchical ISP family with the canonical shape (20% backbone,
    /// 50% dual-homing, density `0.6`).
    pub fn hier_isp(routers: usize, endpoints: usize) -> Self {
        FamilySpec {
            kind: FamilyKind::HierIsp {
                backbone_fraction: 0.2,
                dual_home_probability: 0.5,
            },
            routers,
            endpoints,
            density: 0.6,
        }
    }

    /// The canonical spec for a family name (`"waxman"`, `"ba"`,
    /// `"hier"`), or `None` for an unknown name.
    pub fn canonical(family: &str, routers: usize, endpoints: usize) -> Option<Self> {
        match family {
            "waxman" => Some(Self::waxman(routers, endpoints)),
            "ba" => Some(Self::barabasi_albert(routers, endpoints)),
            "hier" => Some(Self::hier_isp(routers, endpoints)),
            _ => None,
        }
    }

    /// Validates every parameter, rejecting NaN / out-of-range values with
    /// a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.routers < 2 {
            return Err(SpecError::new(
                "routers",
                format!("need at least 2 routers, got {}", self.routers),
            ));
        }
        if self.endpoints < 2 {
            return Err(SpecError::new(
                "endpoints",
                format!("need at least 2 traffic endpoints, got {}", self.endpoints),
            ));
        }
        check_positive("density", self.density, 1.0)?;
        match self.kind {
            FamilyKind::Waxman { alpha, beta } => {
                check_positive("alpha", alpha, 1.0)?;
                check_positive("beta", beta, 1.0)?;
            }
            FamilyKind::BarabasiAlbert { attach } => {
                if attach == 0 {
                    return Err(SpecError::new("attach", "must be at least 1".to_string()));
                }
                if attach >= self.routers {
                    return Err(SpecError::new(
                        "attach",
                        format!("attach {attach} must be below routers {}", self.routers),
                    ));
                }
            }
            FamilyKind::HierIsp {
                backbone_fraction,
                dual_home_probability,
            } => {
                if !backbone_fraction.is_finite()
                    || backbone_fraction <= 0.0
                    || backbone_fraction >= 1.0
                {
                    return Err(SpecError::new(
                        "backbone",
                        format!("must be in (0, 1), got {backbone_fraction}"),
                    ));
                }
                check_range("dualhome", dual_home_probability, 0.0, 1.0)?;
            }
        }
        Ok(())
    }

    /// Generates the seeded instance. Pure in `(self, seed)`; see the
    /// module docs for the seeding contract.
    pub fn build(&self, seed: u64) -> Result<Pop, SpecError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.routers;

        // Phase 1: the router-level edge list (family-specific).
        let edges: Vec<(usize, usize)> = match self.kind {
            FamilyKind::Waxman { alpha, beta } => {
                waxman_edges(n, alpha, beta, self.density, &mut rng)
            }
            FamilyKind::BarabasiAlbert { attach } => ba_edges(n, attach, self.density, &mut rng),
            FamilyKind::HierIsp {
                backbone_fraction,
                dual_home_probability,
            } => hier_edges(
                n,
                backbone_fraction,
                dual_home_probability,
                self.density,
                &mut rng,
            ),
        };

        // Phase 2: role assignment. The hierarchy is structural for
        // HierIsp (indices below the backbone cut); for the flat families
        // the top fifth by (degree, index) becomes the backbone — in
        // Barabási–Albert graphs that is exactly the hub set.
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut is_backbone = vec![false; n];
        match self.kind {
            FamilyKind::HierIsp {
                backbone_fraction, ..
            } => {
                let nb = hier_backbone_count(n, backbone_fraction);
                for flag in is_backbone.iter_mut().take(nb) {
                    *flag = true;
                }
            }
            _ => {
                let nb = (n / 5).max(1);
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (std::cmp::Reverse(degree[i]), i));
                for &i in order.iter().take(nb) {
                    is_backbone[i] = true;
                }
            }
        }

        // Phase 3: materialize the graph and attach virtual endpoints
        // (customers below access routers, peers on the backbone).
        let mut b = GraphBuilder::new();
        let mut roles = Vec::with_capacity(n + self.endpoints);
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                roles.push(if is_backbone[i] {
                    NodeRole::Backbone
                } else {
                    NodeRole::Access
                });
                b.add_node(format!("r{i}"))
            })
            .collect();
        for &(u, v) in &edges {
            b.add_edge(ids[u], ids[v], 1.0);
        }
        let backbone: Vec<NodeId> = (0..n).filter(|&i| is_backbone[i]).map(|i| ids[i]).collect();
        let access: Vec<NodeId> = (0..n)
            .filter(|&i| !is_backbone[i])
            .map(|i| ids[i])
            .collect();

        let peers = (self.endpoints / 6).max(1);
        let customers = self.endpoints - peers;
        let customer_hosts: &[NodeId] = if access.is_empty() {
            &backbone
        } else {
            &access
        };
        let mut endpoints = Vec::with_capacity(self.endpoints);
        for i in 0..customers {
            roles.push(NodeRole::Customer);
            let c = b.add_node(format!("c{i}"));
            let host = customer_hosts[rng.gen_range(0..customer_hosts.len())];
            b.add_edge(c, host, 1.0);
            endpoints.push(c);
        }
        for i in 0..peers {
            roles.push(NodeRole::Peer);
            let p = b.add_node(format!("p{i}"));
            let host = backbone[rng.gen_range(0..backbone.len())];
            b.add_edge(p, host, 1.0);
            endpoints.push(p);
        }

        let graph = b.build();
        debug_assert!(
            bfs::is_connected(&graph),
            "family instances must be connected"
        );
        Ok(Pop {
            graph,
            roles,
            backbone,
            access,
            endpoints,
        })
    }
}

/// Backbone tier size of the hierarchical family (shared by edge
/// generation and role assignment so the two can never disagree).
fn hier_backbone_count(n: usize, backbone_fraction: f64) -> usize {
    (((n as f64) * backbone_fraction).round() as usize).clamp(1, n - 1)
}

/// Undirected simple-edge accumulator shared by the family generators:
/// keeps the edge list and an adjacency matrix in lockstep so duplicate
/// detection is O(1) and the push/mark invariant lives in one place.
struct EdgeAccum {
    adj: Vec<Vec<bool>>,
    edges: Vec<(usize, usize)>,
}

impl EdgeAccum {
    fn new(n: usize) -> Self {
        EdgeAccum {
            adj: vec![vec![false; n]; n],
            edges: Vec::new(),
        }
    }

    fn contains(&self, u: usize, v: usize) -> bool {
        self.adj[u][v]
    }

    fn add(&mut self, u: usize, v: usize) {
        debug_assert!(
            u != v && !self.adj[u][v],
            "generators never add duplicate links"
        );
        self.adj[u][v] = true;
        self.adj[v][u] = true;
        self.edges.push((u, v));
    }
}

/// Waxman edges: seeded positions, a random spanning tree for guaranteed
/// connectivity, then distance-decayed extra links in fixed `i < j` order.
fn waxman_edges(
    n: usize,
    alpha: f64,
    beta: f64,
    density: f64,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let mut xy = Vec::with_capacity(n);
    for _ in 0..n {
        xy.push((rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)));
    }
    let mut acc = EdgeAccum::new(n);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        acc.add(i, j);
    }
    let scale = std::f64::consts::SQRT_2; // max distance in the unit square
    for i in 0..n {
        for j in (i + 1)..n {
            if acc.contains(i, j) {
                continue;
            }
            let (dx, dy) = (xy[i].0 - xy[j].0, xy[i].1 - xy[j].1);
            let d = (dx * dx + dy * dy).sqrt();
            let p = density * alpha * (-d / (beta * scale)).exp();
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                acc.add(i, j);
            }
        }
    }
    acc.edges
}

/// Barabási–Albert edges: a seed clique, then each new router attaches to
/// `m_v` distinct earlier routers drawn proportionally to degree (stub
/// sampling). The density knob interpolates the attachment count
/// *fractionally* between 1 (a pure preferential tree, the connectivity
/// floor) and `attach`: `x = 1 + (attach − 1) · density` and each router
/// draws `m_v = ⌊x⌋ + Bernoulli(x − ⌊x⌋)`, so the expected link count is
/// strictly increasing in density whenever `attach ≥ 2` (for `attach = 1`
/// the family is the tree at every density). A plain `round()` or a
/// `max(1, attach · density)` clamp would collapse whole density ranges
/// onto identical instances.
fn ba_edges(n: usize, attach: usize, density: f64, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let x = (1.0 + ((attach - 1) as f64) * density).min((n - 1) as f64);
    let core = ((x.ceil() as usize) + 1).min(n);
    let mut edges = Vec::new();
    let mut stubs: Vec<usize> = Vec::new();
    for i in 0..core {
        for j in (i + 1)..core {
            edges.push((i, j));
            stubs.push(i);
            stubs.push(j);
        }
    }
    for v in core..n {
        let m = ((x.floor() as usize) + usize::from(rng.gen_bool(x.fract()))).clamp(1, v);
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0usize;
        while chosen.len() < m && guard < 50 * m + 50 {
            guard += 1;
            let t = stubs[rng.gen_range(0..stubs.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        // Degenerate stub streaks: fill deterministically so the router
        // still gets its m links (connectivity never depends on luck).
        let mut fill = 0usize;
        while chosen.len() < m && fill < v {
            if !chosen.contains(&fill) {
                chosen.push(fill);
            }
            fill += 1;
        }
        for &u in &chosen {
            edges.push((u, v));
            stubs.push(u);
            stubs.push(v);
        }
    }
    edges
}

/// Hierarchical ISP edges: backbone ring, seeded chords (budget scaled by
/// `density`), one or two random backbone uplinks per access router, and
/// a density-scaled budget of extra access-side links. Chords only exist
/// for backbones of 4+ (smaller rings are already complete), so the extra
/// access links keep `density` effective at every instance size.
fn hier_edges(
    n: usize,
    backbone_fraction: f64,
    dual_home_probability: f64,
    density: f64,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let nb = hier_backbone_count(n, backbone_fraction);
    let mut acc = EdgeAccum::new(n);
    match nb {
        0 | 1 => {}
        2 => acc.add(0, 1),
        _ => {
            for i in 0..nb {
                acc.add(i, (i + 1) % nb);
            }
        }
    }
    let chords = (density * nb as f64 / 2.0).round() as usize;
    let mut placed = 0usize;
    let mut guard = 0usize;
    while nb >= 4 && placed < chords && guard < 20 * chords + 20 {
        guard += 1;
        let u = rng.gen_range(0..nb);
        let v = rng.gen_range(0..nb);
        if u != v && !acc.contains(u, v) {
            acc.add(u, v);
            placed += 1;
        }
    }
    for a in nb..n {
        let primary = rng.gen_range(0..nb);
        acc.add(a, primary);
        if nb >= 2 && rng.gen_bool(dual_home_probability) {
            let mut secondary = rng.gen_range(0..nb - 1);
            if secondary >= primary {
                secondary += 1;
            }
            acc.add(a, secondary);
        }
    }
    let na = n - nb;
    let extra = (density * na as f64 / 2.0).round() as usize;
    let mut placed = 0usize;
    let mut guard = 0usize;
    while na >= 1 && n >= 3 && placed < extra && guard < 20 * extra + 20 {
        guard += 1;
        let u = nb + rng.gen_range(0..na);
        let v = rng.gen_range(0..n);
        if u != v && !acc.contains(u, v) {
            acc.add(u, v);
            placed += 1;
        }
    }
    acc.edges
}

impl fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} routers={} endpoints={} density={}",
            self.kind.name(),
            self.routers,
            self.endpoints,
            self.density
        )?;
        match self.kind {
            FamilyKind::Waxman { alpha, beta } => write!(f, " alpha={alpha} beta={beta}"),
            FamilyKind::BarabasiAlbert { attach } => write!(f, " attach={attach}"),
            FamilyKind::HierIsp {
                backbone_fraction,
                dual_home_probability,
            } => {
                write!(
                    f,
                    " backbone={backbone_fraction} dualhome={dual_home_probability}"
                )
            }
        }
    }
}

impl FromStr for FamilySpec {
    type Err = SpecError;

    /// Parses the one-line form emitted by [`fmt::Display`]: a family name
    /// (`waxman` / `ba` / `hier`) followed by `key=value` fields. Missing
    /// fields keep the family's canonical defaults; unknown keys and
    /// malformed values are rejected with a typed error, and the result is
    /// [`FamilySpec::validate`]d before it is returned.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (family, fields) = spec_line(s, "family")?;
        let mut spec = FamilySpec::canonical(family, 10, 6).ok_or_else(|| {
            SpecError::new(
                "family",
                format!("unknown family {family:?} (waxman|ba|hier)"),
            )
        })?;
        for field in fields {
            let (key, value) = field?;
            match (key, &mut spec.kind) {
                ("routers", _) => spec.routers = value.count("routers")?,
                ("endpoints", _) => spec.endpoints = value.count("endpoints")?,
                ("density", _) => spec.density = value.number("density")?,
                ("alpha", FamilyKind::Waxman { alpha, .. }) => *alpha = value.number("alpha")?,
                ("beta", FamilyKind::Waxman { beta, .. }) => *beta = value.number("beta")?,
                ("attach", FamilyKind::BarabasiAlbert { attach }) => {
                    *attach = value.count("attach")?
                }
                (
                    "backbone",
                    FamilyKind::HierIsp {
                        backbone_fraction, ..
                    },
                ) => *backbone_fraction = value.number("backbone")?,
                (
                    "dualhome",
                    FamilyKind::HierIsp {
                        dual_home_probability,
                        ..
                    },
                ) => *dual_home_probability = value.number("dualhome")?,
                _ => {
                    return Err(SpecError::new(
                        "spec",
                        format!("unknown key {key:?} for family {family:?}"),
                    ))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Generates the instance and its gravity traffic, serialized to the
/// [`crate::fileio`] text format with the spec recorded as a header
/// comment — what `popmon_cli family` emits, and the inverse of
/// [`crate::fileio::parse`].
pub fn emit_document(spec: &FamilySpec, seed: u64) -> Result<String, SpecError> {
    let pop = spec.build(seed)?;
    let ts = crate::traffic::GravitySpec::default().generate(&pop, seed);
    Ok(format!(
        "# family: {spec}\n# seed: {seed}\n{}",
        crate::fileio::serialize(&pop, &ts)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_canonical(routers: usize, endpoints: usize) -> Vec<FamilySpec> {
        vec![
            FamilySpec::waxman(routers, endpoints),
            FamilySpec::barabasi_albert(routers, endpoints),
            FamilySpec::hier_isp(routers, endpoints),
        ]
    }

    #[test]
    fn instances_are_connected_and_shaped() {
        for spec in all_canonical(20, 10) {
            for seed in 0..5 {
                let pop = spec.build(seed).expect("valid spec");
                assert!(bfs::is_connected(&pop.graph), "{spec} seed {seed}");
                assert_eq!(pop.router_count(), 20);
                assert_eq!(pop.endpoints.len(), 10);
                assert!(!pop.backbone.is_empty());
                for &e in &pop.endpoints {
                    assert_eq!(pop.graph.degree(e), 1, "endpoints hang off one link");
                }
                // Role lists and the role vector must agree.
                for v in pop.graph.nodes() {
                    match pop.role(v) {
                        NodeRole::Backbone => assert!(pop.backbone.contains(&v)),
                        NodeRole::Access => assert!(pop.access.contains(&v)),
                        _ => assert!(pop.endpoints.contains(&v)),
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for spec in all_canonical(15, 8) {
            let a = spec.build(7).unwrap();
            let b = spec.build(7).unwrap();
            assert_eq!(a.graph.node_count(), b.graph.node_count());
            assert_eq!(a.graph.edge_count(), b.graph.edge_count());
            let ends = |p: &Pop| -> Vec<(usize, usize)> {
                p.graph
                    .edges()
                    .map(|e| {
                        let (u, v) = p.graph.endpoints(e);
                        (u.index(), v.index())
                    })
                    .collect()
            };
            assert_eq!(
                ends(&a),
                ends(&b),
                "{spec}: same seed must rebuild the same graph"
            );
            let c = spec.build(8).unwrap();
            assert!(
                ends(&a) != ends(&c) || a.graph.edge_count() != c.graph.edge_count(),
                "{spec}: different seeds should differ"
            );
        }
    }

    #[test]
    fn density_scales_link_count() {
        for family in ["waxman", "ba", "hier"] {
            let mut sparse = FamilySpec::canonical(family, 30, 10).unwrap();
            let mut dense = sparse.clone();
            sparse.density = 0.15;
            dense.density = 1.0;
            let lo = sparse.build(3).unwrap().graph.edge_count();
            let hi = dense.build(3).unwrap().graph.edge_count();
            assert!(
                hi > lo,
                "{family}: density 1.0 ({hi}) must out-link 0.15 ({lo})"
            );
        }
    }

    /// Density must never be a silent no-op anywhere on the sweep grid:
    /// neighboring grid densities produce distinct instances for every
    /// family even at the smallest sweep size (regression: `round()`-based
    /// BA attachment collapsed 0.4 and 0.7, and the hierarchy had no
    /// density-sensitive draw below a 4-router backbone).
    #[test]
    fn neighboring_grid_densities_differ() {
        let link_count = |family: &str, routers: usize, density: f64, seed: u64| {
            let mut spec = FamilySpec::canonical(family, routers, 6).unwrap();
            spec.density = density;
            spec.build(seed).unwrap().graph.edge_count()
        };
        for family in ["waxman", "ba", "hier"] {
            for routers in [12usize, 20] {
                for (lo, hi) in [(0.25, 0.5), (0.4, 0.7), (0.7, 1.0)] {
                    // A fractional-attachment draw can tie on one seed;
                    // distinctness must show across a small seed set.
                    assert!(
                        (0..8).any(|seed| {
                            link_count(family, routers, lo, seed)
                                != link_count(family, routers, hi, seed)
                        }),
                        "{family}/{routers}: densities {lo} and {hi} always coincide"
                    );
                }
            }
        }
    }

    #[test]
    fn ba_hubs_become_backbone() {
        let pop = FamilySpec::barabasi_albert(40, 10).build(1).unwrap();
        // Role assignment ranks *router-level* degree (endpoint links are
        // attached afterwards), so compare router-only neighbor counts:
        // every backbone router must out-rank every access router.
        let router_degree = |v: netgraph::NodeId| {
            pop.graph
                .neighbors(v)
                .iter()
                .filter(|&&(_, u)| pop.is_router(u))
                .count()
        };
        let min_bb = pop
            .backbone
            .iter()
            .map(|&v| router_degree(v))
            .min()
            .unwrap();
        let max_ac = pop.access.iter().map(|&v| router_degree(v)).max().unwrap();
        assert!(
            min_bb >= max_ac,
            "backbone must be the hub set ({min_bb} vs {max_ac})"
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut s = FamilySpec::waxman(10, 6);
        s.density = f64::NAN;
        assert_eq!(s.validate().unwrap_err().field, "density");
        s.density = 0.0;
        assert_eq!(s.validate().unwrap_err().field, "density");
        s.density = 1.5;
        assert_eq!(s.validate().unwrap_err().field, "density");

        let mut s = FamilySpec::waxman(1, 6);
        assert_eq!(s.validate().unwrap_err().field, "routers");
        s.routers = 10;
        s.endpoints = 1;
        assert_eq!(s.validate().unwrap_err().field, "endpoints");

        let mut s = FamilySpec::waxman(10, 6);
        s.kind = FamilyKind::Waxman {
            alpha: f64::INFINITY,
            beta: 0.3,
        };
        assert_eq!(s.validate().unwrap_err().field, "alpha");
        s.kind = FamilyKind::Waxman {
            alpha: 0.9,
            beta: -0.1,
        };
        assert_eq!(s.validate().unwrap_err().field, "beta");

        let mut s = FamilySpec::barabasi_albert(10, 6);
        s.kind = FamilyKind::BarabasiAlbert { attach: 0 };
        assert_eq!(s.validate().unwrap_err().field, "attach");
        s.kind = FamilyKind::BarabasiAlbert { attach: 10 };
        assert_eq!(s.validate().unwrap_err().field, "attach");

        let mut s = FamilySpec::hier_isp(10, 6);
        s.kind = FamilyKind::HierIsp {
            backbone_fraction: 1.0,
            dual_home_probability: 0.5,
        };
        assert_eq!(s.validate().unwrap_err().field, "backbone");
        s.kind = FamilyKind::HierIsp {
            backbone_fraction: 0.2,
            dual_home_probability: 1.1,
        };
        assert_eq!(s.validate().unwrap_err().field, "dualhome");

        // build() refuses before touching the RNG.
        let mut s = FamilySpec::waxman(10, 6);
        s.density = f64::NAN;
        assert!(s.build(0).is_err());
    }

    #[test]
    fn spec_line_round_trips() {
        for spec in all_canonical(23, 11) {
            let line = spec.to_string();
            let back: FamilySpec = line.parse().expect("display form must parse");
            assert_eq!(back, spec, "{line}");
        }
        let custom: FamilySpec = "waxman routers=12 endpoints=5 density=0.4 alpha=0.7 beta=0.2"
            .parse()
            .unwrap();
        assert_eq!(custom.routers, 12);
        assert_eq!(custom.endpoints, 5);
        assert!(matches!(custom.kind, FamilyKind::Waxman { alpha, beta }
            if (alpha - 0.7).abs() < 1e-12 && (beta - 0.2).abs() < 1e-12));
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        assert!("".parse::<FamilySpec>().is_err());
        assert!("erdos routers=10".parse::<FamilySpec>().is_err());
        assert!("waxman routers".parse::<FamilySpec>().is_err());
        assert!("waxman routers=ten".parse::<FamilySpec>().is_err());
        assert!(
            "waxman attach=2".parse::<FamilySpec>().is_err(),
            "wrong family's key"
        );
        assert!(
            "ba routers=4 attach=9".parse::<FamilySpec>().is_err(),
            "fails validation"
        );
        let e = "waxman density=0.2 density=0.9"
            .parse::<FamilySpec>()
            .unwrap_err();
        assert!(e.message.contains("duplicate key"), "{e}");
    }

    #[test]
    fn emitted_document_parses_back() {
        for spec in all_canonical(12, 6) {
            let doc = emit_document(&spec, 3).unwrap();
            assert!(doc.starts_with(&format!("# family: {spec}\n")));
            let (pop, ts) = crate::fileio::parse(&doc).expect("emitted document must parse");
            assert_eq!(pop.router_count(), 12);
            assert_eq!(pop.endpoints.len(), 6);
            assert_eq!(ts.len(), 6 * 5);
        }
    }
}
