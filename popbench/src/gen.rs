//! Seeded inputs for every workload, owned by the benchmark.
//!
//! Nothing here reuses `popmond::workload` or popload's mix: a change to
//! those cannot silently change what the benchmark sends. Every stream is
//! *stratified*: the share of each request kind, each session and each
//! coverage target `k` is fixed per block and only the order inside a
//! block is drawn from the seed, so two seeds load the same layers with
//! the same weights.

use netgraph::bfs::is_connected;
use netgraph::{EdgeId, Graph, GraphBuilder, NodeId};
use popgen::{FamilySpec, Pop, PopSpec};

/// The one work budget every exact query of `serve_whatif` and every LP2
/// solve of `batch_sweep` carries (deterministic solver work units).
pub const EXACT_BUDGET: u64 = 2_000;

/// Work budget of the exact reads on `serve_wire`'s read-only sessions.
/// They are answered from the memo after priming; a small budget keeps
/// that priming cheap, so `setup_s` stays about the wire.
pub const WIRE_EXACT_BUDGET: u64 = 200;

/// Page size large enough that every placement list comes back whole.
pub const FULL_PAGE: usize = 4096;

/// Coverage targets of `serve_whatif`'s exact queries: the five low ones
/// mostly finish well inside [`EXACT_BUDGET`] and the two high ones
/// always trip it. `0.75` to `0.85` sit on that cliff on paper_10 and are
/// left out, so the median latency and `degraded_frac` do not depend on
/// which side of it a seed lands.
pub const WHATIF_KS: [&str; 7] = ["0.5", "0.55", "0.6", "0.65", "0.7", "0.9", "1"];

/// Coverage targets of `serve_wire`'s greedy reads (session `i` is read
/// at `WIRE_KS[i % 3]`).
pub const WIRE_KS: [&str; 3] = ["0.7", "0.8", "0.9"];

/// The Figure 7 grid (percent) for `batch_sweep`'s paper_10 cases.
pub const FIG7_K_PERCENTS: [u32; 6] = [75, 80, 85, 90, 95, 100];

/// Coverage targets (percent) of `batch_sweep`'s family cases.
pub const FAMILY_K_PERCENTS: [u32; 2] = [80, 90];

/// Node budget of every flow-bound branch-and-bound solve in the batch.
pub const MECF_MAX_NODES: usize = 2_000;

/// xorshift64* seeded through splitmix64, so neighbouring seeds give
/// unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed) | 1)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// splitmix64 finalizer: derives independent sub-seeds from one seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws values round-robin from shuffled copies of a fixed deck: every
/// value appears exactly once per pass through the deck.
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: &[T]) -> Self {
        Deck {
            cards: cards.to_vec(),
            next: cards.len(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// One instance a serve workload loads into the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDef {
    /// Instance id on the wire.
    pub id: String,
    /// popmond preset name.
    pub preset: &'static str,
    /// Traffic seed of the preset.
    pub seed: u64,
    /// Whether traffic is routed (link failures re-route it).
    pub routed: bool,
}

impl SessionDef {
    /// The `load_spec` request for this session.
    pub fn load_line(&self) -> String {
        format!(
            r#"{{"op":"load_spec","id":"{}","spec":"{}","seed":{},"routed":{}}}"#,
            self.id, self.preset, self.seed, self.routed
        )
    }
}

/// The topology of a popmond preset (traffic seeds do not change it).
pub fn preset_pop(preset: &str) -> Pop {
    match preset {
        "paper_10" => PopSpec::paper_10().build(),
        "paper_15" => PopSpec::paper_15().build(),
        other => panic!("the benchmark uses no preset {other:?}"),
    }
}

/// A serve workload's inputs: the sessions, the set-up lines (loads and
/// priming, not measured) and the measured stream.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The loaded instances.
    pub sessions: Vec<SessionDef>,
    /// Loads plus priming requests, sent before the measured phase.
    pub setup: Vec<String>,
    /// The measured closed-loop stream.
    pub stream: Vec<String>,
}

/// Mutable per-session view the generator keeps so every what-if stays
/// legal against the instance it will reach.
struct SessionView {
    links: usize,
    traffics: usize,
    /// Links the generator may fail.
    failable: Vec<usize>,
    failed: Vec<usize>,
    max_failed: usize,
}

impl SessionView {
    fn new(pop: &Pop, failable: Vec<usize>, max_failed: usize) -> Self {
        let n = pop.endpoints.len();
        SessionView {
            links: pop.graph.edge_count(),
            traffics: n * (n - 1),
            failable,
            failed: Vec::new(),
            max_failed,
        }
    }

    /// A legal mutation: fail a link, restore one, or scale a demand.
    fn action(&mut self, rng: &mut Rng) -> String {
        const FACTORS: [&str; 4] = ["0.8", "0.9", "1.1", "1.25"];
        let roll = rng.below(20);
        if roll < 7 && self.failed.len() < self.max_failed {
            let candidates: Vec<usize> = self
                .failable
                .iter()
                .copied()
                .filter(|e| !self.failed.contains(e))
                .collect();
            let e = candidates[rng.below(candidates.len())];
            self.failed.push(e);
            format!(r#""action":"fail_link","link":{e}"#)
        } else if roll < 12 && !self.failed.is_empty() {
            let e = self.failed.swap_remove(rng.below(self.failed.len()));
            format!(r#""action":"restore_link","link":{e}"#)
        } else {
            let t = rng.below(self.traffics);
            let f = FACTORS[rng.below(FACTORS.len())];
            format!(r#""action":"scale_demand","traffic":{t},"factor":{f}"#)
        }
    }
}

/// Router-to-router links whose loss leaves the topology connected. The
/// generator fails at most one of them per session at a time, so every
/// traffic keeps a route on the routed sessions.
fn failable_links(pop: &Pop) -> Vec<usize> {
    let g: &Graph = &pop.graph;
    let connected_without = |cut: EdgeId| {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = g.nodes().map(|v| b.add_node(g.label(v))).collect();
        for e in g.edges().filter(|&e| e != cut) {
            let (u, v) = g.endpoints(e);
            b.add_edge(nodes[u.index()], nodes[v.index()], g.weight(e));
        }
        is_connected(&b.build())
    };
    g.edges()
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            pop.is_router(u) && pop.is_router(v) && connected_without(e)
        })
        .map(|e| e.index())
        .collect()
}

fn exact_query(k: &str, budget: u64) -> String {
    format!(r#""mode":"ppm","method":"exact","k":{k},"budget":{budget}"#)
}

/// `serve_whatif`: four paper_10 sessions (two routed, two unrouted) and
/// a solver-bound closed-loop stream. Per block of 80 requests, each
/// session gets 5 exact solves, 14 what-if mutations each with an exact
/// re-solve, and one `score_ensemble` campaign, in shuffled order; each
/// session draws its k values from its own [`WHATIF_KS`] deck. What-ifs
/// dominate the mix so most requests share one shape (mutate, then
/// re-solve), which keeps the median off the edge between request kinds.
pub fn serve_whatif(seed: u64, blocks: usize) -> ServeInputs {
    let mut rng = Rng::new(seed ^ 0x5768_6174_4966);
    let pop = preset_pop("paper_10");
    let sessions: Vec<SessionDef> = (0..4)
        .map(|i| SessionDef {
            id: format!("w{i}"),
            preset: "paper_10",
            seed: splitmix64(seed.wrapping_add(i as u64)) % 1_000_000,
            routed: i < 2,
        })
        .collect();
    let failable = failable_links(&pop);
    let mut views: Vec<SessionView> = sessions
        .iter()
        .map(|_| SessionView::new(&pop, failable.clone(), 1))
        .collect();
    let mut decks: Vec<Deck<&str>> = sessions.iter().map(|_| Deck::new(&WHATIF_KS)).collect();

    let mut setup: Vec<String> = sessions.iter().map(SessionDef::load_line).collect();
    // Priming: the first exact solve per session builds its warm chain.
    for s in &sessions {
        setup.push(format!(
            r#"{{"op":"solve","id":"{}",{},"page_size":{FULL_PAGE}}}"#,
            s.id,
            exact_query("0.6", EXACT_BUDGET)
        ));
    }

    #[derive(Clone, Copy)]
    enum Kind {
        Solve,
        WhatIf,
        Score,
    }
    let per_session: Vec<Kind> = [Kind::Solve; 5]
        .into_iter()
        .chain([Kind::WhatIf; 14])
        .chain([Kind::Score])
        .collect();
    let mut block: Vec<(usize, Kind)> = (0..sessions.len())
        .flat_map(|s| per_session.iter().map(move |&k| (s, k)))
        .collect();
    let mut stream = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        rng.shuffle(&mut block);
        for &(s, kind) in &block {
            let id = &sessions[s].id;
            let line = match kind {
                Kind::Solve => format!(
                    r#"{{"op":"solve","id":"{id}",{},"page_size":{FULL_PAGE}}}"#,
                    exact_query(decks[s].draw(&mut rng), EXACT_BUDGET)
                ),
                Kind::WhatIf => {
                    let action = views[s].action(&mut rng);
                    format!(
                        r#"{{"op":"whatif","id":"{id}",{action},"resolve":{{{}}},"page_size":{FULL_PAGE}}}"#,
                        exact_query(decks[s].draw(&mut rng), EXACT_BUDGET)
                    )
                }
                Kind::Score => {
                    let links = views[s].links;
                    let mut placement: Vec<usize> = (0..6).map(|_| rng.below(links)).collect();
                    placement.sort_unstable();
                    placement.dedup();
                    let placement = join(&placement);
                    let dynamic = if rng.below(2) == 0 {
                        r#","dynamic":"dynamic""#
                    } else {
                        ""
                    };
                    format!(
                        r#"{{"op":"score_ensemble","id":"{id}","failure":"srlg groups=4 group_rate=0.1 link_rate=0.02"{dynamic},"scenarios":16,"seed":{},"placement":[{placement}]}}"#,
                        rng.below(1_000_000)
                    )
                }
            };
            stream.push(line);
        }
    }
    ServeInputs {
        sessions,
        setup,
        stream,
    }
}

/// `serve_wire`: sixteen paper_15 sessions and a wire-bound stream. Each
/// session is read at one fixed k, so its PPM memo holds one answer.
/// Writes (what-ifs without a re-solve) go to the first two sessions
/// only: each clears that session's memo and the next read there
/// recomputes a greedy answer, while reads elsewhere stay memo hits. The
/// last two sessions carry the exact reads. Per block of 20 requests: 3
/// writes, 9 greedy PPM reads, 3 greedy APM reads, one exact read, 2
/// `inspect`, one `list` and one `stats`.
pub fn serve_wire(seed: u64, blocks: usize) -> ServeInputs {
    const SESSIONS: usize = 16;
    const WRITABLE: usize = 2;
    const EXACT: usize = 2;
    let mut rng = Rng::new(seed ^ 0x5769_7265);
    let pop = preset_pop("paper_15");
    let sessions: Vec<SessionDef> = (0..SESSIONS)
        .map(|i| SessionDef {
            id: format!("r{i}"),
            preset: "paper_15",
            seed: splitmix64(seed.wrapping_add(100 + i as u64)) % 1_000_000,
            routed: false,
        })
        .collect();
    let all_links: Vec<usize> = (0..pop.graph.edge_count()).collect();
    let mut views: Vec<SessionView> = (0..WRITABLE)
        .map(|_| SessionView::new(&pop, all_links.clone(), 3))
        .collect();

    let greedy = |i: usize| {
        format!(
            r#"{{"op":"solve","id":"r{i}","mode":"ppm","method":"greedy","k":{},"page_size":{FULL_PAGE}}}"#,
            WIRE_KS[i % WIRE_KS.len()]
        )
    };
    let apm = |i: usize| {
        format!(
            r#"{{"op":"solve","id":"r{i}","mode":"apm","method":"greedy","page_size":{FULL_PAGE}}}"#
        )
    };
    let exact = |i: usize| {
        format!(
            r#"{{"op":"solve","id":"r{i}",{},"page_size":{FULL_PAGE}}}"#,
            exact_query("0.9", WIRE_EXACT_BUDGET)
        )
    };

    let mut setup: Vec<String> = sessions.iter().map(SessionDef::load_line).collect();
    // Priming fills every memo the measured reads hit.
    for i in 0..SESSIONS {
        setup.push(greedy(i));
        setup.push(apm(i));
    }
    setup.extend((SESSIONS - EXACT..SESSIONS).map(exact));

    #[derive(Clone, Copy)]
    enum Kind {
        Write,
        Ppm,
        Apm,
        Exact,
        Inspect,
        List,
        Stats,
    }
    let mut block: Vec<Kind> = [Kind::Write; 3]
        .into_iter()
        .chain([Kind::Ppm; 9])
        .chain([Kind::Apm; 3])
        .chain([
            Kind::Exact,
            Kind::Inspect,
            Kind::Inspect,
            Kind::List,
            Kind::Stats,
        ])
        .collect();
    let mut stream = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        rng.shuffle(&mut block);
        for &kind in &block {
            let any = rng.below(SESSIONS);
            let line = match kind {
                Kind::Write => {
                    let s = rng.below(WRITABLE);
                    let action = views[s].action(&mut rng);
                    format!(r#"{{"op":"whatif","id":"r{s}",{action}}}"#)
                }
                Kind::Ppm => greedy(any),
                Kind::Apm => apm(any),
                Kind::Exact => exact(SESSIONS - EXACT + rng.below(EXACT)),
                Kind::Inspect => format!(r#"{{"op":"inspect","id":"r{any}"}}"#),
                Kind::List => r#"{"op":"list"}"#.to_string(),
                Kind::Stats => r#"{"op":"stats"}"#.to_string(),
            };
            stream.push(line);
        }
    }
    ServeInputs {
        sessions,
        setup,
        stream,
    }
}

/// One paper_10 case of the batch grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCase {
    /// Traffic seed of the paper_10 instance.
    pub seed: u64,
}

/// One topology-family instance of the batch grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyCase {
    /// The family generator line.
    pub spec: FamilySpec,
    /// Generator and gravity-traffic seed.
    pub seed: u64,
}

/// `batch_sweep`'s grid: paper_10 traffic seeds (each solved over the
/// Figure 7 k grid) and 30-router family instances (each solved at
/// [`FAMILY_K_PERCENTS`], and its router graph by the APM ILP).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchGrid {
    /// paper_10 instances.
    pub paper: Vec<PaperCase>,
    /// Family instances.
    pub families: Vec<FamilyCase>,
}

/// Draws the batch grid: four paper_10 traffic seeds and two seeds per
/// family (waxman, ba, hier at 30 routers, 15 endpoints, density 0.7).
pub fn batch_grid(seed: u64) -> BatchGrid {
    let mut rng = Rng::new(seed ^ 0x0042_6174_6368);
    let paper = (0..4)
        .map(|_| PaperCase {
            seed: rng.below(1_000_000) as u64,
        })
        .collect();
    let mut families = Vec::new();
    for family in ["waxman", "ba", "hier"] {
        for _ in 0..2 {
            let mut spec = FamilySpec::canonical(family, 30, 15).expect("known family");
            spec.density = 0.7;
            families.push(FamilyCase {
                spec,
                seed: rng.below(1_000_000) as u64,
            });
        }
    }
    BatchGrid { paper, families }
}

fn join(items: &[usize]) -> String {
    items
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use popmond::protocol::parse_request;

    /// FNV-1a over the lines, newline-separated.
    fn digest(lines: &[String]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn head(inputs: &ServeInputs, n: usize) -> Vec<String> {
        inputs
            .setup
            .iter()
            .chain(&inputs.stream)
            .take(n)
            .cloned()
            .collect()
    }

    #[test]
    fn pinned_digests_for_seed_7() {
        // Changing a generator changes the benchmark's inputs; re-pin
        // these on purpose, never to make a run pass.
        let whatif = head(&serve_whatif(7, 4), 40);
        let wire = head(&serve_wire(7, 4), 120);
        assert_eq!(
            (digest(&whatif), digest(&wire)),
            (6_956_482_672_227_184_697, 11_555_652_646_594_443_838),
            "first whatif lines: {whatif:#?}"
        );
        let grid = batch_grid(7);
        assert_eq!(
            grid.paper.iter().map(|c| c.seed).collect::<Vec<_>>(),
            [197_690, 392_988, 997_325, 930_092]
        );
        assert_eq!(
            grid.families.iter().map(|c| c.seed).collect::<Vec<_>>(),
            [453_110, 856_398, 393_234, 139_098, 847_256, 800_711]
        );
    }

    #[test]
    fn every_generated_line_parses() {
        for seed in [0, 7, 123_456] {
            for inputs in [serve_whatif(seed, 10), serve_wire(seed, 10)] {
                for line in inputs.setup.iter().chain(&inputs.stream) {
                    assert!(parse_request(line).is_ok(), "{line}");
                }
            }
        }
    }

    #[test]
    fn streams_are_stratified_and_seeded() {
        let a = serve_whatif(3, 7);
        assert_eq!(a.stream.len(), 560);
        assert_eq!(a.stream, serve_whatif(3, 7).stream);
        assert_ne!(a.stream, serve_whatif(4, 7).stream);
        let count = |s: &[String], pat: &str| s.iter().filter(|l| l.contains(pat)).count();
        for id in ["w0", "w1", "w2", "w3"] {
            let mine: Vec<String> = a
                .stream
                .iter()
                .filter(|l| l.contains(&format!(r#""id":"{id}""#)))
                .cloned()
                .collect();
            assert_eq!(mine.len(), 140);
            assert_eq!(count(&mine, r#""op":"whatif""#), 98);
            assert_eq!(count(&mine, r#""op":"score_ensemble""#), 7);
            // 133 exact queries: 19 passes through the seven-value k deck.
            assert_eq!(count(&mine, r#""k":1,"#), 19);
        }
        let w = serve_wire(3, 50);
        assert_eq!(count(&w.stream, r#""op":"whatif""#), 150);
        assert_eq!(count(&w.stream, r#""method":"exact""#), 50);
        assert!(w
            .stream
            .iter()
            .filter(|l| l.contains("whatif"))
            .all(|l| l.contains(r#""id":"r0""#) || l.contains(r#""id":"r1""#)));
        assert!(w
            .stream
            .iter()
            .filter(|l| l.contains("exact"))
            .all(|l| l.contains(r#""id":"r14""#) || l.contains(r#""id":"r15""#)));
    }
}
