//! Causal **token-provenance** tracing: who gave each vertex each token,
//! and over which arc, at which timestep.
//!
//! The metrics layer ([`crate::metrics`]) aggregates causality away; this
//! module keeps it. For every `(vertex, token)` pair it records the
//! *first acquisition* — the arc, source vertex, and timestep of the
//! delivery that first gave the vertex the token. Because each pair has
//! at most one parent and every parent acquired the token strictly
//! earlier, the acquisitions form a **forest rooted at the seed vertices
//! of `h`** (§3.1's have function). On top of the forest sit the
//! analyses the FOCD objective begs for:
//!
//! - per-token **dissemination trees** with depth/latency statistics,
//! - the **critical path** of the makespan: the chain of dependent moves
//!   ending at the last-completing want, with a per-hop
//!   wait-vs-transfer breakdown (`Σ wait + hops = completion step`),
//! - per-arc **bottleneck attribution**: how many first deliveries and
//!   critical-path hops each arc carried,
//! - export to Chrome/Perfetto `trace_event` JSON (one track per
//!   vertex, one slice per transfer, flow arrows along token lineage)
//!   and to deterministic native JSON/CSV.
//!
//! # Zero-cost recording
//!
//! [`ProvenanceTrace`] is the store. Instrumented code records through
//! the [`Observer`](crate::Observer) it is generic over; the trace is
//! the observer's provenance sink, and the `()` observer, which has
//! none, compiles the recording calls away (the `engine_step_loop`
//! microbench guards this).
//!
//! # Determinism
//!
//! A trace is a pure function of the delivery sequence: no clocks, no
//! iteration-order dependence, fixed serialization order (slots ascend
//! by `(vertex, token)`; Chrome events ascend by `(step, vertex,
//! token)`). Equal-seed runs therefore serialize to **byte-identical**
//! artifacts in every export format.
//!
//! # Examples
//!
//! ```
//! use ocd_core::provenance::ProvenanceTrace;
//! use ocd_core::{Instance, Schedule, Token, TokenSet};
//! use ocd_graph::{DiGraph, EdgeId};
//!
//! // 0 → 1 → 2 relay of one token.
//! let mut g = DiGraph::with_nodes(3);
//! g.add_edge(g.node(0), g.node(1), 1).unwrap();
//! g.add_edge(g.node(1), g.node(2), 1).unwrap();
//! let instance = Instance::builder(g, 1)
//!     .have(0, [Token::new(0)])
//!     .want(2, [Token::new(0)])
//!     .build()
//!     .unwrap();
//! let mut schedule = Schedule::new();
//! schedule.push_step([(EdgeId::new(0), TokenSet::from_tokens(1, [Token::new(0)]))]);
//! schedule.push_step([(EdgeId::new(1), TokenSet::from_tokens(1, [Token::new(0)]))]);
//!
//! let trace = ProvenanceTrace::from_schedule(&instance, &schedule);
//! let analysis = trace.analyze(&instance);
//! let path = analysis.critical_path.as_ref().unwrap();
//! assert_eq!(path.hops.len(), 2);
//! assert_eq!(path.completion, 2); // 2 transfers + 0 wait
//! ```

use crate::{Instance, Schedule, Token, TokenSet};
use ocd_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The first acquisition of a `(vertex, token)` pair: the delivery that
/// first gave the vertex the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquisition {
    /// The arc the token arrived over.
    pub edge: EdgeId,
    /// The sending vertex (the arc's source).
    pub src: NodeId,
    /// The timestep (engine) or departure tick (ocd-net) of the
    /// delivering send. Under the §3.1 store-and-forward rule the token
    /// becomes usable at the receiver from `step + 1`.
    pub step: u64,
}

/// The live provenance store: one optional [`Acquisition`] per
/// `(vertex, token)` slot, densely indexed by `vertex * tokens + token`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceTrace {
    vertices: usize,
    tokens: usize,
    parents: Vec<Option<Acquisition>>,
}

impl ProvenanceTrace {
    /// Creates an empty trace for `vertices × tokens` slots.
    #[must_use]
    pub fn new(vertices: usize, tokens: usize) -> Self {
        ProvenanceTrace {
            vertices,
            tokens,
            parents: vec![None; vertices * tokens],
        }
    }

    /// Records that `delta` (tokens the receiver did **not** already
    /// hold) was delivered to `dst` over `edge` from `src` during
    /// timestep `step`. First write per `(dst, token)` wins.
    #[inline]
    pub fn record_delivery(
        &mut self,
        step: u64,
        edge: EdgeId,
        src: NodeId,
        dst: NodeId,
        delta: &TokenSet,
    ) {
        let base = dst.index() * self.tokens;
        for token in delta.iter() {
            let slot = &mut self.parents[base + token.index()];
            if slot.is_none() {
                *slot = Some(Acquisition { edge, src, step });
            }
        }
    }

    /// Number of vertices the trace covers.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Number of tokens the trace covers.
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// The recorded first acquisition of `(vertex, token)`, if any.
    /// `None` means the vertex either seeded the token (`t ∈ h(v)`) or
    /// never obtained it.
    #[must_use]
    pub fn parent(&self, vertex: NodeId, token: Token) -> Option<Acquisition> {
        self.parents[vertex.index() * self.tokens + token.index()]
    }

    /// Number of recorded acquisitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.iter().filter(|p| p.is_some()).count()
    }

    /// Whether no acquisition has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parents.iter().all(Option::is_none)
    }

    /// The set of arcs that contributed to `vertex`'s acquisitions:
    /// every distinct edge appearing among its per-token parents,
    /// ascending and deduplicated.
    ///
    /// For uncoded runs this is "which in-arcs this vertex actually
    /// used". For coded runs — where the trace is slot-indexed and
    /// token `r` stands for the `r`-th innovative packet — it is the
    /// *coded lineage* of the decoded generation: the arcs whose
    /// packets entered the vertex's decoding basis. A decoded token has
    /// no single parent arc under network coding; this set is its
    /// honest provenance.
    #[must_use]
    pub fn contributing_arcs(&self, vertex: NodeId) -> Vec<EdgeId> {
        let base = vertex.index() * self.tokens;
        let mut arcs: Vec<EdgeId> = self.parents[base..base + self.tokens]
            .iter()
            .flatten()
            .map(|a| a.edge)
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        arcs
    }

    /// Derives the provenance forest by replaying `schedule` against
    /// `instance` — the post-hoc path for any certified
    /// [`RunRecord`](crate::RunRecord), no re-run needed.
    ///
    /// The replay mirrors the engine's apply semantics exactly
    /// (deliveries applied in ascending arc order within a step,
    /// possession updated immediately), so a trace recorded live by the
    /// engine equals the trace derived here from the same schedule.
    #[must_use]
    pub fn from_schedule(instance: &Instance, schedule: &Schedule) -> Self {
        let g = instance.graph();
        let mut trace = ProvenanceTrace::new(g.node_count(), instance.num_tokens());
        let mut possession: Vec<TokenSet> = instance.have_all().to_vec();
        let mut delta = TokenSet::new(instance.num_tokens());
        for (step, timestep) in schedule.steps().iter().enumerate() {
            for (edge, tokens) in timestep.sends() {
                let arc = g.edge(edge);
                delta.copy_from(tokens);
                delta.subtract(&possession[arc.dst.index()]);
                if delta.is_empty() {
                    continue;
                }
                possession[arc.dst.index()].union_with(&delta);
                trace.record_delivery(step as u64, edge, arc.src, arc.dst, &delta);
            }
        }
        trace
    }

    /// Freezes the trace into its serializable digest form.
    #[must_use]
    pub fn to_record(&self) -> ProvenanceRecord {
        let mut entries = Vec::with_capacity(self.len());
        for v in 0..self.vertices {
            for t in 0..self.tokens {
                if let Some(acq) = self.parents[v * self.tokens + t] {
                    // Lossless by construction: the digest fields are u64
                    // and every id domain in the system is at most that
                    // wide, so no index is ever silently truncated.
                    entries.push(ProvEntry {
                        vertex: v as u64,
                        token: t as u64,
                        src: acq.src.index() as u64,
                        edge: acq.edge.index() as u64,
                        step: acq.step,
                    });
                }
            }
        }
        ProvenanceRecord {
            vertices: self.vertices,
            tokens: self.tokens,
            entries,
        }
    }

    /// Rebuilds a trace from its digest form. Entries out of range —
    /// including ids that exceed the in-memory id domains, which a forged
    /// or corrupted digest can carry now that the schema is u64-wide —
    /// are ignored; for duplicate `(vertex, token)` entries the first
    /// wins.
    #[must_use]
    pub fn from_record(record: &ProvenanceRecord) -> Self {
        let mut trace = ProvenanceTrace::new(record.vertices, record.tokens);
        for e in &record.entries {
            let (Ok(v), Ok(t)) = (usize::try_from(e.vertex), usize::try_from(e.token)) else {
                continue;
            };
            if v >= record.vertices || t >= record.tokens {
                continue;
            }
            // NodeId/EdgeId are u32-indexed; wider values cannot name any
            // in-memory object and would otherwise panic in the ctors.
            let (Ok(src), Ok(edge)) = (u32::try_from(e.src), u32::try_from(e.edge)) else {
                continue;
            };
            let slot = &mut trace.parents[v * record.tokens + t];
            if slot.is_none() {
                *slot = Some(Acquisition {
                    edge: EdgeId::new(edge as usize),
                    src: NodeId::new(src as usize),
                    step: e.step,
                });
            }
        }
        trace
    }

    /// Runs the full analysis: critical path, per-arc bottleneck
    /// attribution, and per-token dissemination-tree statistics.
    #[must_use]
    pub fn analyze(&self, instance: &Instance) -> ProvenanceAnalysis {
        let g = instance.graph();
        let mut arcs = vec![ArcStats::default(); g.edge_count()];

        // Depth/latency per dissemination tree: process acquisitions in
        // ascending step order; every parent is either a seed (depth 0)
        // or an earlier-step acquisition, so depths resolve in one pass.
        let mut order: Vec<usize> = (0..self.parents.len())
            .filter(|&slot| self.parents[slot].is_some())
            .collect();
        order.sort_by_key(|&slot| {
            let acq = self.parents[slot].unwrap();
            (acq.step, slot)
        });
        let mut depth = vec![0u64; self.parents.len()];
        let mut trees: Vec<TokenTreeStats> = (0..self.tokens)
            .map(|t| TokenTreeStats {
                token: Token::new(t),
                deliveries: 0,
                max_depth: 0,
                depth_sum: 0,
                last_step: 0,
            })
            .collect();
        for &slot in &order {
            let acq = self.parents[slot].unwrap();
            let t = slot % self.tokens;
            if acq.edge.index() < arcs.len() {
                arcs[acq.edge.index()].first_deliveries += 1;
            }
            let parent_slot = acq.src.index() * self.tokens + t;
            let d = if parent_slot < self.parents.len() && self.parents[parent_slot].is_some() {
                depth[parent_slot] + 1
            } else {
                1 // parent is a seed vertex of h
            };
            depth[slot] = d;
            let tree = &mut trees[t];
            tree.deliveries += 1;
            tree.max_depth = tree.max_depth.max(d);
            tree.depth_sum += d;
            tree.last_step = tree.last_step.max(acq.step);
        }
        trees.retain(|t| t.deliveries > 0);

        let critical_path = self.critical_path(instance);
        if let Some(path) = &critical_path {
            for hop in &path.hops {
                if hop.edge.index() < arcs.len() {
                    arcs[hop.edge.index()].crit_hops += 1;
                }
            }
        }
        ProvenanceAnalysis {
            critical_path,
            arcs,
            trees,
        }
    }

    /// The makespan's critical path: the chain of dependent first
    /// deliveries ending at the **last-completing want** (ties broken
    /// toward the smallest `(vertex, token)`), walked back through
    /// same-token parents to a seed vertex. `None` when no wanted token
    /// was acquired over an arc (trivially satisfied or empty runs).
    #[must_use]
    pub fn critical_path(&self, instance: &Instance) -> Option<CriticalPath> {
        let g = instance.graph();
        let mut sink: Option<(NodeId, Token, u64)> = None;
        for v in 0..self.vertices.min(g.node_count()) {
            let vertex = NodeId::new(v);
            for token in instance.want(vertex).iter() {
                if token.index() >= self.tokens {
                    continue;
                }
                if let Some(acq) = self.parent(vertex, token) {
                    if sink.is_none_or(|(_, _, best)| acq.step > best) {
                        sink = Some((vertex, token, acq.step));
                    }
                }
            }
        }
        let (sink_vertex, token, last_step) = sink?;
        let mut hops = Vec::new();
        let mut cursor = sink_vertex;
        let mut prev_step = u64::MAX;
        while let Some(acq) = self.parent(cursor, token) {
            // Strict monotonicity (parent departs before the child can):
            // a violation means a tampered digest, so stop the walk.
            if acq.step >= prev_step {
                break;
            }
            prev_step = acq.step;
            hops.push(CriticalHop {
                edge: acq.edge,
                src: acq.src,
                dst: cursor,
                token,
                step: acq.step,
                wait: 0,
            });
            cursor = acq.src;
        }
        hops.reverse();
        // The seed holds the token from step 0; each later hop can
        // depart one step after its predecessor's delivery (§3.1
        // store-and-forward), so any extra steps are waiting.
        let mut usable_at = 0u64;
        for hop in &mut hops {
            hop.wait = hop.step - usable_at;
            usable_at = hop.step + 1;
        }
        Some(CriticalPath {
            sink: sink_vertex,
            token,
            completion: last_step + 1,
            hops,
        })
    }

    /// Serializes the digest form as deterministic pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_record())
            .expect("provenance record serialization cannot fail")
    }

    /// Serializes the acquisitions as deterministic CSV, one row per
    /// `(vertex, token)` first acquisition in ascending slot order.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("vertex,token,src,edge,step\n");
        for e in self.to_record().entries {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                e.vertex, e.token, e.src, e.edge, e.step
            );
        }
        out
    }

    /// Exports the trace as Chrome/Perfetto `trace_event` JSON: one
    /// track (thread) per vertex, one 1-ms slice per first delivery
    /// (1 timestep = 1000 µs), and a flow arrow from each delivery's
    /// parent slice along the token lineage. Seed slices at `ts = 0`
    /// anchor lineages that start at a have-set vertex.
    ///
    /// Event order is fixed (metadata, seeds by `(vertex, token)`,
    /// deliveries by `(step, vertex, token)`), so equal traces export
    /// byte-identically.
    #[must_use]
    pub fn to_chrome_json(&self, instance: &Instance) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"ocd token provenance\"}}"
                .to_string(),
        );
        for v in 0..self.vertices {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{v},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"vertex {v}\"}}}}"
            ));
        }

        // Seed slices: only for (vertex, token) seeds that actually
        // parent at least one acquisition, so idle seeds add no noise.
        let mut seed_used = vec![false; self.parents.len()];
        for slot in 0..self.parents.len() {
            if let Some(acq) = self.parents[slot] {
                let t = slot % self.tokens;
                let parent_slot = acq.src.index() * self.tokens + t;
                if parent_slot < self.parents.len() && self.parents[parent_slot].is_none() {
                    seed_used[parent_slot] = true;
                }
            }
        }
        let have = instance.have_all();
        for (slot, used) in seed_used.iter().enumerate() {
            let (v, t) = (slot / self.tokens, slot % self.tokens);
            if *used && v < have.len() && have[v].contains(Token::new(t)) {
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{v},\"ts\":0,\"dur\":500,\
                     \"name\":\"seed token {t}\",\"cat\":\"seed\",\
                     \"args\":{{\"token\":{t}}}}}"
                ));
            }
        }

        let mut order: Vec<usize> = (0..self.parents.len())
            .filter(|&slot| self.parents[slot].is_some())
            .collect();
        order.sort_by_key(|&slot| (self.parents[slot].unwrap().step, slot));
        for slot in order {
            let acq = self.parents[slot].unwrap();
            let (v, t) = (slot / self.tokens, slot % self.tokens);
            let ts = acq.step * 1000;
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{v},\"ts\":{ts},\"dur\":1000,\
                 \"name\":\"token {t} via arc {e}\",\"cat\":\"transfer\",\
                 \"args\":{{\"token\":{t},\"edge\":{e},\"src\":{s}}}}}",
                e = acq.edge.index(),
                s = acq.src.index(),
            ));
            // Flow arrow from the parent slice (or the seed slice) to
            // this delivery; the flow id is the child's slot index.
            let parent_slot = acq.src.index() * self.tokens + t;
            let start_ts = match self.parents.get(parent_slot).copied().flatten() {
                Some(parent) => parent.step * 1000 + 500,
                None => 250,
            };
            events.push(format!(
                "{{\"ph\":\"s\",\"pid\":1,\"tid\":{src},\"ts\":{start_ts},\
                 \"id\":{slot},\"name\":\"token {t}\",\"cat\":\"lineage\"}}",
                src = acq.src.index(),
            ));
            events.push(format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{v},\"ts\":{fts},\
                 \"id\":{slot},\"name\":\"token {t}\",\"cat\":\"lineage\"}}",
                fts = ts + 500,
            ));
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// One entry of a [`ProvenanceRecord`]: a `(vertex, token)` first
/// acquisition in serializable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvEntry {
    /// The acquiring vertex. u64-wide so indices above 2³² export
    /// losslessly — the previous u32 schema truncated them silently,
    /// producing a wrong-but-certifiable digest.
    pub vertex: u64,
    /// The acquired token.
    pub token: u64,
    /// The sending vertex.
    pub src: u64,
    /// The arc the token arrived over.
    pub edge: u64,
    /// The timestep/tick of the delivering send.
    pub step: u64,
}

/// The serializable digest of a [`ProvenanceTrace`]: entries sorted by
/// `(vertex, token)`. Embedded in schema-v3
/// [`RunRecord`](crate::RunRecord)s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Number of vertices the trace covers.
    pub vertices: usize,
    /// Number of tokens the trace covers.
    pub tokens: usize,
    /// First acquisitions, ascending by `(vertex, token)`.
    pub entries: Vec<ProvEntry>,
}

/// One hop of the makespan critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalHop {
    /// The arc the hop crossed.
    pub edge: EdgeId,
    /// Sending vertex.
    pub src: NodeId,
    /// Receiving vertex.
    pub dst: NodeId,
    /// The token carried.
    pub token: Token,
    /// The timestep the hop departed.
    pub step: u64,
    /// Timesteps the token sat usable at `src` before this hop departed
    /// (0 = the hop left as early as §3.1 store-and-forward allows).
    pub wait: u64,
}

/// The makespan critical path: the dependency chain of first deliveries
/// ending at the last-completing want.
///
/// The wait-vs-transfer decomposition is exact:
/// `total_wait() + hops.len() == completion`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The last-completing wanting vertex.
    pub sink: NodeId,
    /// The token whose delivery completed last.
    pub token: Token,
    /// The step from which the sink holds the token
    /// (= last hop's step + 1).
    pub completion: u64,
    /// The hops in chronological order, seed first.
    pub hops: Vec<CriticalHop>,
}

impl CriticalPath {
    /// Total timesteps spent waiting (not transferring) along the path.
    #[must_use]
    pub fn total_wait(&self) -> u64 {
        self.hops.iter().map(|h| h.wait).sum()
    }
}

/// Per-arc bottleneck attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArcStats {
    /// First deliveries (acquisitions) the arc carried.
    pub first_deliveries: u64,
    /// Critical-path hops the arc carried.
    pub crit_hops: u64,
}

/// Depth/latency statistics of one token's dissemination tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenTreeStats {
    /// The token.
    pub token: Token,
    /// First deliveries of this token (tree edges).
    pub deliveries: u64,
    /// Longest root-to-leaf hop count.
    pub max_depth: u64,
    /// Sum of per-delivery depths (for [`TokenTreeStats::mean_depth`]).
    pub depth_sum: u64,
    /// Latest delivery step of the token.
    pub last_step: u64,
}

impl TokenTreeStats {
    /// Mean hop depth over the token's first deliveries.
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        if self.deliveries == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.deliveries as f64
        }
    }
}

/// The full analysis of a [`ProvenanceTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceAnalysis {
    /// The makespan critical path, when one exists.
    pub critical_path: Option<CriticalPath>,
    /// Per-arc attribution, indexed by arc id.
    pub arcs: Vec<ArcStats>,
    /// Per-token dissemination-tree statistics, tokens with at least
    /// one delivery, ascending by token id.
    pub trees: Vec<TokenTreeStats>,
}

impl ProvenanceAnalysis {
    /// Critical-path length in hops (0 when no path exists) — the
    /// `crit_len` table column.
    #[must_use]
    pub fn crit_len(&self) -> usize {
        self.critical_path.as_ref().map_or(0, |p| p.hops.len())
    }

    /// The arc carrying the most critical-path hops (ties toward the
    /// smallest arc id; `None` when no path exists) — the `crit_arc`
    /// table column.
    #[must_use]
    pub fn crit_arc(&self) -> Option<EdgeId> {
        let best = self
            .arcs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.crit_hops > 0)
            .max_by(|(i, a), (j, b)| a.crit_hops.cmp(&b.crit_hops).then(j.cmp(i)))?;
        Some(EdgeId::new(best.0))
    }

    /// Renders the analysis as the human-readable report the CLI
    /// `trace analyze` subcommand prints: the critical path with its
    /// per-hop wait-vs-transfer breakdown, the per-arc bottleneck
    /// table, and the per-token tree statistics.
    #[must_use]
    pub fn render(&self, instance: &Instance) -> String {
        let g = instance.graph();
        let mut out = String::new();
        match &self.critical_path {
            None => {
                out.push_str("critical path: none (no wanted token was acquired over an arc)\n");
            }
            Some(path) => {
                let _ = writeln!(
                    out,
                    "critical path: vertex {} acquires token {} at step {} \
                     ({} transfer hops + {} waited steps = {})",
                    path.sink.index(),
                    path.token.index(),
                    path.completion,
                    path.hops.len(),
                    path.total_wait(),
                    path.completion,
                );
                for (i, hop) in path.hops.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  hop {:>2}: step {:>4}  arc {:>4} ({} -> {})  token {:>3}  wait {}",
                        i + 1,
                        hop.step,
                        hop.edge.index(),
                        hop.src.index(),
                        hop.dst.index(),
                        hop.token.index(),
                        hop.wait,
                    );
                }
            }
        }
        out.push_str("\nper-arc bottleneck attribution (arcs with deliveries):\n");
        out.push_str("  arc   src->dst   first_deliveries  crit_hops\n");
        for (i, stats) in self.arcs.iter().enumerate() {
            if stats.first_deliveries == 0 && stats.crit_hops == 0 {
                continue;
            }
            let arc = g.edge(EdgeId::new(i));
            let _ = writeln!(
                out,
                "  {:>3}   {:>3}->{:<3}   {:>16}  {:>9}",
                i,
                arc.src.index(),
                arc.dst.index(),
                stats.first_deliveries,
                stats.crit_hops,
            );
        }
        out.push_str("\ntoken dissemination trees:\n");
        out.push_str("  token  deliveries  max_depth  mean_depth  last_step\n");
        for tree in &self.trees {
            let _ = writeln!(
                out,
                "  {:>5}  {:>10}  {:>9}  {:>10.2}  {:>9}",
                tree.token.index(),
                tree.deliveries,
                tree.max_depth,
                tree.mean_depth(),
                tree.last_step,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_graph::generate::classic;

    /// 0 → 1 → 2 → 3 path, token 0 seeded at 0, wanted at 3; token 1
    /// seeded at 1, wanted at 2.
    fn relay_instance() -> Instance {
        let g = classic::path(4, 1, false);
        Instance::builder(g, 2)
            .have(0, [Token::new(0)])
            .have(1, [Token::new(1)])
            .want(3, [Token::new(0)])
            .want(2, [Token::new(1)])
            .build()
            .unwrap()
    }

    fn relay_schedule() -> Schedule {
        let mut s = Schedule::new();
        // step 0: t0 crosses 0→1, t1 crosses 1→2.
        s.push_step([
            (EdgeId::new(0), TokenSet::from_tokens(2, [Token::new(0)])),
            (EdgeId::new(1), TokenSet::from_tokens(2, [Token::new(1)])),
        ]);
        // step 1: idle for t0 (wait), then step 2-3 relay it onward.
        s.push_step([]);
        s.push_step([(EdgeId::new(1), TokenSet::from_tokens(2, [Token::new(0)]))]);
        s.push_step([(EdgeId::new(2), TokenSet::from_tokens(2, [Token::new(0)]))]);
        s
    }

    #[test]
    fn from_schedule_builds_the_forest() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::from_schedule(&instance, &relay_schedule());
        assert_eq!(trace.len(), 4);
        let acq = trace.parent(NodeId::new(3), Token::new(0)).unwrap();
        assert_eq!(acq.step, 3);
        assert_eq!(acq.edge, EdgeId::new(2));
        assert_eq!(acq.src, NodeId::new(2));
        assert!(
            trace.parent(NodeId::new(0), Token::new(0)).is_none(),
            "seed"
        );
        assert!(trace.parent(NodeId::new(3), Token::new(1)).is_none());
    }

    #[test]
    fn critical_path_decomposes_wait_and_transfer() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::from_schedule(&instance, &relay_schedule());
        let path = trace.critical_path(&instance).unwrap();
        assert_eq!(path.sink, NodeId::new(3));
        assert_eq!(path.token, Token::new(0));
        assert_eq!(path.completion, 4);
        assert_eq!(path.hops.len(), 3);
        // Hop 2 departs at step 2 though the token was usable at 1.
        assert_eq!(path.hops[1].wait, 1);
        assert_eq!(path.total_wait() + path.hops.len() as u64, path.completion);
    }

    #[test]
    fn analysis_attributes_arcs_and_trees() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::from_schedule(&instance, &relay_schedule());
        let analysis = trace.analyze(&instance);
        assert_eq!(analysis.crit_len(), 3);
        // Every arc carries exactly one critical hop; ties break low.
        assert_eq!(analysis.crit_arc(), Some(EdgeId::new(0)));
        assert_eq!(analysis.arcs[1].first_deliveries, 2);
        assert_eq!(analysis.arcs[1].crit_hops, 1);
        let t0 = &analysis.trees[0];
        assert_eq!(t0.deliveries, 3);
        assert_eq!(t0.max_depth, 3);
        assert_eq!(t0.last_step, 3);
        assert!((t0.mean_depth() - 2.0).abs() < 1e-9);
        let rendered = analysis.render(&instance);
        assert!(rendered.contains("critical path: vertex 3"));
        assert!(rendered.contains("bottleneck"));
    }

    #[test]
    fn record_round_trips_and_exports_are_deterministic() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::from_schedule(&instance, &relay_schedule());
        let record = trace.to_record();
        assert_eq!(ProvenanceTrace::from_record(&record), trace);
        let json: ProvenanceRecord =
            serde_json::from_str(&serde_json::to_string(&record).unwrap()).unwrap();
        assert_eq!(json, record);
        assert_eq!(trace.to_json(), trace.to_json());
        assert_eq!(trace.to_csv(), trace.to_csv());
        assert!(trace.to_csv().starts_with("vertex,token,src,edge,step\n"));
        assert_eq!(
            trace.to_chrome_json(&instance),
            trace.to_chrome_json(&instance)
        );
    }

    #[test]
    fn chrome_export_has_tracks_slices_and_flows() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::from_schedule(&instance, &relay_schedule());
        let chrome = trace.to_chrome_json(&instance);
        let count = |ph: &str| chrome.matches(&format!("{{\"ph\":\"{ph}\"")).count();
        assert!(chrome.starts_with("{\"traceEvents\":[\n"));
        assert!(chrome.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert_eq!(count("M"), 1 + 4, "process + one thread per vertex");
        assert_eq!(count("s"), 4, "one flow start per acquisition");
        assert_eq!(count("f"), 4, "one flow finish per acquisition");
        // 4 transfer slices + 2 seed slices (both seeds parent a hop).
        assert_eq!(count("X"), 6);
    }

    #[test]
    fn cyclic_tampered_record_terminates_the_walk() {
        let g = classic::path(2, 1, true); // 0→1 and 1→0
        let instance = Instance::builder(g, 1)
            .have(0, [Token::new(0)])
            .want(1, [Token::new(0)])
            .build()
            .unwrap();
        // A forged record claiming 0 got the token from 1 and 1 from 0,
        // with non-decreasing steps: the walk must not loop.
        let record = ProvenanceRecord {
            vertices: 2,
            tokens: 1,
            entries: vec![
                ProvEntry {
                    vertex: 0,
                    token: 0,
                    src: 1,
                    edge: 1,
                    step: 1,
                },
                ProvEntry {
                    vertex: 1,
                    token: 0,
                    src: 0,
                    edge: 0,
                    step: 1,
                },
            ],
        };
        let trace = ProvenanceTrace::from_record(&record);
        let path = trace.critical_path(&instance).unwrap();
        assert_eq!(path.hops.len(), 1, "cycle cut at the monotonicity guard");
    }

    #[test]
    fn digest_ids_above_u32_are_not_truncated() {
        // Regression: the export schema used `as u32` casts, so an index
        // of 2³² + 5 silently became 5 — a wrong but internally
        // consistent digest. The u64 schema must round-trip such values
        // exactly through serde.
        let big = (1u64 << 32) + 5;
        let entry = ProvEntry {
            vertex: big,
            token: big + 1,
            src: big + 2,
            edge: big + 3,
            step: u64::MAX,
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: ProvEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
        assert!(
            json.contains(&big.to_string()),
            "value must appear unmodified in the wire form: {json}"
        );
    }

    #[test]
    fn from_record_ignores_unrepresentable_ids_without_panicking() {
        // Ids wider than the u32 NodeId/EdgeId domain cannot name any
        // in-memory object; a digest carrying them (corrupt or forged)
        // must be skipped, not truncated into a *different* valid id and
        // not panic in the id constructors.
        let record = ProvenanceRecord {
            vertices: 2,
            tokens: 1,
            entries: vec![
                ProvEntry {
                    vertex: (1 << 33) + 1, // out of range: ignored
                    token: 0,
                    src: 0,
                    edge: 0,
                    step: 0,
                },
                ProvEntry {
                    vertex: 1,
                    token: 0,
                    src: 1 << 40, // unrepresentable src: ignored
                    edge: 0,
                    step: 0,
                },
                ProvEntry {
                    vertex: 1,
                    token: 0,
                    src: 0,
                    edge: 1 << 40, // unrepresentable edge: ignored
                    step: 0,
                },
                ProvEntry {
                    vertex: 1,
                    token: 0,
                    src: 0,
                    edge: 0,
                    step: 7,
                },
            ],
        };
        let trace = ProvenanceTrace::from_record(&record);
        assert_eq!(trace.len(), 1, "only the representable entry survives");
        let acq = trace.parent(NodeId::new(1), Token::new(0)).unwrap();
        assert_eq!(acq.step, 7);
        assert_eq!(acq.src, NodeId::new(0));
    }

    #[test]
    fn empty_trace_has_no_critical_path() {
        let instance = relay_instance();
        let trace = ProvenanceTrace::new(4, 2);
        assert!(trace.is_empty());
        assert!(trace.critical_path(&instance).is_none());
        let analysis = trace.analyze(&instance);
        assert_eq!(analysis.crit_len(), 0);
        assert_eq!(analysis.crit_arc(), None);
        assert!(analysis.trees.is_empty());
        assert!(analysis.render(&instance).contains("critical path: none"));
    }
}
