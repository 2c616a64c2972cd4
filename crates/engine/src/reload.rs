//! Closed-loop live reconfiguration: validated hot manifest reload under
//! streaming traffic.
//!
//! The batch pipeline optimizes once against a *forecast* traffic matrix
//! and replays against it. This module closes the loop: the streaming
//! data plane counts what it actually carries, and at epoch boundaries a
//! [`ReloadController`] folds those observations into the deployment's
//! unit volumes, re-solves the LP seeded with the previous solve's column
//! pool ([`solve_nids_lp_warm`]), and swaps the freshly generated
//! manifest into every live engine — without stopping replay.
//!
//! Every candidate manifest passes through the [`validate_manifests`]
//! gate before it reaches
//! [`Engine::set_manifest`](crate::engine::Engine::set_manifest): coverage
//! gaps or overlaps, redundancy shortfalls, structural corruption, and
//! capacity ceiling violations are all rejected *before* the swap, and the
//! old manifest keeps serving. The [`Sabotage`] hook deliberately corrupts a
//! candidate so tests and the `repro reload` scenario can pin the
//! rejection path end to end.
//!
//! The run itself is the coordinated replay loop of [`crate::stream`] split
//! into equal epochs, with the controller deciding every swap between
//! them. Because engines only consult the manifest (unit structure never
//! changes — re-solves alter volumes, not units), a swap is a single
//! `Arc` pointer exchange per engine between epochs; the per-connection
//! state, per-host aggregates, and meters all survive the reload. With
//! every swap rejected ([`Sabotage::Every`]) the run is bit-identical to
//! [`run_coordinated_stream`](crate::stream::run_coordinated_stream) —
//! `tests/parallel_equivalence.rs` pins that equivalence.

use crate::engine::Placement;
use crate::modules::EngineError;
use crate::netwide::NetworkRun;
use crate::stream::run_epochs;
use nwdp_core::migration::plan_transition;
use nwdp_core::nids::{
    generate_manifests, solve_nids_lp_warm, validate_manifests, CapacityCeiling, ColumnPool,
    ManifestEntry, ManifestValidationError, NidsError, NidsLpConfig, NodeCaps, SamplingManifest,
};
use nwdp_core::resilience::manifest_gap_fraction;
use nwdp_core::{NidsDeployment, UnitKey};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_topo::{NodeId, PathDb};
use nwdp_traffic::Session;
use std::collections::BTreeMap;
use std::sync::Arc;

/// When (if ever) the controller corrupts its own candidate manifest
/// before validation. Used to exercise the rejection path: a sabotaged
/// candidate must be rejected by the validation gate and the previous
/// manifest must keep serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Never corrupt: every feasible re-solve swaps.
    None,
    /// Corrupt the candidate produced at this epoch boundary (1-based,
    /// like the boundary index).
    AtEpoch(usize),
    /// Corrupt every candidate: no swap ever lands, the run must be
    /// bit-identical to a plain streaming run.
    Every,
}

/// Configuration for [`run_coordinated_stream_reload`].
#[derive(Debug, Clone)]
pub struct ReloadConfig<'a> {
    /// Number of equal traffic segments; the controller re-solves at the
    /// `epochs - 1` interior boundaries.
    pub epochs: usize,
    /// Total sessions the source yields (`Session::id` in
    /// `0..total_sessions`); boundaries split this range evenly.
    pub total_sessions: u64,
    /// Per-node capacities for the re-solve LP and the validation gate's
    /// capacity ceiling.
    pub caps: &'a [NodeCaps],
    /// Redundancy level `r` for the re-solve and the coverage check.
    pub redundancy: f64,
    /// Validation ceiling: a candidate manifest whose implied load
    /// exceeds this fraction of any node's capacity is rejected.
    pub max_load: f64,
    /// EWMA weight of the observed mix when folding it into the unit
    /// volumes (`0.0` = ignore observations, `1.0` = trust them fully).
    pub blend: f64,
    pub sabotage: Sabotage,
}

/// What happened at one epoch boundary.
#[derive(Debug, Clone)]
pub enum ReloadOutcome {
    /// Candidate validated; the new manifest is live.
    Swapped {
        /// Mean hash-space fraction that changed owners (drain cost).
        moved_fraction: f64,
    },
    /// Validation gate rejected the candidate; old manifest kept serving.
    Rejected(ManifestValidationError),
    /// The warm re-solve itself failed; old manifest kept serving.
    SolveFailed(NidsError),
}

/// One epoch-boundary decision with its bookkeeping.
#[derive(Debug, Clone)]
pub struct ReloadDecision {
    /// Boundary index (1-based: boundary `e` separates epoch `e` from
    /// `e + 1`).
    pub epoch: usize,
    /// Replay-clock position of the boundary in `[0, 1]`.
    pub at: f64,
    pub outcome: ReloadOutcome,
    /// Wall time of re-solve + manifest generation + validation.
    pub resolve_micros: u64,
    /// Simplex iterations of the re-solve's master LPs, 0 if the solve
    /// failed.
    pub lp_iterations: usize,
    /// Network-wide covered fraction of the manifest serving *after*
    /// this boundary (the new one if swapped, the old one otherwise).
    pub coverage_after: f64,
}

/// Result of a closed-loop streaming run.
#[derive(Debug)]
pub struct ReloadRun {
    pub run: NetworkRun,
    /// One decision per interior epoch boundary.
    pub decisions: Vec<ReloadDecision>,
    /// `(replay position, covered fraction)` of the live manifest —
    /// sampled at start-of-run and after every boundary decision.
    pub coverage: Vec<(f64, f64)>,
}

impl ReloadRun {
    /// Number of boundaries whose candidate swapped in.
    pub fn swaps(&self) -> usize {
        self.decisions.iter().filter(|d| matches!(d.outcome, ReloadOutcome::Swapped { .. })).count()
    }

    /// Number of boundaries whose candidate was rejected by validation.
    pub fn rejected(&self) -> usize {
        self.decisions.iter().filter(|d| matches!(d.outcome, ReloadOutcome::Rejected(_))).count()
    }

    /// Minimum of the coverage series (the floor the repair bound is
    /// asserted against).
    pub fn coverage_floor(&self) -> f64 {
        self.coverage.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min)
    }
}

/// Per-`(src, dst)` packet and session counts observed by the data plane
/// over one epoch. Counted once per session, at its ingress node, when
/// the replay loop routes it (a session its ingress node cannot see is
/// not counted).
#[derive(Debug, Clone, Default)]
pub struct ObservedMix {
    /// `(src, dst) → (packets, sessions)`.
    pairs: BTreeMap<(usize, usize), (u64, u64)>,
}

impl ObservedMix {
    pub fn record(&mut self, src: NodeId, dst: NodeId, pkts: u64) {
        let e = self.pairs.entry((src.index(), dst.index())).or_insert((0, 0));
        e.0 += pkts;
        e.1 += 1;
    }

    pub fn merge(&mut self, other: &ObservedMix) {
        for (&k, &(p, f)) in &other.pairs {
            let e = self.pairs.entry(k).or_insert((0, 0));
            e.0 += p;
            e.1 += f;
        }
    }

    /// Total observed `(packets, sessions)`.
    pub fn totals(&self) -> (f64, f64) {
        let (p, f) = self.pairs.values().fold((0u64, 0u64), |(ap, af), &(p, f)| (ap + p, af + f));
        (p as f64, f as f64)
    }

    /// Observed `(packets, sessions)` matching a coordination-unit key.
    fn for_key(&self, key: &UnitKey) -> (f64, f64) {
        let (p, f) = match *key {
            UnitKey::Path(s, d) => {
                self.pairs.get(&(s.index(), d.index())).copied().unwrap_or((0, 0))
            }
            UnitKey::Ingress(s) => self
                .pairs
                .iter()
                .filter(|((src, _), _)| *src == s.index())
                .fold((0, 0), |(ap, af), (_, &(p, f))| (ap + p, af + f)),
            UnitKey::Egress(d) => self
                .pairs
                .iter()
                .filter(|((_, dst), _)| *dst == d.index())
                .fold((0, 0), |(ap, af), (_, &(p, f))| (ap + p, af + f)),
        };
        (p as f64, f as f64)
    }
}

/// The closed-loop controller: owns the live deployment volumes, the
/// live manifest, and the chained column pool.
pub struct ReloadController {
    dep: NidsDeployment,
    manifest: Arc<SamplingManifest>,
    pool: ColumnPool,
    /// `(pkts, items)` totals per class at construction — blending
    /// re-normalizes observed shapes to these magnitudes so the LP stays
    /// in the regime the capacities were provisioned for.
    class_totals: Vec<(f64, f64)>,
    caps: Vec<NodeCaps>,
    redundancy: f64,
    max_load: f64,
    blend: f64,
}

impl ReloadController {
    pub fn new(
        dep: &NidsDeployment,
        manifest: Arc<SamplingManifest>,
        caps: &[NodeCaps],
        redundancy: f64,
        max_load: f64,
        blend: f64,
    ) -> Self {
        assert_eq!(caps.len(), dep.num_nodes, "capacity vector size mismatch");
        assert!((0.0..=1.0).contains(&blend), "blend must be in [0, 1]");
        let mut class_totals = vec![(0.0f64, 0.0f64); dep.classes.len()];
        for u in &dep.units {
            class_totals[u.class].0 += u.pkts;
            class_totals[u.class].1 += u.items;
        }
        let pool = ColumnPool::anchored(dep, redundancy, |u, j| manifest.share(u, j));
        ReloadController {
            dep: dep.clone(),
            manifest,
            pool,
            class_totals,
            caps: caps.to_vec(),
            redundancy,
            max_load,
            blend,
        }
    }

    /// The manifest currently serving.
    pub fn manifest(&self) -> Arc<SamplingManifest> {
        self.manifest.clone()
    }

    /// The deployment (with blended volumes) the live manifest was
    /// generated for.
    pub fn deployment(&self) -> &NidsDeployment {
        &self.dep
    }

    /// Fold `observed` into the unit volumes: each unit's new volume is
    /// an EWMA of its current volume and the *observed traffic shape*
    /// re-scaled to the class's baseline magnitude. Re-normalizing keeps
    /// the LP coefficients in the provisioned-capacity regime — the
    /// optimum is invariant to uniform volume scaling, so only the shape
    /// matters.
    fn blended_deployment(&self, observed: &ObservedMix) -> NidsDeployment {
        let (tp, tf) = observed.totals();
        let mut next = self.dep.clone();
        if tp <= 0.0 {
            return next; // no traffic observed: nothing to learn
        }
        for unit in &mut next.units {
            let (op, of) = observed.for_key(&unit.key);
            let (base_p, base_i) = self.class_totals[unit.class];
            unit.pkts = (1.0 - self.blend) * unit.pkts + self.blend * (op / tp) * base_p;
            if tf > 0.0 {
                unit.items = (1.0 - self.blend) * unit.items + self.blend * (of / tf) * base_i;
            }
        }
        next
    }

    /// Re-solve against the blended volumes, generate + validate a
    /// candidate manifest, and swap it in if (and only if) it passes the
    /// gate. On rejection or solve failure the previous manifest (and
    /// deployment) stay live.
    pub fn resolve(
        &mut self,
        epoch: usize,
        at: f64,
        observed: &ObservedMix,
        sabotage: bool,
    ) -> ReloadDecision {
        let t0 = std::time::Instant::now();
        // The re-solve and each step after it are spans of their own, so a
        // trace splits the re-solve's time by step.
        let _span = obs::span!("reload.resolve", epoch = epoch);
        let metrics = obs::enabled();
        if metrics {
            obs::Scope::new("reload").counter("resolves").inc();
        }
        let next_dep = self.blended_deployment(observed);
        let mut lp = NidsLpConfig::homogeneous(next_dep.num_nodes, self.caps[0]);
        lp.caps = self.caps.clone();
        lp.redundancy = self.redundancy;

        let mut lp_iterations = 0usize;
        let solved = {
            let _span = obs::span!("reload.solve");
            solve_nids_lp_warm(&next_dep, &lp, Some(&self.pool))
        };
        let outcome = match solved {
            Err(e) => {
                if metrics {
                    obs::Scope::new("reload").counter("solve_failed").inc();
                }
                ReloadOutcome::SolveFailed(e)
            }
            Ok((assignment, pool)) => {
                // Chain the pool even if validation later rejects the
                // candidate: the *solve* was sound, only the manifest is
                // discarded.
                self.pool = pool;
                lp_iterations = assignment.lp_iterations;
                let mut candidate = {
                    let _span = obs::span!("reload.generate_manifests");
                    generate_manifests(&next_dep, &assignment.d)
                };
                if sabotage {
                    candidate = sabotage_manifest(&candidate);
                }
                let ceiling = CapacityCeiling { caps: &self.caps, max_load: self.max_load };
                let verdict = {
                    let _span = obs::span!("reload.validate");
                    validate_manifests(&next_dep, &candidate, self.redundancy, Some(&ceiling))
                };
                match verdict {
                    Err(e) => {
                        if metrics {
                            obs::Scope::new("reload").counter("rejected").inc();
                        }
                        ReloadOutcome::Rejected(e)
                    }
                    Ok(()) => {
                        let plan = {
                            let _span = obs::span!("reload.plan_transition");
                            plan_transition(&self.dep, &self.manifest, &next_dep, &candidate)
                        };
                        self.dep = next_dep;
                        self.manifest = Arc::new(candidate);
                        if metrics {
                            let s = obs::Scope::new("reload");
                            s.counter("swaps").inc();
                            s.gauge("moved_fraction").set_max(plan.mean_moved_fraction);
                        }
                        ReloadOutcome::Swapped { moved_fraction: plan.mean_moved_fraction }
                    }
                }
            }
        };
        let resolve_micros = t0.elapsed().as_micros() as u64;
        if metrics {
            obs::Scope::new("reload").counter("resolve_us").add(resolve_micros);
        }
        let coverage_after = {
            let _span = obs::span!("reload.coverage");
            1.0 - manifest_gap_fraction(&self.dep, &self.manifest, &[])
        };
        ReloadDecision { epoch, at, outcome, resolve_micros, lp_iterations, coverage_after }
    }
}

/// Corrupt a manifest the way a buggy reconfiguration would: truncate the
/// widest entry's hash range to half its measure, opening a coverage gap
/// the validation gate must catch.
fn sabotage_manifest(m: &SamplingManifest) -> SamplingManifest {
    let mut victim: Option<(usize, usize, f64)> = None; // (node, pos, measure)
    for j in 0..m.num_nodes() {
        for (pos, e) in m.node_entries(NodeId(j)).iter().enumerate() {
            let measure = e.ranges.measure();
            if victim.is_none_or(|(_, _, best)| measure > best) {
                victim = Some((j, pos, measure));
            }
        }
    }
    let Some((vj, vpos, measure)) = victim else {
        return m.clone(); // empty manifest: nothing to corrupt
    };
    let mut entries: Vec<(NodeId, ManifestEntry)> = Vec::new();
    for j in 0..m.num_nodes() {
        for (pos, e) in m.node_entries(NodeId(j)).iter().enumerate() {
            let mut entry = e.clone();
            if j == vj && pos == vpos {
                entry.ranges = entry.ranges.take_measure(measure * 0.5);
            }
            entries.push((NodeId(j), entry));
        }
    }
    SamplingManifest::from_entries(m.num_nodes(), entries)
}

/// [`run_coordinated_stream`](crate::stream::run_coordinated_stream) with
/// a closed reconfiguration loop.
///
/// The trace is split into `cfg.epochs` equal segments by session id. At
/// each interior boundary the epoch's [`ObservedMix`] goes to a
/// [`ReloadController`], and — if the re-solved candidate passes
/// [`validate_manifests`] — every engine swaps to the new manifest before
/// it replays the next epoch's first session. A
/// rejected candidate leaves the old manifest serving. The live
/// manifest's covered fraction goes into the `resilience.coverage`
/// series (when metrics are enabled) and into [`ReloadRun`].
#[allow(clippy::too_many_arguments)]
pub fn run_coordinated_stream_reload<I, S>(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    paths: &PathDb,
    source: S,
    placement: Placement,
    hasher: KeyedHasher,
    shards: usize,
    cfg: &ReloadConfig<'_>,
) -> Result<ReloadRun, EngineError>
where
    I: Iterator<Item = Session>,
    S: FnOnce() -> I,
{
    assert_ne!(placement, Placement::Unmodified, "reload run needs a coordinated placement");
    let epochs = cfg.epochs.max(1);
    let _span = obs::span!("engine.reload", nodes = dep.num_nodes, shards = shards.max(1));

    let mut controller = ReloadController::new(
        dep,
        Arc::new(manifest.clone()),
        cfg.caps,
        cfg.redundancy,
        cfg.max_load,
        cfg.blend,
    );
    let mut decisions = Vec::with_capacity(epochs - 1);
    let mut coverage = Vec::with_capacity(epochs);
    let coverage0 =
        1.0 - manifest_gap_fraction(controller.deployment(), &controller.manifest(), &[]);
    coverage.push((0.0, coverage0));

    let bounds: Vec<u64> =
        (1..epochs).map(|e| cfg.total_sessions * e as u64 / epochs as u64).collect();
    let run = run_epochs(
        "reload",
        dep,
        controller.manifest(),
        paths,
        source,
        placement,
        hasher,
        shards,
        &bounds,
        |e, observed| {
            let sabotage = cfg.sabotage == Sabotage::Every || cfg.sabotage == Sabotage::AtEpoch(e);
            let at = e as f64 / epochs as f64;
            let decision = controller.resolve(e, at, observed, sabotage);
            if obs::enabled() {
                obs::record_series("resilience.coverage", at, decision.coverage_after);
            }
            coverage.push((at, decision.coverage_after));
            let swapped = matches!(decision.outcome, ReloadOutcome::Swapped { .. });
            decisions.push(decision);
            swapped.then(|| controller.manifest())
        },
        None,
    )?;
    Ok(ReloadRun { run, decisions, coverage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::run_coordinated_stream;
    use nwdp_core::nids::{solve_nids_lp, NidsLpConfig, NodeCaps};
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_topo::internet2;
    use nwdp_traffic::{SessionStream, TraceConfig, TrafficMatrix, VolumeModel};

    fn setup() -> (NidsDeployment, SamplingManifest, nwdp_topo::PathDb, TrafficMatrix) {
        let topo = internet2();
        let paths = nwdp_topo::PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let assignment = solve_nids_lp(&dep, &lp).expect("lp solves");
        let manifest = generate_manifests(&dep, &assignment.d);
        (dep, manifest, paths, tm)
    }

    fn synthetic_mix(dep: &NidsDeployment) -> ObservedMix {
        // A lopsided mix: pair (s, d) weight grows with s + 2 d.
        let mut mix = ObservedMix::default();
        for s in 0..dep.num_nodes {
            for d in 0..dep.num_nodes {
                if s == d {
                    continue;
                }
                mix.record(NodeId(s), NodeId(d), (10 + s + 2 * d) as u64);
            }
        }
        mix
    }

    #[test]
    fn controller_swaps_clean_candidates_and_rejects_sabotaged_ones() {
        let (dep, manifest, _paths, _tm) = setup();
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; dep.num_nodes];
        let mut ctl = ReloadController::new(&dep, Arc::new(manifest), &caps, 1.0, 1.0, 0.5);
        let mix = synthetic_mix(&dep);

        let d1 = ctl.resolve(1, 0.25, &mix, false);
        assert!(matches!(d1.outcome, ReloadOutcome::Swapped { .. }), "clean resolve must swap");
        assert!(d1.coverage_after > 1.0 - 1e-9, "validated manifest covers everything");
        let live = ctl.manifest();

        let d2 = ctl.resolve(2, 0.5, &mix, true);
        match d2.outcome {
            ReloadOutcome::Rejected(ManifestValidationError::CoverageGap { .. }) => {}
            other => panic!("sabotaged candidate must be rejected with a gap, got {other:?}"),
        }
        // Old manifest still serving after the rejection.
        assert!(Arc::ptr_eq(&live, &ctl.manifest()), "rejection must keep the old manifest");
        assert!(d2.coverage_after > 1.0 - 1e-9);

        // The column pool chains across resolves: the first solve is cold,
        // the third starts from the second's columns.
        let d3 = ctl.resolve(3, 0.75, &mix, false);
        assert!(matches!(d3.outcome, ReloadOutcome::Swapped { .. }));
        assert!(
            d3.lp_iterations < d1.lp_iterations,
            "{} vs {}",
            d3.lp_iterations,
            d1.lp_iterations
        );
    }

    #[test]
    fn reload_run_with_all_swaps_rejected_matches_plain_stream() {
        let (dep, manifest, paths, tm) = setup();
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; dep.num_nodes];
        let cfg = TraceConfig::new(1200, 23);
        let hasher = KeyedHasher::with_key(5);
        let topo = internet2();

        let plain = run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            3,
        )
        .expect("stream runs");

        let reload_cfg = ReloadConfig {
            epochs: 4,
            total_sessions: 1200,
            caps: &caps,
            redundancy: 1.0,
            max_load: 1.0,
            blend: 0.5,
            sabotage: Sabotage::Every,
        };
        let reload = run_coordinated_stream_reload(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            3,
            &reload_cfg,
        )
        .expect("reload runs");

        assert_eq!(reload.swaps(), 0, "Sabotage::Every must reject every candidate");
        assert_eq!(reload.rejected(), 3);
        assert_eq!(plain.alerts, reload.run.alerts);
        for (a, b) in plain.per_node.iter().zip(&reload.run.per_node) {
            assert_eq!(a.packets, b.packets, "node {}", a.node.0);
            assert_eq!(a.connections, b.connections, "node {}", a.node.0);
            assert_eq!(a.cpu_cycles, b.cpu_cycles, "node {}", a.node.0);
            assert_eq!(a.mem_peak, b.mem_peak, "node {}", a.node.0);
        }
        // Coverage never dropped: the old (full-coverage) manifest kept
        // serving through every rejection.
        assert!(reload.coverage_floor() > 1.0 - 1e-9);
    }

    #[test]
    fn reload_run_completes_live_swaps_without_stopping_replay() {
        let (dep, manifest, paths, tm) = setup();
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; dep.num_nodes];
        let cfg = TraceConfig::new(1600, 31);
        let hasher = KeyedHasher::with_key(5);
        let topo = internet2();

        let reload_cfg = ReloadConfig {
            epochs: 5,
            total_sessions: 1600,
            caps: &caps,
            redundancy: 1.0,
            max_load: 1.0,
            blend: 0.5,
            sabotage: Sabotage::AtEpoch(2),
        };
        let reload = run_coordinated_stream_reload(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            2,
            &reload_cfg,
        )
        .expect("reload runs");

        assert_eq!(reload.decisions.len(), 4);
        assert_eq!(reload.swaps(), 3, "three boundaries swap, the sabotaged one is rejected");
        assert_eq!(reload.rejected(), 1);
        assert!(reload.coverage_floor() > 1.0 - 1e-9, "coverage never dips below the bound");
        // The data plane processed the whole trace despite the swaps:
        // every node saw exactly its on-path packets.
        let trace = nwdp_traffic::generate_trace(&topo, &tm, &cfg);
        for st in &reload.run.per_node {
            let expect: u64 =
                trace.onpath_sessions(&paths, st.node).map(|s| s.packet_count() as u64).sum();
            assert_eq!(st.packets, expect, "node {}", st.node.0);
        }
    }
}
