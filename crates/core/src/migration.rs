//! Migration specifications: the full problem instance handed to planners.
//!
//! A [`MigrationSpec`] bundles the union topology, the initial activation
//! state, the operation blocks with their action types, the demand matrix,
//! and the constraint parameters (θ, port checking, funneling headroom).
//! [`MigrationBuilder`] constructs specs for the paper's three production
//! migration types (§2.4) from a topology preset, applying the organization
//! policy of §5:
//!
//! - **HGRID v1→v2**: one operation block per grid (Figure 5); drain v1
//!   grids, undrain v2 grids.
//! - **SSW forklift**: each plane's SSWs split into a few blocks; drain v1
//!   SSW groups, undrain their v2 twins.
//! - **DMAG**: drain the direct FAUU–EB circuit bundles grouped by EB,
//!   undrain the MA groups homed under each EB.
//!
//! The `block_scale` option merges (×<1) or splits (×>1) the default blocks
//! for the Figure 11 sweep.

use crate::action::{ActionKind, ActionTable, ActionTypeId, BlockClass, OpType};
use crate::blocks::{merge_groups, split_even, BlockId, OperationBlock};
use crate::compact::CompactState;
use crate::error::PlanError;
use crate::replay::headroom_clears;
use crate::space::SpaceModel;
use klotski_routing::{
    evaluate::summarize, evaluate_with, scale_from_routed, EcmpRouter, FunnelingModel, LoadMap,
    SplitPolicy,
};
use klotski_telemetry::span;
use klotski_topology::{
    presets::Preset, CircuitId, Generation, NetState, SwitchId, SwitchRole, Topology,
};
use klotski_traffic::{generate, DemandGenConfig, DemandMatrix, EnsembleSpec};
use std::sync::Arc;

/// The three production migration types of §2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationType {
    /// Replace the FA layer's hardware generation (Figure 3a).
    HgridV1V2,
    /// Forklift-upgrade all SSWs of one datacenter (Figure 3b).
    SswForklift,
    /// Insert the MA (DMAG) layer between FAUUs and EBs (Figure 3c).
    Dmag,
}

impl MigrationType {
    /// True when the migration changes the topology's structure (adds a
    /// layer) rather than swapping hardware in place. MRC and Janus cannot
    /// plan these (§6.3).
    pub fn changes_topology(self) -> bool {
        matches!(self, MigrationType::Dmag)
    }
}

impl std::fmt::Display for MigrationType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MigrationType::HgridV1V2 => "hgrid-v1-to-v2",
            MigrationType::SswForklift => "ssw-forklift",
            MigrationType::Dmag => "dmag",
        })
    }
}

/// Tunables for building a migration spec.
#[derive(Debug, Clone)]
pub struct MigrationOptions {
    /// Utilization bound θ (Eq. 5). Default 0.75 (§6.1).
    pub theta: f64,
    /// Demand generator parameters.
    pub demand_cfg: DemandGenConfig,
    /// Calibrated initial utilization of the migrated layer, as a fraction
    /// of capacity. Sized so that draining roughly half of the old
    /// generation saturates θ, which is what forces plans to interleave.
    pub initial_layer_utilization: f64,
    /// Operation-block scale factor: 1.0 = the §5 default policy, <1 merges
    /// blocks, >1 splits them (Figure 11).
    pub block_scale: f64,
    /// Traffic-funneling headroom model (§7.2). Disabled by default to match
    /// the evaluation; `tests/operations.rs` enables it.
    pub funneling: FunnelingModel,
    /// Flow-split policy override. `None` uses the per-migration-type
    /// default: plain ECMP (§5) for in-place swaps, WCMP for DMAG — the
    /// backbone side of a DMAG migration runs centralized traffic
    /// engineering (§2.4), which capacity-proportional splitting stands in
    /// for.
    pub split: Option<SplitPolicy>,
    /// Raise the capacity of circuits outside the migration scope until
    /// they carry their endpoint-state loads with headroom (a working
    /// production network satisfies this by definition; synthetic
    /// generators must be made to).
    pub normalize_capacity: bool,
    /// Execution lanes the incremental engine fans a check's dirty
    /// destinations out over. Defaults to the machine's available
    /// parallelism; results are bit-identical at every thread count — only
    /// wall-clock differs.
    pub threads: usize,
    /// Expansion interval between `astar.progress` / `dp.progress` trace
    /// events. The default (4 096) is frequent enough
    /// to watch a long search move and rare enough to be invisible in the
    /// profile; live SSE streams and tests dial it down for finer-grained
    /// feedback. Clamped to ≥ 1.
    pub progress_every: u64,
    /// Traffic-ensemble specification: when set, every satisfiability
    /// verdict is the AND over the realized ensemble (the calibrated base
    /// forecast plus K−1 EWMA/surge variants, seeded and deduplicated).
    /// `None` checks the single planning matrix, exactly as before.
    pub ensemble: Option<EnsembleSpec>,
}

/// Default planner progress-event interval, in expansions.
const DEFAULT_PROGRESS_EVERY: u64 = 4096;

/// How many operation blocks each SSW plane splits into (§5: "We split SSWs
/// on a plane into several operation blocks").
const SSW_GROUPS_PER_PLANE: usize = 3;

/// Fraction of the old↔new overlap each shared switch can host transiently.
/// Chassis are sized for the old world, the new world, and a bounded
/// overlap — not for both generations fully cabled at once — which is what
/// makes Eq. 6 bind mid-migration and drains and undrains interleave.
const PORT_HEADROOM: f64 = 0.4;

/// Transient floor-space slack as a fraction of the old hardware's
/// footprint (§2.4/§7.2: new hardware goes in the old hardware's location;
/// only a limited extra footprint supports the transient). In-place swaps
/// (HGRID, SSW forklift) carry it; layer insertions (DMAG) get their own
/// racks and no space model.
const SPACE_HEADROOM: f64 = 0.2;

impl Default for MigrationOptions {
    fn default() -> Self {
        Self {
            theta: 0.75,
            demand_cfg: DemandGenConfig::default(),
            initial_layer_utilization: 0.42,
            block_scale: 1.0,
            funneling: FunnelingModel::disabled(),
            split: None,
            normalize_capacity: true,
            threads: klotski_parallel::default_lanes(),
            progress_every: DEFAULT_PROGRESS_EVERY,
            ensemble: None,
        }
    }
}

/// A complete migration planning instance.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// Instance name (topology + migration type).
    pub name: String,
    /// Which of the §2.4 migration types this is.
    pub migration_type: MigrationType,
    /// The union graph.
    pub topology: Arc<Topology>,
    /// Forecasted demand set `D` — the base (index-0) ensemble matrix.
    pub demands: DemandMatrix,
    /// Extra ensemble matrices (indices 1..K), sharing `demands`' exact
    /// endpoint structure — only the rates differ. Empty when no ensemble
    /// is configured; satisfiability is then single-matrix.
    pub extra_demands: Vec<DemandMatrix>,
    /// Human-readable labels for all K ensemble matrices (index-aligned,
    /// `ensemble_labels[0]` = base). Empty when no ensemble.
    pub ensemble_labels: Vec<String>,
    /// The ensemble specification the matrices were realized from, kept so
    /// residual (replanning) instances re-realize against updated demand.
    pub ensemble: Option<EnsembleSpec>,
    /// Activation state before any action.
    pub initial: NetState,
    /// All operation blocks (`S_opt` grouped by the organization policy).
    pub blocks: Vec<OperationBlock>,
    /// The action-type set `A`.
    pub actions: ActionTable,
    /// Canonical per-type block order: `blocks_by_type[a][i]` is the i-th
    /// block consumed when the (i+1)-th action of type `a` executes.
    pub blocks_by_type: Vec<Vec<BlockId>>,
    /// Target compact state: every count at its type's block total.
    pub target_counts: CompactState,
    /// Utilization bound θ.
    pub theta: f64,
    /// Funneling headroom model.
    pub funneling: FunnelingModel,
    /// Whether Eq. 6 port constraints are enforced.
    pub check_ports: bool,
    /// Space/power footprint model (§7.2); `None` for layer insertions.
    pub space: Option<SpaceModel>,
    /// Flow-split policy the constraints are evaluated under.
    pub split: SplitPolicy,
    /// Execution lanes of the incremental engine (≥ 1).
    pub threads: usize,
    /// Whether engine routes diff each state against the one routed before
    /// it. `false` routes every check, audit and sweep without a delta:
    /// every destination rebuilt and Eq. 6 degrees recounted, verdicts and
    /// loads bit-identical. Always `true` from the builder; the field goes
    /// with the benchmark harness's last setter (ROADMAP 1(a)).
    pub incremental: bool,
    /// Planner progress-event interval, expansions (≥ 1).
    pub progress_every: u64,
}

impl MigrationSpec {
    /// Number of operation blocks (block-level actions `|L|`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of action types `|A|`.
    pub fn num_types(&self) -> usize {
        self.actions.len()
    }

    /// Switch-level action count (Table 3's "Actions" column).
    pub fn num_switch_actions(&self) -> usize {
        self.blocks.iter().map(|b| b.action_weight()).sum()
    }

    /// The block consumed by the `idx`-th action of type `a`.
    pub fn block_for(&self, a: ActionTypeId, idx: u16) -> &OperationBlock {
        let bid = self.blocks_by_type[a.index()][idx as usize];
        &self.blocks[bid.index()]
    }

    /// True if actions of type `a` drain elements.
    pub fn kind_is_drain(&self, a: ActionTypeId) -> bool {
        self.actions.kind(a).op == OpType::Drain
    }

    /// Applies the next action of type `a` from compact state `v` onto
    /// `state`, returning the block that was operated.
    pub fn apply_next<'a>(
        &'a self,
        state: &mut NetState,
        v: &CompactState,
        a: ActionTypeId,
    ) -> &'a OperationBlock {
        let block = self.block_for(a, v.count(a));
        block.apply(&self.topology, state, self.kind_is_drain(a));
        block
    }

    /// Reconstructs the unique activation state of a compact state by
    /// replaying the canonical block order (Definition 1 of the paper makes
    /// this well-defined).
    pub fn state_for(&self, v: &CompactState) -> NetState {
        let mut state = self.initial.clone();
        for a in self.actions.ids() {
            let drain = self.kind_is_drain(a);
            for i in 0..v.count(a) {
                let block = self.block_for(a, i);
                block.apply(&self.topology, &mut state, drain);
            }
        }
        state
    }

    /// The activation state after all blocks are operated.
    pub fn target_state(&self) -> NetState {
        self.state_for(&self.target_counts)
    }

    /// Builds the *residual* instance after `progress` actions finished:
    /// same topology and constraints, the current activation state as the
    /// new initial state, only the unfinished blocks (re-indexed), and a
    /// fresh demand matrix. This is the §7.1 replanning path: "we re-run the
    /// migration planning with the updated demand during the migration."
    pub fn residual(
        &self,
        progress: &CompactState,
        current: NetState,
        demands: DemandMatrix,
    ) -> MigrationSpec {
        assert!(
            progress.within(&self.target_counts),
            "progress exceeds block supply"
        );
        let mut blocks = Vec::new();
        for a in self.actions.ids() {
            for &bid in &self.blocks_by_type[a.index()][progress.count(a) as usize..] {
                let mut block = self.blocks[bid.index()].clone();
                block.id = BlockId(blocks.len() as u32);
                blocks.push(block);
            }
        }
        let mut blocks_by_type: Vec<Vec<BlockId>> = vec![Vec::new(); self.actions.len()];
        for b in &blocks {
            blocks_by_type[b.kind.index()].push(b.id);
        }
        let target_counts =
            CompactState::from_counts(blocks_by_type.iter().map(|v| v.len() as u16).collect());
        // Re-realize the ensemble against the *updated* demand matrix: the
        // §7.1 replanning path re-forecasts, so its robustness variants must
        // derive from the new forecast, not the stale one. Realization is
        // deterministic in the stored spec's seed.
        let (extra_demands, ensemble_labels) = match &self.ensemble {
            Some(spec) => match spec.realize(&demands) {
                Ok(ens) => (ens.extras().to_vec(), ens.labels().to_vec()),
                Err(_) => (Vec::new(), Vec::new()),
            },
            None => (Vec::new(), Vec::new()),
        };
        MigrationSpec {
            name: format!("{}/residual@{}", self.name, progress),
            migration_type: self.migration_type,
            topology: Arc::clone(&self.topology),
            demands,
            extra_demands,
            ensemble_labels,
            ensemble: self.ensemble.clone(),
            initial: current,
            blocks,
            actions: self.actions.clone(),
            blocks_by_type,
            target_counts,
            theta: self.theta,
            funneling: self.funneling,
            check_ports: self.check_ports,
            space: self.space.as_ref().map(|m| m.residual(progress)),
            split: self.split,
            threads: self.threads,
            incremental: self.incremental,
            progress_every: self.progress_every,
        }
    }

    /// Validates that the instance is well-posed: the initial and target
    /// worlds must satisfy the constraints.
    pub fn validate(&self) -> Result<(), PlanError> {
        let _span = span!("spec.validate", "mode" = "exact");
        let mut router = EcmpRouter::with_policy(&self.topology, self.split);
        let mut loads = LoadMap::new(&self.topology);
        let initial = evaluate_with(
            &mut router,
            &mut loads,
            &self.topology,
            &self.initial,
            &self.demands,
            self.theta,
        );
        if !initial.satisfied() {
            return Err(PlanError::InitialInfeasible(format!(
                "{} unreachable, max util {:.3}",
                initial.unreachable_demands, initial.report.max_utilization
            )));
        }
        if !self.topology.port_violations(&self.initial).is_empty() {
            return Err(PlanError::InitialInfeasible("port violations".into()));
        }
        let target_state = self.target_state();
        let target = evaluate_with(
            &mut router,
            &mut loads,
            &self.topology,
            &target_state,
            &self.demands,
            self.theta,
        );
        if !target.satisfied() {
            return Err(PlanError::TargetInfeasible(format!(
                "{} unreachable, max util {:.3}",
                target.unreachable_demands, target.report.max_utilization
            )));
        }
        if !self.topology.port_violations(&target_state).is_empty() {
            return Err(PlanError::TargetInfeasible("port violations".into()));
        }
        Ok(())
    }
}

/// Builds [`MigrationSpec`]s from topology presets.
pub struct MigrationBuilder;

impl MigrationBuilder {
    /// Dispatches on the preset's union contents: DMAG if an MA layer is
    /// embedded, SSW forklift if v2 SSWs are embedded, HGRID otherwise.
    pub fn for_preset(
        preset: &Preset,
        opts: &MigrationOptions,
    ) -> Result<MigrationSpec, PlanError> {
        if preset.handles.ma.is_some() {
            Self::dmag(preset, opts)
        } else if !preset.handles.ssw_v2_switches().is_empty() {
            Self::ssw_forklift(preset, opts)
        } else {
            Self::hgrid_v1_to_v2(preset, opts)
        }
    }

    /// HGRID v1→v2 migration (Figure 3a): drain every v1 grid, undrain every
    /// v2 grid. One operation block per grid (Figure 5), scaled by
    /// `opts.block_scale`.
    pub fn hgrid_v1_to_v2(
        preset: &Preset,
        opts: &MigrationOptions,
    ) -> Result<MigrationSpec, PlanError> {
        let h2 = preset
            .handles
            .hgrid_v2
            .as_ref()
            .ok_or_else(|| PlanError::MissingElements("no v2 HGRID layer in union".into()))?;

        // Natural groups: one per grid, split *vertically* when the block
        // scale asks for finer blocks — each sub-block takes a proportional
        // strided slice of the grid's FADUs and FAUUs. A horizontal split
        // (all FADUs in one sub-block, all FAUUs in another) would create
        // capacity-dead intermediate blocks and deadlock the search.
        let grid_slices =
            |fadus: &[Vec<SwitchId>], fauus: &[Vec<SwitchId>]| -> Vec<Vec<SwitchId>> {
                let parts = if opts.block_scale > 1.0 {
                    opts.block_scale.round() as usize
                } else {
                    1
                };
                let mut groups = Vec::new();
                for (gf, gu) in fadus.iter().zip(fauus) {
                    for part in 0..parts {
                        let mut slice: Vec<SwitchId> =
                            gf.iter().skip(part).step_by(parts).copied().collect();
                        slice.extend(gu.iter().skip(part).step_by(parts).copied());
                        if !slice.is_empty() {
                            groups.push(slice);
                        }
                    }
                }
                if opts.block_scale < 1.0 {
                    merge_groups(&groups, (1.0 / opts.block_scale).round() as usize)
                } else {
                    groups
                }
            };
        let v1_groups = grid_slices(
            &preset.handles.hgrid_v1.fadus,
            &preset.handles.hgrid_v1.fauus,
        );
        let v2_groups = grid_slices(&h2.fadus, &h2.fauus);

        let mut actions = ActionTable::new();
        let drain = actions.intern(ActionKind::new(
            BlockClass::FaGrid,
            Generation::V1,
            OpType::Drain,
        ));
        let undrain = actions.intern(ActionKind::new(
            BlockClass::FaGrid,
            Generation::V2,
            OpType::Undrain,
        ));

        let mut blocks = Vec::new();
        push_switch_blocks(&mut blocks, v1_groups, drain, "drain-fa-v1");
        push_switch_blocks(&mut blocks, v2_groups, undrain, "undrain-fa-v2");

        // Initially the v2 layer is not installed.
        let absent: Vec<SwitchId> = preset.handles.hgrid_v2_switches();
        let space = in_place_space_model(&blocks, &actions);
        finish_spec(
            preset,
            MigrationType::HgridV1V2,
            actions,
            blocks,
            absent,
            Some(space),
            opts,
        )
    }

    /// SSW forklift migration (Figure 3b): upgrade all SSWs of the
    /// forklifted datacenters. Each plane's SSWs split into
    /// `SSW_GROUPS_PER_PLANE` blocks (§5), scaled by `opts.block_scale`.
    pub fn ssw_forklift(
        preset: &Preset,
        opts: &MigrationOptions,
    ) -> Result<MigrationSpec, PlanError> {
        if preset.handles.ssw_v2_switches().is_empty() {
            return Err(PlanError::MissingElements(
                "no v2 SSWs in union graph".into(),
            ));
        }
        let mut v1_groups: Vec<Vec<SwitchId>> = Vec::new();
        let mut v2_groups: Vec<Vec<SwitchId>> = Vec::new();
        for (dc_idx, per_plane_v2) in preset.handles.ssw_v2.iter().enumerate() {
            if per_plane_v2.is_empty() {
                continue;
            }
            let fab = &preset.handles.fabrics[dc_idx];
            for (plane_v1, plane_v2) in fab.ssws.iter().zip(per_plane_v2) {
                v1_groups.extend(split_even(plane_v1, SSW_GROUPS_PER_PLANE));
                v2_groups.extend(split_even(plane_v2, SSW_GROUPS_PER_PLANE));
            }
        }

        let mut actions = ActionTable::new();
        let drain = actions.intern(ActionKind::new(
            BlockClass::Ssw,
            Generation::V1,
            OpType::Drain,
        ));
        let undrain = actions.intern(ActionKind::new(
            BlockClass::Ssw,
            Generation::V2,
            OpType::Undrain,
        ));

        let mut blocks = Vec::new();
        push_switch_blocks(
            &mut blocks,
            scale_groups(&v1_groups, opts.block_scale),
            drain,
            "drain-ssw-v1",
        );
        push_switch_blocks(
            &mut blocks,
            scale_groups(&v2_groups, opts.block_scale),
            undrain,
            "undrain-ssw-v2",
        );

        let absent = preset.handles.ssw_v2_switches();
        let space = in_place_space_model(&blocks, &actions);
        finish_spec(
            preset,
            MigrationType::SswForklift,
            actions,
            blocks,
            absent,
            Some(space),
            opts,
        )
    }

    /// DMAG migration (Figure 3c): drain the direct FAUU–EB circuits and
    /// undrain the MA groups homed under each EB (§5).
    ///
    /// Substitution note: the paper groups the drained circuits by EB,
    /// because the production backbone's centralized traffic engineering
    /// spreads traffic over MA paths as soon as they exist. Under this
    /// repo's hop-count ECMP substrate, direct FAUU–EB paths are strictly
    /// shorter than MA paths, so a per-EB drain order funnels all egress
    /// onto the last surviving EB's circuits — an unavoidable θ violation.
    /// Draining per FAUU *grid* instead makes each grid switch to its MA
    /// paths atomically, preserving the migration's safety structure
    /// without a TE model (documented in DESIGN.md).
    pub fn dmag(preset: &Preset, opts: &MigrationOptions) -> Result<MigrationSpec, PlanError> {
        let ma = preset
            .handles
            .ma
            .as_ref()
            .ok_or_else(|| PlanError::MissingElements("no MA layer in union".into()))?;

        let mut actions = ActionTable::new();
        let drain = actions.intern(ActionKind::new(
            BlockClass::DirectCircuit,
            Generation::V1,
            OpType::Drain,
        ));
        let undrain = actions.intern(ActionKind::new(
            BlockClass::Ma,
            Generation::V1,
            OpType::Undrain,
        ));

        // Direct FAUU->EB circuits, grouped by the FAUU's grid.
        let topo = &preset.topology;
        let hgrid = &preset.handles.hgrid_v1;
        let natural_groups: Vec<Vec<CircuitId>> = (0..hgrid.num_grids())
            .map(|g| {
                hgrid.fauus[g]
                    .iter()
                    .flat_map(|&fu| {
                        topo.neighbors(fu)
                            .iter()
                            .filter(|&&(_, far)| topo.switch(far).role == SwitchRole::Eb)
                            .map(|&(c, _)| c)
                    })
                    .collect()
            })
            .collect();
        let circuit_groups: Vec<Vec<CircuitId>> = scale_groups(&natural_groups, opts.block_scale)
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();
        let ma_groups: Vec<Vec<SwitchId>> = scale_groups(&ma.mas_by_eb, opts.block_scale)
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();

        let mut blocks = Vec::new();
        for (i, group) in circuit_groups.iter().enumerate() {
            blocks.push(OperationBlock {
                id: BlockId(blocks.len() as u32),
                kind: drain,
                switches: vec![],
                circuits: group.clone(),
                label: format!("drain-direct-eb{i}"),
            });
        }
        for (i, group) in ma_groups.iter().enumerate() {
            blocks.push(OperationBlock {
                id: BlockId(blocks.len() as u32),
                kind: undrain,
                switches: vec![],
                circuits: vec![],
                label: format!("undrain-ma-eb{i}"),
            });
            let idx = blocks.len() - 1;
            blocks[idx].switches = group.clone();
        }

        let absent = ma.all_mas();
        // DMAG inserts a new layer in its own racks: no in-place space
        // coupling; interleaving is driven by port budgets instead.
        finish_spec(
            preset,
            MigrationType::Dmag,
            actions,
            blocks,
            absent,
            None,
            opts,
        )
    }
}

/// Applies the block-scale factor to natural groups: ≥1 splits each group
/// into `round(scale)` parts, <1 merges `round(1/scale)` consecutive groups.
fn scale_groups<T: Clone>(groups: &[Vec<T>], scale: f64) -> Vec<Vec<T>> {
    assert!(scale > 0.0, "block scale must be positive");
    if (scale - 1.0).abs() < f64::EPSILON {
        return groups.to_vec();
    }
    if scale > 1.0 {
        let parts = scale.round() as usize;
        groups
            .iter()
            .flat_map(|g| split_even(g, parts))
            .filter(|g| !g.is_empty())
            .collect()
    } else {
        let factor = (1.0 / scale).round() as usize;
        merge_groups(groups, factor)
    }
}

/// Appends one switch block per group.
fn push_switch_blocks(
    blocks: &mut Vec<OperationBlock>,
    groups: Vec<Vec<SwitchId>>,
    kind: ActionTypeId,
    label_prefix: &str,
) {
    for (i, group) in groups.into_iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        blocks.push(OperationBlock {
            id: BlockId(blocks.len() as u32),
            kind,
            switches: group,
            circuits: vec![],
            label: format!("{label_prefix}/{i}"),
        });
    }
}

/// Space model for in-place hardware swaps: the old generation's footprint
/// is normalized to 1.0 rack unit; drains free a block's proportional share
/// of it and installs consume a share of the same unit (the new hardware
/// fits exactly where the old one stood, §2.4). The budget allows a
/// transient overshoot of [`SPACE_HEADROOM`].
fn in_place_space_model(blocks: &[OperationBlock], actions: &ActionTable) -> SpaceModel {
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); actions.len()];
    let mut totals = vec![0usize; actions.len()];
    for b in blocks {
        totals[b.kind.index()] += b.action_weight();
    }
    for b in blocks {
        let share = b.action_weight() as f64 / totals[b.kind.index()] as f64;
        let signed = if actions.kind(b.kind).op == OpType::Drain {
            -share
        } else {
            share
        };
        deltas[b.kind.index()].push(signed);
    }
    SpaceModel::from_deltas(1.0 + SPACE_HEADROOM, 1.0, &deltas)
}

/// Shared tail of every builder: initial state, demand calibration, canonical
/// per-type ordering, and well-posedness validation.
fn finish_spec(
    preset: &Preset,
    migration_type: MigrationType,
    actions: ActionTable,
    blocks: Vec<OperationBlock>,
    initially_absent_switches: Vec<SwitchId>,
    space: Option<SpaceModel>,
    opts: &MigrationOptions,
) -> Result<MigrationSpec, PlanError> {
    assert!(!blocks.is_empty(), "migration needs at least one block");
    let split = opts.split.unwrap_or(match migration_type {
        MigrationType::Dmag => SplitPolicy::Wcmp,
        _ => SplitPolicy::Ecmp,
    });
    let mut owned_topology = preset.topology.clone();

    let mut initial = NetState::all_up(&owned_topology);
    for s in initially_absent_switches {
        initial.drain_switch(&owned_topology, s);
    }

    // Target state: apply every block once to the initial state.
    let mut target = initial.clone();
    for b in &blocks {
        let is_drain = actions.kind(b.kind).op == OpType::Drain;
        b.apply(&owned_topology, &mut target, is_drain);
    }

    // Derive realistic port budgets: each switch is sized for
    // max(initial degree, target degree) plus a bounded fraction of the
    // old<->new overlap it will transiently host. This is what makes the
    // Eq. 6 constraints bind mid-migration and force drain/undrain
    // interleaving, matching the §2.3 port narrative.
    for idx in 0..owned_topology.num_switches() {
        let s = SwitchId::from_index(idx);
        let union_deg = owned_topology.degree(s);
        let init_deg = initial.active_degree(&owned_topology, s);
        let tgt_deg = target.active_degree(&owned_topology, s);
        let overlap = (union_deg - init_deg).min(union_deg - tgt_deg);
        // Layer insertions (DMAG) are additive on the *uplink* side:
        // FAUUs ship with spare ports provisioned for the MA layer, so
        // they get the full transient overlap. EBs do not — "we group
        // the MAs/circuits by EBs to release more ports with one
        // action" (§5) — and in-place swaps compete for the same ports
        // everywhere; both get only the configured fraction.
        let headroom = if migration_type == MigrationType::Dmag
            && owned_topology.switch(s).role == SwitchRole::Fauu
        {
            1.0
        } else {
            PORT_HEADROOM
        };
        let slack = ((headroom * overlap as f64).round() as usize).max(1);
        let ports = (init_deg.max(tgt_deg) + slack).min(u16::MAX as usize) as u16;
        owned_topology.set_max_ports(s, ports);
    }

    // Demands, calibrated so the *migration-affected* circuits — those
    // incident to any operated switch, plus directly operated circuit
    // bundles — start at the configured utilization. Calibrating on an
    // unaffected layer (fabric or backbone) would leave the Eq. 5
    // constraints slack through the whole migration.
    let mut affected_circuit = vec![false; owned_topology.num_circuits()];
    for b in &blocks {
        for &s in &b.switches {
            for &(c, _) in owned_topology.neighbors(s) {
                affected_circuit[c.index()] = true;
            }
        }
        for &c in &b.circuits {
            affected_circuit[c.index()] = true;
        }
    }
    let raw = generate(&owned_topology, &opts.demand_cfg);
    // The initial state is routed under `raw` once: the loads calibrate the
    // demand scale here and size the unaffected circuits below.
    let mut router = EcmpRouter::with_policy(&owned_topology, split);
    let mut init_loads = LoadMap::new(&owned_topology);
    let init_route = {
        let _span = span!("spec.calibrate", "state" = "initial");
        router.route(&owned_topology, &initial, &raw, &mut init_loads)
    };
    let factor = scale_from_routed(
        &owned_topology,
        &initial,
        &init_route,
        &init_loads,
        opts.initial_layer_utilization,
        |c| affected_circuit[c.index()],
    );

    // Normalize the capacity of circuits *outside* the migration scope so
    // they carry their initial- and target-state loads with headroom. A
    // working production network satisfies this by definition; synthetic
    // generators must be made to. Without it, a hot rack-edge or backbone
    // trunk would mask the constraints the evaluation actually studies.
    //
    // Validation by bound rides on the same two routes. Plain ECMP splits by
    // path count, whatever the capacities, so the calibrated matrix loads
    // every circuit `factor` times what `raw` does, up to rounding: where both
    // endpoint states provably stay within θ and their ports, `validate()`
    // would only re-route them to say so. WCMP re-weights the splits below,
    // and without normalization the target is never routed: both validate.
    let mut validated = false;
    if opts.normalize_capacity {
        let mut tgt_loads = LoadMap::new(&owned_topology);
        let tgt_route = {
            let _span = span!("spec.calibrate", "state" = "target");
            router.route(&owned_topology, &target, &raw, &mut tgt_loads)
        };
        // New hardware is design-sized close to its bound (0.85 theta);
        // circuits outside the migration scope get a wider margin so that
        // legitimate mid-migration traffic shifts never make THEM the
        // binding constraint.
        let ceiling_new = 0.85 * opts.theta;
        let ceiling_unaffected = 0.60 * opts.theta;
        let undrain_blocks = blocks
            .iter()
            .filter(|b| actions.kind(b.kind).op == OpType::Undrain)
            .count()
            .max(1);
        for (idx, &affected) in affected_circuit.iter().enumerate() {
            let c = CircuitId::from_index(idx);
            // The old generation's circuits (affected and live from the
            // start) keep their generator capacity: their mid-migration
            // stress is the object of study. Unaffected circuits are
            // normalized to their worst endpoint-state load; new-hardware
            // circuits (affected but initially absent) are design-sized for
            // the target load they were installed to carry.
            if affected && initial.circuit_usable(&owned_topology, c) {
                // Old-generation circuits keep their capacity (their
                // mid-migration stress is the object of study), but under
                // WCMP they get a routing weight equal to their designed
                // (initial-state) share so neither direction over-attracts
                // during the coexistence window.
                if split == SplitPolicy::Wcmp {
                    let w = factor * init_loads.max_direction(c) / ceiling_new;
                    owned_topology.set_routing_weight(c, w.max(0.01));
                }
                continue;
            }
            let load = factor * init_loads.max_direction(c).max(tgt_loads.max_direction(c));
            let new_hardware = affected;
            let needed = load
                / if new_hardware {
                    ceiling_new
                } else {
                    ceiling_unaffected
                };
            if new_hardware && split == SplitPolicy::Wcmp {
                // Under WCMP the capacity IS the routing weight, so the new
                // layer is sized to its designed (target-state) share, or it
                // would attract traffic it cannot deliver. Fan-in circuits
                // (FAUU->MA) additionally get worst-case concentration
                // allowance: while only one MA group is deployed, a
                // drained grid's whole fan-out funnels over that group.
                let ck = owned_topology.circuit(c);
                let roles = (
                    owned_topology.switch(ck.a).role,
                    owned_topology.switch(ck.b).role,
                );
                let fan_in = matches!(
                    roles,
                    (SwitchRole::Fauu, SwitchRole::Ma) | (SwitchRole::Ma, SwitchRole::Fauu)
                );
                if fan_in {
                    // Physical capacity covers the worst-case concentration
                    // (one live MA group absorbing a whole grid's fan-out).
                    // The WCMP weight is epsilon: MA paths are backup-grade
                    // for a FAUU until its own direct circuits drain, at
                    // which point they carry everything regardless of
                    // weight. This mirrors the production make-before-break
                    // routing configs of §7.1.
                    let allowance = undrain_blocks as f64;
                    owned_topology.set_capacity(c, (needed * allowance).max(1.0));
                    owned_topology.set_routing_weight(c, needed.max(1.0));
                } else {
                    // MA->EB trunks: design share as routing weight, with a
                    // bounded 2x allowance in physical capacity for the
                    // partial-deployment window (few MA groups carrying a
                    // disproportionate share while the rollout catches up).
                    owned_topology.set_capacity(c, (needed * 2.0).max(1.0));
                    owned_topology.set_routing_weight(c, needed.max(0.01));
                }
            } else if new_hardware {
                // New hardware under plain ECMP also gets the 2x
                // partial-deployment allowance: a freshly undrained slice
                // attracts its full per-circuit ECMP share while only part
                // of the new layer's internal paths are up.
                let sized = needed * 2.0;
                if sized > owned_topology.circuit(c).capacity_gbps {
                    owned_topology.set_capacity(c, sized);
                }
            } else if needed > owned_topology.circuit(c).capacity_gbps {
                owned_topology.set_capacity(c, needed);
            }
        }
        // The initial state was fully reachable, or calibration panicked.
        if split == SplitPolicy::Ecmp && tgt_route.all_reachable() {
            let _span = span!("spec.validate", "mode" = "bound");
            let clears = |state: &NetState, loads: &LoadMap| {
                let u = summarize(&owned_topology, state, loads, opts.theta).max_utilization;
                headroom_clears(u, factor, opts.theta)
                    && owned_topology.port_violations(state).is_empty()
            };
            validated = clears(&target, &tgt_loads) && clears(&initial, &init_loads);
        }
    }

    let topology = Arc::new(owned_topology);
    let demands = raw.scaled(factor);

    // Realize the traffic ensemble (if configured) against the *calibrated*
    // base matrix, so every variant inherits the utilization calibration.
    // All realized matrices share the base's exact endpoint structure; only
    // rates differ, which is what lets checkers share routing structure.
    let (extra_demands, ensemble_labels) = match &opts.ensemble {
        Some(spec) => {
            let ens = spec
                .realize(&demands)
                .map_err(|e| PlanError::InvalidEnsemble(e.to_string()))?;
            ens.validate_against(topology.num_switches())
                .map_err(|e| PlanError::InvalidEnsemble(e.to_string()))?;
            (ens.extras().to_vec(), ens.labels().to_vec())
        }
        None => (Vec::new(), Vec::new()),
    };

    // Canonical per-type block order = block insertion order.
    let mut blocks_by_type: Vec<Vec<BlockId>> = vec![Vec::new(); actions.len()];
    for b in &blocks {
        blocks_by_type[b.kind.index()].push(b.id);
    }
    let target_counts = CompactState::from_counts(
        blocks_by_type
            .iter()
            .map(|v| u16::try_from(v.len()).expect("more than 65535 blocks of one type"))
            .collect(),
    );

    let spec = MigrationSpec {
        name: format!("{}/{}", preset.topology.name(), migration_type),
        migration_type,
        topology,
        demands,
        extra_demands,
        ensemble_labels,
        ensemble: opts.ensemble.clone(),
        initial,
        blocks,
        actions,
        blocks_by_type,
        target_counts,
        theta: opts.theta,
        funneling: opts.funneling,
        check_ports: true,
        space,
        split,
        threads: opts.threads.max(1),
        incremental: true,
        progress_every: opts.progress_every.max(1),
    };
    if !validated {
        spec.validate()?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_routing::evaluate_policy;
    use klotski_topology::presets::{self, PresetId};

    fn preset_a() -> Preset {
        presets::build(PresetId::A)
    }

    #[test]
    fn hgrid_spec_builds_and_validates() {
        let spec =
            MigrationBuilder::hgrid_v1_to_v2(&preset_a(), &MigrationOptions::default()).unwrap();
        assert_eq!(spec.migration_type, MigrationType::HgridV1V2);
        assert_eq!(spec.num_types(), 2);
        // 3 v1 grids + 6 v2 grids at default scale.
        assert_eq!(spec.num_blocks(), 9);
        assert_eq!(spec.target_counts.counts(), &[3, 6]);
        // Switch-level actions: 15 v1 + 30 v2 (Table 3's ~50 for topo A).
        assert_eq!(spec.num_switch_actions(), 45);
    }

    #[test]
    fn initial_state_has_v2_absent_and_v1_present() {
        let p = preset_a();
        let spec = MigrationBuilder::hgrid_v1_to_v2(&p, &MigrationOptions::default()).unwrap();
        for s in p.handles.hgrid_v2_switches() {
            assert!(!spec.initial.switch_up(s));
        }
        for s in p.handles.hgrid_v1.all_switches() {
            assert!(spec.initial.switch_up(s));
        }
    }

    #[test]
    fn target_state_swaps_generations() {
        let p = preset_a();
        let spec = MigrationBuilder::hgrid_v1_to_v2(&p, &MigrationOptions::default()).unwrap();
        let target = spec.target_state();
        for s in p.handles.hgrid_v1.all_switches() {
            assert!(!target.switch_up(s), "v1 must end drained");
        }
        for s in p.handles.hgrid_v2_switches() {
            assert!(target.switch_up(s), "v2 must end live");
        }
    }

    #[test]
    fn state_for_is_order_agnostic_by_construction() {
        let spec =
            MigrationBuilder::hgrid_v1_to_v2(&preset_a(), &MigrationOptions::default()).unwrap();
        let v = CompactState::from_counts(vec![2, 1]);
        // state_for replays canonically; applying in a different
        // interleaving must land on the same state.
        let canonical = spec.state_for(&v);
        let mut manual = spec.initial.clone();
        let mut progress = CompactState::origin(2);
        for a in [ActionTypeId(1), ActionTypeId(0), ActionTypeId(0)] {
            spec.apply_next(&mut manual, &progress, a);
            progress = progress.advanced(a);
        }
        assert_eq!(canonical, manual);
    }

    #[test]
    fn block_scale_merges_and_splits() {
        let p = preset_a();
        let base = MigrationBuilder::hgrid_v1_to_v2(&p, &MigrationOptions::default()).unwrap();
        let split = MigrationBuilder::hgrid_v1_to_v2(
            &p,
            &MigrationOptions {
                block_scale: 3.0,
                ..MigrationOptions::default()
            },
        )
        .unwrap();
        assert!(split.num_blocks() > base.num_blocks());
        // Same total switch-level work regardless of blocking.
        assert_eq!(split.num_switch_actions(), base.num_switch_actions());
        let merged = MigrationBuilder::hgrid_v1_to_v2(
            &p,
            &MigrationOptions {
                block_scale: 1.0 / 3.0,
                ..MigrationOptions::default()
            },
        );
        // Merging 3 grids into one block may make the plan infeasible
        // (too much capacity down at once) - either outcome is acceptable
        // here; spec construction itself must not panic.
        if let Ok(m) = merged {
            assert!(m.num_blocks() < base.num_blocks());
            assert_eq!(m.num_switch_actions(), base.num_switch_actions());
        }
    }

    #[test]
    fn dmag_spec_builds_with_circuit_bundles() {
        let p = presets::build_for_bench(PresetId::EDmag);
        let spec = MigrationBuilder::for_preset(&p, &MigrationOptions::default()).unwrap();
        assert_eq!(spec.migration_type, MigrationType::Dmag);
        assert!(spec.migration_type.changes_topology());
        // Drain blocks hold circuits, undrain blocks hold MA switches.
        let drain_blocks: Vec<_> = spec
            .blocks
            .iter()
            .filter(|b| spec.kind_is_drain(b.kind))
            .collect();
        assert!(!drain_blocks.is_empty());
        assert!(drain_blocks.iter().all(|b| !b.circuits.is_empty()));
        let undrain_blocks: Vec<_> = spec
            .blocks
            .iter()
            .filter(|b| !spec.kind_is_drain(b.kind))
            .collect();
        assert!(undrain_blocks.iter().all(|b| !b.switches.is_empty()));
    }

    #[test]
    fn forklift_spec_builds() {
        let p = presets::build_for_bench(PresetId::ESsw);
        let spec = MigrationBuilder::for_preset(&p, &MigrationOptions::default()).unwrap();
        assert_eq!(spec.migration_type, MigrationType::SswForklift);
        assert!(!spec.migration_type.changes_topology());
        // 8 planes x 3 groups per plane, both generations.
        assert_eq!(spec.target_counts.counts(), &[24, 24]);
    }

    #[test]
    fn hgrid_spec_rejected_without_v2_layer() {
        let p = presets::build_for_bench(PresetId::EDmag); // no v2 HGRID
        let err = MigrationBuilder::hgrid_v1_to_v2(&p, &MigrationOptions::default()).unwrap_err();
        assert!(matches!(err, PlanError::MissingElements(_)));
    }

    #[test]
    fn calibration_pins_layer_utilization() {
        let spec =
            MigrationBuilder::hgrid_v1_to_v2(&preset_a(), &MigrationOptions::default()).unwrap();
        // Re-derive the utilization of the >= SSW layer on the initial state.
        let topo = &spec.topology;
        let mut router = klotski_routing::EcmpRouter::new(topo);
        let mut loads = klotski_routing::LoadMap::new(topo);
        router.route(topo, &spec.initial, &spec.demands, &mut loads);
        let mut max_util = 0.0_f64;
        for c in topo.circuits() {
            let above = |s: SwitchId| topo.switch(s).role.layer() >= SwitchRole::Ssw.layer();
            if spec.initial.circuit_usable(topo, c.id) && above(c.a) && above(c.b) {
                max_util = max_util.max(loads.utilization(topo, c.id));
            }
        }
        assert!(
            (max_util - MigrationOptions::default().initial_layer_utilization).abs() < 1e-6,
            "calibrated utilization = {max_util}"
        );
    }

    #[test]
    fn full_drain_of_v1_violates_theta() {
        // The calibration must make "drain everything first" unsafe,
        // otherwise the planning problem is trivial.
        let p = preset_a();
        let spec = MigrationBuilder::hgrid_v1_to_v2(&p, &MigrationOptions::default()).unwrap();
        let drained_all_v1 = spec.state_for(&CompactState::from_counts(vec![
            spec.target_counts.counts()[0],
            0,
        ]));
        let out = evaluate_policy(
            &spec.topology,
            &drained_all_v1,
            &spec.demands,
            spec.theta,
            spec.split,
        );
        assert!(
            !out.satisfied(),
            "draining every v1 grid with no v2 up must be unsafe"
        );
    }
}
