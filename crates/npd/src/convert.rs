//! Conversion between NPD documents and buildable region topologies.
//!
//! The EDP-Lite pipeline "takes NPD-format original/target topologies and
//! demand information as inputs ... converts them into topologies and
//! passes the topologies to Klotski" (§5). [`npd_to_topology`] is that
//! conversion; [`region_to_npd`] is the reverse export, and
//! [`attach_plan`] writes a computed plan back into the document as ordered
//! migration phases.

use crate::error::NpdError;
use crate::schema::{
    BbPart, DrPart, EbPart, FabricBuilding, FabricPart, HardwareSpec, HgridLayer, HgridPart,
    MaPart, MigrationPhase, Npd,
};
use klotski_core::{MigrationPlan, MigrationSpec};
use klotski_topology::{
    fabric::FabricConfig,
    hgrid::{HgridConfig, MeshPattern},
    ma::{BackboneConfig, MaConfig},
    region::{build_region, RegionConfig, RegionHandles},
    Generation, SwitchId, Topology,
};

/// Default hardware catalog used by exports.
fn default_catalog() -> Vec<HardwareSpec> {
    [
        ("rsw-std", "Wedge-100S", 64u16),
        ("fsw-std", "Minipack-F", 128),
        ("ssw-std", "Minipack-S", 256),
        ("fa-unit", "Grid-Unit", 512),
        ("ma-unit", "DMAG-Unit", 512),
        ("eb-std", "Border-8", 512),
        ("dr-std", "DR-Core", 512),
        ("ebb-std", "EBB-Core", 512),
    ]
    .into_iter()
    .map(|(key, model, ports)| HardwareSpec {
        key: key.into(),
        model: model.into(),
        ports,
    })
    .collect()
}

fn mesh_label(mesh: MeshPattern) -> &'static str {
    match mesh {
        MeshPattern::PlaneAligned => "plane-aligned",
        MeshPattern::Spread => "spread",
    }
}

fn parse_mesh(label: &str) -> Result<MeshPattern, NpdError> {
    match label {
        "plane-aligned" => Ok(MeshPattern::PlaneAligned),
        "spread" => Ok(MeshPattern::Spread),
        other => Err(NpdError::UnknownMesh(other.to_string())),
    }
}

/// Most switches a document may describe: about 90× preset E's union graph
/// at full scale (11 056).
const MAX_SWITCHES: usize = 1_000_000;

/// Most circuits a document may describe: about 22× preset E's union graph
/// at full scale (178 096).
const MAX_CIRCUITS: usize = 4_000_000;

/// Most circuits one switch may have: the routing engine names a switch's
/// circuits by 16-bit index (`IncrementalRouter::MAX_ROW`). Preset E's
/// widest switch at full scale has a few hundred.
pub const MAX_SWITCH_CIRCUITS: usize = 1 << 16;

/// A sum of products in checked arithmetic: `None` once a term overflows.
struct Tally(Option<usize>);

impl Tally {
    fn add(&mut self, factors: &[usize]) {
        let term = factors
            .iter()
            .try_fold(1usize, |acc, &f| acc.checked_mul(f));
        self.0 = self.0.zip(term).and_then(|(sum, t)| sum.checked_add(t));
    }
}

/// The switches and circuits [`build_region`] creates for `cfg`, counted
/// off the builders' loops without building anything; `None` for a count
/// that overflows `usize`.
fn region_size(cfg: &RegionConfig) -> (Option<usize>, Option<usize>) {
    let (mut switches, mut circuits) = (Tally(Some(0)), Tally(Some(0)));
    let bb = &cfg.backbone;
    // A forklifted building's second-generation SSWs mirror every circuit
    // of its first: its SSWs and their circuits count twice.
    let ssw_generations: Vec<usize> = (0..cfg.dcs.len())
        .map(|i| 1 + usize::from(cfg.ssw_forklift_dcs.iter().any(|&d| usize::from(d) == i)))
        .collect();
    for (fc, &gens) in cfg.dcs.iter().zip(&ssw_generations) {
        switches.add(&[gens, fc.planes, fc.ssws_per_plane]);
        switches.add(&[fc.pods, fc.planes]);
        switches.add(&[fc.pods, fc.rsws_per_pod]);
        circuits.add(&[gens, fc.pods, fc.planes, fc.ssws_per_plane]);
        circuits.add(&[fc.pods, fc.rsws_per_pod, fc.planes]);
    }
    for layer in std::iter::once(&cfg.hgrid_v1).chain(&cfg.hgrid_v2) {
        switches.add(&[layer.grids, layer.fadus_per_grid]);
        switches.add(&[layer.grids, layer.fauus_per_grid]);
        circuits.add(&[layer.grids, layer.fadus_per_grid, layer.fauus_per_grid]);
        circuits.add(&[layer.grids, layer.fauus_per_grid, bb.ebs]);
        for (fc, &gens) in cfg.dcs.iter().zip(&ssw_generations) {
            match layer.mesh {
                MeshPattern::PlaneAligned => {
                    circuits.add(&[gens, layer.grids, layer.fadus_per_grid, fc.ssws_per_plane])
                }
                MeshPattern::Spread => circuits.add(&[
                    gens,
                    layer.grids,
                    fc.planes,
                    fc.ssws_per_plane,
                    layer.uplinks_per_ssw.max(1),
                ]),
            }
        }
    }
    switches.add(&[bb.ebs]);
    switches.add(&[bb.drs]);
    switches.add(&[bb.ebbs]);
    circuits.add(&[bb.ebs, bb.drs]);
    circuits.add(&[bb.drs, bb.ebbs]);
    if let Some(ma) = &cfg.dmag {
        let v1 = &cfg.hgrid_v1;
        switches.add(&[ma.mas]);
        circuits.add(&[ma.mas, ma.ebs_per_ma.max(1).min(bb.ebs)]);
        circuits.add(&[ma.mas, v1.grids, v1.fauus_per_grid]);
    }
    (switches.0, circuits.0)
}

/// Exports a region configuration as an NPD document.
pub fn region_to_npd(cfg: &RegionConfig) -> Npd {
    let buildings = cfg
        .dcs
        .iter()
        .enumerate()
        .map(|(i, fc)| FabricBuilding {
            building: i as u16,
            pods: fc.pods,
            rsws_per_pod: fc.rsws_per_pod,
            planes: fc.planes,
            ssws_per_plane: fc.ssws_per_plane,
            rsw_fsw_gbps: fc.rsw_fsw_gbps,
            fsw_ssw_gbps: fc.fsw_ssw_gbps,
            rsw_hardware: "rsw-std".into(),
            fsw_hardware: "fsw-std".into(),
            ssw_hardware: "ssw-std".into(),
        })
        .collect();

    let layer = |hc: &HgridConfig| HgridLayer {
        generation: hc.generation.0,
        grids: hc.grids,
        fadus_per_grid: hc.fadus_per_grid,
        fauus_per_grid: hc.fauus_per_grid,
        mesh: mesh_label(hc.mesh).to_string(),
        ssw_fadu_gbps: hc.ssw_fadu_gbps,
        fadu_fauu_gbps: hc.fadu_fauu_gbps,
        uplinks_per_ssw: hc.uplinks_per_ssw,
        hardware: "fa-unit".into(),
    };
    let mut layers = vec![layer(&cfg.hgrid_v1)];
    if let Some(v2) = &cfg.hgrid_v2 {
        layers.push(layer(v2));
    }

    let ma = match &cfg.dmag {
        Some(mc) => MaPart {
            mas: mc.mas,
            ebs_per_ma: mc.ebs_per_ma,
            fauu_ma_gbps: mc.fauu_ma_gbps,
            ma_eb_gbps: mc.ma_eb_gbps,
            hardware: "ma-unit".into(),
        },
        None => MaPart::default(),
    };

    Npd {
        version: Npd::VERSION,
        name: cfg.name.clone(),
        fabric: FabricPart {
            buildings,
            ssw_forklift: cfg.ssw_forklift_dcs.clone(),
        },
        hgrid: HgridPart { layers },
        ma,
        eb: EbPart {
            ebs: cfg.backbone.ebs,
            fauu_eb_gbps: cfg.backbone.fauu_eb_gbps,
            hardware: "eb-std".into(),
        },
        dr: DrPart {
            drs: cfg.backbone.drs,
            eb_dr_gbps: cfg.backbone.eb_dr_gbps,
            hardware: "dr-std".into(),
        },
        bb: BbPart {
            ebbs: cfg.backbone.ebbs,
            dr_ebb_gbps: cfg.backbone.dr_ebb_gbps,
            hardware: "ebb-std".into(),
        },
        hardware: default_catalog(),
        phases: Vec::new(),
    }
}

/// Converts an NPD document back into a region configuration.
pub fn npd_to_region(npd: &Npd) -> Result<RegionConfig, NpdError> {
    if npd.version != Npd::VERSION {
        return Err(NpdError::Version {
            found: npd.version,
            supported: Npd::VERSION,
        });
    }
    if npd.fabric.buildings.is_empty() {
        return Err(NpdError::NoBuildings);
    }
    if npd.hgrid.layers.is_empty() {
        return Err(NpdError::NoHgridLayers);
    }
    // Hardware references must resolve.
    let catalog: std::collections::HashSet<&str> =
        npd.hardware.iter().map(|h| h.key.as_str()).collect();
    let check_hw = |key: &str| -> Result<(), NpdError> {
        if catalog.contains(key) {
            Ok(())
        } else {
            Err(NpdError::UnknownHardware(key.to_string()))
        }
    };
    // The topology and traffic builders assert non-empty layers and unwrap
    // circuit capacities: a document is checked here, where it enters. A
    // field's name is only formatted when it is refused.
    let count = |field: std::fmt::Arguments<'_>, n: usize| -> Result<(), NpdError> {
        if n > 0 {
            Ok(())
        } else {
            Err(NpdError::ZeroCount(field.to_string()))
        }
    };
    let capacity = |field: std::fmt::Arguments<'_>, gbps: f64| -> Result<(), NpdError> {
        if gbps.is_finite() && gbps > 0.0 {
            Ok(())
        } else {
            Err(NpdError::BadCapacity {
                field: field.to_string(),
                gbps,
            })
        }
    };
    for (i, b) in npd.fabric.buildings.iter().enumerate() {
        check_hw(&b.rsw_hardware)?;
        check_hw(&b.fsw_hardware)?;
        check_hw(&b.ssw_hardware)?;
        count(format_args!("fabric.buildings[{i}].pods"), b.pods)?;
        count(
            format_args!("fabric.buildings[{i}].rsws_per_pod"),
            b.rsws_per_pod,
        )?;
        count(format_args!("fabric.buildings[{i}].planes"), b.planes)?;
        count(
            format_args!("fabric.buildings[{i}].ssws_per_plane"),
            b.ssws_per_plane,
        )?;
        capacity(
            format_args!("fabric.buildings[{i}].rsw_fsw_gbps"),
            b.rsw_fsw_gbps,
        )?;
        capacity(
            format_args!("fabric.buildings[{i}].fsw_ssw_gbps"),
            b.fsw_ssw_gbps,
        )?;
    }
    for (i, l) in npd.hgrid.layers.iter().enumerate() {
        if !(1..=2).contains(&l.generation) {
            return Err(NpdError::UnknownGeneration(l.generation));
        }
        count(format_args!("hgrid.layers[{i}].grids"), l.grids)?;
        count(
            format_args!("hgrid.layers[{i}].fadus_per_grid"),
            l.fadus_per_grid,
        )?;
        count(
            format_args!("hgrid.layers[{i}].fauus_per_grid"),
            l.fauus_per_grid,
        )?;
        capacity(
            format_args!("hgrid.layers[{i}].ssw_fadu_gbps"),
            l.ssw_fadu_gbps,
        )?;
        capacity(
            format_args!("hgrid.layers[{i}].fadu_fauu_gbps"),
            l.fadu_fauu_gbps,
        )?;
    }
    let forklift = &npd.fabric.ssw_forklift;
    for (i, &b) in forklift.iter().enumerate() {
        if usize::from(b) >= npd.fabric.buildings.len() || forklift[..i].contains(&b) {
            return Err(NpdError::BadForklift(b));
        }
    }
    if npd.ma.mas > 0 {
        capacity(format_args!("ma.fauu_ma_gbps"), npd.ma.fauu_ma_gbps)?;
        capacity(format_args!("ma.ma_eb_gbps"), npd.ma.ma_eb_gbps)?;
    }
    count(format_args!("eb.ebs"), npd.eb.ebs)?;
    count(format_args!("dr.drs"), npd.dr.drs)?;
    count(format_args!("bb.ebbs"), npd.bb.ebbs)?;
    capacity(format_args!("eb.fauu_eb_gbps"), npd.eb.fauu_eb_gbps)?;
    capacity(format_args!("dr.eb_dr_gbps"), npd.dr.eb_dr_gbps)?;
    capacity(format_args!("bb.dr_ebb_gbps"), npd.bb.dr_ebb_gbps)?;

    let hw_ports = |key: &str, fallback: u16| -> u16 {
        npd.hardware
            .iter()
            .find(|h| h.key == key)
            .map(|h| h.ports)
            .unwrap_or(fallback)
    };

    let dcs = npd
        .fabric
        .buildings
        .iter()
        .map(|b| FabricConfig {
            pods: b.pods,
            rsws_per_pod: b.rsws_per_pod,
            planes: b.planes,
            ssws_per_plane: b.ssws_per_plane,
            rsw_fsw_gbps: b.rsw_fsw_gbps,
            fsw_ssw_gbps: b.fsw_ssw_gbps,
            rsw_ports: hw_ports(&b.rsw_hardware, 64),
            fsw_ports: hw_ports(&b.fsw_hardware, 128),
            ssw_ports: hw_ports(&b.ssw_hardware, 256),
            ssw_generation: Generation::V1,
        })
        .collect();

    let mut hgrid_v1 = None;
    let mut hgrid_v2 = None;
    for layer in &npd.hgrid.layers {
        let cfg = HgridConfig {
            grids: layer.grids,
            fadus_per_grid: layer.fadus_per_grid,
            fauus_per_grid: layer.fauus_per_grid,
            generation: Generation(layer.generation),
            mesh: parse_mesh(&layer.mesh)?,
            ssw_fadu_gbps: layer.ssw_fadu_gbps,
            fadu_fauu_gbps: layer.fadu_fauu_gbps,
            uplinks_per_ssw: layer.uplinks_per_ssw,
            fadu_ports: hw_ports(&layer.hardware, 512),
            fauu_ports: hw_ports(&layer.hardware, 512),
        };
        let slot = if layer.generation == 1 {
            &mut hgrid_v1
        } else {
            &mut hgrid_v2
        };
        if slot.is_some() {
            return Err(NpdError::DuplicateGeneration(layer.generation));
        }
        *slot = Some(cfg);
    }
    let hgrid_v1 = hgrid_v1.ok_or(NpdError::NoHgridLayers)?;

    let dmag = (npd.ma.mas > 0).then(|| MaConfig {
        mas: npd.ma.mas,
        ebs_per_ma: npd.ma.ebs_per_ma,
        fauu_ma_gbps: npd.ma.fauu_ma_gbps,
        ma_eb_gbps: npd.ma.ma_eb_gbps,
        ma_ports: hw_ports(&npd.ma.hardware, 512),
    });

    let cfg = RegionConfig {
        name: npd.name.clone(),
        dcs,
        hgrid_v1,
        hgrid_v2,
        backbone: BackboneConfig {
            ebs: npd.eb.ebs,
            drs: npd.dr.drs,
            ebbs: npd.bb.ebbs,
            fauu_eb_gbps: npd.eb.fauu_eb_gbps,
            eb_dr_gbps: npd.dr.eb_dr_gbps,
            dr_ebb_gbps: npd.bb.dr_ebb_gbps,
            eb_ports: hw_ports(&npd.eb.hardware, 512),
            dr_ports: hw_ports(&npd.dr.hardware, 512),
            ebb_ports: hw_ports(&npd.bb.hardware, 512),
        },
        dmag,
        ssw_forklift_dcs: npd.fabric.ssw_forklift.clone(),
    };
    // Counts have no bound of their own: a region past the limits would
    // build until memory runs out, so it is refused from its counts alone.
    let (switches, circuits) = region_size(&cfg);
    for (what, count, limit) in [
        ("switches", switches, MAX_SWITCHES),
        ("circuits", circuits, MAX_CIRCUITS),
    ] {
        if count.is_none_or(|n| n > limit) {
            return Err(NpdError::TooLarge { what, count, limit });
        }
    }
    Ok(cfg)
}

/// Builds a topology from an NPD document, refusing one with a switch the
/// routing engine cannot index ([`check_switch_width`]).
pub fn npd_to_topology(npd: &Npd) -> Result<(Topology, RegionHandles), NpdError> {
    let cfg = npd_to_region(npd)?;
    let (topology, handles) = build_region(&cfg);
    check_switch_width(&topology)?;
    Ok((topology, handles))
}

/// Refuses a built region whose widest switch has more than
/// [`MAX_SWITCH_CIRCUITS`] circuits. Per-switch counts follow from how the
/// builders wire a region, not from its totals alone, so this runs on the
/// region once built (the totals bound what building costs).
pub fn check_switch_width(topology: &Topology) -> Result<(), NpdError> {
    let widest = (0..topology.num_switches())
        .map(|i| topology.degree(SwitchId::from_index(i)))
        .max()
        .unwrap_or(0);
    if widest > MAX_SWITCH_CIRCUITS {
        return Err(NpdError::WideSwitch {
            circuits: widest,
            limit: MAX_SWITCH_CIRCUITS,
        });
    }
    Ok(())
}

/// Writes a computed migration plan into the document as ordered phases
/// ("Klotski returns an ordered list of topology phases", §5).
pub fn attach_plan(npd: &mut Npd, spec: &MigrationSpec, plan: &MigrationPlan) {
    npd.phases = plan
        .phases()
        .iter()
        .enumerate()
        .map(|(i, phase)| MigrationPhase {
            index: i + 1,
            action: spec.actions.kind(phase.kind).to_string(),
            blocks: phase
                .blocks
                .iter()
                .map(|&b| spec.blocks[b.index()].label.clone())
                .collect(),
            switch_ops: phase
                .blocks
                .iter()
                .map(|&b| spec.blocks[b.index()].action_weight())
                .sum(),
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::migration::{MigrationBuilder, MigrationOptions};
    use klotski_core::planner::{AStarPlanner, Planner};
    use klotski_topology::presets::{self, PresetId};

    #[test]
    fn region_roundtrips_through_npd() {
        for id in [PresetId::A, PresetId::B] {
            let cfg = presets::config(id);
            let npd = region_to_npd(&cfg);
            let back = npd_to_region(&npd).unwrap();
            assert_eq!(back.dcs, cfg.dcs, "{id}");
            assert_eq!(back.hgrid_v1.grids, cfg.hgrid_v1.grids);
            assert_eq!(
                back.hgrid_v2.as_ref().map(|h| h.fadus_per_grid),
                cfg.hgrid_v2.as_ref().map(|h| h.fadus_per_grid)
            );
            assert_eq!(back.backbone.ebs, cfg.backbone.ebs);
        }
    }

    #[test]
    fn rebuilt_topology_matches_preset_size() {
        let preset = presets::build(PresetId::A);
        let npd = region_to_npd(&preset.config);
        let (topo, handles) = npd_to_topology(&npd).unwrap();
        assert_eq!(topo.num_switches(), preset.topology.num_switches());
        assert_eq!(topo.num_circuits(), preset.topology.num_circuits());
        assert_eq!(
            handles.hgrid_v2_switches().len(),
            preset.handles.hgrid_v2_switches().len()
        );
    }

    #[test]
    fn dmag_region_roundtrips() {
        let cfg = presets::config(PresetId::EDmag);
        let npd = region_to_npd(&cfg);
        assert!(npd.ma.mas > 0);
        let back = npd_to_region(&npd).unwrap();
        assert_eq!(
            back.dmag.as_ref().map(|m| m.mas),
            cfg.dmag.as_ref().map(|m| m.mas)
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.version = 99;
        assert!(matches!(
            npd_to_region(&npd),
            Err(NpdError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn unknown_mesh_rejected() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.hgrid.layers[0].mesh = "star".into();
        assert!(matches!(npd_to_region(&npd), Err(NpdError::UnknownMesh(_))));
    }

    #[test]
    fn unknown_hardware_rejected() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.fabric.buildings[0].rsw_hardware = "ghost".into();
        assert!(matches!(
            npd_to_region(&npd),
            Err(NpdError::UnknownHardware(_))
        ));
    }

    #[test]
    fn duplicate_generation_rejected() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        let dup = npd.hgrid.layers[0].clone();
        npd.hgrid.layers.push(dup);
        assert!(matches!(
            npd_to_region(&npd),
            Err(NpdError::DuplicateGeneration(1))
        ));
    }

    /// One-field edits of an exported preset A that used to reach an
    /// `assert!` / `expect` in the topology and traffic builders.
    #[test]
    fn hostile_counts_and_capacities_get_a_typed_error_naming_the_field() {
        type Edit = fn(&mut Npd);
        let cases: [(Edit, &str); 10] = [
            (|n| n.hgrid.layers[0].grids = 0, "hgrid.layers[0].grids"),
            (
                |n| n.hgrid.layers[0].fauus_per_grid = 0,
                "hgrid.layers[0].fauus_per_grid",
            ),
            (|n| n.eb.ebs = 0, "eb.ebs"),
            (|n| n.bb.ebbs = 0, "bb.ebbs"),
            (|n| n.dr.drs = 0, "dr.drs"),
            (
                |n| n.fabric.buildings[0].pods = 0,
                "fabric.buildings[0].pods",
            ),
            (
                |n| n.fabric.buildings[0].rsws_per_pod = 0,
                "fabric.buildings[0].rsws_per_pod",
            ),
            (
                |n| n.hgrid.layers[0].ssw_fadu_gbps = 0.0,
                "hgrid.layers[0].ssw_fadu_gbps",
            ),
            (|n| n.eb.fauu_eb_gbps = -5.0, "eb.fauu_eb_gbps"),
            (|n| n.hgrid.layers[1].generation = 7, "generation v7"),
        ];
        for (edit, field) in cases {
            let mut npd = region_to_npd(&presets::config(PresetId::A));
            edit(&mut npd);
            let err = npd_to_topology(&npd).expect_err(field);
            assert!(
                matches!(
                    err,
                    NpdError::ZeroCount(_)
                        | NpdError::BadCapacity { .. }
                        | NpdError::UnknownGeneration(7)
                ),
                "{field}: {err:?}"
            );
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        // Whatever the document says of an MA layer that does not exist is
        // not read.
        let npd = region_to_npd(&presets::config(PresetId::A));
        assert_eq!((npd.ma.mas, npd.ma.ma_eb_gbps), (0, 0.0));
        assert!(npd_to_topology(&npd).is_ok());
    }

    /// Every shipped preset's document converts back to the preset's own
    /// config, and the size counted off the document is the size of the
    /// topology built from it.
    #[test]
    fn shipped_presets_round_trip_within_the_size_limits() {
        for id in PresetId::ALL {
            let original = presets::config(id);
            let cfg =
                npd_to_region(&region_to_npd(&original)).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(cfg, original, "{id}");
            let (topo, _) = build_region(&cfg);
            assert_eq!(
                region_size(&cfg),
                (Some(topo.num_switches()), Some(topo.num_circuits())),
                "{id}"
            );
        }
    }

    /// A forklift list names each building of the document at most once.
    #[test]
    fn a_forklift_of_a_missing_or_repeated_building_is_refused() {
        let mut npd = region_to_npd(&presets::config(PresetId::C));
        for (list, refused) in [(vec![2], 2), (vec![1, 0, 1], 1)] {
            npd.fabric.ssw_forklift = list;
            let err = npd_to_region(&npd).expect_err("refused");
            assert_eq!(err, NpdError::BadForklift(refused));
            assert!(err.to_string().contains("ssw_forklift"), "{err}");
        }
        npd.fabric.ssw_forklift = vec![1, 0];
        assert_eq!(npd_to_region(&npd).unwrap().ssw_forklift_dcs, [1, 0]);
    }

    /// `pods: 10⁷` used to build until memory ran out: it is refused from
    /// the counts, as is a product past `usize`, which must not wrap.
    #[test]
    fn oversized_regions_are_refused_before_anything_is_built() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.fabric.buildings[0].pods = 10_000_000;
        let err = npd_to_region(&npd).expect_err("10^7 pods");
        assert!(
            matches!(
                err,
                NpdError::TooLarge {
                    what: "switches",
                    count: Some(n),
                    limit: MAX_SWITCHES,
                } if n > 10_000_000
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("switches"), "{err}");

        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.hgrid.layers[1].uplinks_per_ssw = usize::MAX / 2;
        assert_eq!(
            npd_to_region(&npd),
            Err(NpdError::TooLarge {
                what: "circuits",
                count: None,
                limit: MAX_CIRCUITS,
            })
        );
        npd.fabric.buildings[0].pods = usize::MAX;
        assert_eq!(
            npd_to_region(&npd),
            Err(NpdError::TooLarge {
                what: "switches",
                count: None,
                limit: MAX_SWITCHES,
            })
        );
    }

    /// Every SSW takes `uplinks_per_ssw` circuits into each grid of a
    /// spread layer: 11 000 of them make a switch wider than the routing
    /// engine indexes, inside the region limits; 10 000 do not.
    #[test]
    fn a_switch_wider_than_the_engine_indexes_is_refused() {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.hgrid.layers[1].uplinks_per_ssw = 11_000;
        let cfg = npd_to_region(&npd).expect("within the region limits");
        let (topology, _) = build_region(&cfg);
        let err = check_switch_width(&topology).expect_err("too wide");
        assert!(
            matches!(err, NpdError::WideSwitch { circuits, limit: MAX_SWITCH_CIRCUITS }
                if circuits > MAX_SWITCH_CIRCUITS),
            "{err:?}"
        );
        assert!(err.to_string().contains("per switch"), "{err}");
        assert_eq!(npd_to_topology(&npd).map(|_| ()), Err(err));
        npd.hgrid.layers[1].uplinks_per_ssw = 10_000;
        assert!(npd_to_topology(&npd).is_ok());
    }

    #[test]
    fn attach_plan_writes_phases() {
        let preset = presets::build(PresetId::A);
        let spec = MigrationBuilder::hgrid_v1_to_v2(&preset, &MigrationOptions::default()).unwrap();
        let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
        let mut npd = region_to_npd(&preset.config);
        attach_plan(&mut npd, &spec, &plan);
        assert_eq!(npd.phases.len(), plan.num_phases());
        assert_eq!(npd.phases[0].index, 1);
        assert!(npd.phases.iter().all(|p| !p.blocks.is_empty()));
        let total_ops: usize = npd.phases.iter().map(|p| p.switch_ops).sum();
        assert_eq!(total_ops, spec.num_switch_actions());
        // Survives JSON.
        let back = Npd::from_json(&npd.to_json_pretty().unwrap()).unwrap();
        assert_eq!(back.phases, npd.phases);
    }
}
