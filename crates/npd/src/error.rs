//! NPD conversion errors.

use std::fmt;

/// Errors converting an NPD document into a buildable topology.
#[derive(Debug, Clone, PartialEq)]
pub enum NpdError {
    /// Unsupported format version.
    Version { found: u32, supported: u32 },
    /// The document has no fabric buildings.
    NoBuildings,
    /// The HGRID part has no layers.
    NoHgridLayers,
    /// An unknown meshing-pattern label.
    UnknownMesh(String),
    /// More than one layer claims the same generation.
    DuplicateGeneration(u8),
    /// A part references a hardware key missing from the catalog.
    UnknownHardware(String),
    /// An HGRID layer of a generation other than 1 or 2.
    UnknownGeneration(u8),
    /// A count the topology builders need positive is zero; names the field.
    ZeroCount(String),
    /// A circuit capacity that is not a finite positive number of Gbps.
    BadCapacity {
        /// The offending field, e.g. `hgrid.layers[0].ssw_fadu_gbps`.
        field: String,
        /// Its value.
        gbps: f64,
    },
    /// `fabric.ssw_forklift` names a building the document does not have,
    /// or names one twice.
    BadForklift(u16),
    /// The region the document's counts describe has more switches or
    /// circuits than the converter builds.
    TooLarge {
        /// `"switches"` or `"circuits"`.
        what: &'static str,
        /// How many the builders would create; `None` when the count
        /// overflows `usize`.
        count: Option<usize>,
        /// The most the converter builds.
        limit: usize,
    },
    /// A switch of the built region has more circuits than the routing
    /// engine indexes per switch.
    WideSwitch {
        /// The widest switch's circuit count.
        circuits: usize,
        /// The most one switch may have.
        limit: usize,
    },
}

impl fmt::Display for NpdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpdError::Version { found, supported } => {
                write!(
                    f,
                    "unsupported NPD version {found} (supported: {supported})"
                )
            }
            NpdError::NoBuildings => write!(f, "NPD fabric part has no buildings"),
            NpdError::NoHgridLayers => write!(f, "NPD hgrid part has no layers"),
            NpdError::UnknownMesh(m) => write!(f, "unknown mesh pattern {m:?}"),
            NpdError::DuplicateGeneration(g) => {
                write!(f, "duplicate HGRID generation v{g}")
            }
            NpdError::UnknownHardware(k) => write!(f, "unknown hardware key {k:?}"),
            NpdError::UnknownGeneration(g) => {
                write!(f, "unknown HGRID generation v{g} (expected 1 or 2)")
            }
            NpdError::ZeroCount(field) => write!(f, "{field} must be at least 1"),
            NpdError::BadCapacity { field, gbps } => {
                write!(f, "{field} must be a finite positive capacity, got {gbps}")
            }
            NpdError::BadForklift(b) => write!(
                f,
                "fabric.ssw_forklift lists building {b} twice or past the last building"
            ),
            NpdError::TooLarge { what, count, limit } => match count {
                Some(n) => write!(f, "region has {n} {what}, more than the limit of {limit}"),
                None => write!(f, "region's {what} overflow usize (limit {limit})"),
            },
            NpdError::WideSwitch { circuits, limit } => write!(
                f,
                "a switch has {circuits} circuits, more than the limit of {limit} per switch"
            ),
        }
    }
}

impl std::error::Error for NpdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(NpdError::UnknownMesh("star".into())
            .to_string()
            .contains("star"));
        assert!(NpdError::Version {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        let wide = NpdError::WideSwitch {
            circuits: 70_000,
            limit: 65_536,
        };
        assert!(wide.to_string().contains("70000"), "{wide}");
    }
}
