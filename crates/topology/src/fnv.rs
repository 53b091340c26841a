//! 64-bit FNV-1a, the workspace's one content hash: NPD and journal digests,
//! demand-matrix digests, run fingerprints and endpoint fingerprints all
//! stream through [`Fnv1a`].

/// A streaming 64-bit FNV-1a hasher: every byte mixed in, in order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The offset basis: the hash of no bytes.
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes in `s` framed by its length, so adjacent strings cannot run
    /// into each other.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The hash of everything mixed in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}
