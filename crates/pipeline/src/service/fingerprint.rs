//! Job fingerprinting for the compiled-plan cache.
//!
//! A cache key must capture everything that influences the compiled
//! artifacts (plan geometry, kernel tape, binding strategy): the nest's
//! statements and region, the program's array declarations (layouts
//! decide the kernel's stride resolution), the topology (processor
//! count and distribution choice), the block policy, the machine
//! parameters, the kernel-tier switch, and the array rank `R`.
//!
//! All of those types derive `Debug` deterministically, so the key is
//! the canonical `Debug` rendering of the tuple. The full string is the
//! key — lookups compare strings, not hashes — so a collision can never
//! silently serve the wrong plan; the FNV-1a digest of the string is
//! only a compact label for telemetry and logs.

use wavefront_core::exec::CompiledNest;
use wavefront_core::program::Program;

use crate::plan::JobTopology;
use crate::session::SessionConfig;

/// 64-bit FNV-1a over `bytes` — the compact display form of a key.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Cache key for a job. `hsig` is the handle-shape signature: the
/// *names* bound to resident handles (sorted in/out sets), never the
/// handle ids — ids rotate every loop chunk and keying on them would
/// turn the cache into a miss machine. Sessions pass `""`.
pub(crate) fn plan_key<const R: usize>(
    program: &Program<R>,
    nest: &CompiledNest<R>,
    topology: JobTopology,
    cfg: &SessionConfig,
    hsig: &str,
) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "R={R};{topology:?};h={hsig};k={:?};{:?};{:?};{:?};{:?}",
        cfg.kernel_mode,
        cfg.block,
        cfg.machine,
        program.arrays(),
        nest,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
