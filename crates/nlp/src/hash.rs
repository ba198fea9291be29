//! FNV-1a-64: the workspace's fixed, seedless hash.

/// The FNV-1a-64 offset basis: the hash of no bytes, and the value
/// every [`fnv1a`] chain starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64, continued from `hash`: fold `bytes` into a running
/// hash, so `fnv1a(fnv1a(FNV1A_OFFSET, a), b)` is the hash of `a`
/// followed by `b`. A fixed, seedless hash, so feature buckets,
/// digests, schema fingerprints and routing never depend on
/// `RandomState`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV1A_OFFSET, b"foobar")
        );
    }
}
