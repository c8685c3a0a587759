//! Seeded 64-bit hashing primitives shared by all sketches.
//!
//! Sketch coordination (KMV, MinHash) requires that the *same* value hash
//! identically across tables and processes, so we use an explicit
//! splitmix64-based construction rather than `std`'s randomized hasher.

use rdi_table::{Value, ValueRef};

/// splitmix64 finalizer — good avalanche, cheap, stable.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash raw bytes with a seed (FNV-1a folded through splitmix64).
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ splitmix64(seed);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

/// Hash a [`Value`] canonically; see [`hash_value_ref`], which this
/// delegates to.
pub fn hash_value(v: &Value, seed: u64) -> u64 {
    hash_value_ref(v.as_ref(), seed)
}

/// Hash a borrowed cell canonically: numerics through their `f64` bits
/// (so `Int(2)` and `Float(2.0)` collide, consistent with `Value::eq`),
/// strings through their bytes, nulls to a fixed tag.
pub fn hash_value_ref(v: ValueRef<'_>, seed: u64) -> u64 {
    match v {
        ValueRef::Null => splitmix64(seed ^ 0x6e75_6c6c),
        ValueRef::Int(i) => hash_bytes(&(i as f64).to_bits().to_le_bytes(), seed),
        ValueRef::Float(f) => hash_bytes(&f.to_bits().to_le_bytes(), seed),
        ValueRef::Bool(b) => hash_bytes(
            &(if b { 1.0f64 } else { 0.0 }).to_bits().to_le_bytes(),
            seed,
        ),
        ValueRef::Str(s) => hash_bytes(s.as_bytes(), seed),
    }
}

/// Map a hash to the unit interval `[0, 1)`.
pub fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_bytes(b"abc", 7), hash_bytes(b"abc", 7));
        assert_ne!(hash_bytes(b"abc", 7), hash_bytes(b"abc", 8));
        assert_ne!(hash_bytes(b"abc", 7), hash_bytes(b"abd", 7));
    }

    #[test]
    fn value_hash_consistent_with_eq() {
        assert_eq!(
            hash_value(&Value::Int(2), 3),
            hash_value(&Value::Float(2.0), 3)
        );
        assert_ne!(
            hash_value(&Value::str("2"), 3),
            hash_value(&Value::Int(2), 3)
        );
    }

    /// `hash_value` as it was before it delegated to `hash_value_ref`.
    fn reference_hash_value(v: &Value, seed: u64) -> u64 {
        match v {
            Value::Null => splitmix64(seed ^ 0x6e75_6c6c),
            Value::Int(i) => hash_bytes(&(*i as f64).to_bits().to_le_bytes(), seed),
            Value::Float(f) => hash_bytes(&f.to_bits().to_le_bytes(), seed),
            Value::Bool(b) => hash_bytes(
                &(if *b { 1.0f64 } else { 0.0 }).to_bits().to_le_bytes(),
                seed,
            ),
            Value::Str(s) => hash_bytes(s.as_bytes(), seed),
        }
    }

    #[test]
    fn borrowed_hash_is_bitwise_the_owned_hash() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::str(""),
            Value::str("日本"),
        ];
        for v in &values {
            for seed in [0, 7, u64::MAX] {
                let want = reference_hash_value(v, seed);
                assert_eq!(hash_value(v, seed), want, "{v:?}");
                assert_eq!(hash_value_ref(v.as_ref(), seed), want, "{v:?}");
            }
        }
    }

    #[test]
    fn unit_mapping_in_range_and_spread() {
        let mut lo = 0;
        let mut hi = 0;
        for i in 0..1000u64 {
            let u = to_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!((lo as i64 - hi as i64).abs() < 150, "lo={lo} hi={hi}");
    }

    #[test]
    fn avalanche_changes_many_bits() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        let diff = (a ^ b).count_ones();
        assert!(diff > 10, "diff={diff}");
    }
}
