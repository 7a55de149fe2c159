//! The toolkit's one copy of each non-cryptographic hash — 64-bit
//! FNV-1a (checksums and seals) and SplitMix64 (the seedable mixer) —
//! and the sealed line the campaign [`journal`](crate::journal) and the
//! serve trace append: a flat JSON object whose last field is
//! `"sum":"<fnv1a:016x>"` over the object without that field. A seal is
//! canonical, exactly sixteen lowercase hex digits, so a case-flipped
//! seal reads as damage, never as the same sum.

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: one step of the seedable mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Parses a canonical checksum field: exactly sixteen lowercase hex
/// digits. Anything else — short, long, signed, upper case — is `None`.
pub fn parse_sum(hex: &str) -> Option<u64> {
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Seals a JSON object `body` (without a `sum` field) into one
/// newline-terminated line.
pub fn seal(body: &str) -> String {
    debug_assert!(body.ends_with('}'));
    let sum = fnv1a(body.as_bytes());
    format!("{},\"sum\":\"{sum:016x}\"}}\n", &body[..body.len() - 1])
}

/// Splits a sealed line (without its newline) back into its body,
/// verifying the seal. `None` for anything torn or altered.
pub fn unseal(line: &str) -> Option<String> {
    let idx = line.rfind(",\"sum\":\"")?;
    let sum = parse_sum(line[idx + 8..].strip_suffix("\"}")?)?;
    let body = format!("{}}}", &line[..idx]);
    (fnv1a(body.as_bytes()) == sum).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0x1234_5678), 0x38f1_dc39_d190_6b6f);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn seals_round_trip_and_reject_noncanonical_sums() {
        let line = seal("{\"a\":1}");
        let bare = line.trim_end_matches('\n');
        assert_eq!(unseal(bare).as_deref(), Some("{\"a\":1}"));
        // Upper-casing one hex letter of the seal leaves the same number.
        let at = bare.rfind(|c: char| ('a'..='f').contains(&c)).unwrap();
        assert!(at > bare.rfind("\"sum\"").unwrap());
        let mut flipped = bare.to_string();
        flipped.replace_range(at..=at, &bare[at..=at].to_ascii_uppercase());
        assert_eq!(unseal(&flipped), None);
        assert_eq!(parse_sum("00000000000000ff"), Some(0xff));
        for bad in [
            "00000000000000FF",
            "0000000000000ff",
            "+000000000000000",
            "000000000000000ff",
        ] {
            assert_eq!(parse_sum(bad), None, "{bad}");
        }
    }
}
