//! On-disk formats stay readable: a campaign journal, a request trace
//! and a disk cache (`cache.log` plus `stats.log`) written by an earlier
//! build and checked in under `tests/fixtures/sealed` must read back
//! exactly as they did when they were written.

use std::path::{Path, PathBuf};

use mcc::cache::disk::{read_stats, DiskTier};
use mcc::cache::CacheKey;
use mcc::harness::journal::{Header, Journal};
use mcc::serve::trace::replay;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/sealed")
        .join(name)
}

fn expected(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

/// A private copy of the fixtures: recovery truncates in place.
fn private_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcc-sealed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("cache")).unwrap();
    for f in [
        "journal.jsonl",
        "trace.jsonl",
        "cache/cache.log",
        "cache/stats.log",
    ] {
        std::fs::copy(fixture(f), dir.join(f)).unwrap();
    }
    dir
}

#[test]
fn journal_fixture_reads_back_identically() {
    let dir = private_copy("journal");
    let header = Header {
        campaign: "fixture".into(),
        seed: 49374,
        jobs: 3,
        fingerprint: mcc::harness::fingerprint(["e9/hm1/a", "e9/vm1/b", "e9/bx2/c"].into_iter()),
    };
    let (_, records) = Journal::recover(&dir.join("journal.jsonl"), &header).unwrap();
    let mut got = format!("{header:?}\n");
    for r in &records {
        got.push_str(&format!("{r:?}\n"));
    }
    assert_eq!(got, expected("journal.expected"));
    let after = std::fs::read(dir.join("journal.jsonl")).unwrap();
    assert_eq!(
        after,
        std::fs::read(fixture("journal.jsonl")).unwrap(),
        "nothing truncated"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_fixture_reads_back_identically() {
    let (records, torn) = replay(&fixture("trace.jsonl")).unwrap();
    let mut got = format!("torn {torn}\n");
    for r in &records {
        got.push_str(&format!("{r:?}\n"));
    }
    assert_eq!(got, expected("trace.expected"));
}

#[test]
fn cache_fixture_reads_back_identically() {
    let dir = private_copy("cache");
    let cache = dir.join("cache");
    let d = DiskTier::open_with_cap(&cache, None).unwrap();
    let mut got = format!("len {}\n", d.len());
    for k in [0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128, 1, u128::MAX] {
        got.push_str(&format!("{k:032x} {:?}\n", d.lookup(CacheKey(k))));
    }
    got.push_str(&format!("{:?}\n", read_stats(&cache)));
    assert_eq!(got, expected("cache.expected"));
    drop(d);
    let after = std::fs::read(cache.join("cache.log")).unwrap();
    assert_eq!(
        after,
        std::fs::read(fixture("cache/cache.log")).unwrap(),
        "nothing truncated"
    );
    std::fs::remove_dir_all(&dir).ok();
}
