//! Golden-file pin of the `TableCache` warm-start snapshot format
//! (`nova-table-cache/v1`): a daemon restart must be able to restore a
//! snapshot written by any earlier build, so the serialized bytes are
//! part of the public contract — any layout change fails here until the
//! golden is deliberately re-blessed *with a migration path*.
//!
//! Re-bless (after such a deliberate change) with:
//! `NOVA_BLESS=1 cargo test --test snapshot_golden`

use nova::serving::{TableCache, TableKey};
use nova_approx::Activation;
use nova_fixed::Rounding;
use nova_serde::Value;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/table_cache_snapshot_v1.json"
);

/// The pinned key set: the two paper tables the serving examples lean
/// on, plus one off-default rounding/breakpoint combination so the
/// golden exercises every serialized field with non-default values.
fn golden_cache() -> TableCache {
    let cache = TableCache::new();
    for key in [
        TableKey::paper(Activation::Gelu),
        TableKey::paper(Activation::Exp),
        TableKey {
            breakpoints: 9,
            rounding: Rounding::Floor,
            ..TableKey::paper(Activation::Tanh)
        },
    ] {
        cache.get_or_fit(key).expect("paper tables fit");
    }
    cache
}

#[test]
fn snapshot_golden_file_is_byte_stable() {
    let json = golden_cache().snapshot().to_json();
    if std::env::var_os("NOVA_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    assert_eq!(
        json, golden,
        "snapshot bytes drifted from the pinned v1 layout — if the \
         change is deliberate, bump SNAPSHOT_FORMAT and re-bless"
    );
}

#[test]
fn golden_snapshot_restores_raw_word_identical() {
    // The CI round-trip gate: restoring the *pinned* bytes (not a
    // freshly written snapshot) reproduces every table raw-identical to
    // a fresh fit, and re-snapshotting the restored cache closes the
    // loop byte-identically.
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let snapshot = Value::from_json(&golden).expect("golden parses");
    let warm = TableCache::new();
    assert_eq!(warm.restore(&snapshot).expect("golden restores"), 3);
    let fresh = golden_cache();
    for key in [
        TableKey::paper(Activation::Gelu),
        TableKey::paper(Activation::Exp),
        TableKey {
            breakpoints: 9,
            rounding: Rounding::Floor,
            ..TableKey::paper(Activation::Tanh)
        },
    ] {
        let table = fresh.get_or_fit(key).expect("fresh fit");
        let restored = warm.get_or_fit(key).expect("resident after restore");
        assert_eq!(warm.misses(), 0, "warm start must never refit");
        assert_eq!(restored.pairs(), table.pairs(), "{key:?}");
        assert_eq!(restored.breakpoints(), table.breakpoints(), "{key:?}");
    }
    assert_eq!(warm.snapshot().to_json(), golden, "round-trip closes");
}
