//! The committed `BENCH_*.json` at the repo root are what README and
//! CHANGES quote. Each must be the harness envelope, a full-preset run on
//! a multi-core host, and must pass its own gates — a record that fails
//! them cannot be committed.

use clipper_bench::harness::Record;
use std::path::Path;

#[test]
fn committed_records_are_full_runs_that_pass_their_own_gates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut benches = Vec::new();
    for entry in std::fs::read_dir(root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let json = std::fs::read_to_string(&path).expect("readable record");
        let record: Record = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{name} is not the harness envelope: {e}"));
        assert_eq!(record.bench, bench, "{name}: bench field matches the file");
        assert!(
            record.cores >= 2,
            "{name}: recorded on {} core",
            record.cores
        );
        assert!(!record.smoke, "{name}: recorded from the smoke preset");
        assert!(!record.rows.is_empty(), "{name}: no rows");
        for row in &record.rows {
            assert!(row["row"].as_str().is_some(), "{name}: a row has no kind");
        }
        assert!(!record.gates.is_empty(), "{name}: no gates");
        for gate in &record.gates {
            assert!(gate.pass, "{name}: gate {} failed", gate.name);
        }
        benches.push(bench.to_string());
    }
    benches.sort();
    let expected = [
        "alloc_count",
        "cache_scaling",
        "fleet",
        "paper",
        "recovery",
        "replica_scaling",
        "rpc_latency",
        "soak",
    ];
    assert_eq!(benches, expected);
}
