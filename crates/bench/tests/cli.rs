//! The harness's one entry point: `bench exp` resolves ids against
//! `experiments::TABLE`, and the table is the whole of `experiments::`.

use std::collections::BTreeSet;
use std::process::Command;

use bench::experiments::TABLE;

#[test]
fn unknown_experiment_exits_2_and_lists_the_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["exp", "fig2", "no_such_experiment"])
        .output()
        .expect("run bench");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing may run when an id is unknown"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no_such_experiment"), "{err}");
    for (id, _) in TABLE {
        assert!(err.contains(id), "table listing lacks {id}: {err}");
    }
}

#[test]
fn every_experiment_module_is_in_the_table_exactly_once() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
    let modules: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("experiments dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    let ids: Vec<&str> = TABLE.iter().map(|(id, _)| *id).collect();
    let unique: BTreeSet<String> = ids.iter().map(|id| (*id).to_string()).collect();
    assert_eq!(unique.len(), ids.len(), "an id appears twice: {ids:?}");
    assert_eq!(unique, modules, "TABLE and src/experiments/*.rs differ");
}
