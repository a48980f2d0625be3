//! The knob inventory: every `PITEX_*` environment name the sources mention
//! must have a row in README's "Environment knobs" table, and every row
//! must name a knob the sources still read. A removed knob that lingers in
//! code or comments fails here, and so does a new knob that lands without
//! a documented reason.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIX: &str = "PITEX_";

/// Every distinct `PITEX_*` name in `text`. A prefix-only spelling such as
/// `PITEX_FOO_*` comes out as `PITEX_FOO`, which no table row matches.
fn names_in(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices(PREFIX) {
        let tail = &text[at + PREFIX.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        let name = tail[..len].trim_end_matches('_');
        if !name.is_empty() {
            names.insert(format!("{PREFIX}{name}"));
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The names mentioned under every crate's `src/` and `benches/`, the
/// root `src/`, and the vendored bench harness.
fn source_names(root: &Path) -> BTreeSet<String> {
    let mut dirs = vec![root.join("src"), root.join("vendor/criterion/src")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        dirs.extend(
            ["src", "benches"].map(|sub| krate.join(sub)).into_iter().filter(|d| d.is_dir()),
        );
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files.iter().flat_map(|file| names_in(&std::fs::read_to_string(file).unwrap())).collect()
}

/// The names in README's knob table, after checking that every row
/// carries a default and a reason.
fn table_names(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## Environment knobs\n")
        .nth(1)
        .expect("README has an \"Environment knobs\" section");
    let section = section.split("\n## ").next().unwrap();
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|line| line.starts_with("| `")) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        assert_eq!(cells.len(), 3, "a row is name | default | reason: {row}");
        assert!(!cells[1].is_empty() && !cells[2].is_empty(), "undocumented knob: {row}");
        let found = names_in(cells[0]);
        assert_eq!(found.len(), 1, "a row names one knob: {row}");
        assert!(names.insert(found.into_iter().next().unwrap()), "duplicate row: {row}");
    }
    names
}

#[test]
fn every_knob_in_the_sources_has_a_readme_row_and_no_row_is_stale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let documented = table_names(&readme);
    let used = source_names(root);
    let undocumented: Vec<_> = used.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&used).collect();
    assert!(undocumented.is_empty(), "knobs without a README row: {undocumented:?}");
    assert!(stale.is_empty(), "README rows for knobs the sources no longer read: {stale:?}");
}

#[test]
fn names_are_cut_at_the_first_character_outside_the_name() {
    let found = names_in("`PITEX_OBS_CAPTURE=/tmp/x` and PITEX_WAL_* and PITEX_SEED.");
    let expected = ["PITEX_OBS_CAPTURE", "PITEX_WAL", "PITEX_SEED"];
    assert_eq!(found, expected.into_iter().map(String::from).collect());
}
