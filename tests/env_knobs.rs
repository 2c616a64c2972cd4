//! The `NWDP_*` knob surface matches its documentation: every variable
//! named by a `"NWDP_..."` string literal in the non-test sources under
//! `crates/*/src` and `src/` has a row in README's environment table, and
//! every row names a variable some source still reads. `NWDP_TEST_*`
//! names are test fixtures and are skipped.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `src` up to its first `#[cfg(test)]`-gated module.
fn non_test(src: &str) -> &str {
    let mut from = 0;
    while let Some(i) = src[from..].find("#[cfg(test)]") {
        let at = from + i;
        let rest = src[at + "#[cfg(test)]".len()..].trim_start();
        if rest.starts_with("mod ") {
            return &src[..at];
        }
        from = at + 1;
    }
    src
}

/// Variable names up to the first character outside `[A-Z_]`.
fn var_name(s: &str) -> &str {
    let len = s.find(|c: char| !(c.is_ascii_uppercase() || c == '_')).unwrap_or(s.len());
    &s[..len]
}

/// Names in `"NWDP_[A-Z_]+"` string literals, `NWDP_TEST_*` excluded.
fn quoted_vars(src: &str, out: &mut BTreeSet<String>) {
    for (i, _) in src.match_indices("\"NWDP_") {
        let name = var_name(&src[i + 1..]);
        let closed = src[i + 1 + name.len()..].starts_with('"');
        if closed && !name.starts_with("NWDP_TEST_") {
            out.insert(name.to_string());
        }
    }
}

#[test]
fn env_table_lists_exactly_the_variables_the_sources_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for dir in &crates {
        rust_files(dir, &mut files);
    }
    let mut read = BTreeSet::new();
    for f in &files {
        let src = std::fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        quoted_vars(non_test(&src), &mut read);
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented: BTreeSet<String> = readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter(|l| l.starts_with("NWDP_"))
        .map(|l| var_name(l).to_string())
        .collect();

    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "README environment table out of step with the sources: \
         read but undocumented {undocumented:?}, documented but unread {unread:?}"
    );
    assert!(read.contains("NWDP_THREADS"), "the scan found the sources: {read:?}");
}
