//! xtask-lint — a std-only workspace invariant linter.
//!
//! Walks every `.rs` file under a root, lexes it with the hand-rolled
//! lexer in [`lexer`], and enforces the invariant rules declared in the
//! root's `lint.toml` (see [`manifest`] for the format and
//! `docs/INVARIANTS.md` for the rule catalog):
//!
//! * `no-panic-in-serving` — no `unwrap`/`expect`/`panic!`/`[]`-indexing
//!   on declared serving paths.
//! * `total-float-ordering` — no raw `partial_cmp`, anywhere.
//! * `no-alloc-in-kernel` — no allocation inside declared hot kernels.
//! * `lock-scope-discipline` — no channel send/recv in a lock's scope.
//! * `protocol-exhaustiveness` — every protocol variant dispatched and
//!   counted (cross-file).
//!
//! Exceptions need an inline `// lint:allow(<rule>) -- <reason>` marker,
//! which suppresses the rule on its own line and the next; markers are
//! counted, reasonless or unknown markers are violations, unused markers
//! are warnings (errors under deny-all when their rule is enabled for
//! the file).
#![warn(missing_docs)]

pub mod ast;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod rules;

use rules::{Allow, FileAnalysis, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Outcome of a lint run.
pub struct Report {
    /// Violations that survived allow-marker suppression, sorted by
    /// (file, line, col).
    pub violations: Vec<Violation>,
    /// Every allow marker in the tree, with its use count filled in.
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total violations suppressed by allow markers.
    pub suppressed: usize,
}

impl Report {
    /// Allow markers that suppressed nothing (stale exceptions).
    pub fn unused_allows(&self) -> Vec<&Allow> {
        self.allows.iter().filter(|a| a.used == 0).collect()
    }

    /// Does the run fail? Violations always fail; under `deny_all`,
    /// stale allow markers for rules that are actually enabled on their
    /// path fail too. A stale allow for a rule the manifest never runs
    /// on that file only ever warns — erroring on it would force edits
    /// to files the configured rules cannot even see.
    pub fn failed(&self, deny_all: bool) -> bool {
        !self.violations.is_empty() || (deny_all && self.unused_allows().iter().any(|a| a.enforced))
    }

    /// Render the machine-readable report: a stable-ordered JSON object
    /// (violations sorted by file/line/col/rule, allows by
    /// file/line/rule) so CI diffs and re-runs are byte-identical. The
    /// schema is documented in `docs/ARCHITECTURE.md`.
    pub fn to_json(&self, deny_all: bool) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut allows: Vec<&Allow> = self.allows.iter().collect();
        allows.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule.as_str(),
            ))
        });
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str(&format!("  \"deny_all\": {deny_all},\n"));
        out.push_str(&format!("  \"failed\": {},\n", self.failed(deny_all)));
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
                 \"message\": \"{}\", \"snippet\": \"{}\"}}",
                esc(v.rule),
                esc(&v.file),
                v.line,
                v.col,
                esc(&v.message),
                esc(&v.snippet)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"allows\": [");
        for (i, a) in allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\", \
                 \"used\": {}, \"enforced\": {}}}",
                esc(&a.rule),
                esc(&a.file),
                a.line,
                esc(&a.reason),
                a.used,
                a.enforced
            ));
        }
        if !allows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Errors that stop a run before any linting happens.
#[derive(Debug)]
pub enum RunError {
    /// `lint.toml` missing or unreadable at the root.
    ManifestIo(PathBuf, std::io::Error),
    /// `lint.toml` did not parse.
    ManifestSyntax(manifest::ManifestError),
    /// The file walk failed.
    Walk(PathBuf, std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ManifestIo(path, e) => {
                write!(f, "cannot read {}: {e}", path.display())
            }
            RunError::ManifestSyntax(e) => write!(f, "{e}"),
            RunError::Walk(path, e) => write!(f, "walking {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for RunError {}

/// Directory names the walk does not descend into on its own (a
/// `[no_panic]` directory or file inside one is still read, see [`run`]).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Collect every `.rs` file under `start` (a directory inside `root`),
/// `root`-relative with `/` separators, sorted for deterministic reports.
fn collect_rs_files(root: &Path, start: &Path) -> Result<Vec<(String, PathBuf)>, RunError> {
    let mut out = Vec::new();
    let mut stack = vec![start.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| RunError::Walk(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| RunError::Walk(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push((relative(root, &path), path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the tree rooted at `root` against `<root>/lint.toml`.
pub fn run(root: &Path) -> Result<Report, RunError> {
    let manifest_path = root.join("lint.toml");
    let manifest_src = std::fs::read_to_string(&manifest_path)
        .map_err(|e| RunError::ManifestIo(manifest_path, e))?;
    let manifest = manifest::parse(&manifest_src).map_err(RunError::ManifestSyntax)?;

    // The walk skips vendored code, except where the manifest holds a
    // vendored directory or file to the panic-freedom bar explicitly.
    let mut files = collect_rs_files(root, root)?;
    for declared in &manifest.no_panic_paths {
        let path = root.join(declared);
        let skipped = Path::new(declared)
            .components()
            .any(|c| SKIP_DIRS.contains(&c.as_os_str().to_string_lossy().as_ref()));
        if !skipped {
            continue;
        }
        if path.is_dir() {
            files.extend(collect_rs_files(root, &path)?);
        } else if path.is_file() {
            files.push((relative(root, &path), path));
        }
    }

    let mut analyses: BTreeMap<String, FileAnalysis> = BTreeMap::new();
    for (rel, path) in files {
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(_) => continue, // non-UTF-8 or vanished mid-run: skip
        };
        analyses.insert(rel.clone(), FileAnalysis::new(rel, src));
    }

    let mut violations = Vec::new();
    for analysis in analyses.values() {
        rules::check_file(analysis, &manifest, &mut violations);
    }
    if let Some(protocol) = &manifest.protocol {
        rules::check_protocol(protocol, &analyses, &mut violations);
    }
    flow::check_flow(&manifest, &analyses, &mut violations);

    // Apply allow markers: a marker suppresses violations of its rule on
    // its own line and the line below, in its own file.
    let mut allows: Vec<Allow> = analyses
        .values()
        .flat_map(|a| a.allows.iter().cloned())
        .collect();
    for allow in &mut allows {
        allow.enforced = rules::rule_enabled(&allow.rule, &allow.file, &manifest);
    }
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for violation in violations {
        let matched = allows.iter_mut().find(|a| {
            a.file == violation.file
                && a.rule == violation.rule
                && (violation.line == a.line || violation.line == a.line + 1)
        });
        match matched {
            Some(allow) => {
                allow.used += 1;
                suppressed += 1;
            }
            None => kept.push(violation),
        }
    }
    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    Ok(Report {
        violations: kept,
        allows,
        files_scanned: analyses.len(),
        suppressed,
    })
}
