//! Workspace task runner.
//!
//! ```text
//! cargo xtask lint
//! ```
//!
//! `lint` is the project-specific static pass: the rules DESIGN.md states
//! but the compiler and clippy cannot express. It is a hand-rolled text
//! scanner (the workspace deliberately carries no proc-macro-parsing
//! dependency); comments and string literals are stripped before matching,
//! so doc text never trips a rule. Six rule families:
//!
//! 1. **zero-alloc bodies** — every function marked `#[zero_alloc]` must
//!    contain no allocation-capable call (`Vec::new`, `format!`,
//!    `collect()`, …). Growth of *reused* buffers (`push`/`reserve` on a
//!    caller-owned scratch vector) is permitted: it amortizes to zero,
//!    which is the invariant `heap/tests/zero_alloc_trace.rs` pins at
//!    runtime. A registry also pins that the functions DESIGN.md §10
//!    names stay marked, so deleting the attribute is itself a lint error.
//! 2. **determinism** — simulation crates never read the host clock or a
//!    host RNG (`Instant::now`, `SystemTime`, `thread_rng`): all time is
//!    simulated, all randomness is seeded. That includes `bench`, whose
//!    `figures` output is golden-pinned; only the vendored dev shims are
//!    exempt (the `criterion` shim does the benches' timing).
//! 3. **`#[cold]` registry** — the designated slow-path outlines
//!    (`Vmm::touch_slow`, `BumpSpace::grow_and_alloc`, `Tracer::record`)
//!    must keep their `#[cold]` attribute so the hot paths that call them
//!    stay small.
//! 4. **dead API tokens** — removed APIs must not creep back in: the
//!    deleted `Vmm::take_events` mailbox drain (replaced by
//!    `drain_events_into`), the Vec-returning `Core::scan_refs`, and the
//!    two halves of the duplicate run path — the eight-positional-argument
//!    `CollectorKind::build_with_policy` (now `build(HeapConfig, ..)`),
//!    the second event loop's `deliver_signals` (now `Driver::deliver`)
//!    and `Vmm::touch_range`, a second copy of `MemCtx::touch`'s page loop;
//!    a heap calling `Vmm::madvise_dontneed` itself, which keeps the host
//!    page; and `WriteBuffer::retain_entries`, which dropped the buffer's
//!    page for a vector regrown from empty (the buffer is now cleared or
//!    given back its page, DESIGN.md §10.6).
//! 5. **`#[inline]` registry** — the charged-access path (`Vmm::touch`,
//!    `MemCtx::touch`, the `SimMemory` accessors and the page map's index
//!    helpers under them, the `Core` object primitives) crosses three crates and neither release profile has
//!    LTO, so each link must keep `#[inline]` or every simulated word
//!    access becomes an out-of-line cross-crate call again (DESIGN.md
//!    §10.2).
//! 6. **one collector per crate** — `impl GcHeap for` and `impl Forwarder
//!    for` each occur exactly once under `crates/collectors/src` (the
//!    generic `Plan`) and once under `crates/bookmarking/src`: a new
//!    baseline is a `Young` or `Mature` implementation plus a `Cell` entry
//!    and an alias, never a second hand-written collector (DESIGN.md §3.3).

use std::path::{Path, PathBuf};

/// One lint finding: where, which rule, and what to do about it.
#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Calls that may allocate from the global heap, banned inside
/// `#[zero_alloc]` bodies. Deliberately NOT listed: `push`, `reserve`,
/// `insert` — growing a reused scratch buffer amortizes to zero.
const ZERO_ALLOC_BANNED: &[&str] = &[
    "Vec::new",
    "vec![",
    "Box::new",
    "Box::from",
    "String::new",
    "String::from",
    "format!",
    "to_string(",
    "to_owned(",
    "to_vec(",
    ".collect(",
    "with_capacity(",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "BTreeSet::new",
    "VecDeque::new",
    "Rc::new",
    "Arc::new",
];

/// Functions that must stay `#[zero_alloc]`-marked (file suffix, fn name).
const REQUIRED_ZERO_ALLOC: &[(&str, &str)] = &[
    ("crates/heap/src/gc.rs", "scan_refs_into"),
    ("crates/heap/src/gc.rs", "drain_gray"),
    ("crates/heap/src/gc.rs", "forward_roots"),
    ("crates/heap/src/packet.rs", "acquire"),
    ("crates/heap/src/packet.rs", "pop_obj"),
    ("crates/heap/src/packet.rs", "push_obj"),
    ("crates/vmm/src/vmm.rs", "touch"),
];

/// Host-nondeterminism tokens banned from simulation crates.
const DETERMINISM_BANNED: &[&str] = &["Instant::now", "SystemTime", "thread_rng"];

/// Crates exempt from the determinism ban: the vendored dev-dependency
/// shims are not simulation code, and `criterion` measures host wall-clock
/// on purpose. (`xtask` is exempt from everything: it names the banned
/// tokens.)
const DETERMINISM_EXEMPT: &[&str] = &["criterion", "rand", "proptest", "xtask", "zero_alloc"];

/// Slow-path outlines that must keep `#[cold]` (file suffix, fn name).
const REQUIRED_COLD: &[(&str, &str)] = &[
    ("crates/vmm/src/vmm.rs", "touch_slow"),
    ("crates/heap/src/bump.rs", "grow_and_alloc"),
    ("crates/heap/src/packet.rs", "fresh_packet"),
    ("crates/telemetry/src/tracer.rs", "record"),
];

/// Functions that must keep `#[inline]`: with no LTO the attribute is the
/// only thing that lets another crate use them without a call (file
/// suffix, fn name). First the charged-access path, link by link, from
/// `collectors` down to a page's words.
const REQUIRED_INLINE: &[(&str, &str)] = &[
    ("crates/vmm/src/vmm.rs", "touch"),
    ("crates/heap/src/ctx.rs", "touch"),
    ("crates/heap/src/mem.rs", "read_word"),
    ("crates/heap/src/mem.rs", "write_word"),
    ("crates/heap/src/mem.rs", "span"),
    ("crates/heap/src/mem.rs", "span_mut"),
    ("crates/heap/src/mem.rs", "read_pair"),
    ("crates/heap/src/mem.rs", "write_pair"),
    ("crates/heap/src/mem.rs", "update_word"),
    // The page map's index helpers: its generic lookups are instantiated
    // in `heap` and `bookmarking`, but these are not.
    ("crates/vmm/src/pagemap.rs", "leaf_slot"),
    ("crates/vmm/src/pagemap.rs", "root_index"),
    ("crates/vmm/src/pagemap.rs", "inner_index"),
    ("crates/heap/src/gc.rs", "header"),
    ("crates/heap/src/gc.rs", "header_or_forward"),
    ("crates/heap/src/gc.rs", "write_header"),
    ("crates/heap/src/gc.rs", "try_mark"),
    ("crates/heap/src/gc.rs", "is_marked"),
    ("crates/heap/src/gc.rs", "clear_mark"),
    ("crates/heap/src/gc.rs", "scan_refs_into"),
    ("crates/heap/src/gc.rs", "push_refs"),
    ("crates/heap/src/gc.rs", "init_object"),
    ("crates/heap/src/gc.rs", "copy_object"),
    // The allocation-shape helpers and the handle table: one call or more
    // per mutator operation from `workloads` and every collector
    // (DESIGN.md §10.8).
    ("crates/heap/src/api.rs", "object_kind"),
    ("crates/heap/src/api.rs", "size_bytes"),
    ("crates/heap/src/object.rs", "scalar"),
    ("crates/heap/src/object.rs", "is_array"),
    ("crates/heap/src/roots.rs", "get"),
    ("crates/heap/src/roots.rs", "add"),
    ("crates/heap/src/roots.rs", "set"),
    ("crates/heap/src/roots.rs", "remove"),
];

/// Traits a collector crate implements exactly once (crate, trait).
const SINGLE_IMPL: &[(&str, &str)] = &[
    ("collectors", "GcHeap"),
    ("collectors", "Forwarder"),
    ("bookmarking", "GcHeap"),
    ("bookmarking", "Forwarder"),
];

/// Removed-API tokens that must not reappear (token, replacement hint).
/// Tokens are spelled split so this file never contains them itself.
fn dead_tokens() -> Vec<(String, &'static str)> {
    vec![
        (
            ["take_", "events"].concat(),
            "drain the mailbox with Vmm::drain_events_into / discard_events",
        ),
        // The Vec-returning Core method, as a definition and at a call
        // site; `access_equivalence.rs` keeps a private reference copy
        // (`fn`, not `pub fn`, called on `reference`).
        (
            ["pub fn scan_", "refs("].concat(),
            "scan into a reused buffer with Core::scan_refs_into",
        ),
        (
            ["core.scan_", "refs("].concat(),
            "scan into a reused buffer with Core::scan_refs_into",
        ),
        // The second run path (DESIGN.md §12.3): its collector factory and
        // its delivery loop.
        (
            ["build_with_", "policy"].concat(),
            "pass a HeapConfig to CollectorKind::build(HeapConfig, ..)",
        ),
        (
            ["deliver_", "signals"].concat(),
            "there is one delivery loop, Driver::deliver",
        ),
        // The VMM's copy of `MemCtx::touch`'s page loop.
        (
            ["touch_", "range("].concat(),
            "touch a byte range through MemCtx::touch, one Vmm::touch per page",
        ),
        // A heap discarding a frame and keeping its host page (DESIGN.md
        // §10.6).
        (
            ["ctx.vmm.madvise_", "dontneed("].concat(),
            "MemCtx::madvise_dontneed, which drops the host page too",
        ),
        // Replacing a write buffer's page with a fresh vector (DESIGN.md
        // §10.6): the buffer keeps its one page.
        (
            ["retain_", "entries("].concat(),
            "WriteBuffer::clear, or WriteBuffer::give_back after a drain",
        ),
    ]
}

/// Strips `//` comments, `/* */` comments, and the *contents* of string
/// literals from source, line by line, so token scans never match doc
/// text or message strings. Char literals and lifetimes are handled well
/// enough for real code (`'"'` does not open a string; `'a` is left
/// alone). Line structure is preserved for error reporting.
fn strip_source(content: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    let mut in_string = false;
    for line in content.lines() {
        let mut kept = String::with_capacity(line.len());
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            if in_block_comment {
                if c == '*' && next == Some('/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_string {
                if c == '\\' {
                    i += 2; // skip the escaped character
                } else if c == '"' {
                    in_string = false;
                    kept.push('"');
                    i += 1;
                } else {
                    i += 1; // drop string contents
                }
                continue;
            }
            match c {
                '/' if next == Some('/') => break, // line comment: drop the rest
                '/' if next == Some('*') => {
                    in_block_comment = true;
                    i += 2;
                }
                '"' => {
                    in_string = true;
                    kept.push('"');
                    i += 1;
                }
                '\'' => {
                    // Char literal ('x', '\n', '\'') vs lifetime ('a).
                    if next == Some('\\') && bytes.get(i + 3) == Some(&'\'') {
                        i += 4;
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        kept.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    kept.push(c);
                    i += 1;
                }
            }
        }
        out.push(kept);
    }
    out
}

/// Extracts the function name from a stripped line containing `fn `.
fn fn_name(line: &str) -> Option<&str> {
    let at = line.find("fn ")?;
    // Guard against identifiers ending in "fn".
    if at > 0 && line.as_bytes()[at - 1].is_ascii_alphanumeric() {
        return None;
    }
    let rest = line[at + 3..].trim_start();
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Scans one file's `#[zero_alloc]` bodies for banned calls. Returns the
/// names of every marked function found (for the registry check).
fn check_zero_alloc(file: &str, stripped: &[String], out: &mut Vec<Violation>) -> Vec<String> {
    let mut marked = Vec::new();
    let mut i = 0;
    while i < stripped.len() {
        let attr = stripped[i].trim();
        if attr != "#[zero_alloc]" && attr != "#[zero_alloc::zero_alloc]" {
            i += 1;
            continue;
        }
        // Find the fn this attribute decorates (other attributes and doc
        // lines may sit in between).
        let mut j = i + 1;
        while j < stripped.len() && fn_name(&stripped[j]).is_none() {
            j += 1;
        }
        let Some(name) = (j < stripped.len())
            .then(|| fn_name(&stripped[j]))
            .flatten()
        else {
            i += 1;
            continue;
        };
        marked.push(name.to_string());
        // Brace-match from the first '{' at or after the fn line.
        let mut depth = 0usize;
        let mut entered = false;
        let mut k = j;
        'body: while k < stripped.len() {
            for c in stripped[k].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break 'body;
                        }
                    }
                    _ => {}
                }
            }
            if entered {
                for banned in ZERO_ALLOC_BANNED {
                    if stripped[k].contains(banned) {
                        out.push(Violation {
                            file: file.to_string(),
                            line: k + 1,
                            rule: "zero-alloc",
                            message: format!(
                                "`{banned}` in #[zero_alloc] fn `{name}` may allocate; \
                                 reuse a caller-owned scratch buffer instead"
                            ),
                        });
                    }
                }
            }
            k += 1;
        }
        i = j + 1;
    }
    marked
}

/// Scans stripped source for banned tokens, attributing each hit.
fn check_tokens(
    file: &str,
    stripped: &[String],
    tokens: &[(String, &'static str)],
    rule: &'static str,
    out: &mut Vec<Violation>,
) {
    for (n, line) in stripped.iter().enumerate() {
        for (token, hint) in tokens {
            if line.contains(token.as_str()) {
                out.push(Violation {
                    file: file.to_string(),
                    line: n + 1,
                    rule,
                    message: format!("`{token}` is banned here: {hint}"),
                });
            }
        }
    }
}

/// One attribute registry: which attribute spellings satisfy it, the rule
/// name violations carry, and why the attribute matters.
struct AttrRule {
    attrs: &'static [&'static str],
    rule: &'static str,
    why: &'static str,
}

const COLD_RULE: AttrRule = AttrRule {
    attrs: &["#[cold]"],
    rule: "cold-registry",
    why: "is a registered slow-path outline and must keep #[cold] (see DESIGN.md §10)",
};

const INLINE_RULE: AttrRule = AttrRule {
    attrs: &["#[inline]", "#[inline(always)]"],
    rule: "inline-registry",
    why: "is called across crates per access or per allocation and must keep \
          #[inline]: there is no LTO to fall back on (see DESIGN.md §10.2, §10.8)",
};

/// Checks that `fn name` in this file carries one of `rule.attrs` among
/// the attribute lines directly above it (other attributes and doc lines
/// may sit in between, in any order).
fn check_attr(
    file: &str,
    stripped: &[String],
    name: &str,
    rule: &AttrRule,
    out: &mut Vec<Violation>,
) {
    let needle = format!("fn {name}(");
    for (n, line) in stripped.iter().enumerate() {
        if !line.contains(&needle) || fn_name(line) != Some(name) {
            continue;
        }
        let mut k = n;
        let mut found = false;
        while k > 0 {
            k -= 1;
            let above = stripped[k].trim();
            if rule.attrs.contains(&above) {
                found = true;
                break;
            }
            // Keep walking up through the attribute/doc block only.
            if !(above.starts_with("#[") || above.starts_with("///") || above.is_empty()) {
                break;
            }
        }
        if !found {
            out.push(Violation {
                file: file.to_string(),
                line: n + 1,
                rule: rule.rule,
                message: format!("`{name}` {}", rule.why),
            });
        }
        return;
    }
    out.push(Violation {
        file: file.to_string(),
        line: 0,
        rule: rule.rule,
        message: format!(
            "registered fn `{name}` not found; update the registry in \
             crates/xtask/src/main.rs if it moved"
        ),
    });
}

/// The trait named by a stripped `impl … Trait for Type` header line (last
/// path segment, generic arguments excluded); `None` for inherent impls and
/// every other line.
fn implemented_trait(line: &str) -> Option<&str> {
    let line = line.trim_start();
    if !(line.starts_with("impl ") || line.starts_with("impl<")) {
        return None;
    }
    let before = &line[..line.find(" for ")?];
    let path = before.rsplit(' ').next()?;
    let name = path.rsplit("::").next()?;
    Some(name.split('<').next().unwrap_or(name))
}

/// Checks the `(file, stripped lines)` sources of the collector crates
/// against [`SINGLE_IMPL`]: each registered trait is implemented exactly
/// once under its crate's `src/`.
fn check_single_impl(sources: &[(String, Vec<String>)], out: &mut Vec<Violation>) {
    for (krate, name) in SINGLE_IMPL {
        let dir = format!("crates/{krate}/src/");
        let sites: Vec<(&str, usize)> = sources
            .iter()
            .filter(|(file, _)| file.starts_with(&dir))
            .flat_map(|(file, lines)| {
                lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| implemented_trait(l) == Some(*name))
                    .map(move |(n, _)| (file.as_str(), n + 1))
            })
            .collect();
        if sites.len() == 1 {
            continue;
        }
        // Point at the second impl when there is one, else at the crate.
        let (file, line) = sites.get(1).copied().unwrap_or((&dir, 0));
        out.push(Violation {
            file: file.to_string(),
            line,
            rule: "single-impl",
            message: format!(
                "`impl {name} for` occurs {} times under {dir}, must be exactly one: a new \
                 collector is a `Young` or `Mature` implementation plus a `Cell` entry and an \
                 alias over `collectors::Plan`, not another hand-written collector \
                 (DESIGN.md §3.3)",
                sites.len()
            ),
        });
    }
}

/// Recursively collects `.rs` files, skipping build output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == ".git")
            {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `rel` (workspace-relative, '/'-separated) lives in one of the
/// named crates.
fn in_crate(rel: &str, names: &[&str]) -> bool {
    names
        .iter()
        .any(|n| rel.starts_with(&format!("crates/{n}/")))
}

/// Runs every rule over the workspace rooted at `root`.
fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();
    let mut out = Vec::new();
    let dead = dead_tokens();
    let determinism: Vec<(String, &'static str)> = DETERMINISM_BANNED
        .iter()
        .map(|t| {
            (
                (*t).to_string(),
                "simulation is deterministic; use simtime::Clock / a seeded rand::Rng",
            )
        })
        .collect();
    let mut marked: Vec<(String, String)> = Vec::new(); // (rel path, fn)
    let mut collector_sources: Vec<(String, Vec<String>)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        let stripped = strip_source(&content);
        if in_crate(&rel, &["xtask"]) {
            continue; // the linter names every banned token
        }
        for name in check_zero_alloc(&rel, &stripped, &mut out) {
            marked.push((rel.clone(), name));
        }
        // `benchmark/` (gcbench) is the host-clock harness, in a package of
        // its own outside `crates/`.
        if !in_crate(&rel, DETERMINISM_EXEMPT) && !rel.starts_with("benchmark/") {
            check_tokens(&rel, &stripped, &determinism, "determinism", &mut out);
        }
        if !in_crate(&rel, &["criterion", "rand", "proptest", "zero_alloc"]) {
            check_tokens(&rel, &stripped, &dead, "dead-api", &mut out);
        }
        for (registry, rule) in [(REQUIRED_COLD, &COLD_RULE), (REQUIRED_INLINE, &INLINE_RULE)] {
            for (suffix, name) in registry {
                if rel.ends_with(suffix) {
                    check_attr(&rel, &stripped, name, rule, &mut out);
                }
            }
        }
        if in_crate(&rel, &["collectors", "bookmarking"]) {
            collector_sources.push((rel, stripped));
        }
    }
    check_single_impl(&collector_sources, &mut out);
    for (suffix, name) in REQUIRED_ZERO_ALLOC {
        if !marked.iter().any(|(f, n)| f.ends_with(suffix) && n == name) {
            out.push(Violation {
                file: (*suffix).to_string(),
                line: 0,
                rule: "zero-alloc",
                message: format!(
                    "`{name}` must stay #[zero_alloc]-marked (DESIGN.md §10); \
                     restore the attribute or update the registry"
                ),
            });
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") | None => {}
        Some(other) => {
            eprintln!("unknown xtask '{other}'; available: lint");
            std::process::exit(2);
        }
    }
    // crates/xtask/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let violations = lint_workspace(&root);
    if violations.is_empty() {
        println!("xtask lint: ok");
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("xtask lint: {} violation(s)", violations.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_snippet(rel: &str, src: &str) -> Vec<Violation> {
        let stripped = strip_source(src);
        let mut out = Vec::new();
        check_zero_alloc(rel, &stripped, &mut out);
        out
    }

    #[test]
    fn zero_alloc_body_with_allocation_is_flagged() {
        let src = "#[zero_alloc]\nfn hot() {\n    let v = Vec::new();\n    drop(v);\n}\n";
        let out = lint_snippet("crates/heap/src/gc.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "zero-alloc");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("Vec::new"));
        assert!(out[0].message.contains("hot"));
    }

    #[test]
    fn zero_alloc_reused_buffer_growth_is_allowed() {
        let src = "#[zero_alloc]\nfn hot(out: &mut Vec<u32>) {\n    out.clear();\n    \
                   out.reserve(8);\n    out.push(1);\n}\n";
        assert!(lint_snippet("f.rs", src).is_empty());
    }

    #[test]
    fn allocation_outside_the_marked_fn_is_ignored() {
        let src =
            "#[zero_alloc]\nfn hot() {}\n\nfn cold_path() {\n    let _ = Vec::<u32>::new();\n}\n";
        // `Vec::<u32>::new` is not the literal banned token, and more to
        // the point it is outside the marked body.
        assert!(lint_snippet("f.rs", src).is_empty());
    }

    #[test]
    fn banned_token_in_comment_or_string_is_ignored() {
        let src = "#[zero_alloc]\nfn hot() {\n    // calls like Vec::new are banned\n    \
                   let m = \"no format! here\";\n    let _ = m;\n}\n";
        assert!(lint_snippet("f.rs", src).is_empty());
    }

    #[test]
    fn determinism_ban_fires_in_sim_code() {
        let stripped = strip_source("fn t() { let _ = std::time::Instant::now(); }\n");
        let mut out = Vec::new();
        let tokens = vec![(String::from("Instant::now"), "use simtime::Clock")];
        check_tokens(
            "crates/vmm/src/vmm.rs",
            &stripped,
            &tokens,
            "determinism",
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "determinism");
    }

    #[test]
    fn dead_api_token_is_flagged() {
        for (call, hint) in [
            (["v.take_", "events(pid)"].concat(), "drain_events_into"),
            (
                ["kind.build_with_", "policy(heap, None)"].concat(),
                "CollectorKind::build(HeapConfig",
            ),
            (["self.deliver_", "signals()"].concat(), "Driver::deliver"),
            (
                ["vmm.touch_", "range(pid, 0, 8, Access::Read, clock)"].concat(),
                "MemCtx::touch",
            ),
            (
                ["ctx.vmm.madvise_", "dontneed(ctx.pid, &[page], ctx.clock)"].concat(),
                "MemCtx::madvise_dontneed",
            ),
            (
                ["self.wbuf.retain_", "entries(Vec::new())"].concat(),
                "WriteBuffer::clear",
            ),
        ] {
            let stripped = strip_source(&format!("fn f() {{ {call}; }}\n"));
            let mut out = Vec::new();
            check_tokens(
                "crates/simulate/src/runner.rs",
                &stripped,
                &dead_tokens(),
                "dead-api",
                &mut out,
            );
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].message.contains(hint), "{out:?}");
        }
    }

    #[test]
    fn missing_cold_attribute_is_flagged() {
        let cold = "#[cold]\n#[inline(never)]\nfn touch_slow(&mut self) {}\n";
        let hot = "#[inline(never)]\nfn touch_slow(&mut self) {}\n";
        let mut out = Vec::new();
        check_attr(
            "v.rs",
            &strip_source(cold),
            "touch_slow",
            &COLD_RULE,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        check_attr(
            "v.rs",
            &strip_source(hot),
            "touch_slow",
            &COLD_RULE,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "cold-registry");
    }

    #[test]
    fn missing_inline_attribute_is_flagged() {
        // Doc line, then both attributes in either order: each scanner sees
        // its own attribute past the other one.
        let both = "/// Hot.\n#[inline]\n#[zero_alloc]\npub fn touch(&mut self) {}\n";
        let swapped = "#[zero_alloc::zero_alloc]\n#[inline]\npub fn touch(&mut self) {}\n";
        for src in [both, swapped] {
            let stripped = strip_source(src);
            let mut out = Vec::new();
            check_attr("v.rs", &stripped, "touch", &INLINE_RULE, &mut out);
            assert!(out.is_empty(), "{out:?}");
            assert_eq!(check_zero_alloc("v.rs", &stripped, &mut out), ["touch"]);
        }
        // Deleting #[inline] fires the rule; #[zero_alloc] is still seen.
        let bare = "#[zero_alloc]\npub fn touch(&mut self) {}\n";
        let stripped = strip_source(bare);
        let mut out = Vec::new();
        check_attr("v.rs", &stripped, "touch", &INLINE_RULE, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "inline-registry");
        assert_eq!(out[0].line, 2);
        assert_eq!(check_zero_alloc("v.rs", &stripped, &mut out), ["touch"]);
        // `fn touch_slow(` must not satisfy a registry entry for `touch`.
        let other = "#[inline]\nfn touch_slow(&mut self) {}\n";
        let mut out = Vec::new();
        check_attr(
            "v.rs",
            &strip_source(other),
            "touch",
            &INLINE_RULE,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("not found"));
    }

    #[test]
    fn string_stripping_handles_escapes_and_char_literals() {
        let stripped = strip_source(
            "let a = \"quote \\\" then Vec::new\"; let b = '\"'; let c: &'static str = \"x\";\n",
        );
        assert!(!stripped[0].contains("Vec::new"));
        assert!(stripped[0].contains("let c"));
    }

    #[test]
    fn second_collector_impl_is_flagged() {
        let plan =
            "impl<Y: Young, M: Mature> GcHeap for Plan<Y, M>\nwhere\n    (Y, M): Cell,\n{\n}\n\
                    impl<Y: Young, M: Mature> Forwarder for Plan<Y, M> {}\n\
                    impl<Y, M> Plan<Y, M> {}\n// impl GcHeap for Doc {}\n";
        let bc = "impl Forwarder for Bookmarking {}\nimpl GcHeap for Bookmarking {}\n";
        let clean = vec![
            (
                "crates/collectors/src/plan.rs".to_string(),
                strip_source(plan),
            ),
            (
                "crates/bookmarking/src/collector.rs".to_string(),
                strip_source(bc),
            ),
            // Only `src/` counts: test doubles implement the traits freely.
            (
                "crates/collectors/tests/fake.rs".to_string(),
                strip_source(bc),
            ),
        ];
        let mut out = Vec::new();
        check_single_impl(&clean, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // A hand-written collector beside the plan, path-qualified or not.
        let fork = "impl heap::GcHeap for Immix {}\n";
        let mut forked = clean.clone();
        forked.push((
            "crates/collectors/src/immix.rs".to_string(),
            strip_source(fork),
        ));
        check_single_impl(&forked, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "single-impl");
        assert_eq!(
            (out[0].file.as_str(), out[0].line),
            ("crates/collectors/src/immix.rs", 1)
        );
        assert!(out[0].message.contains("`impl GcHeap for` occurs 2 times"));
        assert!(out[0].message.contains("`Young` or `Mature`"));
        // Deleting an impl is caught too.
        let mut out = Vec::new();
        check_single_impl(&clean[..1], &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0]
            .message
            .contains("occurs 0 times under crates/bookmarking/src/"));
    }

    /// The packet scheduler lives in `heap`, which must never become
    /// determinism-exempt: its work-stealing order is part of the
    /// simulation's reproducibility contract (no host clocks, no RNG).
    /// Nor may `bench`: `figures` output is pinned byte for byte by
    /// `tests/golden/`, and host time is gcbench's job.
    #[test]
    fn heap_crate_stays_under_the_determinism_ban() {
        for krate in ["heap", "bench"] {
            assert!(
                !DETERMINISM_EXEMPT.contains(&krate),
                "crates/{krate} must stay subject to the determinism lint"
            );
        }
    }

    /// The real workspace must lint clean — this is the same pass CI runs.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let violations = lint_workspace(&root);
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
