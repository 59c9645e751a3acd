//! `neo-xtask` — workspace task runner: the artifact checker, the
//! overhead-budget gate and the interleave harness.
//!
//! The workspace's static guarantees need no linter of their own. The
//! root manifest's `[workspace.lints]` forbids `unsafe` and denies
//! warnings, and this crate's `member_manifests_inherit_workspace_lints`
//! test fails on a member manifest without `[lints] workspace = true`
//! (the counting allocator `crates/alloc_count` is the one exception,
//! with its own `deny` table). ci.sh gate 2 runs clippy with the root
//! `clippy.toml` for panicking calls in library and bin code, hash
//! containers, `std::sync` locks, clock and thread-identity reads, and
//! dropped `#[must_use]` values; those sites carry
//! `#[expect(.., reason = ..)]`. The collective ops are
//! `neo_collectives::Op`, matched with no wildcard arm by the collectives
//! property suite, so a new collective does not compile untested. Spans
//! and metrics are named by the `Phase` and `Metric` enums, and the span
//! and iteration guards are `#[must_use]`, so the compiler rejects a
//! misspelt name, an inline string and a guard dropped where it is made.
//! Lock order: every `neo-sync` lock carries a ranked `LockClass`, and
//! debug builds check each acquisition against the classes its thread
//! holds. Heap allocation per training step is counted, not inferred:
//! `tests/zero_alloc.rs` holds each trainer configuration to a committed
//! budget that can only fall.
//!
//! `cargo run -p neo-xtask -- interleave [--seeds N] [--seed S]
//! [--iters K]` runs the seeded schedule-perturbation harness: for each
//! seed it arms the `neo-sync` chaos layer, trains the overlapped (Fig. 9)
//! trainer at w ∈ {2, 4}, and asserts the result is bitwise identical to a
//! serial reference and free of deadlock (watchdog); on the dev profile
//! the lock-class check runs on every perturbed schedule. See
//! `interleave.rs`.
//!
//! `cargo run -p neo-xtask -- check <files...>` (no flags) validates every
//! artifact the workspace writes, dispatching on its schema tag; the rules
//! are in `check.rs`.
//!
//! `cargo run --release -p neo-xtask -- overhead` (no flags) prices the
//! live monitor and the workload profiler as interleaved off/on training
//! pairs, prints every pair with its min / quartiles / median, and fails
//! (exit 1) when an arm's minimum paired overhead exceeds its 3% budget.
//! See `overhead.rs`; throughput and per-layer numbers live in
//! `benchmark/`.
//!
//! Exit status: 0 when clean, 1 when a check or gate fails, 2 on usage or
//! I/O errors.

mod check;
mod interleave;
mod overhead;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: neo-xtask check <files...> \
     | neo-xtask overhead \
     | neo-xtask interleave [--seeds N] [--seed S] [--iters K]";

/// Dispatches to a subcommand; returns the number of problems found.
fn run(args: &[String]) -> Result<usize, String> {
    match args.first().map(String::as_str) {
        Some("check") => check::run_check(&args[1..]),
        Some("overhead") => overhead::run_overhead(&args[1..]),
        Some("interleave") => interleave::run_interleave(&args[1..]),
        _ => Err(USAGE.into()),
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::{Path, PathBuf};

    /// The one member that does not inherit `[workspace.lints]`: its
    /// global allocator is an `unsafe impl`, which the inherited `forbid`
    /// admits no exception to. It must state the same policy itself.
    const OWN_LINTS: &str = "crates/alloc_count";

    /// Whether the `header` table of manifest `text` holds every
    /// `key=value` of `want` (spaces ignored).
    fn table_holds(text: &str, header: &str, want: &[&str]) -> bool {
        let mut in_table = false;
        let mut found = Vec::new();
        for l in text.lines().map(str::trim) {
            if l.starts_with('[') {
                in_table = l == header;
            } else if in_table {
                found.push(l.replace(' ', ""));
            }
        }
        want.iter().all(|w| found.iter().any(|f| f == w))
    }

    /// Member manifests of the workspace at `root` — the root package and
    /// every `<dir>/*/Cargo.toml` its `members = ["<dir>/*", ..]` globs
    /// name — and those of them without `[lints] workspace = true`, or,
    /// for [`OWN_LINTS`], without its own `[lints.rust]` denying `unsafe`
    /// code and warnings.
    fn members_without_workspace_lints(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
        let text = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let members = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("members = "))
            .expect("the root manifest lists its members on one line");
        let mut manifests = vec![root.join("Cargo.toml")];
        for glob in members.trim_matches(['[', ']']).split(',') {
            let dir = glob.trim().trim_matches('"');
            let dir = dir.strip_suffix("/*").expect("members are `<dir>/*` globs");
            for entry in fs::read_dir(root.join(dir)).unwrap() {
                let manifest = entry.unwrap().path().join("Cargo.toml");
                if manifest.is_file() {
                    manifests.push(manifest);
                }
            }
        }
        manifests.sort();
        let own_lints = root.join(OWN_LINTS).join("Cargo.toml");
        let complies = |m: &PathBuf| {
            let text = fs::read_to_string(m).unwrap();
            if *m == own_lints {
                let deny = ["unsafe_code=\"deny\"", "warnings=\"deny\""];
                table_holds(&text, "[lints.rust]", &deny)
            } else {
                table_holds(&text, "[lints]", &["workspace=true"])
            }
        };
        let missing = manifests.iter().filter(|m| !complies(m)).cloned().collect();
        (manifests, missing)
    }

    /// The root manifest's `[workspace.lints]` (no `unsafe`, no warnings)
    /// binds only the members that opt in: every one must, and the one
    /// exception denies both itself.
    #[test]
    fn member_manifests_inherit_workspace_lints() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = here.ancestors().nth(2).unwrap();
        let (manifests, missing) = members_without_workspace_lints(root);
        assert!(
            manifests.contains(&here.join("Cargo.toml")),
            "{manifests:?}"
        );
        assert!(manifests.contains(&root.join(OWN_LINTS).join("Cargo.toml")));
        assert!(manifests.iter().any(|m| m.starts_with(root.join("shims"))));
        assert!(
            missing.is_empty(),
            "no `[lints] workspace = true` (or, for {OWN_LINTS}, its own deny table) in {missing:?}"
        );
    }

    /// The root `.cargo/config.toml` builds every crate for the host CPU:
    /// `neo_tensor`'s GEMM tile width and every autovectorised kernel
    /// follow the vector ISA it enables, and cargo reads the file for any
    /// build started in the repository, the benchmark's included.
    #[test]
    fn cargo_config_builds_for_the_host_cpu() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let text = fs::read_to_string(root.join(".cargo/config.toml")).unwrap();
        let flags = r#"rustflags=["-C","target-cpu=native"]"#;
        assert!(
            table_holds(&text, "[build]", &[flags]),
            "`.cargo/config.toml` has no `[build]` {flags}"
        );
    }

    /// The seeded failing case: of four members, the one without a
    /// `[lints]` table, the one with `workspace = false` and the exception
    /// whose own table does not deny warnings are named.
    #[test]
    fn a_member_without_workspace_lints_is_named() {
        let base = std::env::temp_dir().join(format!("neo-xtask-lints-{}", std::process::id()));
        let member = |name: &str, tail: &str| {
            let dir = base.join("crates").join(name);
            fs::create_dir_all(&dir).unwrap();
            let text = format!("[package]\nname = \"{name}\"\n{tail}");
            fs::write(dir.join("Cargo.toml"), text).unwrap();
        };
        fs::create_dir_all(&base).unwrap();
        let root = "[workspace]\nmembers = [\"crates/*\"]\n\n[lints]\nworkspace = true\n";
        fs::write(base.join("Cargo.toml"), root).unwrap();
        member("good", "\n[lints]\nworkspace = true\n");
        member("bare", "workspace = true\n");
        member("opted_out", "\n[lints]\nworkspace = false\n");
        member("alloc_count", "\n[lints.rust]\nunsafe_code = \"deny\"\n");
        let (manifests, missing) = members_without_workspace_lints(&base);
        assert_eq!(manifests.len(), 5);
        let crates = base.join("crates");
        assert_eq!(
            missing,
            vec![
                crates.join("alloc_count/Cargo.toml"),
                crates.join("bare/Cargo.toml"),
                crates.join("opted_out/Cargo.toml")
            ]
        );
        fs::remove_dir_all(&base).unwrap();
    }
}
