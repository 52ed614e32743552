//! Where a result came from: commit, toolchain, host, and the release
//! profile actually used — plus the guard that keeps this package's
//! profile equal to the root manifest's.

use std::collections::BTreeMap;
use std::process::Command;

/// The `key = value` lines of a manifest's `[profile.release]` table
/// (comments and blank lines dropped, whitespace normalised).
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            let (key, value) = line.split_once('=')?;
            Some((key.trim().to_string(), value.trim().to_string()))
        })
        .collect()
}

/// Read both manifests (paths relative to the repo root, the benchmark's
/// working directory) and return the shared release profile, or say how
/// they differ.
pub fn guarded_release_profile() -> Result<BTreeMap<String, String>, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e} (run from the repo root)"))
    };
    let root = release_profile(&read("Cargo.toml")?);
    let own = release_profile(&read("benchmark/Cargo.toml")?);
    if root.is_empty() {
        return Err("the root Cargo.toml has no [profile.release] table".into());
    }
    if root != own {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}: \
             the benchmark would measure a differently optimised build"
        ));
    }
    Ok(own)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Commit, compiler, cores and kernel of this run. Spawns `git` and
/// `rustc`, so call it after the measured work (their CPU would count as
/// reaped children). A checkout that is not a git repository reads
/// `unknown`.
pub fn host() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        (
            "nproc",
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = "[package]\nname = \"c3\"\n\n[profile.release]\nopt-level = 3\n# Fat LTO: see README\nlto = \"fat\"\ncodegen-units=1\n\n[features]\nx = []\n";

    #[test]
    fn extracts_only_the_release_profile() {
        let p = release_profile(ROOT);
        assert_eq!(p.len(), 3);
        assert_eq!(p["opt-level"], "3");
        assert_eq!(p["lto"], "\"fat\"");
        assert_eq!(p["codegen-units"], "1");
    }

    #[test]
    fn formatting_does_not_matter_but_values_do() {
        let same =
            "[profile.release]\ncodegen-units = 1   # one unit\nlto=\"fat\"\nopt-level   = 3\n";
        assert_eq!(release_profile(ROOT), release_profile(same));
        let drifted = "[profile.release]\nopt-level = 3\nlto = \"thin\"\ncodegen-units = 1\n";
        assert_ne!(release_profile(ROOT), release_profile(drifted));
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }
}
