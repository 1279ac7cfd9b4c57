//! Shared plumbing for the reproduction binary.
//!
//! `repro_all` regenerates every paper artifact (`table1`, `fig1` …
//! `fig7`, `speedups`, `traffic`, `ablation_*`) or the ones named as
//! arguments. It honors the `RT_SHRINK` environment variable (default
//! 1.0 = the full simulation scale documented in DESIGN.md; larger
//! values shrink the matrices for quick runs) and writes each artifact
//! to stdout and to `results/<name>.txt`.

use std::io::Write;
use std::path::PathBuf;

/// Where artifacts are written (`results/` under the workspace root, or
/// `RT_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("RT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Prints an artifact and persists it under `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
            Ok(()) => eprintln!("[saved {}]", path.display()),
            Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
        }
    }
}

/// Builds the experiment context, reporting scale and timing to stderr.
pub fn context() -> rt_repro::Context {
    let t0 = std::time::Instant::now();
    let ctx = rt_repro::Context::from_env();
    eprintln!(
        "[generated 6 dose deposition matrices at shrink {} in {:.1?}]",
        ctx.scale.shrink,
        t0.elapsed()
    );
    ctx
}
