//! Serving benchmark for `rt_engine::Engine::serve`.
//!
//! ```sh
//! # every end-to-end metric of every workload, seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1
//! # the same plus a traced run: spans and per-layer metrics under DIR
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1 --trace DIR
//! # five seeds into a set, then two sets judged against the bounds
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --repeat 5 --out A
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A B
//! # about 2 s per workload: correctness, sample counts and schema
//! cargo run --release --manifest-path benchmark/Cargo.toml -- smoke
//! # one workload, one JSON result line (end-to-end, or per-layer with 1)
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload small-inline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs in its own child process (this binary's `child`
//! command) with `RTDOSE_SIM_THREADS=1`, so peak RSS is the workload's own
//! and nothing is shared between workloads.

mod calib;
mod json;
mod load;
mod probe;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// The benchmark description: workloads, metrics, units, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Warm-up before every measured phase; its requests are discarded.
const WARMUP_S: f64 = 2.0;
const SMOKE_SECONDS: f64 = 2.0;
const SMOKE_WARMUP_S: f64 = 0.5;

const USAGE: &str = "usage:
  rt-serve-bench --workload W --seed S --seconds T --trace 0|1
  rt-serve-bench run [--seed S] [--seconds T] [--repeat N] [--out DIR] [--trace DIR]
  rt-serve-bench compare A B
  rt-serve-bench smoke [--seed S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        Some(a) if a.starts_with("--") => single(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and positional arguments.
struct Flags {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if known.contains(&name) => {
                    let v = it
                        .next()
                        .ok_or(format!("--{name} needs a value\n{USAGE}"))?;
                    named.insert(name.to_string(), v.clone());
                }
                Some(name) => return Err(format!("unknown flag --{name}\n{USAGE}")),
                None => positional.push(a.clone()),
            }
        }
        Ok(Flags { named, positional })
    }

    fn one(&self, name: &str) -> Option<&str> {
        self.named.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.one(name) {
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
            None => default.ok_or(format!("--{name} is required\n{USAGE}")),
        }
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))
}

fn bench() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// The internal command a workload's child process runs: prints the
/// result object as its last stdout line.
fn child(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(
        args,
        &[
            "workload",
            "seed",
            "seconds",
            "warmup",
            "trace",
            "trace-dir",
            "min-samples",
        ],
    )?;
    let args = run::RunArgs {
        workload: workload(f.one("workload").unwrap_or_default())?,
        seed: f.num("seed", None)?,
        seconds: f.num("seconds", None)?,
        warmup: f.num("warmup", Some(WARMUP_S))?,
        trace: f.num::<u8>("trace", Some(0))? == 1,
        trace_dir: f.one("trace-dir").map(PathBuf::from),
        min_samples: f.num("min-samples", Some(stats::min_samples(0.99)))?,
    };
    let result = run::run(&args)?;
    println!("{}", result.encode());
    Ok(result.get("correct").and_then(Json::as_bool) == Some(true))
}

struct ChildSpec<'a> {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    warmup: f64,
    trace: bool,
    trace_dir: Option<&'a Path>,
    min_samples: usize,
}

/// Runs one workload in a child process and returns its result object.
/// The child is killed if it outlives the time the run can take.
fn spawn_child(spec: &ChildSpec<'_>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--warmup", &spec.warmup.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .args(["--min-samples", &spec.min_samples.to_string()])
        .env("RTDOSE_SIM_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = spec.trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    // Set-up, goldens and probes take at most a few tens of seconds on
    // top of the measured and warm-up time.
    let limit = Duration::from_secs_f64(170f64.max(3.0 * (spec.seconds + spec.warmup) + 60.0));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if started.elapsed() > limit {
            // Best effort: the child may exit between the check and the kill.
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{}: child timed out", spec.workload.name));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)
        .map_err(|e| e.to_string())?;
    match out.lines().last().map(Json::parse) {
        Some(Ok(result)) => Ok(result),
        _ => Err(format!(
            "{}: child exited with {status} and no result",
            spec.workload.name
        )),
    }
}

/// The single-workload form: one workload, one result line holding every
/// end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
fn single(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let trace = f.num::<u8>("trace", Some(0))? == 1;
    let spec = ChildSpec {
        workload: workload(f.one("workload").unwrap_or_default())?,
        seed: f.num("seed", None)?,
        seconds: f.num("seconds", None)?,
        warmup: WARMUP_S,
        trace,
        trace_dir: None,
        min_samples: stats::min_samples(0.99),
    };
    let result = spawn_child(&spec)?;
    let line = contract_line(&result, &bench(), trace)?;
    println!("{}", line.encode());
    Ok(line.get("correct").and_then(Json::as_bool) == Some(true))
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
/// for the metric list of BENCHMARK.json the trace mode selects.
fn contract_line(result: &Json, bench: &Json, trace: bool) -> Result<Json, String> {
    let (list, key) = if trace {
        ("per_layer", "layers")
    } else {
        ("end_to_end", "e2e")
    };
    let values = result.get(key).ok_or(format!("result has no {key}"))?;
    let mut metrics = Json::obj();
    for m in bench.get(list).map_or(&[][..], Json::as_arr) {
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
        let value = values
            .get(name)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {name} missing or not finite"))?;
        let mut entry = Json::obj();
        entry.set("value", value).set(
            "unit",
            m.get("unit").and_then(Json::as_str).unwrap_or_default(),
        );
        metrics.set(name, entry);
    }
    let mut line = Json::obj();
    for k in ["correct", "attempted", "failed"] {
        line.set(k, result.get(k).cloned().unwrap_or(Json::Null));
    }
    line.set("metrics", metrics);
    Ok(line)
}

/// Names, units and directions of one metric list of BENCHMARK.json.
fn metric_list(bench: &Json, list: &str) -> Vec<(String, String, bool, f64)> {
    bench
        .get(list)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
            (s("name"), s("unit"), s("better") == "higher", bound)
        })
        .collect()
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["seed", "seconds", "repeat", "out", "trace"])?;
    let bench = bench();
    let default_seconds = bench.get("run_seconds").and_then(Json::as_f64);
    let seed: u64 = f.num("seed", Some(1))?;
    let seconds: f64 = f.num("seconds", default_seconds)?;
    let repeat: u64 = f.num("repeat", Some(1))?;
    let out = PathBuf::from(f.one("out").unwrap_or("benchmark/out/runs"));
    let trace_dir = f.one("trace").map(PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let e2e = metric_list(&bench, "end_to_end");
    let mut all_ok = true;
    let mut layers = Json::obj();
    for seed in seed..seed + repeat {
        for wl in &WORKLOADS {
            println!("{}: {}", wl.name, wl.why);
            let mut spec = ChildSpec {
                workload: wl,
                seed,
                seconds,
                warmup: WARMUP_S,
                trace: false,
                trace_dir: None,
                min_samples: stats::min_samples(0.99),
            };
            let result = spawn_child(&spec)?;
            let path = out.join(format!("{}.seed{seed}.json", wl.name));
            std::fs::write(&path, result.encode() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            all_ok &= print_result(&result, &e2e);
            let Some(dir) = &trace_dir else { continue };
            spec.trace = true;
            spec.trace_dir = Some(dir);
            let traced = spawn_child(&spec)?;
            all_ok &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            let mut wl_layers = traced.get("layers").cloned().unwrap_or(Json::obj());
            wl_layers.set("trace_overhead_frac", overhead(&result, &traced));
            layers.set(wl.name, wl_layers);
        }
    }
    if let Some(dir) = &trace_dir {
        let path = dir.join("layers.json");
        std::fs::write(&path, layers.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "per-layer metrics and spans written under {}",
            dir.display()
        );
    }
    Ok(all_ok)
}

/// `(traced - untraced) / untraced` for every end-to-end metric.
fn overhead(untraced: &Json, traced: &Json) -> Json {
    let mut j = Json::obj();
    let (Some(a), Some(b)) = (untraced.get("e2e"), traced.get("e2e")) else {
        return j;
    };
    for (name, v) in a.entries() {
        if let (Some(x), Some(y)) = (v.as_f64(), b.get(name).and_then(Json::as_f64)) {
            j.set(name, (y - x) / x);
        }
    }
    j
}

fn print_result(result: &Json, e2e: &[(String, String, bool, f64)]) -> bool {
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    println!(
        "{} seed {}: {} | attempted {} failed {} measured {}",
        result.get("workload").and_then(Json::as_str).unwrap_or("?"),
        num("seed"),
        if correct { "correct" } else { "INCORRECT" },
        num("attempted"),
        num("failed"),
        num("samples"),
    );
    let values = result.get("e2e");
    for (name, unit, _, _) in e2e {
        let v = values
            .and_then(|v| v.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!("  {name:<24} {v:>14.4} {unit}");
    }
    if let Some(info) = result.get("info") {
        println!("  info {}", info.encode());
    }
    correct
}

/// Compares two sets of `run` results (at least 5 runs per workload in
/// each): one row per (workload, metric) with each set's quartiles and a
/// verdict against the metric's bound.
fn compare(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &[])?;
    let [a, b] = f.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let (sa, sb) = (load_set(Path::new(a))?, load_set(Path::new(b))?);
    let e2e = metric_list(&bench(), "end_to_end");
    println!(
        "{:<15} {:<24} {:>30} {:>30}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3"
    );
    for wl in WORKLOADS.iter().map(|w| w.name) {
        let (Some(ra), Some(rb)) = (sa.get(wl), sb.get(wl)) else {
            continue;
        };
        if ra.len() < 5 || rb.len() < 5 {
            return Err(format!(
                "{wl}: compare needs at least 5 runs per set, found {} and {}",
                ra.len(),
                rb.len()
            ));
        }
        for (name, _, higher, bound) in &e2e {
            let va = values(ra, name)?;
            let vb = values(rb, name)?;
            let fmt = |v: &[f64]| {
                let [q1, m, q3] = stats::quartiles(v);
                format!("{q1:.4} / {m:.4} / {q3:.4}")
            };
            println!(
                "{wl:<15} {name:<24} {:>30} {:>30}  {}",
                fmt(&va),
                fmt(&vb),
                stats::verdict(&va, &vb, *bound, *higher).as_str()
            );
        }
    }
    Ok(true)
}

/// Result objects of a `run --out` directory, by workload.
fn load_set(dir: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut set: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let j = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
            let wl = j
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            set.entry(wl).or_default().push(j);
        }
    }
    Ok(set)
}

fn values(results: &[Json], metric: &str) -> Result<Vec<f64>, String> {
    results
        .iter()
        .map(|r| {
            r.get("e2e")
                .and_then(|e| e.get(metric))
                .and_then(Json::as_f64)
                .ok_or(format!("a result lacks {metric}"))
        })
        .collect()
}

/// About 2 s per workload, traced: every reply golden-correct, enough
/// samples for a p90, and every metric of BENCHMARK.json present and
/// finite. No timing gates.
fn smoke(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["seed"])?;
    let seed: u64 = f.num("seed", Some(1))?;
    let bench = bench();
    let mut all_ok = true;
    for wl in &WORKLOADS {
        let spec = ChildSpec {
            workload: wl,
            seed,
            seconds: SMOKE_SECONDS,
            warmup: SMOKE_WARMUP_S,
            trace: true,
            trace_dir: None,
            min_samples: stats::min_samples(0.9),
        };
        let verdict = spawn_child(&spec).and_then(|r| {
            let schema = [false, true]
                .iter()
                .map(|&t| contract_line(&r, &bench, t))
                .collect::<Result<Vec<_>, _>>()?;
            let positive = schema[0]
                .get("metrics")
                .map_or(&[][..], Json::entries)
                .iter()
                .all(|(_, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(|v| v > 0.0)
                });
            let correct = r.get("correct").and_then(Json::as_bool) == Some(true);
            match (correct, positive) {
                (true, true) => Ok(format!(
                    "{} measured replies",
                    r.get("samples").and_then(Json::as_f64).unwrap_or(0.0)
                )),
                (false, _) => Err("replies differ from their goldens".to_string()),
                (_, false) => Err("an end-to-end metric is not positive".to_string()),
            }
        });
        match verdict {
            Ok(msg) => println!("smoke {:<15} ok: {msg}", wl.name),
            Err(msg) => {
                all_ok = false;
                println!("smoke {:<15} FAIL: {msg}", wl.name);
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_describes_these_workloads_within_the_contract() {
        let b = bench();
        let names: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (w, j) in WORKLOADS.iter().zip(b.get("workloads").unwrap().as_arr()) {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
        let e2e = metric_list(&b, "end_to_end");
        let setup = e2e.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1.as_str(), setup.2), ("s", false));
        for (name, _, _, bound) in &e2e {
            assert!(*bound > 0.0 && *bound <= setup.3, "{name} bound {bound}");
        }
        assert!(setup.3 <= 0.25);
        assert!(!metric_list(&b, "per_layer").is_empty());
    }

    #[test]
    fn a_mismatch_fails_the_result_line() {
        let mut result = Json::obj();
        result
            .set("correct", false)
            .set("attempted", 10u64)
            .set("failed", 1u64)
            .set("e2e", Json::obj());
        let mut bench = Json::obj();
        bench.set("end_to_end", Json::Arr(Vec::new()));
        let line = contract_line(&result, &bench, false).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
