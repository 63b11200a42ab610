//! Host-performance benchmark of the SMTp simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ocean16 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` runs the traced
//! pass for the per-layer ones. The last line of standard output is the
//! result as one JSON object; progress goes to standard error. `--record`
//! prints the workload's guest digest line for `digests.txt` instead, and
//! `--setup-sample` times one build in this fresh process (the benchmark
//! runs itself that way to measure `setup_s`). See `README.md`.

mod guest;
mod report;
mod traced;
mod workload;

use guest::{digest, guest_counts, Digest};
use report::{median, render, Metrics, END_TO_END, PER_LAYER};
use smtp::{EngineKind, RunError, RunStats};
use std::time::Instant;
use workload::{arm_all_observers, Workload, MAX_CYCLES};

/// Environment variables the simulator reads while building a machine.
/// The benchmark pins every input, so it refuses to run with any set.
const PINNED_ENV: [&str; 4] = [
    "SMTP_SCALE",
    "SMTP_NODES_CAP",
    "SMTP_ENGINE",
    "SMTP_TRACE_LINE",
];

/// Fresh processes whose first build makes up the `setup_s` median.
const SETUP_SAMPLES: usize = 21;

/// What one invocation does.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    EndToEnd,
    Traced,
    Record,
    SetupSample,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record" => mode = Some(Mode::Record),
            "--setup-sample" => mode = Some(Mode::SetupSample),
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => {
                        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                        workload = Some(Workload::by_name(&value).ok_or_else(|| {
                            format!("unknown workload {value:?} (one of {})", names.join(", "))
                        })?);
                    }
                    "--seed" => {
                        seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                    }
                    "--seconds" => match value.parse::<u64>() {
                        Ok(s @ 1..=600) => seconds = Some(s as f64),
                        _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
                    },
                    "--trace" => match value.as_str() {
                        "0" => mode = mode.or(Some(Mode::EndToEnd)),
                        "1" => mode = mode.or(Some(Mode::Traced)),
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    },
                    _ => return Err(format!("unknown argument {flag:?}")),
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        mode: mode.unwrap_or(Mode::EndToEnd),
    })
}

/// Counts attempted and failed runs. A run fails if it returns a
/// `RunError` or its guest digest differs from the expected one: the
/// recorded digest for the seed, or else the first run's, so that the
/// engines must still agree with each other.
struct Checker {
    expected: Option<Digest>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: &Workload, seed: u64) -> Checker {
        let expected = w.recorded_digest(seed);
        if expected.is_none() {
            eprintln!(
                "perfbench: no digest recorded for {} seed {seed}; checking that all runs agree",
                w.name
            );
        }
        Checker {
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one run; returns its statistics if it completed with the
    /// expected guest results.
    fn run(
        &mut self,
        label: &str,
        res: Result<RunStats, RunError>,
        sim_cycles: u64,
    ) -> Option<RunStats> {
        self.attempted += 1;
        let checked = res
            .map_err(|e| format!("{:?} at cycle {}: {}", e.kind, e.cycle, e.message))
            .and_then(|stats| {
                let got = digest(&guest_counts(&stats, sim_cycles));
                guest::check(got, *self.expected.get_or_insert(got)).map(|()| stats)
            });
        checked.map_err(|e| self.fail(label, &e)).ok()
    }

    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {label} failed: {why}");
    }

    fn result(&self, metrics: &Metrics, declared: &[(&str, &str)]) -> Result<String, String> {
        render(
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics,
            declared,
        )
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it, the benchmark pins every input");
        std::process::exit(2);
    }
    let out = match args.mode {
        Mode::EndToEnd => end_to_end(&args),
        Mode::Traced => traced_run(&args),
        Mode::Record => record(&args),
        Mode::SetupSample => {
            let t = Instant::now();
            let sys = args.workload.build(args.seed, EngineKind::Serial);
            let s = t.elapsed().as_secs_f64();
            drop(sys);
            Ok(s.to_string())
        }
    };
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Node-cycles per host second: `System::now()` counts the protocol drain
/// after the application finished, which `RunStats::cycles` leaves out.
fn ncps(sim_cycles: u64, nodes: usize, wall_s: f64) -> f64 {
    sim_cycles as f64 * nodes as f64 / wall_s
}

/// One `setup_s` sample: the first build in a fresh process, as a user's
/// run pays it. Builds later in a process are cheaper or not depending on
/// whether the allocator kept the previous machine's memory, which makes
/// their timing bimodal.
fn setup_sample(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--setup-sample",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .ok()
        .filter(|s| out.status.success() && s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("set-up sample failed ({}): {text}", out.status))
}

/// End-to-end metrics: serial and parallel runs alternate, each on a
/// freshly built machine, until the next one would overrun the time
/// budget; at least one of each runs.
fn end_to_end(a: &Args) -> Result<String, String> {
    let (w, seed) = (a.workload, a.seed);
    let start = Instant::now();
    let mut checker = Checker::new(w, seed);
    let setup_s = (0..SETUP_SAMPLES)
        .map(|_| setup_sample(w, seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let engines = [EngineKind::Serial, EngineKind::Parallel];
    let mut samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut runs = [0usize; 2];
    let mut last_s = [0.0f64; 2];
    loop {
        // The engine with fewer runs goes next; the seed picks which
        // engine starts.
        let i = match runs[0].cmp(&runs[1]) {
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Equal => (seed % 2) as usize,
        };
        if runs.iter().all(|&r| r > 0) && start.elapsed().as_secs_f64() + last_s[i] > a.seconds {
            break;
        }
        let step = Instant::now();
        let mut sys = w.build(seed, engines[i]);
        w.arm_observers(&mut sys);
        let t = Instant::now();
        let res = sys.run_with(MAX_CYCLES, engines[i]);
        let wall = t.elapsed().as_secs_f64();
        runs[i] += 1;
        if checker
            .run(&engines[i].to_string(), res, sys.now())
            .is_some()
        {
            samples[i].push(ncps(sys.now(), w.nodes, wall));
        }
        drop(sys);
        last_s[i] = step.elapsed().as_secs_f64();
    }
    eprintln!(
        "perfbench: {} seed {seed}: serial ncps {:?}, parallel ncps {:?}",
        w.name, samples[0], samples[1]
    );
    let mut m = Metrics::new();
    m.set("setup_s", median(&setup_s));
    for (name, s) in ["serial_ncps", "parallel_ncps"].into_iter().zip(&samples) {
        if !s.is_empty() {
            m.set(name, median(s));
        }
    }
    m.set("peak_rss_mb", report::peak_rss_mib()?);
    checker.result(&m, &END_TO_END)
}

/// Per-layer metrics: traced passes for the time budget (at least one);
/// host times are medians over the passes.
fn traced_run(a: &Args) -> Result<String, String> {
    let (w, seed) = (a.workload, a.seed);
    let start = Instant::now();
    let mut checker = Checker::new(w, seed);
    let mut passes = Vec::new();
    let mut guest = None;
    let mut pass_s = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + pass_s <= a.seconds {
        let t = Instant::now();
        let (host, counts) = traced_pass(w, seed, &mut checker)?;
        passes.push(host);
        guest = Some(counts);
        pass_s = t.elapsed().as_secs_f64();
    }
    let mut m = Metrics::median_of(&passes);
    for (name, value) in guest.iter().flat_map(Metrics::iter) {
        m.set(name, value);
    }
    checker.result(&m, &PER_LAYER)
}

/// One traced pass: the outside-driven serial loop checked against
/// `System::run_with(Serial)`, the parallel engine with host telemetry,
/// and a serial run with the observers toggled. Returns the host metrics
/// and the guest counts.
fn traced_pass(
    w: &Workload,
    seed: u64,
    checker: &mut Checker,
) -> Result<(Metrics, Metrics), String> {
    let mut m = Metrics::new();
    let (mut machine, setup) = traced::assemble(w, seed);
    m.set("workloads.gen_setup_s", setup.gen_s);
    m.set("node.assemble_s", setup.assemble_s);
    let driven = machine.drive();

    let mut sys = w.build(seed, EngineKind::Serial);
    w.arm_observers(&mut sys);
    let t = Instant::now();
    let res = sys.run_with(MAX_CYCLES, EngineKind::Serial);
    let serial_s = t.elapsed().as_secs_f64();
    let stats = checker
        .run("serial", res, sys.now())
        .ok_or("the serial reference run failed")?;
    let guest = guest_counts(&stats, sys.now());

    checker.attempted += 1;
    let checked = driven.and_then(|d| {
        if !traced::layers_sum_to_wall(&d) {
            return Err("per-layer host times do not sum to the wall-clock".to_string());
        }
        machine.matches(&d, &sys, &stats).map(|()| d)
    });
    match checked {
        Ok(d) => {
            let insts = stats.app_instructions + stats.protocol_instructions;
            for (name, v) in traced::layer_metrics(&d, w.nodes, insts, serial_s).iter() {
                m.set(name, v);
            }
        }
        Err(e) => checker.fail("traced serial", &e),
    }
    drop((machine, sys));

    let mut par = w.build(seed, EngineKind::Parallel);
    w.arm_observers(&mut par);
    par.enable_host_telemetry();
    let res = par.run_with(MAX_CYCLES, EngineKind::Parallel);
    if checker.run("parallel", res, par.now()).is_some() {
        let profile = par.host_profile().ok_or("no host profile after the run")?;
        for (name, v) in traced::engine_metrics(profile).iter() {
            m.set(name, v);
        }
    }
    drop(par);

    let mut toggled = w.build(seed, EngineKind::Serial);
    if !w.observed {
        arm_all_observers(&mut toggled);
    }
    let t = Instant::now();
    let res = toggled.run_with(MAX_CYCLES, EngineKind::Serial);
    let toggled_s = t.elapsed().as_secs_f64();
    if checker
        .run("observers toggled", res, toggled.now())
        .is_some()
    {
        let (armed, bare) = if w.observed {
            (serial_s, toggled_s)
        } else {
            (toggled_s, serial_s)
        };
        m.set("trace.observer_overhead", armed / bare);
    }
    Ok((m, guest))
}

/// The `digests.txt` line for this workload and seed, from a serial run.
fn record(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let mut sys = w.build(a.seed, EngineKind::Serial);
    w.arm_observers(&mut sys);
    let stats = sys
        .run_with(MAX_CYCLES, EngineKind::Serial)
        .map_err(|e| format!("{:?}: {}", e.kind, e.message))?;
    let seed = if w.chaos {
        a.seed.to_string()
    } else {
        "*".to_string()
    };
    let d = digest(&guest_counts(&stats, sys.now()));
    Ok(format!("{} {seed} {d}", w.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload radix16-chaos --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload.name, "radix16-chaos");
        assert_eq!((a.seed, a.seconds, a.mode), (7, 30.0, Mode::Traced));
        let a = args("--setup-sample --workload ocean16 --seed 3").unwrap();
        assert_eq!(a.mode, Mode::SetupSample);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload ocean16").is_err());
        assert!(args("--workload ocean16 --seed 1 --trace 2").is_err());
        assert!(args("--workload ocean16 --seed 1 --seconds 0").is_err());
        assert!(args("--workload ocean16 --seed 1 --bogus 1").is_err());
    }

    /// A second chaos seed runs to completion on both engines and matches
    /// its recorded digest; the same results checked against a perturbed
    /// digest count as a failed run.
    #[test]
    fn second_chaos_seed_passes_and_a_perturbed_digest_fails() {
        let w = Workload::by_name("radix16-chaos").unwrap();
        let seed = 2;
        let mut checker = Checker::new(w, seed);
        let recorded = checker.expected.expect("seed 2 has a recorded digest");
        let mut serial = None;
        for engine in [EngineKind::Serial, EngineKind::Parallel] {
            let mut sys = w.build(seed, engine);
            let res = sys.run_with(MAX_CYCLES, engine);
            let stats = checker.run("test", res, sys.now()).expect("run passes");
            serial.get_or_insert((stats, sys.now()));
        }
        assert_eq!((checker.attempted, checker.failed), (2, 0));

        let (stats, now) = serial.unwrap();
        checker.expected = Some(Digest(recorded.0 ^ 1));
        assert!(checker.run("test", Ok(stats), now).is_none());
        assert_eq!((checker.attempted, checker.failed), (3, 1));
    }
}
