//! Shared harness utilities for the experiment binaries that regenerate the
//! paper's tables and figures (README, "Figure / table reproduction map",
//! lists them): one flag parser ([`Opts`]), one JSON writer ([`json`]) and
//! the shared scenarios ([`scenarios`]).

use paris_elsa::prelude::*;

pub mod json;
pub mod scenarios;

/// Flags every experiment binary that reads a command line accepts.
const COMMON_FLAGS: [&str; 3] = ["--quick", "--smoke", "--seed <n>"];

/// The command line every experiment binary reads: `--quick`, `--smoke`
/// and `--seed <n>`, plus the flags a binary declares as its own. The
/// figure binaries read only `--quick` and `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Shorter runs whose numbers still mean something.
    pub quick: bool,
    /// Tiny CI runs; their numbers are not comparable.
    pub smoke: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Opts {
    /// Reads the process's arguments, with the binary's default seed and
    /// its `own` flags beyond the common three: `"--name"` for a switch,
    /// `"--name <value>"` for a valued flag the binary reads with
    /// [`flag`]. A flag the binary does not accept, a stray argument or a
    /// malformed `--seed` ends the process with status 2 and an error
    /// naming it (see [`parse_flag`]).
    #[must_use]
    pub fn from_args(default_seed: u64, own: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        or_exit(Self::parse(&args, default_seed, own))
    }

    /// [`from_args`](Self::from_args) over an explicit argument list.
    ///
    /// # Errors
    ///
    /// An argument that is neither an accepted flag nor a valued flag's
    /// value, named with the flags the binary accepts; a malformed
    /// `--seed`, as [`parse_flag`] says.
    pub fn parse(args: &[String], default_seed: u64, own: &[&str]) -> Result<Self, String> {
        let accepted: Vec<&str> = COMMON_FLAGS.iter().chain(own).copied().collect();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some(spec) = accepted.iter().find(|s| s.split(' ').next() == Some(arg)) else {
                let what = if arg.starts_with("--") {
                    format!("unknown flag {arg}")
                } else {
                    format!("unexpected argument {arg:?}")
                };
                return Err(format!("{what}; accepted: {}", accepted.join(", ")));
            };
            // A valued flag's value is its own to check (`parse_flag`).
            if spec.contains(' ') {
                rest.next_if(|v| !v.starts_with("--"));
            }
        }
        Ok(Opts {
            quick: args.iter().any(|a| a == "--quick"),
            smoke: args.iter().any(|a| a == "--smoke"),
            seed: parse_flag(args, "seed")?.unwrap_or(default_seed),
        })
    }

    /// Picks the value matching the run mode (smoke wins over quick).
    #[must_use]
    pub fn pick<T>(&self, full: T, quick: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else if self.quick {
            quick
        } else {
            full
        }
    }

    /// A figure binary's sweep on `bed`: 2 simulated seconds of arrivals
    /// per operating point, 0.5 under `--quick`.
    #[must_use]
    pub fn sweep(&self, bed: &Testbed) -> SweepConfig {
        let duration_s = if self.quick { 0.5 } else { 2.0 };
        SweepConfig::new(duration_s, self.seed, bed.sla_ns())
    }
}

/// The one rule for valued flags: the value of `--<name>` in `args`,
/// `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// An error naming the flag when its value is missing, is another
/// `--flag`, or does not parse as a `T`.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse {v:?}")),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// [`parse_flag`] over the process's arguments: a binary's own valued
/// flags (`--queries`, `--metrics`, `--trace`, `--jsonl`), which it
/// declares to [`Opts::from_args`]. An error ends the process with
/// status 2.
#[must_use]
pub fn flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_exit(parse_flag(&args, name))
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The SLA-attainment target of the trajectory benches' load-scale
/// search: the worst p95 ÷ SLA must stay within it.
pub const P95_TARGET_RATIO: f64 = 1.0;

/// One run of a trajectory bench at a load scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalePoint {
    /// The load scale (1.0 = nominal).
    pub scale: f64,
    /// The worst p95 ÷ SLA over every model (and shard).
    pub worst_p95_ratio: f64,
    /// The worst exact SLA-violation rate.
    pub worst_violation: f64,
    /// Achieved throughput, queries/second.
    pub achieved_qps: f64,
    /// Reconfigurations made.
    pub reconfigs: usize,
    /// Capacity loans granted (0 off a cluster).
    pub loans: usize,
    /// GPU-seconds on loan (0 off a cluster).
    pub loaned_gpu_seconds: f64,
}

/// Result of [`max_scale_search`].
#[derive(Debug, Clone, Copy)]
pub struct ScaleSearch {
    /// The point at the largest passing scale (scale 0, an infinite p95
    /// ratio and a violation rate of 1 when no probed scale passed).
    pub best: ScalePoint,
    /// The point at the *nominal* scale 1.0 — always the search's first
    /// probe, returned so callers need not re-run that simulation.
    pub nominal: ScalePoint,
}

/// The trajectory benches' shared load-scale search: the largest scale at
/// which the worst p95 stays within [`P95_TARGET_RATIO`] of the SLA, via
/// [`parallel_doubling_search`] seeded at the *nominal* scale 1.0 (very
/// light loads starve drift detectors of samples, so probing deep
/// underload first would measure detector blindness, not capacity;
/// failures bisect downward from nominal). At most six doublings, then
/// six bisection steps; two of each under `--smoke`.
#[must_use]
pub fn max_scale_search<M>(opts: &Opts, measure: M) -> ScaleSearch
where
    M: Fn(f64) -> ScalePoint + Sync,
{
    let steps = opts.pick(6, 6, 2);
    let ok = |p: &ScalePoint| p.worst_p95_ratio <= P95_TARGET_RATIO;
    let result = parallel_doubling_search(1.0, steps, steps, true, measure, ok);
    let failed = ScalePoint {
        worst_p95_ratio: f64::INFINITY,
        worst_violation: 1.0,
        ..ScalePoint::default()
    };
    ScaleSearch {
        best: result.best().map_or(failed, |&(_, p)| p),
        nominal: result.points[0].1,
    }
}

/// Prints a fixed-width table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// The dispatch-path benchmark workload shared by the criterion
/// microbench (`dispatch_path_20k_queries`) and the `bench_server` bin:
/// both must measure the *same* configuration or `BENCH_server.json`
/// silently stops being comparable to the microbench numbers.
///
/// Returns, for a partition count `n`, the FIFS server, the ELSA server
/// (paper-default SLA) and a dispatch-heavy trace of `queries` queries
/// drawn from `seed` and offered at `200·n` q/s over a cycling mix of all
/// five MIG profiles.
#[must_use]
pub fn dispatch_workload(
    n_partitions: usize,
    queries: usize,
    seed: u64,
) -> (InferenceServer, InferenceServer, Vec<QuerySpec>) {
    let table = scenarios::mobilenet_table();
    let sla = table.sla_target_ns(1.5);
    let partitions: Vec<ProfileSize> = (0..n_partitions)
        .map(|i| ProfileSize::ALL[i % ProfileSize::ALL.len()])
        .collect();
    let trace = TraceGenerator::new(
        n_partitions as f64 * 200.0,
        BatchDistribution::paper_default(),
        seed,
    )
    .generate_count(queries);
    let fifs = InferenceServer::new(
        partitions.clone(),
        table.clone(),
        ServerConfig::new(SchedulerKind::Fifs),
    );
    let elsa = InferenceServer::new(
        partitions,
        table,
        ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))),
    );
    (fifs, elsa, trace)
}

/// The partition counts the dispatch-path benchmarks sweep.
pub const DISPATCH_BENCH_PARTITIONS: [usize; 3] = [8, 56, 224];

/// The full Figure 12 design list: four homogeneous baselines, the two
/// random-partitioned baselines, and the two PARIS designs.
#[must_use]
pub fn figure12_designs(seed: u64) -> Vec<(&'static str, DesignPoint)> {
    vec![
        ("GPU(7)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G7)),
        ("GPU(3)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G3)),
        ("GPU(2)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G2)),
        ("GPU(1)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G1)),
        ("Random+FIFS", DesignPoint::RandomFifs { seed }),
        ("Random+ELSA", DesignPoint::RandomElsa { seed }),
        ("PARIS+FIFS", DesignPoint::ParisFifs),
        ("PARIS+ELSA", DesignPoint::ParisElsa),
    ]
}

/// Measures latency-bounded throughput for several designs on one testbed,
/// in parallel on the bounded [`parallel_map_indexed`] pool.
///
/// # Panics
///
/// Panics if a design's plan cannot be built.
#[must_use]
pub fn measure_designs(
    bed: &Testbed,
    designs: &[(&'static str, DesignPoint)],
    sweep: &SweepConfig,
) -> Vec<(&'static str, f64)> {
    parallel_map_indexed(designs.len(), |i| {
        let (name, design) = designs[i];
        let qps = bed
            .latency_bounded_qps(design, sweep)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        (name, qps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn default_opts_are_sane() {
        let o = Opts::parse(&[], 29, &[]).expect("no flags parse");
        assert_eq!(
            o,
            Opts {
                quick: false,
                smoke: false,
                seed: 29
            }
        );
        let bed = Testbed::paper_default(paris_elsa::dnn::ModelKind::MobileNet);
        assert!(o.sweep(&bed).duration_s > 0.0);
        let o = Opts::parse(&args("--smoke --quick --seed 7"), 29, &[]).expect("valid flags parse");
        assert_eq!((o.quick, o.smoke, o.seed), (true, true, 7));
        assert_eq!(o.pick("full", "quick", "smoke"), "smoke");
    }

    #[test]
    fn a_valued_flag_without_a_value_names_the_flag() {
        let err = Opts::parse(&args("--smoke --seed"), 29, &[]).expect_err("value missing");
        assert_eq!(err, "--seed needs a value");
    }

    #[test]
    fn a_valued_flag_followed_by_a_flag_names_the_flag() {
        let err = parse_flag::<String>(&args("--smoke --trace --slo"), "trace")
            .expect_err("value is a flag");
        assert_eq!(err, "--trace needs a value");
    }

    #[test]
    fn a_valued_flag_that_does_not_parse_names_the_flag() {
        let err = Opts::parse(&args("--smoke --seed x"), 29, &[]).expect_err("not a number");
        assert_eq!(err, "--seed: cannot parse \"x\"");
        let err = parse_flag::<usize>(&args("--queries -5"), "queries").expect_err("negative");
        assert_eq!(err, "--queries: cannot parse \"-5\"");
    }

    #[test]
    fn a_mistyped_flag_is_rejected_by_name() {
        let err = Opts::parse(&args("--smok"), 67, &[]).expect_err("typo");
        assert_eq!(
            err,
            "unknown flag --smok; accepted: --quick, --smoke, --seed <n>"
        );
    }

    #[test]
    fn help_is_an_unknown_flag_that_lists_the_accepted_ones() {
        let err = Opts::parse(&args("--help"), 67, &[]).expect_err("no --help");
        assert_eq!(
            err,
            "unknown flag --help; accepted: --quick, --smoke, --seed <n>"
        );
        let own = ["--queries <n>"];
        let err = Opts::parse(&args("--quick --help"), 7, &own).expect_err("no --help");
        assert!(err.starts_with("unknown flag --help;"), "{err}");
        assert!(err.ends_with("--seed <n>, --queries <n>"), "{err}");
    }

    #[test]
    fn own_flags_are_accepted_only_where_declared() {
        let own = ["--slo", "--metrics <path>", "--trace <path>"];
        let line = args("--slo --metrics m.csv --quick --trace --jsonl");
        let err = Opts::parse(&line, 41, &own).expect_err("--jsonl is not declared");
        assert!(err.starts_with("unknown flag --jsonl;"), "{err}");
        let line = args("--slo --metrics m.csv --seed 3 --trace t.json");
        let o = Opts::parse(&line, 41, &own).expect("declared flags parse");
        assert_eq!((o.quick, o.smoke, o.seed), (false, false, 3));
        let err = Opts::parse(&args("--queries 5"), 29, &[]).expect_err("not declared");
        assert!(err.starts_with("unknown flag --queries;"), "{err}");
        let err = Opts::parse(&args("--quick 5"), 29, &[]).expect_err("stray value");
        assert!(err.starts_with("unexpected argument \"5\";"), "{err}");
    }

    /// Seed 7 still draws the dispatch trace `bench_server` and the
    /// microbench have always measured (fingerprints taken before the
    /// seed became a parameter), and another seed draws a different one.
    #[test]
    fn dispatch_workload_trace_follows_the_seed() {
        fn fingerprint(trace: &[QuerySpec]) -> u64 {
            trace.iter().fold(0xcbf2_9ce4_8422_2325, |h, q| {
                (h ^ q.arrival_ns).wrapping_mul(0x0100_0000_01b3) ^ q.batch as u64
            })
        }
        for (n, expected) in [(8, 0x81eb_8120_de42_3722), (224, 0x42b9_7bf4_d132_fb92)] {
            let (_, _, seven) = dispatch_workload(n, 2_000, 7);
            assert_eq!(seven.len(), 2_000);
            assert_eq!(fingerprint(&seven), expected, "{n} partitions, seed 7");
            let (_, _, other) = dispatch_workload(n, 2_000, 8);
            assert_eq!(other.len(), 2_000);
            assert_ne!(other, seven, "{n} partitions: seed 8 draws another trace");
        }
    }

    #[test]
    fn figure12_lists_eight_designs() {
        let designs = figure12_designs(1);
        assert_eq!(designs.len(), 8);
        assert_eq!(designs[0].0, "GPU(7)+FIFS");
        assert_eq!(designs[7].0, "PARIS+ELSA");
    }
}
