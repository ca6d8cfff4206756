//! `repro`: the paper's figures over a list of seeds, with each claim's
//! pass rate gated against its floor on the committed seed matrix.

use iotax_bench::{to_json, write_file, Claim, Figure, Seed, FIGURES};
use iotax_obs::{uptime_us, Error, Result};
use iotax_stats::describe::quantile;
use serde::Serialize;
use std::collections::BTreeSet;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

const USAGE: &str = "usage: repro [--figure ID] [--seeds LIST]

Runs the paper's figures (all, or the one named by --figure) once per seed
in LIST, a comma-separated list of integers (default 1,2,...,10). Theta and
Cori both get the seed; IOTAX_JOBS sets the jobs per trace (default: each
figure's own size). Each figure's series land under target/repro/<seed>/;
each claim's pass rate, with the median and IQR of its measured value, is
printed as a Markdown table and written to target/repro/claims.json.

On the committed matrix (the default seeds at IOTAX_JOBS=2000) the run
exits 1 and names every claim whose pass rate is below its floor. A bad
argument exits 64.";

/// The committed matrix: the seeds and trace size [`FLOORS`] were
/// measured on. Other matrices print and write their pass rates, but no
/// floor applies to them.
const MATRIX_SEEDS: RangeInclusive<u64> = 1..=10;
const MATRIX_JOBS: usize = 2_000;

/// Each claim's floor: its pass rate on the committed matrix when the
/// claims were first gated. A claim that never held has floor 0; it stays
/// listed, so a fix shows as a rising pass rate.
const FLOORS: &[(&str, f64)] = &[
    ("F1a.best_near_bound", 0.4),
    ("F1a.default_worse", 0.9),
    ("F1b.sensitive_apps_spread_wider", 0.5),
    ("F1c.simultaneous_tighter", 0.9),
    ("F1c.simultaneous_differ_5pct", 1.0),
    ("F1d.post_deployment_worse", 0.8),
    ("F2.best_near_bound", 0.0),
    ("F2.few_improvements", 0.9),
    ("F3.mpiio_no_gain", 1.0),
    ("F3.cobalt_gain_is_timing", 0.9),
    ("F3.cobalt_memorizes", 1.0),
    ("F4.theta_start_time_gain", 0.9),
    ("F4.cori_start_time_gain", 0.7),
    ("F4.cori_lmt_near_golden", 0.6),
    ("F5.au_dominates", 1.0),
    ("F5.eu_half_below_au_half", 0.9),
    ("F5.au_floor", 0.7),
    ("F6.dt0_tightest", 1.0),
    ("F6.dt0_student_t", 0.6),
    ("F6.dt0_small_sets", 1.0),
    ("F7.theta_noise_dominant", 1.0),
    ("F7.cori_noise_dominant", 0.9),
    ("F7.theta_system_small", 1.0),
    ("F7.cori_system_small", 0.9),
    ("F7.theta_ood_few_pct", 1.0),
    ("F7.cori_ood_few_pct", 1.0),
    ("F7.theta_unexplained_positive", 0.8),
    ("F7.cori_unexplained_positive", 0.8),
    ("F7.cori_noisier", 0.9),
    ("T1.cori_more_duplicates", 1.0),
    ("T1.cori_bound_higher", 0.9),
    ("T1.theta_ood_amplified", 0.7),
    ("ext-importance.top10_majority", 1.0),
];

/// One claim over every seed run.
#[derive(Serialize)]
struct ClaimRates {
    id: &'static str,
    paper: &'static str,
    /// `None` for a claim missing from [`FLOORS`].
    floor: Option<f64>,
    passed: usize,
    runs: usize,
    pass_rate: f64,
    /// Median and interquartile range of the finite measured values.
    median: f64,
    iqr: f64,
    /// The measured value per seed, in seed order.
    measured: Vec<f64>,
}

#[derive(Serialize)]
struct ClaimsFile {
    seeds: Vec<u64>,
    n_jobs: Option<usize>,
    committed_matrix: bool,
    claims: Vec<ClaimRates>,
}

/// The parsed command line; `None` from [`parse`] means `--help`.
struct Opts {
    figures: Vec<(&'static str, Figure)>,
    seeds: Vec<u64>,
}

fn parse(args: &[String]) -> Result<Option<Opts>> {
    let mut opts = Opts { figures: FIGURES.to_vec(), seeds: MATRIX_SEEDS.collect() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| Error::usage(format!("{arg} needs a value")));
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--figure" => {
                let id = value()?;
                opts.figures = FIGURES.iter().filter(|(f, _)| f == id).copied().collect();
                if opts.figures.is_empty() {
                    let ids: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
                    let msg = format!("unknown figure `{id}` (figures: {})", ids.join(" "));
                    return Err(Error::usage(msg));
                }
            }
            "--seeds" => {
                let list = value()?;
                let bad = || {
                    Error::usage(format!("--seeds `{list}`: want distinct integers, e.g. 1,2,7"))
                };
                opts.seeds =
                    list.split(',').map(|s| s.parse().map_err(|_| bad())).collect::<Result<_>>()?;
                if opts.seeds.iter().collect::<BTreeSet<_>>().len() != opts.seeds.len() {
                    return Err(bad());
                }
            }
            other => return Err(Error::usage(format!("unknown argument `{other}`"))),
        }
    }
    Ok(Some(opts))
}

/// `IOTAX_JOBS`, the jobs per trace; unset means each figure's default.
fn n_jobs_from_env() -> Result<Option<usize>> {
    let Ok(v) = std::env::var("IOTAX_JOBS") else { return Ok(None) };
    match v.parse() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(Error::usage(format!("IOTAX_JOBS `{v}` is not a positive integer"))),
    }
}

/// Group each seed's claims by id, in the order the figures return them.
fn rates(per_seed: &[Vec<Claim>]) -> Vec<ClaimRates> {
    let Some(first) = per_seed.first() else { return Vec::new() };
    let rate = |c: &Claim| {
        let runs: Vec<&Claim> =
            per_seed.iter().filter_map(|claims| claims.iter().find(|r| r.id == c.id)).collect();
        let measured: Vec<f64> = runs.iter().map(|r| r.measured).collect();
        let finite: Vec<f64> = measured.iter().copied().filter(|v| v.is_finite()).collect();
        let passed = runs.iter().filter(|r| r.holds).count();
        ClaimRates {
            id: c.id,
            paper: c.paper,
            floor: FLOORS.iter().find(|(id, _)| *id == c.id).map(|&(_, f)| f),
            passed,
            runs: runs.len(),
            pass_rate: passed as f64 / runs.len() as f64,
            median: quantile(&finite, 0.5),
            iqr: quantile(&finite, 0.75) - quantile(&finite, 0.25),
            measured,
        }
    };
    first.iter().map(rate).collect()
}

fn run(out: &mut impl Write) -> Result<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args)? else {
        writeln!(out, "{USAGE}").map_err(Error::stdout)?;
        return Ok(0);
    };
    let n_jobs = n_jobs_from_env()?;
    let committed = opts.seeds.iter().copied().eq(MATRIX_SEEDS) && n_jobs == Some(MATRIX_JOBS);
    let mut per_seed = Vec::new();
    for &seed in &opts.seeds {
        let run = Seed::new(seed, n_jobs)?;
        let mut claims = Vec::new();
        for (id, figure) in &opts.figures {
            let t0 = uptime_us();
            claims.extend(figure(&run).map_err(|e| e.wrap(format!("figure {id}, seed {seed}")))?);
            let secs = uptime_us().saturating_sub(t0) as f64 / 1e6;
            eprintln!("[repro] seed {seed} {id}: {secs:.1} s");
        }
        per_seed.push(claims);
    }
    let claims = rates(&per_seed);

    writeln!(out, "| claim | paper | holds | floor | median | IQR |\n|---|---|---|---|---|---|")
        .map_err(Error::stdout)?;
    for c in &claims {
        let floor = c.floor.map_or("none".to_owned(), |f| format!("{f:.1}"));
        let (id, paper, passed, runs) = (c.id, c.paper.replace('|', "\\|"), c.passed, c.runs);
        let (median, iqr) = (c.median, c.iqr);
        writeln!(out, "| {id} | {paper} | {passed}/{runs} | {floor} | {median:.3} | {iqr:.3} |")
            .map_err(Error::stdout)?;
    }

    let file = ClaimsFile { seeds: opts.seeds, n_jobs, committed_matrix: committed, claims };
    write_file(Path::new("target/repro/claims.json"), &to_json(&file)?)?;
    if !committed {
        eprintln!(
            "repro: not the committed matrix (seeds 1-10 at IOTAX_JOBS=2000); no floor applies"
        );
        return Ok(0);
    }
    let mut below = 0;
    for c in &file.claims {
        match c.floor {
            Some(floor) if c.pass_rate >= floor => continue,
            Some(floor) => eprintln!(
                "repro: {} holds on {}/{} seeds, below its floor {floor:.1}",
                c.id, c.passed, c.runs
            ),
            None => eprintln!("repro: {} has no floor", c.id),
        }
        below += 1;
    }
    Ok(i32::from(below > 0))
}

fn main() {
    let mut out = std::io::stdout().lock();
    match run(&mut out).and_then(|code| out.flush().map(|()| code).map_err(Error::stdout)) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_are_every_figure_on_the_committed_seeds() {
        let opts = parse(&[]).unwrap().unwrap();
        assert_eq!(opts.figures.len(), FIGURES.len());
        assert_eq!(opts.seeds, (1..=10).collect::<Vec<u64>>());
        let opts = parse(&args(&["--figure", "F4", "--seeds", "7,2"])).unwrap().unwrap();
        assert_eq!(opts.figures.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ["F4"]);
        assert_eq!(opts.seeds, [7, 2]);
        assert!(parse(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            &["--figure", "NOPE"][..],
            &["--seeds", "x"],
            &["--seeds", "3,3"],
            &["--seeds", "-1"],
            &["--jobs", "5"],
        ] {
            let err = parse(&args(bad)).err().unwrap_or_else(|| panic!("{bad:?} parsed"));
            assert_eq!(err.exit_code(), 64, "{bad:?}: {err}");
        }
    }

    #[test]
    fn rates_pool_each_claim_over_the_seeds() {
        let claim = |id, measured, holds| Claim { id, paper: "p", measured, holds };
        let per_seed = vec![
            vec![claim("F3.mpiio_no_gain", 1.0, true), claim("no.floor", 5.0, false)],
            vec![claim("F3.mpiio_no_gain", f64::NAN, false), claim("no.floor", 6.0, false)],
            vec![claim("F3.mpiio_no_gain", 3.0, true), claim("no.floor", 7.0, true)],
        ];
        let rates = rates(&per_seed);
        assert_eq!(
            rates.iter().map(|r| r.id).collect::<Vec<_>>(),
            ["F3.mpiio_no_gain", "no.floor"]
        );
        let r = &rates[0];
        assert_eq!((r.passed, r.runs), (2, 3));
        assert_eq!(r.floor, Some(1.0));
        // The NaN seed counts as a run but not as a value.
        assert_eq!((r.median, r.iqr), (2.0, 1.0));
        assert_eq!(rates[1].floor, None);
        assert_eq!(rates[1].pass_rate, 1.0 / 3.0);
    }
}
