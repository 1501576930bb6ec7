//! Minimal flag parsing shared by the figure harness binaries.
//!
//! Flags (all optional):
//! * `--scale quick|default|paper` — experiment size preset;
//! * `--trials N` — override trials per configuration;
//! * `--rounds N` — override tracked rounds;
//! * `--budget N` — override the per-round query budget `G`;
//! * `--seed N` — base seed;
//! * `--faults off|seeded:<rate>` — interface fault injection: `off` (the
//!   default) runs estimators straight against the session; `seeded:0.2`
//!   interposes the deterministic FaultyBackend + ResilientBackend stack
//!   with a per-query fault probability of 0.2 (faults only consume
//!   budget — recovered runs stay on the fault-free drill outcomes);
//! * `--bootstrap off|N` — bootstrap percentile CIs in the figure output:
//!   `N` replicates per interval (default 1000), `off` drops the CI
//!   columns entirely. The point estimates are untouched either way —
//!   resampling happens after the experiment, never inside it.

use hidden_db::DEFAULT_MEMO_CAPACITY;
use workloads::DeleteSpec;

/// Interface fault-injection mode for the experiment loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultsMode {
    /// No fault layer at all: estimators talk to the session directly
    /// (wrapper overhead exactly zero).
    #[default]
    Off,
    /// Deterministic seeded injection at the given per-query rate,
    /// recovered by the default retry policy (always recoverable: the
    /// default schedule's burst cap is below the retry budget).
    Seeded {
        /// Per-query fault probability in `[0, 1]`.
        rate: f64,
    },
}

/// Experiment size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Smoke-test size (seconds); its `all_figures` output is the golden
    /// file `crates/bench/tests/golden/all_figures_quick.txt`.
    Quick,
    /// The default size (tens of seconds per figure); its `all_figures`
    /// output is the golden file `all_figures_default.txt` beside it.
    #[default]
    Default,
    /// The paper's full size (170 000 tuples, m = 38, k = 1000, G = 500).
    Paper,
}

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Size preset.
    pub scale: Scale,
    /// Trials override.
    pub trials: Option<usize>,
    /// Rounds override.
    pub rounds: Option<usize>,
    /// Budget override.
    pub budget: Option<u64>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Fault-injection mode override.
    pub faults: Option<FaultsMode>,
    /// Bootstrap CI override (`Some(None)` = explicit `off`,
    /// `Some(Some(n))` = `n` replicates per interval).
    pub bootstrap: Option<Option<usize>>,
}

impl Cli {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("flag {name} needs a value"));
            match arg.as_str() {
                "--scale" => {
                    cli.scale = match value("--scale").as_str() {
                        "quick" => Scale::Quick,
                        "default" => Scale::Default,
                        "paper" => Scale::Paper,
                        other => panic!("unknown scale {other:?}"),
                    }
                }
                "--trials" => cli.trials = Some(value("--trials").parse().expect("usize")),
                "--rounds" => cli.rounds = Some(value("--rounds").parse().expect("usize")),
                "--budget" => cli.budget = Some(value("--budget").parse().expect("u64")),
                "--seed" => cli.seed = Some(value("--seed").parse().expect("u64")),
                "--faults" => {
                    cli.faults = Some(match value("--faults").as_str() {
                        "off" => FaultsMode::Off,
                        spec => {
                            let rate = spec
                                .strip_prefix("seeded:")
                                .and_then(|r| r.parse::<f64>().ok())
                                .filter(|r| (0.0..=1.0).contains(r))
                                .expect("--faults takes `off` or `seeded:<rate in [0,1]>`");
                            FaultsMode::Seeded { rate }
                        }
                    })
                }
                "--bootstrap" => {
                    cli.bootstrap = Some(match value("--bootstrap").as_str() {
                        "off" => None,
                        n => Some(
                            n.parse()
                                .ok()
                                .filter(|&b: &usize| b >= 1)
                                .expect("--bootstrap takes `off` or a replicate count ≥ 1"),
                        ),
                    })
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale quick|default|paper  --trials N  --rounds N  \
                         --budget N  --seed N  \
                         --faults off|seeded:<rate>  --bootstrap off|N"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
        }
        cli
    }
}

/// Base configuration for the synthetic-Autos tracking experiments.
#[derive(Debug, Clone)]
pub struct BaseCfg {
    /// Initial population `|D_1|`.
    pub initial: usize,
    /// Attribute count `m`.
    pub attrs: usize,
    /// Interface page size `k`.
    pub k: usize,
    /// Per-round query budget `G` (per algorithm).
    pub g: u64,
    /// Rounds tracked.
    pub rounds: usize,
    /// Seeded trials averaged per configuration.
    pub trials: usize,
    /// Tuples inserted per round.
    pub inserts: usize,
    /// Deletions per round.
    pub delete: DeleteSpec,
    /// Base seed (trial t uses `seed + t`).
    pub seed: u64,
    /// Memo capacity of every trial database; 0 turns the memo off.
    /// Outcome-invariant (estimator records are bit-identical at every
    /// capacity); only wall-clock and cache counters change.
    pub memo_capacity: usize,
    /// Interface fault injection (PR 6). `Off` bypasses the fault layer
    /// entirely; `Seeded` wraps every per-round session in the
    /// deterministic FaultyBackend + ResilientBackend stack.
    pub faults: FaultsMode,
    /// Bootstrap replicates for the figure pipeline's percentile CIs
    /// (PR 10); `None` drops the CI columns. Resampling runs on the
    /// already-collected records, so point estimates and all other
    /// columns are bit-identical either way.
    pub bootstrap_replicates: Option<usize>,
}

impl BaseCfg {
    /// The preset for a scale, before figure-specific tweaks.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                initial: 4_000,
                attrs: 12,
                k: 100,
                g: 200,
                rounds: 10,
                trials: 2,
                inserts: 8,
                delete: DeleteSpec::Fraction(0.001),
                seed: 0x5EED,
                memo_capacity: DEFAULT_MEMO_CAPACITY,
                faults: FaultsMode::Off,
                bootstrap_replicates: Some(1_000),
            },
            Scale::Default => Self {
                initial: 30_000,
                attrs: 20,
                k: 200,
                g: 300,
                rounds: 50,
                trials: 8,
                // +300 of 170 000 ≈ 0.18 %/round, scaled to 30 000.
                inserts: 53,
                delete: DeleteSpec::Fraction(0.001),
                seed: 0x5EED,
                memo_capacity: DEFAULT_MEMO_CAPACITY,
                faults: FaultsMode::Off,
                bootstrap_replicates: Some(1_000),
            },
            Scale::Paper => Self {
                initial: 170_000,
                attrs: 38,
                k: 1_000,
                g: 500,
                rounds: 50,
                trials: 10,
                inserts: 300,
                delete: DeleteSpec::Fraction(0.001),
                seed: 0x5EED,
                memo_capacity: DEFAULT_MEMO_CAPACITY,
                faults: FaultsMode::Off,
                bootstrap_replicates: Some(1_000),
            },
        }
    }

    /// Applies the CLI overrides.
    pub fn with_cli(mut self, cli: &Cli) -> Self {
        if let Some(t) = cli.trials {
            self.trials = t;
        }
        if let Some(r) = cli.rounds {
            self.rounds = r;
        }
        if let Some(g) = cli.budget {
            self.g = g;
        }
        if let Some(s) = cli.seed {
            self.seed = s;
        }
        if let Some(f) = cli.faults {
            self.faults = f;
        }
        if let Some(b) = cli.bootstrap {
            self.bootstrap_replicates = b;
        }
        self
    }

    /// Preset + overrides in one call.
    pub fn from_cli(cli: &Cli) -> Self {
        Self::for_scale(cli.scale).with_cli(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags() {
        let cli = parse(&["--scale", "paper", "--trials", "3", "--budget", "123"]);
        assert_eq!(cli.scale, Scale::Paper);
        assert_eq!(cli.trials, Some(3));
        assert_eq!(cli.budget, Some(123));
        assert_eq!(cli.rounds, None);
    }

    #[test]
    fn defaults_are_default_scale() {
        let cli = parse(&[]);
        assert_eq!(cli.scale, Scale::Default);
        let cfg = BaseCfg::from_cli(&cli);
        assert_eq!(cfg.initial, 30_000);
    }

    #[test]
    fn overrides_apply() {
        let cli = parse(&["--rounds", "7", "--seed", "9"]);
        let cfg = BaseCfg::from_cli(&cli);
        assert_eq!(cfg.rounds, 7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.memo_capacity, DEFAULT_MEMO_CAPACITY, "default capacity");
    }

    #[test]
    fn bootstrap_flag_parses_and_applies() {
        assert_eq!(
            BaseCfg::from_cli(&parse(&[])).bootstrap_replicates,
            Some(1_000),
            "CIs on by default"
        );
        let cli = parse(&["--bootstrap", "250"]);
        assert_eq!(cli.bootstrap, Some(Some(250)));
        assert_eq!(BaseCfg::from_cli(&cli).bootstrap_replicates, Some(250));
        let off = parse(&["--bootstrap", "off"]);
        assert_eq!(off.bootstrap, Some(None));
        assert_eq!(BaseCfg::from_cli(&off).bootstrap_replicates, None);
    }

    #[test]
    #[should_panic(expected = "--bootstrap takes")]
    fn zero_bootstrap_replicates_panics() {
        parse(&["--bootstrap", "0"]);
    }

    #[test]
    fn faults_flag_parses_and_applies() {
        assert_eq!(BaseCfg::from_cli(&parse(&[])).faults, FaultsMode::Off, "off by default");
        let cli = parse(&["--faults", "seeded:0.25"]);
        assert_eq!(cli.faults, Some(FaultsMode::Seeded { rate: 0.25 }));
        assert_eq!(BaseCfg::from_cli(&cli).faults, FaultsMode::Seeded { rate: 0.25 });
        let cli = parse(&["--faults", "off"]);
        assert_eq!(cli.faults, Some(FaultsMode::Off));
        assert_eq!(BaseCfg::from_cli(&cli).faults, FaultsMode::Off);
    }

    #[test]
    #[should_panic(expected = "seeded:<rate in [0,1]>")]
    fn bogus_fault_spec_panics() {
        parse(&["--faults", "sometimes"]);
    }

    #[test]
    #[should_panic(expected = "seeded:<rate in [0,1]>")]
    fn out_of_range_fault_rate_panics() {
        parse(&["--faults", "seeded:1.5"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }
}
