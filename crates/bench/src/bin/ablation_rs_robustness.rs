//! Ablation: the RS robustness guards (the deviations documented on
//! `RsConfig::fresh_weight_floor` and `RsConfig::process_noise`) vs the
//! paper's exact rule. Runs the default tracking workload with each RS
//! configuration and prints tail relative errors.
//!
//! ```sh
//! cargo run --release -p aggtrack-bench --bin ablation_rs_robustness
//! ```

use aggtrack_bench::cli::{BaseCfg, Cli};
use aggtrack_bench::runner::{count_star_tracked, tail_mean, track, AlgoKind};
use aggtrack_core::RsConfig;

fn main() {
    let cli = Cli::parse();
    let mut cfg = BaseCfg::from_cli(&cli);
    if cli.rounds.is_none() {
        cfg.rounds = cfg.rounds.min(35);
    }
    let variants: [(&str, RsConfig); 4] = [
        (
            "paper_exact",
            RsConfig {
                fresh_weight_floor: 0.0,
                process_noise: 0.0,
                max_staleness: u32::MAX,
                ..RsConfig::default()
            },
        ),
        (
            "floor_only",
            RsConfig {
                fresh_weight_floor: 0.2,
                process_noise: 0.0,
                max_staleness: u32::MAX,
                ..RsConfig::default()
            },
        ),
        (
            "floor_and_noise",
            RsConfig {
                fresh_weight_floor: 0.2,
                process_noise: 0.1,
                max_staleness: u32::MAX,
                ..RsConfig::default()
            },
        ),
        ("robust_defaults", RsConfig::default()),
    ];
    println!("# Ablation: RS robustness guards (tail mean relative error, COUNT(*))");
    println!("variant,tail_rel_err");
    for (name, rs_cfg) in variants {
        let out = track(&cfg, &[AlgoKind::Rs], rs_cfg, &count_star_tracked);
        println!("{name},{:.6}", tail_mean(&out.algos[0].rel_err, 5));
    }
}
