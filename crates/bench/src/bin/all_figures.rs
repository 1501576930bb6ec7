//! Runs every figure harness (use --scale quick for a smoke run). At
//! `--scale quick` and the default scale, stdout must equal the golden
//! files `crates/bench/tests/golden/all_figures_quick.txt` and
//! `all_figures_default.txt`.
//!
//! Figures are independent, so they run concurrently. The thread budget
//! (`AGGTRACK_THREADS` or the machine's parallelism) is **divided**
//! between the two nesting levels — figure-level fan-out × per-figure
//! trial pools ≈ the budget — so nested pools never multiply into
//! figures × budget workers. Every figure's CSV is captured per-thread
//! and printed in figure order, so stdout is byte-identical to the
//! sequential run; progress lines go to stderr as figures finish.
use aggtrack_bench::runner::capture_csv;
use aggtrack_bench::{figures, Cli};
use aggtrack_parallel::{par_run, Threads};

/// A figure-harness entry: name and runner.
type FigureEntry = (&'static str, fn(&Cli));

fn main() {
    let cli = Cli::parse();
    let figs: [FigureEntry; 20] = [
        ("fig02", figures::fig02),
        ("fig03", figures::fig03),
        ("fig04", figures::fig04),
        ("fig05", figures::fig05),
        ("fig06", figures::fig06),
        ("fig07", figures::fig07),
        ("fig08", figures::fig08),
        ("fig09", figures::fig09),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("fig13", figures::fig13),
        ("fig14", figures::fig14),
        ("fig15", figures::fig15),
        ("fig16", figures::fig16),
        ("fig17", figures::fig17),
        ("fig18", figures::fig18),
        ("fig19", figures::fig19),
        ("fig20", figures::fig20),
        ("fig21", figures::fig21),
    ];
    let total_start = std::time::Instant::now();
    // Split the thread budget across the two levels: N budget threads
    // become F concurrent figures × N/F threads inside each figure's
    // trial loop (the inner pools read AGGTRACK_THREADS, set here before
    // any worker spawns).
    let budget = Threads::Auto.resolve(usize::MAX);
    let fig_workers = budget.min(figs.len());
    let inner_threads = (budget / fig_workers).max(1);
    std::env::set_var("AGGTRACK_THREADS", inner_threads.to_string());
    let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = figs
        .into_iter()
        .map(|(name, f)| {
            let cli = cli.clone();
            Box::new(move || {
                let start = std::time::Instant::now();
                let csv = capture_csv(|| f(&cli));
                eprintln!(">>> {name} done in {:.1?}", start.elapsed());
                csv
            }) as Box<dyn FnOnce() -> String + Send>
        })
        .collect();
    for csv in par_run(jobs, Threads::fixed(fig_workers)) {
        print!("{csv}");
    }
    eprintln!(">>> all figures done in {:.1?}", total_start.elapsed());
}
