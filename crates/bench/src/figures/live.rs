//! Figures 20–21: the (simulated) live experiments. Unlike the paper's
//! live runs we have ground truth, so both figures also report error.

use agg_stats::error::relative_error;
use aggtrack_core::{
    AggKind, AggregateSpec, Estimator, ReissueEstimator, RestartEstimator, RsEstimator, TupleFn,
};
use hidden_db::query::ConjunctiveQuery;
use hidden_db::session::SearchSession;
use hidden_db::value::ValueId;
use query_tree::QueryTree;
use std::sync::Arc;
use workloads::amazon::{self, DAY_LABELS};
use workloads::ebay::{self, attrs as ebay_attrs};
use workloads::{AmazonSim, EbaySim};

use crate::cli::{Cli, Scale};
use crate::runner::print_csv;

/// Fig 20: AVG price, % men's, % wrist over Thanksgiving week, k = 100,
/// 1 000 queries/day (333 per tracked aggregate), RS-ESTIMATOR.
pub fn fig20(cli: &Cli) {
    let n = match cli.scale {
        Scale::Quick => 4_000,
        _ => 15_000,
    };
    let (mut db, mut sim) = AmazonSim::build(n, cli.seed.unwrap_or(42));
    let tree = QueryTree::full(&db.schema().clone());
    let g = cli.budget.unwrap_or(333);

    let mut price = RsEstimator::new(
        AggregateSpec::avg_measure(amazon::PRICE, ConjunctiveQuery::select_all()),
        tree.clone(),
        1,
    );
    let proportion = |attr, value: ValueId, seed| {
        let f = TupleFn::Custom(Arc::new(move |t: &hidden_db::tuple::TupleView<'_>| {
            (t.value(attr) == value) as u8 as f64
        }));
        RsEstimator::new(
            AggregateSpec {
                kind: AggKind::Avg,
                value_fn: f,
                condition: ConjunctiveQuery::select_all(),
                filter: None,
            },
            tree.clone(),
            seed,
        )
    };
    let mut men = proportion(amazon::attrs::DEPARTMENT, amazon::attrs::MEN, 2);
    let mut wrist = proportion(amazon::attrs::STYLE, amazon::attrs::WRIST, 3);

    let mut cols: Vec<(&str, Vec<f64>)> = vec![
        ("price_est", vec![]),
        ("price_true", vec![]),
        ("men_est", vec![]),
        ("men_true", vec![]),
        ("wrist_est", vec![]),
        ("wrist_true", vec![]),
    ];
    let mut xs = Vec::new();
    for (day, label) in DAY_LABELS.iter().enumerate() {
        let batch = sim.batch_for_day(&db, day);
        db.apply(batch).unwrap();
        xs.push(label.to_string());
        let run = |est: &mut RsEstimator, db: &mut hidden_db::HiddenDatabase| {
            let mut s = SearchSession::new(db, g);
            est.run_round(&mut s).avg().unwrap_or(f64::NAN)
        };
        let pe = run(&mut price, &mut db);
        let me = run(&mut men, &mut db);
        let we = run(&mut wrist, &mut db);
        cols[0].1.push(pe);
        cols[1].1.push(AmazonSim::true_avg_price(&db));
        cols[2].1.push(me);
        cols[3].1.push(AmazonSim::true_frac_men(&db));
        cols[4].1.push(we);
        cols[5].1.push(AmazonSim::true_frac_wrist(&db));
    }
    print_csv(
        "Fig 20: simulated Amazon watch store, Thanksgiving week (RS tracker)",
        "day",
        &xs,
        &cols,
    );
}

/// Fig 21: simulated eBay, AVG price of FIX vs BID listings, hourly
/// 1pm–9pm, 250 queries/hour per algorithm, all three estimators.
pub fn fig21(cli: &Cli) {
    let (n_fix, n_bid) = match cli.scale {
        Scale::Quick => (2_000, 3_000),
        _ => (8_000, 12_000),
    };
    let (mut db, mut sim) = EbaySim::build(n_fix, n_bid, cli.seed.unwrap_or(7));
    let tree = QueryTree::full(&db.schema().clone());
    let g = cli.budget.unwrap_or(250);
    let hours = cli.rounds.unwrap_or(8);

    let spec = |segment: ValueId| {
        AggregateSpec::avg_measure(ebay::PRICE, EbaySim::segment_condition(segment))
    };
    let mut estimators: Vec<(String, ValueId, Box<dyn Estimator>)> = Vec::new();
    for (seg_name, seg) in [("FIX", ebay_attrs::FIX), ("BID", ebay_attrs::BID)] {
        estimators.push((
            format!("RESTART_{seg_name}"),
            seg,
            Box::new(RestartEstimator::new(spec(seg), tree.clone(), 100)),
        ));
        estimators.push((
            format!("REISSUE_{seg_name}"),
            seg,
            Box::new(ReissueEstimator::new(spec(seg), tree.clone(), 101)),
        ));
        estimators.push((
            format!("RS_{seg_name}"),
            seg,
            Box::new(RsEstimator::new(spec(seg), tree.clone(), 102)),
        ));
    }

    let mut xs = Vec::new();
    let mut est_cols: Vec<Vec<f64>> = vec![Vec::new(); estimators.len()];
    let mut err_cols: Vec<Vec<f64>> = vec![Vec::new(); estimators.len()];
    let mut truth_fix = Vec::new();
    let mut truth_bid = Vec::new();
    for hour in 0..hours {
        xs.push(format!("{}pm", hour + 1));
        let t_fix = EbaySim::true_avg_price(&db, ebay_attrs::FIX);
        let t_bid = EbaySim::true_avg_price(&db, ebay_attrs::BID);
        truth_fix.push(t_fix);
        truth_bid.push(t_bid);
        for (i, (_, seg, est)) in estimators.iter_mut().enumerate() {
            let truth = if *seg == ebay_attrs::FIX { t_fix } else { t_bid };
            let mut s = SearchSession::new(&mut db, g);
            let avg = est.run_round(&mut s).avg().unwrap_or(f64::NAN);
            est_cols[i].push(avg);
            err_cols[i].push(relative_error(avg, truth));
        }
        let batch = sim.batch_for_hour(&db);
        db.apply(batch).unwrap();
    }
    let mut cols: Vec<(String, Vec<f64>)> =
        vec![("true_FIX".to_string(), truth_fix), ("true_BID".to_string(), truth_bid)];
    for (i, (name, _, _)) in estimators.iter().enumerate() {
        cols.push((name.clone(), est_cols[i].clone()));
        cols.push((format!("{name}_relerr"), err_cols[i].clone()));
    }
    let named: Vec<(&str, Vec<f64>)> = cols.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    print_csv("Fig 21: simulated eBay, AVG price per segment per algorithm", "hour", &xs, &named);
}
