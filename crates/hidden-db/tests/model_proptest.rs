//! Model-based property tests: the indexed, memoised, slot-reusing
//! database must behave exactly like a naive in-memory reference model
//! under arbitrary operation sequences and all expressible queries.

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::value::{AttrId, TupleKey, ValueId};
use proptest::prelude::*;

const DOMAINS: [u32; 2] = [2, 3];

#[derive(Debug, Clone)]
enum Op {
    Insert {
        a0: u32,
        a1: u32,
        m: i32,
    },
    /// Deletes the `idx % alive`-th alive key (no-op when empty).
    Delete {
        idx: usize,
    },
    /// Updates measures of the `idx % alive`-th alive key (no-op when empty).
    Update {
        idx: usize,
        m: i32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..DOMAINS[0], 0..DOMAINS[1], -50..50i32)
            .prop_map(|(a0, a1, m)| Op::Insert { a0, a1, m }),
        1 => (0..64usize).prop_map(|idx| Op::Delete { idx }),
        1 => (0..64usize, -50..50i32).prop_map(|(idx, m)| Op::Update { idx, m }),
    ]
}

/// The naive reference: a vector of alive rows.
#[derive(Default)]
struct Model {
    rows: Vec<(u64, [u32; 2], f64)>,
    next_key: u64,
}

impl Model {
    fn alive_sorted_keys(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.rows.iter().map(|r| r.0).collect();
        v.sort_unstable();
        v
    }

    /// Reference answer: matching rows ranked newest-first, truncated at k.
    fn answer(&self, q: &[(usize, u32)], k: usize) -> (bool, Vec<u64>) {
        let mut matches: Vec<&(u64, [u32; 2], f64)> =
            self.rows.iter().filter(|(_, vals, _)| q.iter().all(|&(a, v)| vals[a] == v)).collect();
        matches.sort_by_key(|r| std::cmp::Reverse(r.0));
        let overflow = matches.len() > k;
        (overflow, matches.iter().take(k).map(|r| r.0).collect())
    }
}

fn apply(db: &mut HiddenDatabase, model: &mut Model, op: &Op) {
    match *op {
        Op::Insert { a0, a1, m } => {
            let key = model.next_key;
            model.next_key += 1;
            db.insert(Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![m as f64]))
                .expect("insert valid tuple");
            model.rows.push((key, [a0, a1], m as f64));
        }
        Op::Delete { idx } => {
            if model.rows.is_empty() {
                return;
            }
            let keys = model.alive_sorted_keys();
            let key = keys[idx % keys.len()];
            db.delete(TupleKey(key)).expect("delete alive key");
            model.rows.retain(|r| r.0 != key);
        }
        Op::Update { idx, m } => {
            if model.rows.is_empty() {
                return;
            }
            let keys = model.alive_sorted_keys();
            let key = keys[idx % keys.len()];
            db.update_measures(TupleKey(key), vec![m as f64]).expect("update alive key");
            for r in &mut model.rows {
                if r.0 == key {
                    r.2 = m as f64;
                }
            }
        }
    }
}

/// All conjunctive queries with ≤ 2 predicates over the tiny schema.
fn all_queries() -> Vec<(Vec<(usize, u32)>, ConjunctiveQuery)> {
    let mut out = vec![(vec![], ConjunctiveQuery::select_all())];
    for v0 in 0..DOMAINS[0] {
        out.push((
            vec![(0, v0)],
            ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(v0))]),
        ));
    }
    for v1 in 0..DOMAINS[1] {
        out.push((
            vec![(1, v1)],
            ConjunctiveQuery::from_predicates([Predicate::new(AttrId(1), ValueId(v1))]),
        ));
    }
    for v0 in 0..DOMAINS[0] {
        for v1 in 0..DOMAINS[1] {
            out.push((
                vec![(0, v0), (1, v1)],
                ConjunctiveQuery::from_predicates([
                    Predicate::new(AttrId(0), ValueId(v0)),
                    Predicate::new(AttrId(1), ValueId(v1)),
                ]),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn database_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..80),
        k in 1..6usize,
    ) {
        let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
        // NewestFirst makes the hidden ranking equal to key order, which
        // the reference model can reproduce exactly.
        let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::NewestFirst);
        let mut model = Model::default();
        for op in &ops {
            apply(&mut db, &mut model, op);
            prop_assert_eq!(db.len(), model.rows.len());
        }
        prop_assert_eq!(
            db.alive_keys_sorted().iter().map(|k| k.0).collect::<Vec<_>>(),
            model.alive_sorted_keys()
        );
        for (raw, query) in all_queries() {
            let (want_overflow, want_keys) = model.answer(&raw, k);
            let out = db.answer(&query);
            prop_assert_eq!(
                out.is_overflow(),
                want_overflow,
                "overflow mismatch on {}", query
            );
            let got_keys: Vec<u64> = out.tuples().map(|t| t.key().0).collect();
            prop_assert_eq!(&got_keys, &want_keys, "result mismatch on {}", query);
            // Every returned tuple carries the model row's values, and
            // measures that reflect the latest updates.
            for t in out.tuples() {
                let (_, vals, model_m) = *model.rows.iter().find(|r| r.0 == t.key().0).unwrap();
                prop_assert_eq!(t.values(), &[ValueId(vals[0]), ValueId(vals[1])][..]);
                prop_assert_eq!(t.measures()[0], model_m);
            }
            // Exact counts agree too.
            let model_count = model
                .rows
                .iter()
                .filter(|(_, vals, _)| raw.iter().all(|&(a, v)| vals[a] == v))
                .count() as u64;
            prop_assert_eq!(db.exact_count(Some(&query)), model_count);
        }
    }

    #[test]
    fn memoisation_is_transparent(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        // Asking the same query twice (cache hit) must give the same
        // answer, and mutations must invalidate.
        let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 3, ScoringPolicy::NewestFirst);
        let mut model = Model::default();
        let root = ConjunctiveQuery::select_all();
        for op in &ops {
            apply(&mut db, &mut model, op);
            let first = db.answer(&root);
            let second = db.answer(&root);
            prop_assert_eq!(first, second);
        }
    }
}
