//! Work counters pinned across commits. Every other equality suite compares
//! two paths of one build (eager vs. lazy frontier, compiled view vs.
//! `reaches_target`); this one holds INDEXEST, INDEXEST+, DELAYMAT and LAZY
//! to literals recorded on an earlier commit: for a handful of users and
//! k = 1..=4 on one small seeded model, the answer's tags and spread bits
//! and every `QueryStats` field but `elapsed`. A change that moves any of
//! them moves a benchmark's op list (stackbench's `routed_miss` picks its
//! users by `edges_visited`), so it must say so and re-record the table —
//! a failure prints the table as it now reads.

use pitex::prelude::*;

/// `(backend, user, k, tags, spread bits, [evaluated, infeasible, pruned,
/// bounds, samples, edges visited])`.
type Pin = (&'static str, NodeId, usize, &'static [TagId], u64, [u64; 6]);
/// A [`Pin`] as a query produces it.
type Row = (&'static str, NodeId, usize, Vec<TagId>, u64, [u64; 6]);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("INDEXEST", 0, 1, &[19], 0x4014000000000000, [50, 0, 0, 1, 21726, 35576]),
    ("INDEXEST", 0, 2, &[2, 27], 0x4015000000000000, [473, 752, 0, 51, 223224, 363886]),
    ("INDEXEST", 0, 3, &[6, 7, 45], 0x4015000000000000, [165, 471, 10654, 524, 293514, 482062]),
    ("INDEXEST", 0, 4, &[2, 6, 7, 45], 0x4015000000000000, [25, 75, 18348, 688, 303738, 498720]),
    ("INDEXEST", 158, 1, &[25], 0x3ff4000000000000, [50, 0, 0, 1, 306, 154]),
    ("INDEXEST", 158, 2, &[0, 4], 0x3ff4000000000000, [1, 0, 1224, 51, 312, 170]),
    ("INDEXEST", 158, 3, &[0, 4, 6], 0x3ff4000000000000, [1, 0, 1261, 79, 480, 255]),
    ("INDEXEST", 158, 4, &[0, 4, 6, 10], 0x3ff4000000000000, [1, 0, 1403, 106, 642, 336]),
    ("INDEXEST", 18, 1, &[2], 0x3ffbffffffffffff, [50, 0, 0, 1, 816, 550]),
    ("INDEXEST", 18, 2, &[6, 26], 0x3ffbffffffffffff, [102, 188, 935, 51, 2448, 1731]),
    ("INDEXEST", 18, 3, &[10, 23, 47], 0x3ffbffffffffffff, [20, 71, 2519, 153, 2768, 1992]),
    ("INDEXEST", 18, 4, &[10, 23, 32, 47], 0x3ffbffffffffffff, [5, 20, 3702, 148, 2448, 1788]),
    ("INDEXEST", 13, 1, &[38], 0x4000000000000000, [50, 0, 0, 1, 3060, 3202]),
    ("INDEXEST", 13, 2, &[5, 41], 0x4000000000000000, [398, 637, 190, 51, 26940, 28035]),
    ("INDEXEST", 13, 3, &[5, 7, 28], 0x4000000000000000, [41, 119, 5395, 449, 29400, 30683]),
    ("INDEXEST", 13, 4, &[5, 7, 9, 16], 0x4000000000000000, [5, 31, 12137, 507, 30720, 32057]),
    ("INDEXEST+", 0, 1, &[19], 0x4014000000000000, [50, 0, 0, 1, 21726, 4042]),
    ("INDEXEST+", 0, 2, &[2, 27], 0x4015000000000000, [473, 752, 0, 51, 223224, 58955]),
    ("INDEXEST+", 0, 3, &[6, 7, 45], 0x4015000000000000, [165, 471, 10654, 524, 293514, 82545]),
    ("INDEXEST+", 0, 4, &[2, 6, 7, 45], 0x4015000000000000, [25, 75, 18348, 688, 303738, 85267]),
    ("INDEXEST+", 158, 1, &[25], 0x3ff4000000000000, [50, 0, 0, 1, 306, 8]),
    ("INDEXEST+", 158, 2, &[0, 4], 0x3ff4000000000000, [1, 0, 1224, 51, 312, 68]),
    ("INDEXEST+", 158, 3, &[0, 4, 6], 0x3ff4000000000000, [1, 0, 1261, 79, 480, 92]),
    ("INDEXEST+", 158, 4, &[0, 4, 6, 10], 0x3ff4000000000000, [1, 0, 1403, 106, 642, 132]),
    ("INDEXEST+", 18, 1, &[2], 0x3ffbffffffffffff, [50, 0, 0, 1, 816, 37]),
    ("INDEXEST+", 18, 2, &[6, 26], 0x3ffbffffffffffff, [102, 188, 935, 51, 2448, 338]),
    ("INDEXEST+", 18, 3, &[10, 23, 47], 0x3ffbffffffffffff, [20, 71, 2519, 153, 2768, 441]),
    ("INDEXEST+", 18, 4, &[10, 23, 32, 47], 0x3ffbffffffffffff, [5, 20, 3702, 148, 2448, 434]),
    ("INDEXEST+", 13, 1, &[38], 0x4000000000000000, [50, 0, 0, 1, 3060, 381]),
    ("INDEXEST+", 13, 2, &[5, 41], 0x4000000000000000, [398, 637, 190, 51, 26940, 3831]),
    ("INDEXEST+", 13, 3, &[5, 7, 28], 0x4000000000000000, [41, 119, 5395, 449, 29400, 4527]),
    ("INDEXEST+", 13, 4, &[5, 7, 9, 16], 0x4000000000000000, [5, 31, 12137, 507, 30720, 4689]),
    ("DELAYMAT", 0, 1, &[48], 0x4012e7fda0115254, [50, 0, 0, 1, 21726, 3513]),
    ("DELAYMAT", 0, 2, &[2, 8], 0x40187739c787ba03, [457, 729, 39, 51, 216408, 51797]),
    ("DELAYMAT", 0, 3, &[6, 7, 45], 0x4016b3f4c142f6cb, [131, 348, 7919, 508, 272214, 71625]),
    ("DELAYMAT", 0, 4, &[2, 6, 7, 45], 0x4016b3f4c142f6cb, [21, 63, 9472, 630, 277326, 73573]),
    ("DELAYMAT", 158, 1, &[0], 0x3ff8000000000000, [1, 0, 49, 1, 12, 2]),
    ("DELAYMAT", 158, 2, &[0, 4], 0x3ff8000000000000, [1, 0, 54, 6, 42, 4]),
    ("DELAYMAT", 158, 3, &[0, 4, 6], 0x3ff8000000000000, [1, 0, 70, 12, 78, 8]),
    ("DELAYMAT", 158, 4, &[0, 4, 6, 10], 0x3ff8000000000000, [1, 0, 147, 26, 162, 17]),
    ("DELAYMAT", 18, 1, &[4], 0x4000f0f0f0f0f0f1, [50, 0, 0, 1, 816, 19]),
    ("DELAYMAT", 18, 2, &[6, 26], 0x4003c3c3c3c3c3c4, [11, 25, 125, 51, 992, 65]),
    ("DELAYMAT", 18, 3, &[10, 21, 23], 0x4003c3c3c3c3c3c4, [4, 89, 1628, 124, 2048, 80]),
    ("DELAYMAT", 18, 4, &[10, 21, 23, 30], 0x4003c3c3c3c3c3c4, [1, 80, 3109, 127, 2048, 73]),
    ("DELAYMAT", 13, 1, &[24], 0x40042a6a0916b8ce, [50, 0, 0, 1, 3060, 367]),
    ("DELAYMAT", 13, 2, &[17, 37], 0x40044ec4ec4ec4ed, [379, 602, 244, 51, 25800, 3365]),
    ("DELAYMAT", 13, 3, &[3, 21, 28], 0x400374a398fe7c36, [169, 423, 5009, 433, 36120, 4849]),
    ("DELAYMAT", 13, 4, &[3, 17, 21, 28], 0x400374a398fe7c36, [28, 77, 15228, 602, 37800, 5038]),
    ("LAZY", 0, 1, &[24], 0x4011186a06f9b8da, [50, 0, 0, 1, 349651, 791168]),
    ("LAZY", 0, 2, &[16, 42], 0x40148bc8165d7438, [473, 752, 0, 51, 1240987, 3826195]),
    ("LAZY", 0, 3, &[9, 16, 22], 0x4014a925ba9e832a, [173, 492, 6548, 524, 1695220, 5800110]),
    ("LAZY", 0, 4, &[9, 23, 32, 47], 0x40149e781b26372f, [24, 65, 14118, 694, 1952166, 6744683]),
    ("LAZY", 158, 1, &[40], 0x3ff1fb78121fb781, [50, 0, 0, 1, 25836, 9043]),
    ("LAZY", 158, 2, &[27, 39], 0x3ff2e6076b981dae, [55, 72, 1098, 51, 41115, 13669]),
    ("LAZY", 158, 3, &[1, 27, 39], 0x3ff2b2e43dafcea7, [2, 9, 3735, 108, 49451, 16511]),
    ("LAZY", 158, 4, &[1, 27, 33, 38], 0x3ff2a8dd8d2be7af, [6, 29, 5730, 177, 69212, 20275]),
    ("LAZY", 18, 1, &[37], 0x3ff25c87b5f9d4d2, [50, 0, 0, 1, 143961, 26342]),
    ("LAZY", 18, 2, &[4, 37], 0x3ff33b455c0f220d, [190, 315, 720, 51, 236798, 74710]),
    ("LAZY", 18, 3, &[4, 10, 26], 0x3ff314fbcda3ac11, [50, 233, 4566, 245, 299474, 98215]),
    ("LAZY", 18, 4, &[4, 10, 11, 36], 0x3ff2e766f255a313, [7, 71, 6103, 296, 327931, 108301]),
    ("LAZY", 13, 1, &[28], 0x400212557444fc1e, [50, 0, 0, 1, 411744, 326254]),
    ("LAZY", 13, 2, &[2, 28], 0x40030aa798553cc3, [465, 733, 27, 51, 849500, 1063087]),
    ("LAZY", 13, 3, &[2, 7, 28], 0x4002d2429309d18b, [161, 422, 8019, 516, 1128553, 1480502]),
    ("LAZY", 13, 4, &[2, 20, 34, 45], 0x4002dad41bb898e3, [16, 44, 17049, 671, 1301830, 1704219]),
];

fn engines<'a>(
    model: &'a TicModel,
    index: &'a RrIndex,
    delay: &'a DelayMatIndex,
) -> Vec<(&'static str, PitexEngine<'a>)> {
    let config = PitexConfig::default();
    vec![
        ("INDEXEST", PitexEngine::with_index(model, index, config)),
        ("INDEXEST+", PitexEngine::with_index_plus(model, index, config)),
        ("DELAYMAT", PitexEngine::with_delay(model, delay, config)),
        ("LAZY", PitexEngine::with_lazy(model, config)),
    ]
}

#[test]
fn answers_and_work_counters_equal_the_recorded_ones() {
    let model = DatasetProfile::lastfm_like().scaled(0.3).generate();
    let budget = IndexBudget::PerVertex(4.0);
    let index = RrIndex::build_with_threads(&model, budget, 5, 2);
    let delay = DelayMatIndex::build_with_threads(&model, budget, 5, 2);
    // Users by membership, dearest first; four spread over the order.
    let mut ranked: Vec<NodeId> = model.graph().nodes().collect();
    ranked.sort_by_key(|&u| (std::cmp::Reverse(index.membership_count(u)), u));
    let users: Vec<NodeId> = [0, 20, 5, 2].iter().map(|&d| ranked[ranked.len() / 50 * d]).collect();

    let mut rows: Vec<Row> = Vec::new();
    for (name, mut engine) in engines(&model, &index, &delay) {
        for &user in &users {
            for k in 1..=4 {
                let result = engine.query(user, k);
                let s = result.stats;
                let counts = [
                    s.tag_sets_evaluated,
                    s.tag_sets_infeasible,
                    s.partials_pruned,
                    s.bounds_computed,
                    s.samples_used,
                    s.edges_visited,
                ];
                let tags = result.tags.tags().to_vec();
                rows.push((name, user, k, tags, result.spread.to_bits(), counts));
            }
        }
    }

    let pinned: Vec<Row> = PINS
        .iter()
        .map(|&(name, user, k, tags, bits, counts)| (name, user, k, tags.to_vec(), bits, counts))
        .collect();
    if rows != pinned {
        let table: String = rows
            .iter()
            .map(|(name, user, k, tags, bits, counts)| {
                format!("    ({name:?}, {user}, {k}, &{tags:?}, {bits:#018x}, {counts:?}),\n")
            })
            .collect();
        panic!("the answers or work counters moved; they now read:\n{table}");
    }
}
