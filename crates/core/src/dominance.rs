//! Dominance scores and dominant-feature identification (paper §2.3).
//!
//! The dominance score of a feature `f = (e, a, v)` in a result `R` is the
//! value's occurrence count normalized by the *average* occurrence count of
//! its feature type:
//!
//! ```text
//! DS(f, R) = N(e,a,v) / ( N(e,a) / D(e,a) )
//! ```
//!
//! A feature is **dominant** iff `DS > 1`, with one exception: a domain of
//! size one (`D(e,a) = 1`) is trivially dominant even though its score is
//! exactly 1. Dominant features enter the IList in decreasing score order.

use std::cmp::Ordering;

use extract_analyzer::{FeatureType, ResultStats, ValueStats};
use extract_xml::{Document, Symbol};

/// A dominant feature of one query result.
#[derive(Debug, Clone, PartialEq)]
pub struct DominantFeature {
    /// The feature type `(e, a)`.
    pub ftype: FeatureType,
    /// The feature value `v`.
    pub value: String,
    /// `DS(f, R)`.
    pub score: f64,
    /// Whether dominance comes from the domain-size-1 exception.
    pub trivial: bool,
}

/// A ranked feature as the snippet kernel keeps it: a position in
/// [`ResultStats::values`] and its score — nothing copied out of the
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ranked {
    /// Position of the `(type, value)` in [`ResultStats::values`].
    pub(crate) value: usize,
    /// Its score.
    pub(crate) score: f64,
}

/// The dominance score of one feature, or `None` if the type is absent.
pub fn dominance_score(stats: &ResultStats<'_>, ftype: FeatureType, value: &str) -> Option<f64> {
    let n_type = stats.n_type(ftype);
    let d = stats.d_type(ftype);
    if n_type == 0 || d == 0 {
        return None;
    }
    Some(stats.n_value(ftype, value) as f64 * d as f64 / n_type as f64)
}

/// Sort `items` by `rank`, breaking its ties by `text`: one sort by `rank`
/// alone, then one sort of each run of equal rank by `text` — the only
/// compares that read text. `text` must order every run totally (labels
/// are interned once, so two labels of one document differ in text when
/// they differ in symbol), which makes the unstable sorts give the one
/// answer.
pub(crate) fn sort_ties_by_text<T>(
    items: &mut [T],
    rank: impl Fn(&T, &T) -> Ordering,
    mut text: impl FnMut(&T, &T) -> Ordering,
) {
    items.sort_unstable_by(&rank);
    for run in items.chunk_by_mut(|a, b| rank(a, b) == Ordering::Equal) {
        if run.len() > 1 {
            run.sort_unstable_by(&mut text);
        }
    }
}

/// The text order of two labels of `doc`, read only when they differ.
pub(crate) fn label_order(doc: &Document, a: Symbol, b: Symbol) -> Ordering {
    if a == b {
        Ordering::Equal
    } else {
        doc.resolve(a).cmp(doc.resolve(b))
    }
}

/// The features of a result that `score` ranks — a score from a value's
/// `(N(e,a,v), N(e,a), D(e,a))`, `None` to leave it out — into `out`,
/// sorted by decreasing score, then `(entity, attribute, value)` text: a
/// total order, since a `(type, value)` pair occurs once. Scores read only
/// counts, and text is read only to order equal scores. Warm, `out`
/// allocates nothing.
fn rank_into(
    doc: &Document,
    stats: &ResultStats<'_>,
    score: impl Fn(u32, u32, u32) -> Option<f64>,
    out: &mut Vec<Ranked>,
) {
    out.clear();
    for value in 0.. {
        let Some((count, total, distinct)) = stats.counts(value) else { break };
        if let Some(score) = score(count, total, distinct) {
            out.push(Ranked { value, score });
        }
    }
    // Labels are compared by symbol first, and values only within a type.
    let text = |a: &Ranked, b: &Ranked| {
        let (Some(x), Some(y)) = (stats.value_type(a.value), stats.value_type(b.value)) else {
            return Ordering::Equal;
        };
        label_order(doc, x.entity, y.entity)
            .then_with(|| label_order(doc, x.attribute, y.attribute))
            .then_with(|| stats.value_text(a.value).cmp(&stats.value_text(b.value)))
    };
    sort_ties_by_text(out, |a, b| b.score.total_cmp(&a.score), text);
}

/// The dominant features of a result into `out`, sorted by decreasing
/// score, then `(entity, attribute, value)` text — a total, deterministic
/// order. Warm, `out` allocates nothing.
pub(crate) fn dominant_into(doc: &Document, stats: &ResultStats<'_>, out: &mut Vec<Ranked>) {
    let dominant = |count: u32, total: u32, distinct: u32| {
        let score = f64::from(count) * f64::from(distinct) / f64::from(total);
        (score > 1.0 || distinct == 1).then_some(score)
    };
    rank_into(doc, stats, dominant, out);
}

/// All dominant features of a result, sorted by decreasing score, then
/// `(entity, attribute, value)` labels — a total, deterministic order.
pub fn dominant_features(doc: &Document, stats: &ResultStats<'_>) -> Vec<DominantFeature> {
    let mut ranked = Vec::new();
    dominant_into(doc, stats, &mut ranked);
    owned(stats, &ranked, |v| v.type_distinct == 1)
}

fn owned(
    stats: &ResultStats<'_>,
    ranked: &[Ranked],
    trivial: impl Fn(&ValueStats<'_>) -> bool,
) -> Vec<DominantFeature> {
    ranked
        .iter()
        .filter_map(|r| {
            let v = stats.value(r.value)?;
            Some(DominantFeature {
                ftype: v.ftype,
                value: v.value.to_string(),
                score: r.score,
                trivial: trivial(&v),
            })
        })
        .collect()
}

/// Ablation of the paper's §2.3 argument: rank features by **raw occurrence
/// count** instead of the normalized dominance score. The paper argues this
/// is unreliable — "though the number of occurrences of feature Houston is
/// much less than that of children, it should be considered as more
/// dominant". Experiment E12 uses this ranking to show exactly that
/// failure: with raw counts, high-frequency low-signal values (casual, man)
/// crowd out Houston entirely.
pub fn features_by_raw_frequency(doc: &Document, stats: &ResultStats<'_>) -> Vec<DominantFeature> {
    let mut ranked = Vec::new();
    let raw = |count: u32, _, _| Some(f64::from(count));
    rank_into(doc, stats, raw, &mut ranked);
    owned(stats, &ranked, |_| false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_analyzer::EntityModel;

    fn setup() -> Document {
        // cities: Houston 3, Austin 1 → D=2, N=4, DS(Houston)=1.5,
        // DS(Austin)=0.5. fitting: man 2, woman 1, children 1 → D=3, N=4,
        // DS(man)=1.5, others 0.75. state: Texas only → trivial.
        Document::parse_str(
            "<r>\
             <store><city>Houston</city><state>Texas</state><f>man</f></store>\
             <store><city>Houston</city><state>Texas</state><f>man</f></store>\
             <store><city>Houston</city><state>Texas</state><f>woman</f></store>\
             <store><city>Austin</city><state>Texas</state><f>children</f></store>\
             </r>",
        )
        .unwrap()
    }

    fn stats_of(doc: &Document) -> ResultStats<'_> {
        ResultStats::compute(doc, &EntityModel::analyze(doc), doc.root())
    }

    fn ft(doc: &Document, e: &str, a: &str) -> FeatureType {
        FeatureType {
            entity: doc.symbols().get(e).unwrap(),
            attribute: doc.symbols().get(a).unwrap(),
        }
    }

    #[test]
    fn scores_match_the_formula() {
        let doc = setup();
        let stats = stats_of(&doc);
        let city = ft(&doc, "store", "city");
        assert_eq!(dominance_score(&stats, city, "Houston"), Some(1.5));
        assert_eq!(dominance_score(&stats, city, "Austin"), Some(0.5));
        assert_eq!(dominance_score(&stats, city, "Dallas"), Some(0.0));
    }

    #[test]
    fn unknown_type_has_no_score() {
        let doc = setup();
        let stats = stats_of(&doc);
        let mut d2 = doc.clone();
        let bogus = d2.intern("zzz");
        let ft = FeatureType { entity: bogus, attribute: bogus };
        assert_eq!(dominance_score(&stats, ft, "x"), None);
    }

    #[test]
    fn dominant_set_is_correct() {
        let doc = setup();
        let stats = stats_of(&doc);
        let doms = dominant_features(&doc, &stats);
        let values: Vec<&str> = doms.iter().map(|d| d.value.as_str()).collect();
        assert!(values.contains(&"Houston"));
        assert!(values.contains(&"man"));
        assert!(values.contains(&"Texas"), "trivial domain-1 dominance");
        assert!(!values.contains(&"Austin"));
        assert!(!values.contains(&"woman"));
    }

    #[test]
    fn trivial_features_score_one_and_sort_last() {
        let doc = setup();
        let stats = stats_of(&doc);
        let doms = dominant_features(&doc, &stats);
        let texas = doms.iter().find(|d| d.value == "Texas").unwrap();
        assert!(texas.trivial);
        assert_eq!(texas.score, 1.0);
        assert_eq!(doms.last().unwrap().value, "Texas");
        // Non-trivial ones sorted by score descending.
        for w in doms.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn score_exactly_one_with_larger_domain_is_not_dominant() {
        // Two values, each appearing once: DS = 1.0 for both, D = 2 ⇒ none
        // dominant.
        let doc = Document::parse_str(
            "<r><s><c>a</c></s><s><c>b</c></s></r>",
        )
        .unwrap();
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        assert!(dominant_features(&doc, &stats).is_empty());
    }

    #[test]
    fn ordering_is_deterministic_on_ties() {
        // Two types with identical score profiles; order must be stable by
        // label/value.
        let doc = Document::parse_str(
            "<r>\
             <s><a>x</a><b>q</b></s>\
             <s><a>x</a><b>q</b></s>\
             <s><a>y</a><b>p</b></s>\
             </r>",
        )
        .unwrap();
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        let doms = dominant_features(&doc, &stats);
        // DS(x)=DS(q)=4/3; ties broken by attribute label: a before b.
        assert_eq!(doms.len(), 2);
        assert_eq!(doms[0].value, "x");
        assert_eq!(doms[1].value, "q");
    }

    #[test]
    fn ties_order_by_label_text_not_by_interning_order() {
        // `zeta` before `alpha` and `b` before `a` in the label table, so
        // symbol order is the reverse of text order on every tie.
        let doc = Document::parse_str(
            "<r>\
             <zeta><b>q</b><a>x</a></zeta>\
             <zeta><b>q</b><a>x</a></zeta>\
             <zeta><b>p</b><a>y</a></zeta>\
             <alpha><b>q</b></alpha>\
             <alpha><b>q</b></alpha>\
             <alpha><b>p</b></alpha>\
             </r>",
        )
        .unwrap();
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        let doms = dominant_features(&doc, &stats);
        // DS = 4/3 for all three: (alpha, b, q), (zeta, a, x), (zeta, b, q).
        let order: Vec<(&str, &str, &str)> = doms
            .iter()
            .map(|d| (doc.resolve(d.ftype.entity), doc.resolve(d.ftype.attribute), &*d.value))
            .collect();
        assert_eq!(order, [("alpha", "b", "q"), ("zeta", "a", "x"), ("zeta", "b", "q")]);
    }

    #[test]
    fn tied_values_of_one_type_order_by_text_not_by_the_statistics_order() {
        // The statistics order values by (first eight bytes, length, rest):
        // `abcdefghZ` before `abcdefghAA`. The text order is the reverse.
        let doc = Document::parse_str(
            "<r>\
             <s><c>abcdefghZ</c></s><s><c>abcdefghZ</c></s>\
             <s><c>abcdefghAA</c></s><s><c>abcdefghAA</c></s>\
             <s><c>q</c></s>\
             </r>",
        )
        .unwrap();
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        let values: Vec<String> = dominant_features(&doc, &stats).into_iter().map(|d| d.value).collect();
        // DS = 2·3/5 = 1.2 for both; `q` scores 0.6.
        assert_eq!(values, ["abcdefghAA", "abcdefghZ"]);
    }

    #[test]
    fn raw_frequency_ranking_buries_low_count_dominant_values() {
        let doc = setup();
        let stats = stats_of(&doc);
        // DS ranking puts Houston (3 of 4 cities) on top among city values;
        // raw ranking ranks by absolute count where Texas (4) and man/…
        // compete. The orders must differ on this data.
        let raw = features_by_raw_frequency(&doc, &stats);
        assert_eq!(raw[0].value, "Texas", "raw: the most frequent value wins");
        assert_eq!(raw[0].score, 4.0);
        let ds = dominant_features(&doc, &stats);
        assert_eq!(ds[0].value, "Houston", "DS: the most *dominant* value wins");
    }

    #[test]
    fn raw_ranking_is_deterministic_and_complete() {
        let doc = setup();
        let stats = stats_of(&doc);
        let raw = features_by_raw_frequency(&doc, &stats);
        // Every (type, value) pair appears exactly once.
        let total: usize = stats
            .feature_types()
            .map(|ft| stats.value_table(ft).len())
            .sum();
        assert_eq!(raw.len(), total);
        for w in raw.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn figure1_arithmetic() {
        // The published example: DS(Houston) = 6/(10/5) = 3.0.
        assert_eq!(6.0 * 5.0 / 10.0, 3.0);
        // DS(man) = 600/(1000/3) = 1.8, DS(woman) ≈ 1.08.
        assert!((600.0_f64 * 3.0 / 1000.0 - 1.8).abs() < 1e-12);
        assert!((360.0_f64 * 3.0 / 1000.0 - 1.08).abs() < 1e-12);
        // DS(casual) = 700/(1000/2) = 1.4.
        assert!((700.0_f64 * 2.0 / 1000.0 - 1.4).abs() < 1e-12);
        // DS(outwear) = 220/(1070/11) ≈ 2.26, DS(suit) ≈ 1.23.
        assert!((220.0_f64 * 11.0 / 1070.0 - 2.2617).abs() < 1e-3);
        assert!((120.0_f64 * 11.0 / 1070.0 - 1.2336).abs() < 1e-3);
    }
}
