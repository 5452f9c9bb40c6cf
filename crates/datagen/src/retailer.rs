//! The paper's running example: retailer / store / clothes data.
//!
//! [`figure1_db`] builds a database whose "Brook Brothers" retailer subtree
//! reproduces the value-occurrence statistics published in Figure 1 of the
//! paper **exactly**. Those statistics pin down every dominance score the
//! paper reports (§2.3):
//!
//! ```text
//! DS(Houston) = 6 / (10/5)      = 3.0
//! DS(outwear) = 220 / (1070/11) ≈ 2.26   (reported as 2.2)
//! DS(man)     = 600 / (1000/3)  = 1.8
//! DS(casual)  = 700 / (1000/2)  = 1.4
//! DS(suit)    = 120 / (1070/11) ≈ 1.23   (reported as 1.2)
//! DS(woman)   = 360 / (1000/3)  ≈ 1.08   (reported as 1.1)
//! ```
//!
//! Note `N(clothes, category) = 220+120+80+70+580 = 1070` while
//! `N(clothes, fitting) = N(clothes, situation) = 1000`: the paper's
//! numbers imply 1070 clothes of which 70 lack `fitting` and 70 lack
//! `situation`. The first clothes of the first store is `(man, –, suit)`
//! and the third is `(woman, casual, outwear)` so the greedy instance
//! selector reproduces the Figure 2 snippet verbatim.
//!
//! [`demo_store_db`] mirrors the Figure 5 demo session: a store database
//! where the query "store texas" yields the *Levis* store (jeans, man) and
//! the *ESprit* store (outwear, woman).

use extract_xml::{DocBuilder, Document, NodeId};
use rand::Rng;

use crate::rng::{seeded, Zipf};
use crate::vocab;

/// Fitting / situation / category of one clothes entity (absent values are
/// omitted from the XML).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClothesSpec {
    /// `fitting` value, if present.
    pub fitting: Option<&'static str>,
    /// `situation` value, if present.
    pub situation: Option<&'static str>,
    /// `category` value (always present).
    pub category: &'static str,
}

/// The exact clothes population of the Figure 1 query result: 1070 specs
/// with fitting = man 600 / woman 360 / children 40 / absent 70; situation
/// = casual 700 / formal 300 / absent 70; category = outwear 220, suit 120,
/// skirt 80, sweaters 70 and seven other categories totalling 580.
fn figure1_clothes_specs() -> Vec<ClothesSpec> {
    const TOTAL: usize = 1070;
    let fittings: &[(Option<&str>, usize)] =
        &[(Some("man"), 600), (Some("woman"), 360), (Some("children"), 40), (None, 70)];
    let situations: &[(Option<&str>, usize)] =
        &[(Some("casual"), 700), (Some("formal"), 300), (None, 70)];
    // 220+120+80+70 + (90+88+86+84+82+80+70 = 580) = 1070; every "other"
    // category stays below the 1070/11 ≈ 97.3 average, so exactly the four
    // named categories can be dominant and only two (outwear, suit) are.
    let categories: &[(&str, usize)] = &[
        ("outwear", 220),
        ("suit", 120),
        ("skirt", 80),
        ("sweaters", 70),
        ("jeans", 90),
        ("shirts", 88),
        ("dresses", 86),
        ("jackets", 84),
        ("pants", 82),
        ("hats", 80),
        ("socks", 70),
    ];

    fn expand<T: Copy>(counts: &[(T, usize)], total: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(total);
        for &(v, n) in counts {
            out.extend(std::iter::repeat_n(v, n));
        }
        assert_eq!(out.len(), total, "count table must sum to {total}");
        out
    }

    // Decorrelate the three fields with stride permutations (strides
    // coprime to 1070 = 2·5·107), keeping everything deterministic.
    fn stride_permute<T: Copy>(values: &[T], stride: usize) -> Vec<T> {
        let n = values.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(values[(i * stride + 1) % n]);
        }
        out
    }

    let fit = expand(fittings, TOTAL);
    let sit = stride_permute(&expand(situations, TOTAL), 7);
    let cat = stride_permute(&expand(categories, TOTAL), 13);

    let mut specs: Vec<ClothesSpec> = (0..TOTAL)
        .map(|i| ClothesSpec { fitting: fit[i], situation: sit[i], category: cat[i] })
        .collect();

    // Pin the three clothes the Figure 2 snippet walk relies on (value
    // swaps preserve all per-field counts). Positions 0..3 are the first
    // clothes of store 1 (Galleria, Houston).
    force_fitting(&mut specs, 0, Some("man"));
    force_situation(&mut specs, 0, None);
    force_category(&mut specs, 0, "suit");
    force_fitting(&mut specs, 1, Some("man"));
    force_situation(&mut specs, 1, Some("formal"));
    force_category(&mut specs, 1, "jeans");
    force_fitting(&mut specs, 2, Some("woman"));
    force_situation(&mut specs, 2, Some("casual"));
    force_category(&mut specs, 2, "outwear");
    specs
}

const PINNED: usize = 3;

fn force_fitting(specs: &mut [ClothesSpec], at: usize, want: Option<&'static str>) {
    if specs[at].fitting == want {
        return;
    }
    let j = (PINNED..specs.len())
        .find(|&j| specs[j].fitting == want)
        .expect("a donor spec with the wanted fitting exists");
    let tmp = specs[at].fitting;
    specs[at].fitting = specs[j].fitting;
    specs[j].fitting = tmp;
}

fn force_situation(specs: &mut [ClothesSpec], at: usize, want: Option<&'static str>) {
    if specs[at].situation == want {
        return;
    }
    let j = (PINNED..specs.len())
        .find(|&j| specs[j].situation == want)
        .expect("a donor spec with the wanted situation exists");
    let tmp = specs[at].situation;
    specs[at].situation = specs[j].situation;
    specs[j].situation = tmp;
}

fn force_category(specs: &mut [ClothesSpec], at: usize, want: &'static str) {
    if specs[at].category == want {
        return;
    }
    let j = (PINNED..specs.len())
        .find(|&j| specs[j].category == want)
        .expect("a donor spec with the wanted category exists");
    let tmp = specs[at].category;
    specs[at].category = specs[j].category;
    specs[j].category = tmp;
}

/// The ten Brook Brothers stores of Figure 1: `(name, city, clothes
/// count)`. Six Houston stores, one Austin store, three other cities;
/// clothes counts sum to 1070. Store 1 is Galleria/Houston as in the
/// figure.
const FIGURE1_STORES: &[(&str, &str, usize)] = &[
    ("Galleria", "Houston", 110),
    ("West Village", "Austin", 107),
    ("Uptown", "Houston", 110),
    ("Midtown", "Houston", 110),
    ("Riverside", "Houston", 110),
    ("Lakeside", "Houston", 110),
    ("Bayview", "Houston", 110),
    ("Sunset", "Dallas", 101),
    ("Hillcrest", "San Antonio", 101),
    ("Parkway", "El Paso", 101),
];

/// Build the Figure 1 database: a `<retailers>` root holding the Brook
/// Brothers retailer (the query result of "Texas apparel retailer") plus
/// two distractor retailers that must *not* match the query.
pub fn figure1_db() -> Document {
    let mut b = DocBuilder::new("retailers");
    b.reserve(12_000);

    // The Brook Brothers retailer — the Figure 1 query result.
    b.begin("retailer");
    b.leaf("name", "Brook Brothers");
    b.leaf("product", "apparel");
    let specs = figure1_clothes_specs();
    let mut next = 0usize;
    for &(name, city, clothes) in FIGURE1_STORES {
        b.begin("store");
        b.leaf("name", name);
        b.leaf("state", "Texas");
        b.leaf("city", city);
        b.begin("merchandises");
        for spec in &specs[next..next + clothes] {
            b.begin("clothes");
            if let Some(f) = spec.fitting {
                b.leaf("fitting", f);
            }
            if let Some(s) = spec.situation {
                b.leaf("situation", s);
            }
            b.leaf("category", spec.category);
            b.end();
        }
        next += clothes;
        b.end(); // merchandises
        b.end(); // store
    }
    assert_eq!(next, specs.len(), "every clothes spec is placed");
    b.end(); // retailer

    // Distractor 1: Texas retailer, wrong product (no "apparel" match).
    b.begin("retailer");
    b.leaf("name", "Circuit Town");
    b.leaf("product", "electronics");
    b.begin("store");
    b.leaf("name", "Northgate");
    b.leaf("state", "Texas");
    b.leaf("city", "Plano");
    b.begin("merchandises");
    b.begin("clothes");
    b.leaf("category", "hats");
    b.end();
    b.end();
    b.end();
    b.end();

    // Distractor 2: apparel retailer outside Texas (no "texas" match).
    b.begin("retailer");
    b.leaf("name", "Golden Gate Apparel");
    b.leaf("product", "apparel");
    b.begin("store");
    b.leaf("name", "Market Square");
    b.leaf("state", "California");
    b.leaf("city", "Portland");
    b.begin("merchandises");
    b.begin("clothes");
    b.leaf("fitting", "man");
    b.leaf("situation", "casual");
    b.leaf("category", "shirts");
    b.end();
    b.end();
    b.end();
    b.end();

    b.build()
}

/// The Brook Brothers retailer node inside [`figure1_db`]'s output — the
/// root of the Figure 1 query result.
pub fn figure1_result_root(doc: &Document) -> NodeId {
    doc.elements_with_label("retailer")
        .into_iter()
        .find(|&r| {
            doc.element_children(r)
                .any(|c| doc.text_of(c) == Some("Brook Brothers"))
        })
        .expect("figure1_db contains Brook Brothers")
}

/// The IList the paper reports for the Figure 1 result (Figure 3), in
/// order: keywords, entity names, result key, dominant features by
/// decreasing dominance score.
pub fn figure1_expected_ilist() -> Vec<&'static str> {
    vec![
        "texas", "apparel", "retailer", "clothes", "store", "Brook Brothers", "Houston",
        "outwear", "man", "casual", "suit", "woman",
    ]
}

/// Clothes mix of one demo store: `(fitting, situation, category)` triples.
fn demo_clothes(b: &mut DocBuilder, specs: &[(&str, &str, &str)]) {
    b.begin("merchandises");
    for &(fitting, situation, category) in specs {
        b.begin("clothes");
        b.leaf("fitting", fitting);
        b.leaf("situation", situation);
        b.leaf("category", category);
        b.end();
    }
    b.end();
}

/// The Figure 5 demo database: querying it for "store texas" with snippet
/// size bound 6 produces snippets showing that *Levis* features jeans for
/// man while *ESprit* focuses on outwear for woman.
pub fn demo_store_db() -> Document {
    let mut b = DocBuilder::new("stores");

    // Levis: jeans (6/12 of a 4-category domain ⇒ DS 2.0) and man (8/12 of
    // a 3-fitting domain ⇒ DS 2.0) are dominant; casual is mildly dominant
    // (7/12, DS 1.17) but does not fit within bound 6.
    b.begin("store");
    b.leaf("name", "Levis");
    b.leaf("state", "Texas");
    b.leaf("city", "Austin");
    demo_clothes(
        &mut b,
        &[
            ("man", "casual", "jeans"),
            ("man", "casual", "jeans"),
            ("man", "formal", "jeans"),
            ("man", "casual", "jeans"),
            ("man", "formal", "jeans"),
            ("man", "casual", "jeans"),
            ("man", "formal", "shirts"),
            ("man", "casual", "shirts"),
            ("woman", "casual", "shirts"),
            ("woman", "formal", "hats"),
            ("woman", "casual", "hats"),
            ("children", "formal", "socks"),
        ],
    );
    b.end();

    // ESprit: outwear (6/12 of 4 ⇒ DS 2.0) and woman (9/12 of 3 ⇒ DS 2.25).
    b.begin("store");
    b.leaf("name", "ESprit");
    b.leaf("state", "Texas");
    b.leaf("city", "Houston");
    demo_clothes(
        &mut b,
        &[
            ("woman", "casual", "outwear"),
            ("woman", "casual", "outwear"),
            ("woman", "formal", "outwear"),
            ("woman", "casual", "outwear"),
            ("woman", "casual", "outwear"),
            ("woman", "formal", "outwear"),
            ("woman", "casual", "dresses"),
            ("woman", "casual", "dresses"),
            ("woman", "formal", "dresses"),
            ("man", "casual", "skirt"),
            ("man", "casual", "skirt"),
            ("man", "formal", "hats"),
        ],
    );
    b.end();

    // Distractors outside Texas.
    b.begin("store");
    b.leaf("name", "Gap");
    b.leaf("state", "Ohio");
    b.leaf("city", "Chicago");
    demo_clothes(&mut b, &[("man", "casual", "shirts"), ("woman", "formal", "dresses")]);
    b.end();

    b.begin("store");
    b.leaf("name", "Macy");
    b.leaf("state", "California");
    b.leaf("city", "Seattle");
    demo_clothes(&mut b, &[("children", "casual", "socks")]);
    b.end();

    b.build()
}

/// Parameters for randomized retailer databases (performance workloads).
#[derive(Debug, Clone)]
pub struct RetailerConfig {
    /// Number of retailer entities.
    pub retailers: usize,
    /// Inclusive range of stores per retailer.
    pub stores_per_retailer: (usize, usize),
    /// Inclusive range of clothes per store.
    pub clothes_per_store: (usize, usize),
    /// Zipf exponent for category values (higher ⇒ more dominance).
    pub category_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RetailerConfig {
    fn default() -> Self {
        RetailerConfig {
            retailers: 4,
            stores_per_retailer: (3, 8),
            clothes_per_store: (5, 30),
            category_skew: 1.0,
            seed: 0xEB,
        }
    }
}

impl RetailerConfig {
    /// Generate a database.
    pub fn generate(&self) -> Document {
        let mut rng = seeded(self.seed);
        let mut b = DocBuilder::new("retailers");
        let cat_zipf = Zipf::new(vocab::CATEGORIES.len(), self.category_skew);
        let city_zipf = Zipf::new(vocab::CITIES.len(), 1.2);
        let mut store_serial = 0usize;
        for r in 0..self.retailers {
            b.begin("retailer");
            b.leaf("name", &format!("Retailer {r}"));
            b.leaf("product", if r % 2 == 0 { "apparel" } else { "electronics" });
            let stores =
                rng.random_range(self.stores_per_retailer.0..=self.stores_per_retailer.1);
            for _ in 0..stores {
                store_serial += 1;
                b.begin("store");
                let base = vocab::STORE_NAMES[store_serial % vocab::STORE_NAMES.len()];
                b.leaf("name", &format!("{base} #{store_serial}"));
                let state = vocab::STATES[if rng.random_range(0..10) < 6 {
                    0 // Texas-heavy, like the paper's scenario
                } else {
                    rng.random_range(1..vocab::STATES.len())
                }];
                b.leaf("state", state);
                b.leaf("city", vocab::CITIES[city_zipf.sample(&mut rng)]);
                b.begin("merchandises");
                let clothes =
                    rng.random_range(self.clothes_per_store.0..=self.clothes_per_store.1);
                for _ in 0..clothes {
                    b.begin("clothes");
                    b.leaf("fitting", vocab::FITTINGS[rng.random_range(0..3usize)]);
                    b.leaf("situation", vocab::SITUATIONS[rng.random_range(0..2usize)]);
                    b.leaf("category", vocab::CATEGORIES[cat_zipf.sample(&mut rng)]);
                    b.end();
                }
                b.end();
                b.end();
            }
            b.end();
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn clothes_specs_have_exact_counts() {
        let specs = figure1_clothes_specs();
        assert_eq!(specs.len(), 1070);
        let mut fit: HashMap<Option<&str>, usize> = HashMap::new();
        let mut sit: HashMap<Option<&str>, usize> = HashMap::new();
        let mut cat: HashMap<&str, usize> = HashMap::new();
        for s in &specs {
            *fit.entry(s.fitting).or_insert(0) += 1;
            *sit.entry(s.situation).or_insert(0) += 1;
            *cat.entry(s.category).or_insert(0) += 1;
        }
        assert_eq!(fit[&Some("man")], 600);
        assert_eq!(fit[&Some("woman")], 360);
        assert_eq!(fit[&Some("children")], 40);
        assert_eq!(fit[&None], 70);
        assert_eq!(sit[&Some("casual")], 700);
        assert_eq!(sit[&Some("formal")], 300);
        assert_eq!(sit[&None], 70);
        assert_eq!(cat["outwear"], 220);
        assert_eq!(cat["suit"], 120);
        assert_eq!(cat["skirt"], 80);
        assert_eq!(cat["sweaters"], 70);
        assert_eq!(cat.len(), 11, "domain size D(clothes, category) = 11");
        let named: usize = 220 + 120 + 80 + 70;
        let others: usize = cat.values().sum::<usize>() - named;
        assert_eq!(others, 580, "other categories (7): 580");
    }

    #[test]
    fn pinned_specs_drive_figure2() {
        let specs = figure1_clothes_specs();
        assert_eq!(
            specs[0],
            ClothesSpec { fitting: Some("man"), situation: None, category: "suit" }
        );
        assert_eq!(
            specs[1],
            ClothesSpec { fitting: Some("man"), situation: Some("formal"), category: "jeans" }
        );
        assert_eq!(
            specs[2],
            ClothesSpec { fitting: Some("woman"), situation: Some("casual"), category: "outwear" }
        );
    }

    #[test]
    fn no_other_category_is_dominant() {
        let specs = figure1_clothes_specs();
        let mut cat: HashMap<&str, usize> = HashMap::new();
        for s in &specs {
            *cat.entry(s.category).or_insert(0) += 1;
        }
        let avg = 1070.0 / 11.0;
        for (&c, &n) in &cat {
            let dominant = n as f64 > avg;
            let expected = matches!(c, "outwear" | "suit");
            assert_eq!(dominant, expected, "category {c} has {n} occurrences");
        }
    }

    #[test]
    fn store_table_matches_figure1() {
        let houston = FIGURE1_STORES.iter().filter(|&&(_, c, _)| c == "Houston").count();
        let austin = FIGURE1_STORES.iter().filter(|&&(_, c, _)| c == "Austin").count();
        let cities: std::collections::HashSet<&str> =
            FIGURE1_STORES.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(FIGURE1_STORES.len(), 10);
        assert_eq!(houston, 6);
        assert_eq!(austin, 1);
        assert_eq!(cities.len(), 5, "D(store, city) = 5");
        assert_eq!(FIGURE1_STORES.iter().map(|&(_, _, n)| n).sum::<usize>(), 1070);
        assert_eq!(FIGURE1_STORES[0], ("Galleria", "Houston", 110));
    }

    #[test]
    fn figure1_db_builds_and_validates() {
        let doc = figure1_db();
        doc.debug_validate().unwrap();
        assert_eq!(doc.elements_with_label("retailer").len(), 3);
        let bb = figure1_result_root(&doc);
        assert_eq!(doc.elements_with_label("clothes").len(), 1072); // 1070 + 2 distractors
        // BB's own stores.
        let stores_in_bb = doc
            .subtree_elements(bb)
            .filter(|&n| doc.label_str(n) == Some("store"))
            .count();
        assert_eq!(stores_in_bb, 10);
    }

    #[test]
    fn figure1_result_root_is_brook_brothers() {
        let doc = figure1_db();
        let bb = figure1_result_root(&doc);
        assert_eq!(doc.label_str(bb), Some("retailer"));
        let name = doc.element_children(bb).next().unwrap();
        assert_eq!(doc.text_of(name), Some("Brook Brothers"));
    }

    #[test]
    fn demo_store_db_shape() {
        let doc = demo_store_db();
        doc.debug_validate().unwrap();
        let stores = doc.elements_with_label("store");
        assert_eq!(stores.len(), 4);
        // Texas stores: Levis and ESprit.
        let texan: Vec<&str> = stores
            .iter()
            .filter(|&&s| {
                doc.element_children(s).any(|c| doc.text_of(c) == Some("Texas"))
            })
            .map(|&s| {
                doc.element_children(s)
                    .find_map(|c| {
                        (doc.label_str(c) == Some("name")).then(|| doc.text_of(c).unwrap())
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(texan, vec!["Levis", "ESprit"]);
    }

    #[test]
    fn demo_levis_has_jeans_and_man_dominant() {
        let doc = demo_store_db();
        let levis = doc.elements_with_label("store")[0];
        let clothes: Vec<_> = doc
            .subtree_elements(levis)
            .filter(|&n| doc.label_str(n) == Some("clothes"))
            .collect();
        assert_eq!(clothes.len(), 12);
        let jeans = doc
            .subtree_elements(levis)
            .filter(|&n| doc.label_str(n) == Some("category") && doc.text_of(n) == Some("jeans"))
            .count();
        assert_eq!(jeans, 6);
        let man = doc
            .subtree_elements(levis)
            .filter(|&n| doc.label_str(n) == Some("fitting") && doc.text_of(n) == Some("man"))
            .count();
        assert_eq!(man, 8);
    }

    #[test]
    fn random_config_is_deterministic_and_scales() {
        let cfg = RetailerConfig::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.to_xml_string(), b.to_xml_string());
        let bigger = RetailerConfig { retailers: 8, ..RetailerConfig::default() }.generate();
        assert!(bigger.len() > a.len());
    }

    #[test]
    fn random_store_names_are_unique() {
        let doc = RetailerConfig::default().generate();
        let mut names: Vec<String> = doc
            .elements_with_label("name")
            .into_iter()
            .filter(|&n| {
                doc.parent(n)
                    .map(|p| doc.label_str(p) == Some("store"))
                    .unwrap_or(false)
            })
            .map(|n| doc.text_of(n).unwrap().to_string())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "store names must be unique for key mining");
    }
}
