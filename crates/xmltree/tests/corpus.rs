//! Corpus tests: realistic and adversarial documents through the full
//! parse → navigate → serialize cycle.

use extract_xml::{path, Document, Error, ParseOptions, Schema};

#[test]
fn dblp_like_record() {
    let src = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp [
  <!ELEMENT dblp (article|inproceedings)*>
  <!ELEMENT article (author+, title, year, journal?)>
  <!ELEMENT inproceedings (author+, title, year, booktitle)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
  <!ELEMENT journal (#PCDATA)>
  <!ELEMENT booktitle (#PCDATA)>
]>
<dblp>
  <article>
    <author>Yu Huang</author>
    <author>Ziyang Liu</author>
    <author>Yi Chen</author>
    <title>eXtract: A Snippet Generation System for XML Search</title>
    <year>2008</year>
  </article>
  <inproceedings>
    <author>Yu Xu</author>
    <title>Efficient Keyword Search for Smallest LCAs</title>
    <year>2005</year>
    <booktitle>SIGMOD</booktitle>
  </inproceedings>
</dblp>"#;
    let doc = Document::parse_str(src).unwrap();
    doc.debug_validate().unwrap();
    assert_eq!(doc.doctype_name(), Some("dblp"));
    let dtd = doc.dtd().expect("internal subset parsed");
    assert_eq!(dtd.is_repeatable("dblp", "article"), Some(true));
    assert_eq!(dtd.is_repeatable("article", "author"), Some(true));
    assert_eq!(dtd.is_repeatable("article", "title"), Some(false));

    let schema = Schema::infer(&doc);
    let author_path = schema.path_by_string("/dblp/article/author", &doc).unwrap();
    assert!(schema.is_starred(author_path), "DTD says author+");
    let title_path = schema.path_by_string("/dblp/article/title", &doc).unwrap();
    assert!(!schema.is_starred(title_path));

    let authors = path::select(&doc, "//author").unwrap();
    assert_eq!(authors.len(), 4);
    assert_eq!(doc.text_of(authors[0]), Some("Yu Huang"));
}

#[test]
fn config_file_with_attributes_and_comments() {
    let src = r#"
<!-- deployment configuration -->
<config env="prod" region="us-east">
  <database host="db1.internal" port="5432">
    <pool min="4" max="32"/>
  </database>
  <features>
    <flag name="new-search" enabled="true"/>
    <flag name="beta-ui" enabled="false"/>
  </features>
</config>"#;
    let doc = Document::parse_str(src).unwrap();
    // XML attributes became child elements.
    let env = path::select_first(&doc, "/config/env").unwrap().unwrap();
    assert_eq!(doc.text_of(env), Some("prod"));
    let flags = path::select(&doc, "//flag").unwrap();
    assert_eq!(flags.len(), 2);
    let schema = Schema::infer(&doc);
    let flag_path = schema.path_by_string("/config/features/flag", &doc).unwrap();
    assert!(schema.is_starred(flag_path), "two flag siblings");
}

#[test]
fn mixed_content_document() {
    let src = "<p>The <em>quick</em> brown <b>fox</b> jumps.</p>";
    // Default options trim text (right for data-oriented XML)…
    let doc = Document::parse_str(src).unwrap();
    assert_eq!(doc.child_count(doc.root()), 5);
    assert_eq!(doc.concat_text(doc.root()), "The quick brown fox jumps.");
    // …document-oriented XML keeps raw text and round-trips byte-exact.
    let raw = Document::parse_with(
        src,
        &ParseOptions { trim_text: false, ..Default::default() },
    )
    .unwrap();
    assert_eq!(raw.to_xml_string(), src);
}

#[test]
fn entity_references_everywhere() {
    let src = r#"<m><t a="&lt;tag&gt;">Tom &amp; Jerry &#169; &#x2122;</t></m>"#;
    let doc = Document::parse_str(src).unwrap();
    let t = doc.first_element_with_label("t").unwrap();
    // The attribute child holds the unescaped value.
    let a = doc.element_children(t).next().unwrap();
    assert_eq!(doc.text_of(a), Some("<tag>"));
    let text = doc.children(t).last().unwrap();
    assert_eq!(doc.text(text), Some("Tom & Jerry © ™"));
    // Serialization re-escapes safely.
    let re = Document::parse_str(&doc.to_xml_string()).unwrap();
    assert_eq!(re.concat_text(re.root()), doc.concat_text(doc.root()));
}

#[test]
fn unicode_labels_and_content() {
    let src = "<商店><名前>リーバイス</名前><ciudad>Cañón</ciudad></商店>";
    let doc = Document::parse_str(src).unwrap();
    assert_eq!(doc.label_str(doc.root()), Some("商店"));
    let city = doc.first_element_with_label("ciudad").unwrap();
    assert_eq!(doc.text_of(city), Some("Cañón"));
    let round = Document::parse_str(&doc.to_xml_string()).unwrap();
    assert_eq!(round.to_xml_string(), doc.to_xml_string());
}

#[test]
fn deep_narrow_document() {
    let depth = 300;
    let mut src = String::new();
    for i in 0..depth {
        src.push_str(&format!("<l{i}>"));
    }
    src.push_str("leaf");
    for i in (0..depth).rev() {
        src.push_str(&format!("</l{i}>"));
    }
    let doc = Document::parse_str(&src).unwrap();
    assert_eq!(doc.element_count(), depth);
    let deepest = doc.first_element_with_label(&format!("l{}", depth - 1)).unwrap();
    assert_eq!(doc.depth(deepest), depth - 1);
    assert_eq!(doc.dewey(deepest).depth(), depth - 1);
    assert_eq!(doc.text_of(deepest), Some("leaf"));
}

#[test]
fn wide_flat_document() {
    let width = 5_000;
    let mut src = String::from("<r>");
    for i in 0..width {
        src.push_str(&format!("<c>{i}</c>"));
    }
    src.push_str("</r>");
    let doc = Document::parse_str(&src).unwrap();
    assert_eq!(doc.element_count(), width + 1);
    let last = doc.elements_with_label("c")[width - 1];
    assert_eq!(doc.dewey(last).components(), &[(width - 1) as u32]);
    assert_eq!(doc.text_of(last), Some("4999"));
}

#[test]
fn cdata_preserves_markupish_text() {
    let src = "<code><![CDATA[if (a < b && b > c) { return \"<xml>\"; }]]></code>";
    let doc = Document::parse_str(src).unwrap();
    assert_eq!(
        doc.text_of(doc.root()),
        Some("if (a < b && b > c) { return \"<xml>\"; }")
    );
    // Round-trips with escaping (not CDATA) but same content.
    let re = Document::parse_str(&doc.to_xml_string()).unwrap();
    assert_eq!(re.text_of(re.root()), doc.text_of(doc.root()));
}

#[test]
fn error_cases_are_rejected_with_positions() {
    for (src, what) in [
        ("<a><b></c></a>", "mismatched"),
        ("<a>", "eof"),
        ("<a/><b/>", "two roots"),
        ("<a>&unknown;</a>", "bad entity"),
        ("text only", "no markup"),
        ("<a b=></a>", "empty attr"),
        ("<a><![CDATA[x</a>", "open cdata"),
    ] {
        assert!(Document::parse_str(src).is_err(), "{what}: {src}");
    }
    // Error positions are line-accurate.
    let err = Document::parse_str("<a>\n<b>\n</c>\n</a>").unwrap_err();
    match err {
        Error::MismatchedTag { position, .. } => assert_eq!(position.line, 3),
        e => panic!("unexpected error {e:?}"),
    }
}

#[test]
fn whitespace_handling_modes() {
    let src = "<a>\n  <b> padded </b>\n</a>";
    let default = Document::parse_str(src).unwrap();
    assert_eq!(default.child_count(default.root()), 1, "blank text dropped");
    let b = default.first_element_with_label("b").unwrap();
    assert_eq!(default.text_of(b), Some("padded"), "trimmed");

    let raw = Document::parse_with(
        src,
        &ParseOptions {
            keep_whitespace_text: true,
            trim_text: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(raw.child_count(raw.root()), 3);
    let b = raw.first_element_with_label("b").unwrap();
    assert_eq!(raw.text_of(b), Some(" padded "));
}

#[test]
fn svg_like_namespaced_labels() {
    let src = r#"<svg:svg xmlns:svg="http://www.w3.org/2000/svg"><svg:rect width="5"/></svg:svg>"#;
    let doc = Document::parse_str(src).unwrap();
    assert_eq!(doc.label_str(doc.root()), Some("svg:svg"));
    let rects = doc.elements_with_label("svg:rect");
    assert_eq!(rects.len(), 1);
    // The xmlns attribute is materialized like any other.
    let xmlns = doc.element_children(doc.root()).next().unwrap();
    assert_eq!(doc.label_str(xmlns), Some("xmlns:svg"));
}

#[test]
fn processing_instructions_and_doctype_coexist() {
    let src = "<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<?pi data?>\n<r><x>1</x></r>\n<?after?>";
    let doc = Document::parse_str(src).unwrap();
    assert_eq!(doc.doctype_name(), Some("r"));
    assert!(doc.dtd().is_none(), "no internal subset");
    assert_eq!(doc.element_count(), 2);
}

#[test]
fn reparse_stability_over_many_rounds() {
    let src = r#"<db><store city="Houston"><name>Levis &amp; Co</name><item><price>9</price></item></store></db>"#;
    let mut xml = Document::parse_str(src).unwrap().to_xml_string();
    for _ in 0..5 {
        let doc = Document::parse_str(&xml).unwrap();
        let next = doc.to_xml_string();
        assert_eq!(next, xml, "serialization must be a fixpoint");
        xml = next;
    }
}
