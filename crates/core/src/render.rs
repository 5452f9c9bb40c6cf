//! Result-page rendering: JSON export and the demo's HTML results page.
//!
//! The original system presented snippets through a web UI (paper §4,
//! Figure 5: query box, per-result snippet, "view full result" link). This
//! module renders the same artifacts: [`results_page`] produces a
//! self-contained HTML page, and [`snippet_json`] a machine-readable
//! export — both dependency-free.

use std::fmt::Write as _;

use extract_xml::{Document, NodeId};

use crate::ilist::IListItem;
use crate::pipeline::SnippetedResult;

/// Escape text for HTML element content.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape text for a JSON string literal (without the quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_node_html(doc: &Document, node: NodeId, out: &mut String) {
    let Some(label) = doc.label_str(node) else {
        let text = doc.text(node).unwrap_or("");
        let _ = write!(out, "<span class=\"val\">{}</span>", html_escape(text));
        return;
    };
    let label = html_escape(label);
    if let Some(value) = doc.text_of(node) {
        if doc.child_count(node) == 1 {
            let _ = write!(
                out,
                "<li><span class=\"attr\">{label}</span>: <span class=\"val\">{}</span></li>",
                html_escape(value)
            );
            return;
        }
    }
    let _ = write!(out, "<li><span class=\"elem\">{label}</span>");
    if doc.subtree_size(node) > 1 {
        out.push_str("<ul>");
        for c in doc.children(node) {
            render_node_html(doc, c, out);
        }
        out.push_str("</ul>");
    }
    out.push_str("</li>");
}

/// Render one snippet as a nested HTML list.
pub fn snippet_html(result: &SnippetedResult) -> String {
    let tree = result.snippet.tree();
    let mut out = String::from("<ul class=\"snippet\">");
    render_node_html(tree, tree.root(), &mut out);
    out.push_str("</ul>");
    out
}

/// A self-contained HTML results page in the spirit of the Figure 5 demo
/// UI: query header, one card per result with its snippet and a summary of
/// the covered information.
pub fn results_page(doc: &Document, query: &str, results: &[SnippetedResult]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>eXtract results</title>\n\
         <style>\n\
         body { font-family: sans-serif; margin: 2em; }\n\
         .card { border: 1px solid #ccc; border-radius: 6px; padding: 1em; margin: 1em 0; }\n\
         .snippet, .snippet ul { list-style: none; padding-left: 1.2em; }\n\
         .elem { color: #7b2d8b; font-weight: bold; }\n\
         .attr { color: #1d4ed8; }\n\
         .val { color: #166534; }\n\
         .meta { color: #666; font-size: 0.85em; }\n\
         </style></head><body>\n",
    );
    let _ = write!(
        out,
        "<h1>eXtract</h1>\n<p>query: <b>{}</b> — {} result(s)</p>\n",
        html_escape(query),
        results.len()
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "<div class=\"card\">\n<h3>result {} — {}</h3>\n",
            i + 1,
            html_escape(&r.snippet.summary_line(doc))
        );
        out.push_str(&snippet_html(r));
        let _ = write!(
            out,
            "\n<p class=\"meta\">{} edges · {}/{} information items · \
             <a href=\"#result-{}\">view full result ({} nodes)</a></p>\n</div>\n",
            r.snippet.edges,
            r.snippet.coverage(),
            r.ilist.len(),
            i + 1,
            r.result.size(doc)
        );
    }
    out.push_str("</body></html>\n");
    out
}

/// Machine-readable JSON export of one snippet: root label, size, covered
/// and skipped items, and the snippet XML.
pub fn snippet_json(doc: &Document, result: &SnippetedResult) -> String {
    let mut out = String::from("{");
    let root_label = doc.label_str(result.result.root).unwrap_or("");
    let _ = write!(
        out,
        "\"root\":\"{}\",\"edges\":{},\"coverage\":{},\"items\":{},",
        json_escape(root_label),
        result.snippet.edges,
        result.snippet.coverage(),
        result.ilist.len()
    );
    out.push_str("\"covered\":[");
    for (i, item) in result.snippet.covered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(&item_text(doc, item)));
    }
    out.push_str("],\"skipped\":[");
    for (i, item) in result.snippet.skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(&item_text(doc, item)));
    }
    let _ = write!(out, "],\"xml\":\"{}\"", json_escape(&result.snippet.to_xml()));
    out.push('}');
    out
}

fn item_text(doc: &Document, item: &IListItem) -> String {
    item.display_text(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Extract, ExtractConfig};

    fn results() -> (Document, Vec<SnippetedResult>) {
        let doc = Document::parse_str(
            "<stores><store><name>Levis &amp; Co</name><state>Texas</state>\
             <merchandises><clothes><category>jeans</category></clothes>\
             <clothes><category>jeans</category></clothes></merchandises></store>\
             <store><name>Gap</name><state>Ohio</state></store></stores>",
        )
        .unwrap();
        let extract = Extract::new(&doc);
        let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
        (doc, out)
    }

    #[test]
    fn html_page_is_well_formed_enough() {
        let (doc, out) = results();
        let page = results_page(&doc, "store texas", &out);
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("store texas"));
        assert!(page.contains("class=\"card\""));
        assert!(page.contains("Levis &amp; Co"), "values are escaped: {page}");
        assert!(page.ends_with("</body></html>\n"));
        // Balanced list tags.
        assert_eq!(page.matches("<ul").count(), page.matches("</ul>").count());
        assert_eq!(page.matches("<li").count(), page.matches("</li>").count());
    }

    #[test]
    fn snippet_html_renders_attributes_inline() {
        let (_, out) = results();
        let html = snippet_html(&out[0]);
        assert!(html.contains("class=\"attr\""), "{html}");
        assert!(html.contains("jeans"), "{html}");
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let (doc, out) = results();
        let json = snippet_json(&doc, &out[0]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"root\":\"store\""), "{json}");
        assert!(json.contains("\"edges\":"), "{json}");
        assert!(json.contains("\\\"") || !json.contains("\" "), "quotes escaped: {json}");
        // Escaped XML payload contains no raw control characters.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\u{0}'), "{json}");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
