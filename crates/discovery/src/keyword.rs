//! IR-style keyword search over table metadata and content (§3.1's first
//! discovery modality, à la Google Dataset Search).
//!
//! Each registered table becomes a "document" — its name, column names,
//! and (a sample of) its string cell values — scored against keyword
//! queries with BM25.

use std::collections::BTreeMap;

use rdi_table::Table;

/// Tokenize: lowercase, split on non-alphanumeric, drop empties.
pub fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_string())
        .collect()
}

/// A BM25 keyword index over registered tables.
#[derive(Debug, Default)]
pub struct KeywordIndex {
    /// token → (doc id → term frequency); BTreeMaps so score accumulation
    /// visits documents in a deterministic order (lint rule R1).
    postings: BTreeMap<String, BTreeMap<usize, usize>>,
    /// per-document token counts
    doc_len: Vec<usize>,
    names: Vec<String>,
}

impl KeywordIndex {
    /// BM25 k1 parameter.
    const K1: f64 = 1.2;
    /// BM25 b parameter.
    const B: f64 = 0.75;

    /// Create an empty index.
    pub fn new() -> Self {
        KeywordIndex::default()
    }

    /// Register a table: its name, column names, and up to
    /// `sample_rows` rows of string-cell content become its document.
    pub fn insert(&mut self, name: impl Into<String>, table: &Table, sample_rows: usize) -> usize {
        let name = name.into();
        let mut tokens = tokenize(&name);
        for f in table.schema().fields() {
            tokens.extend(tokenize(&f.name));
        }
        for i in 0..table.num_rows().min(sample_rows) {
            for j in 0..table.num_columns() {
                if let Some(s) = table.column_at(j).value_ref(i).as_str() {
                    tokens.extend(tokenize(s));
                }
            }
        }
        let id = self.doc_len.len();
        self.doc_len.push(tokens.len());
        self.names.push(name);
        for t in tokens {
            *self.postings.entry(t).or_default().entry(id).or_insert(0) += 1;
        }
        id
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.doc_len.len()
    }

    /// True iff the index is empty.
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// Name of a registered table.
    pub fn name(&self, id: usize) -> &str {
        &self.names[id]
    }

    /// Top-k tables for a keyword query, as `(id, BM25 score)` descending.
    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let n = self.doc_len.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len: f64 = self.doc_len.iter().sum::<usize>() as f64 / n as f64;
        let mut scores: BTreeMap<usize, f64> = BTreeMap::new();
        for term in tokenize(query) {
            let Some(docs) = self.postings.get(&term) else {
                continue;
            };
            let df = docs.len() as f64;
            let idf = ((n as f64 - df + 0.5) / (df + 0.5) + 1.0).ln();
            for (&doc, &tf) in docs {
                let tf = tf as f64;
                let dl = self.doc_len[doc] as f64;
                let norm = tf * (Self::K1 + 1.0)
                    / (tf + Self::K1 * (1.0 - Self::B + Self::B * dl / avg_len.max(1e-9)));
                *scores.entry(doc).or_insert(0.0) += idf * norm;
            }
        }
        let mut v: Vec<(usize, f64)> = scores.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Value};

    fn table(cols: &[(&str, &[&str])]) -> Table {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, _)| Field::new(*n, DataType::Str))
                .collect(),
        );
        let rows = cols[0].1.len();
        let mut t = Table::new(schema);
        for i in 0..rows {
            t.push_row(cols.iter().map(|(_, vs)| Value::str(vs[i])).collect())
                .unwrap();
        }
        t
    }

    fn demo_index() -> KeywordIndex {
        let mut idx = KeywordIndex::new();
        idx.insert(
            "chicago_hospitals",
            &table(&[
                ("hospital", &["Northwestern Memorial", "Rush Medical"]),
                ("neighborhood", &["Streeterville", "Near West Side"]),
            ]),
            10,
        );
        idx.insert(
            "breast_cancer_screening",
            &table(&[
                ("patient_race", &["white", "black"]),
                ("diagnosis", &["positive", "negative"]),
            ]),
            10,
        );
        idx.insert(
            "gene_expression",
            &table(&[
                ("gene", &["brca1", "tp53"]),
                ("tissue", &["breast", "lung"]),
            ]),
            10,
        );
        idx
    }

    #[test]
    fn tokenizer_splits_and_lowercases() {
        assert_eq!(
            tokenize("Breast-Cancer  Screening!"),
            vec!["breast", "cancer", "screening"]
        );
        assert!(tokenize("--- ").is_empty());
    }

    #[test]
    fn finds_by_table_name_and_columns() {
        let idx = demo_index();
        let hits = idx.search("cancer screening", 3);
        assert_eq!(idx.name(hits[0].0), "breast_cancer_screening");
    }

    #[test]
    fn finds_by_cell_content() {
        let idx = demo_index();
        let hits = idx.search("streeterville", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.name(hits[0].0), "chicago_hospitals");
    }

    #[test]
    fn shared_terms_rank_by_relevance() {
        let idx = demo_index();
        // "breast" appears in both screening (name) and gene table (cell)
        let hits = idx.search("breast diagnosis", 3);
        assert!(hits.len() >= 2);
        assert_eq!(idx.name(hits[0].0), "breast_cancer_screening");
    }

    #[test]
    fn unknown_terms_return_empty() {
        let idx = demo_index();
        assert!(idx.search("zebra quantum", 5).is_empty());
        assert!(KeywordIndex::new().search("anything", 5).is_empty());
    }
}
