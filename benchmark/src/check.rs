//! The correctness gate: structural checks on every response, equality with
//! the twin on the sampled ones, and the digest of the fixed segment.

use std::collections::BTreeSet;

use multisource::{SearchError, SearchRequest, SearchResponse, SearchResults};

use crate::stats::Digest;

/// How many failure descriptions are kept for the report.
const MAX_NOTES: usize = 8;

/// Counts requests attempted and failed.  A request fails at most once:
/// on a transport or search error, an incomplete or malformed response, or
/// a mismatch with the oracle.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub digest: Digest,
}

impl Checker {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// Counts one attempted request and checks its response structurally:
    /// no skipped source, one answer per query, at most `k` results each, in
    /// the documented order.  Returns the response when it passed.
    pub fn observe<'r>(
        &mut self,
        index: usize,
        request: &SearchRequest,
        outcome: &'r Result<SearchResponse, SearchError>,
    ) -> Option<&'r SearchResponse> {
        self.attempted += 1;
        let response = match outcome {
            Ok(response) => response,
            Err(e) => {
                self.fail(format!("request {index}: {e}"));
                return None;
            }
        };
        match structure_error(request, response) {
            None => Some(response),
            Some(problem) => {
                self.fail(format!("request {index}: {problem}"));
                None
            }
        }
    }

    /// Folds the answers of request `index` into the digest.
    pub fn digest(&mut self, index: usize, response: &SearchResponse) {
        for (q, words) in answer_words(response).into_iter().enumerate() {
            let mut all = vec![index as u64, q as u64];
            all.extend(words);
            self.digest.add(&all);
        }
    }

    /// Compares a response that passed `observe` with the oracle's answer
    /// to the same request: results and `CommStats` must be equal.
    pub fn compare(
        &mut self,
        index: usize,
        response: &SearchResponse,
        oracle: &Result<SearchResponse, SearchError>,
    ) {
        match oracle {
            Err(e) => self.fail(format!("request {index}: oracle failed: {e}")),
            Ok(expected) if expected.results != response.results => {
                self.fail(format!("request {index}: answers differ from the oracle's"))
            }
            Ok(expected) if expected.comm != response.comm => self.fail(format!(
                "request {index}: CommStats differ from the oracle's ({:?} vs {:?})",
                response.comm, expected.comm
            )),
            Ok(_) => {}
        }
    }
}

/// What is wrong with the shape of `response`, if anything.
fn structure_error(request: &SearchRequest, response: &SearchResponse) -> Option<String> {
    if !response.failures.is_empty() {
        return Some(format!("{} source(s) skipped", response.failures.len()));
    }
    if response.results.len() != request.queries().len() {
        return Some(format!(
            "{} answers for {} queries",
            response.results.len(),
            request.queries().len()
        ));
    }
    let k = request.requested_k();
    match &response.results {
        SearchResults::Overlap(answers) => answers.iter().find_map(|a| {
            if a.results.len() > k {
                return Some(format!("{} results for k = {k}", a.results.len()));
            }
            // Decreasing overlap, ties by source then dataset; strictly
            // increasing keys also rule out duplicates.
            let keys: Vec<_> = a
                .results
                .iter()
                .map(|(s, r)| (std::cmp::Reverse(r.overlap), *s, r.dataset))
                .collect();
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Some("overlap results out of order".to_string());
            }
            a.results
                .iter()
                .any(|(_, r)| r.overlap == 0)
                .then(|| "a result with zero overlap".to_string())
        }),
        SearchResults::Knn(answers) => answers.iter().find_map(|a| {
            if a.neighbors.len() > k {
                return Some(format!("{} neighbours for k = {k}", a.neighbors.len()));
            }
            if a.neighbors
                .iter()
                .any(|(_, n)| !n.distance.is_finite() || n.distance < 0.0)
            {
                return Some("a neighbour with an invalid distance".to_string());
            }
            a.neighbors
                .windows(2)
                .any(|w| {
                    let (a, b) = (&w[0], &w[1]);
                    a.1.distance
                        .total_cmp(&b.1.distance)
                        .then(a.0.cmp(&b.0))
                        .then(a.1.dataset.cmp(&b.1.dataset))
                        .is_ge()
                })
                .then(|| "neighbours out of order".to_string())
        }),
        SearchResults::Coverage(answers) => answers.iter().find_map(|a| {
            if a.selected.len() > k {
                return Some(format!("{} selected for k = {k}", a.selected.len()));
            }
            let unique: BTreeSet<_> = a.selected.iter().collect();
            if unique.len() != a.selected.len() {
                return Some("a dataset selected twice".to_string());
            }
            // Every greedy pick adds at least one cell.
            (a.coverage < a.query_coverage + a.selected.len())
                .then(|| "coverage smaller than the picks imply".to_string())
        }),
    }
}

/// The words that identify each per-query answer of a response.
fn answer_words(response: &SearchResponse) -> Vec<Vec<u64>> {
    match &response.results {
        SearchResults::Overlap(answers) => answers
            .iter()
            .map(|a| {
                let mut w = vec![1];
                for (s, r) in &a.results {
                    w.extend([u64::from(*s), u64::from(r.dataset), r.overlap as u64]);
                }
                w
            })
            .collect(),
        SearchResults::Coverage(answers) => answers
            .iter()
            .map(|a| {
                let mut w = vec![2, a.coverage as u64, a.query_coverage as u64];
                for (s, d) in &a.selected {
                    w.extend([u64::from(*s), u64::from(*d)]);
                }
                w
            })
            .collect(),
        SearchResults::Knn(answers) => answers
            .iter()
            .map(|a| {
                let mut w = vec![3];
                for (s, n) in &a.neighbors {
                    w.extend([u64::from(*s), u64::from(n.dataset), n.distance.to_bits()]);
                }
                w
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_corpus, QueryKind, QuerySequence};
    use multisource::MultiSourceFramework;

    fn fixture(kind: QueryKind) -> (SearchRequest, SearchResponse) {
        let corpus = generate_corpus(true);
        let framework = MultiSourceFramework::build(&corpus, crate::deploy::framework_config());
        let request = QuerySequence::new(&corpus, kind, 16, 1).request(3);
        let response = framework.search(&request).expect("in-process search");
        (request, response)
    }

    #[test]
    fn real_answers_pass_and_tampered_ones_fail() {
        for kind in [QueryKind::Ojsp, QueryKind::Cjsp, QueryKind::Knn] {
            let (request, response) = fixture(kind);
            let mut checker = Checker::default();
            let good = Ok(response.clone());
            assert!(checker.observe(0, &request, &good).is_some(), "{kind:?}");
            checker.compare(0, &response, &good);
            assert_eq!((checker.attempted, checker.failed), (1, 0));

            // A changed CommStats is a mismatch even with equal answers.
            let mut other = response.clone();
            other.comm.bytes_to_sources += 1;
            checker.compare(0, &response, &Ok(other));
            assert_eq!(checker.failed, 1);

            // A reordered or padded answer fails the structural check.
            let mut bad = response.clone();
            match &mut bad.results {
                SearchResults::Overlap(a) => {
                    assert!(a[0].results.len() >= 2, "fixture has several results");
                    a[0].results.swap(0, 1);
                }
                SearchResults::Knn(a) => {
                    assert!(a[0].neighbors.len() >= 2);
                    a[0].neighbors.reverse();
                }
                SearchResults::Coverage(a) => {
                    let first = a[0].selected[0];
                    a[0].selected.push(first);
                }
            }
            assert!(checker.observe(1, &request, &Ok(bad)).is_none(), "{kind:?}");
            assert_eq!((checker.attempted, checker.failed), (2, 2));
            assert_eq!(checker.notes.len(), 2);
        }
    }

    #[test]
    fn digest_covers_every_answer_of_a_batch() {
        let (_, response) = fixture(QueryKind::Knn);
        let mut a = Checker::default();
        a.digest(0, &response);
        assert!(a.digest.render().starts_with("8:"));
        let mut b = Checker::default();
        b.digest(1, &response);
        assert_ne!(
            a.digest, b.digest,
            "the request index is part of the answer"
        );
    }
}
