//! Host-name labels and URL host utilities.
//!
//! Section 4.2 builds the good core from host-name evidence: all `.gov`
//! hosts, hosts of worldwide educational institutions, and a trusted web
//! directory. Section 4.5's biased-core ablation uses "all `.it`
//! educational hosts". This module provides the host-name plumbing those
//! experiments need: TLD extraction, registrable-domain grouping (the
//! `*.alibaba.com` / `*.blogger.com.br` anomalies of Section 4.4.1 are
//! domain-level communities), and id↔name lookup.

use crate::node::NodeId;
use std::collections::HashMap;

/// A parsed host name, e.g. `www-cs.stanford.edu`.
///
/// The paper treats host names verbatim (no alias detection:
/// `www-cs.stanford.edu` and `cs.stanford.edu` are distinct hosts), and so
/// do we.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HostName(pub String);

/// Multi-label country second-level suffixes we recognize so that
/// `blog.example.com.br` groups under `example.com.br` rather than `com.br`.
const SECOND_LEVEL_SUFFIXES: &[&str] = &[
    "com.br", "com.cn", "com.au", "co.uk", "ac.uk", "gov.uk", "co.jp", "ne.jp", "ac.jp", "edu.pl",
    "com.pl", "edu.cn", "edu.au", "co.kr", "com.tw", "edu.tw", "org.uk",
];

impl HostName {
    /// Creates a host name, lower-casing and trimming the input.
    pub fn new(name: &str) -> Self {
        HostName(name.trim().to_ascii_lowercase())
    }

    /// The raw host string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The top-level domain (`edu` for `cs.stanford.edu`), or `None` for a
    /// dotless name.
    pub fn tld(&self) -> Option<&str> {
        let idx = self.0.rfind('.')?;
        let t = &self.0[idx + 1..];
        (!t.is_empty()).then_some(t)
    }

    /// The registrable domain: the label directly below the public suffix,
    /// e.g. `stanford.edu` for `www-cs.stanford.edu` and `example.com.br`
    /// for `blog.example.com.br`.
    pub fn registrable_domain(&self) -> Option<&str> {
        let labels: Vec<&str> = self.0.split('.').collect();
        if labels.len() < 2 || labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        let last_two = self.0.rsplitn(3, '.').collect::<Vec<_>>();
        // last_two = [tld, second, rest?] in reverse order
        let suffix2 = format!("{}.{}", last_two[1], last_two[0]);
        let suffix_len = if SECOND_LEVEL_SUFFIXES.contains(&suffix2.as_str()) { 3 } else { 2 };
        if labels.len() < suffix_len {
            return None;
        }
        let start = labels[..labels.len() - suffix_len].iter().map(|l| l.len() + 1).sum::<usize>();
        Some(&self.0[start..])
    }

    /// Whether the host ends with `.suffix` (or equals `suffix`).
    pub fn has_suffix(&self, suffix: &str) -> bool {
        self.0 == suffix || self.0.ends_with(&format!(".{suffix}"))
    }
}

impl std::fmt::Display for HostName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Bidirectional `NodeId` ↔ host-name table for a graph.
#[derive(Debug, Clone, Default)]
pub struct NodeLabels {
    names: Vec<HostName>,
    index: HashMap<String, NodeId>,
}

impl NodeLabels {
    /// Creates an empty label table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        NodeLabels { names: Vec::with_capacity(n), index: HashMap::with_capacity(n) }
    }

    /// Appends a host, assigning it the next node id.
    ///
    /// Returns the id; if the host already exists its existing id is
    /// returned instead (host names are unique keys).
    pub fn push(&mut self, name: &str) -> NodeId {
        let host = HostName::new(name);
        if let Some(&id) = self.index.get(host.as_str()) {
            return id;
        }
        let id = NodeId::from_index(self.names.len());
        self.index.insert(host.0.clone(), id);
        self.names.push(host);
        id
    }

    /// Number of labelled nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Host name of `id`, if labelled.
    pub fn name(&self, id: NodeId) -> Option<&HostName> {
        self.names.get(id.index())
    }

    /// Node id of `host`, if present.
    pub fn id(&self, host: &str) -> Option<NodeId> {
        self.index.get(&host.trim().to_ascii_lowercase()).copied()
    }

    /// Iterator over `(id, host)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &HostName)> {
        self.names.iter().enumerate().map(|(i, h)| (NodeId::from_index(i), h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tld_extraction() {
        assert_eq!(HostName::new("cs.stanford.edu").tld(), Some("edu"));
        assert_eq!(HostName::new("www.nytimes.com").tld(), Some("com"));
        assert_eq!(HostName::new("localhost").tld(), None);
        assert_eq!(HostName::new("trailing.").tld(), None);
    }

    #[test]
    fn registrable_domain_simple() {
        assert_eq!(HostName::new("www-cs.stanford.edu").registrable_domain(), Some("stanford.edu"));
        assert_eq!(HostName::new("china.alibaba.com").registrable_domain(), Some("alibaba.com"));
        assert_eq!(HostName::new("stanford.edu").registrable_domain(), Some("stanford.edu"));
        assert_eq!(HostName::new("localhost").registrable_domain(), None);
    }

    #[test]
    fn registrable_domain_second_level_suffix() {
        assert_eq!(
            HostName::new("blog.example.com.br").registrable_domain(),
            Some("example.com.br")
        );
        assert_eq!(HostName::new("a.b.univ.edu.pl").registrable_domain(), Some("univ.edu.pl"));
    }

    #[test]
    fn suffix_matching() {
        let h = HostName::new("www.whitehouse.gov");
        assert!(h.has_suffix("gov"));
        assert!(h.has_suffix("whitehouse.gov"));
        assert!(!h.has_suffix("house.gov"));
        assert!(HostName::new("gov").has_suffix("gov"));
    }

    #[test]
    fn normalizes_case_and_whitespace() {
        assert_eq!(HostName::new("  WWW.Example.COM ").as_str(), "www.example.com");
    }

    #[test]
    fn labels_round_trip() {
        let mut l = NodeLabels::new();
        let a = l.push("a.example.com");
        let b = l.push("b.example.gov");
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(l.name(a).unwrap().as_str(), "a.example.com");
        assert_eq!(l.id("B.EXAMPLE.GOV"), Some(b));
        assert_eq!(l.id("missing.org"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn push_is_idempotent_per_host() {
        let mut l = NodeLabels::new();
        let a = l.push("x.com");
        let again = l.push("X.COM");
        assert_eq!(a, again);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut l = NodeLabels::new();
        l.push("a.com");
        l.push("b.com");
        let pairs: Vec<_> = l.iter().map(|(id, h)| (id.0, h.as_str().to_string())).collect();
        assert_eq!(pairs, vec![(0, "a.com".to_string()), (1, "b.com".to_string())]);
    }
}
