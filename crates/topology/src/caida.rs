//! CAIDA serial-1 AS relationship file I/O.
//!
//! The paper derives its topology from RouteViews BGP tables with Gao's
//! inference; the standard interchange format for such inferred topologies is
//! CAIDA's serial-1 format:
//!
//! ```text
//! # comment lines start with '#'
//! <provider-as>|<customer-as>|-1
//! <peer-as>|<peer-as>|0
//! ```
//!
//! Supporting this format means a real inferred snapshot can be dropped into
//! every experiment in place of the synthetic generator.

use crate::error::TopologyError;
use crate::graph::{AsGraph, GraphBuilder, LinkKind};

/// Parse a CAIDA serial-1 relationship document into a validated graph.
pub fn parse(input: &str) -> Result<AsGraph, TopologyError> {
    let mut b = GraphBuilder::new();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('|');
        let (a, bb, rel) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(r)) => (a, b, r),
            _ => {
                return Err(TopologyError::Parse {
                    line: i + 1,
                    reason: format!("expected 'as|as|rel', got '{line}'"),
                })
            }
        };
        let parse_asn = |s: &str| -> Result<u32, TopologyError> {
            s.trim().parse::<u32>().map_err(|_| TopologyError::Parse {
                line: i + 1,
                reason: format!("bad AS number '{s}'"),
            })
        };
        let a = parse_asn(a)?;
        let bb = parse_asn(bb)?;
        match rel.trim() {
            // serial-1: "<provider>|<customer>|-1"
            "-1" => {
                b.add_link(bb, a, LinkKind::CustomerProvider)?;
            }
            "0" => {
                b.add_link(a, bb, LinkKind::PeerPeer)?;
            }
            other => {
                return Err(TopologyError::Parse {
                    line: i + 1,
                    reason: format!("unknown relationship '{other}' (expected -1 or 0)"),
                })
            }
        }
    }
    b.build()
}

/// Serialise a graph to CAIDA serial-1 format (stable link order).
pub fn write(g: &AsGraph) -> String {
    let mut out = String::new();
    out.push_str("# generated by stamp-topology (serial-1: provider|customer|-1, peer|peer|0)\n");
    for l in g.links() {
        match l.kind {
            LinkKind::CustomerProvider => {
                // l.a is the customer, l.b the provider.
                out.push_str(&format!(
                    "{}|{}|-1\n",
                    g.external_asn(l.b),
                    g.external_asn(l.a)
                ));
            }
            LinkKind::PeerPeer => {
                out.push_str(&format!(
                    "{}|{}|0\n",
                    g.external_asn(l.a),
                    g.external_asn(l.b)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsId, Relation};

    #[test]
    fn parses_basic_document() {
        let doc = "\
# a comment
174|2914|0
174|64512|-1
2914|64512|-1
64512|65001|-1
";
        let g = parse(doc).unwrap();
        assert_eq!(g.n(), 4);
        // 174 and 2914 appear first (dense ids 0, 1).
        let as174 = AsId(0);
        let as2914 = AsId(1);
        let as64512 = AsId(2);
        assert_eq!(g.relation(as174, as2914), Some(Relation::Peer));
        // 174 is a provider of 64512.
        assert_eq!(g.relation(as64512, as174), Some(Relation::Provider));
        assert_eq!(g.external_asn(as64512), 64512);
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let doc = "1|2|-1\n1|3|-1\n2|3|0\n3|4|-1\n";
        let g = parse(doc).unwrap();
        let doc2 = write(&g);
        let g2 = parse(&doc2).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.n_links(), g2.n_links());
        for l in g.links() {
            let a = g.external_asn(l.a);
            let b = g.external_asn(l.b);
            // Find the same external pair in g2 and compare the kind.
            let (a2, b2) = (
                (0..g2.n() as u32)
                    .map(AsId)
                    .find(|&v| g2.external_asn(v) == a)
                    .unwrap(),
                (0..g2.n() as u32)
                    .map(AsId)
                    .find(|&v| g2.external_asn(v) == b)
                    .unwrap(),
            );
            assert_eq!(
                g.relation(l.a, l.b),
                g2.relation(a2, b2),
                "relationship changed for external pair ({a},{b})"
            );
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            parse("1|2"),
            Err(TopologyError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse("1|2|7"),
            Err(TopologyError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse("x|2|-1"),
            Err(TopologyError::Parse { line: 1, .. })
        ));
        // Each of two ASes listed as the other's provider: a contradiction.
        assert_eq!(
            parse("2|1|-1\n1|2|-1").err(),
            Some(TopologyError::ConflictingLink { a: 2, b: 1 })
        );
    }

    #[test]
    fn rejects_cyclic_hierarchy() {
        // 1 provider of 2, 2 provider of 3, 3 provider of 1 — a cycle.
        // Needs a tier-1 candidate too (AS 9) to get past the NoTier1 check.
        let doc = "1|2|-1\n2|3|-1\n3|1|-1\n9|8|-1\n";
        assert!(matches!(
            parse(doc),
            Err(TopologyError::ProviderCycle { .. })
        ));
    }
}
