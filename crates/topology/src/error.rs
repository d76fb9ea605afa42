//! Error types for topology construction and I/O.

use std::fmt;

/// Errors raised while building, validating or parsing an AS topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link connects an AS to itself.
    SelfLoop { asn: u32 },
    /// The same AS pair was given two conflicting link kinds.
    ConflictingLink { a: u32, b: u32 },
    /// The same AS pair appeared twice (even with the same kind).
    DuplicateLink { a: u32, b: u32 },
    /// The customer→provider digraph contains a cycle, violating the
    /// hierarchy assumption of §2.1 footnote 1 (a provider of an AS cannot
    /// be a customer of that AS' customers, transitively).
    ProviderCycle { member: u32 },
    /// A malformed line in a CAIDA serial-1 relationship file.
    Parse { line: usize, reason: String },
    /// The graph has no tier-1 AS (every AS has a provider), which cannot
    /// happen in an acyclic hierarchy with at least one AS.
    NoTier1,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::SelfLoop { asn } => write!(f, "self-loop on AS{asn}"),
            TopologyError::ConflictingLink { a, b } => {
                write!(f, "conflicting relationship for link AS{a}-AS{b}")
            }
            TopologyError::DuplicateLink { a, b } => {
                write!(f, "duplicate link AS{a}-AS{b}")
            }
            TopologyError::ProviderCycle { member } => {
                write!(f, "customer-provider cycle through AS{member}")
            }
            TopologyError::Parse { line, reason } => {
                write!(f, "parse error on line {line}: {reason}")
            }
            TopologyError::NoTier1 => write!(f, "graph has no tier-1 (provider-free) AS"),
        }
    }
}

impl std::error::Error for TopologyError {}
