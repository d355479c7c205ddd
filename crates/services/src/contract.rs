//! Hierarchies of contracts: client QoS preferences.
//!
//! "The rating of which QoS characteristic and its level is preferable
//! to another is depending on the client. There is no system wide shared
//! view on QoS levels … Therefore, client preferences have to be
//! incorporated in the negotiation process" (§6, pointing at ref. \[5\],
//! *Representing Quality of Service Preferences by Hierarchies of
//! Contracts*). A hierarchy is a tree: leaves are concrete contract
//! offers (characteristic + parameters + a client-assigned utility),
//! inner nodes combine children conjunctively (`All`) or as ranked
//! alternatives (`Any`).

use orb::Any;
use std::fmt;

/// A concrete contract offer a client is willing to accept.
#[derive(Debug, Clone, PartialEq)]
pub struct Offer {
    /// QoS characteristic name.
    pub characteristic: String,
    /// Desired parameter values.
    pub params: Vec<(String, Any)>,
    /// Client utility of this offer (higher is better).
    pub utility: f64,
}

impl Offer {
    /// An offer with no parameters.
    pub fn new(characteristic: impl Into<String>, utility: f64) -> Offer {
        Offer { characteristic: characteristic.into(), params: Vec::new(), utility }
    }

    /// Builder-style parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: Any) -> Offer {
        self.params.push((name.into(), value));
        self
    }
}

/// A node in a contract hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractNode {
    /// A concrete offer.
    Leaf(Offer),
    /// All children must be satisfiable; utility is the sum.
    All(Vec<ContractNode>),
    /// Ranked alternatives; the feasible child with the highest utility
    /// wins.
    Any(Vec<ContractNode>),
}

impl ContractNode {
    /// Tree depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            ContractNode::Leaf(_) => 1,
            ContractNode::All(cs) | ContractNode::Any(cs) => {
                1 + cs.iter().map(ContractNode::depth).max().unwrap_or(0)
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            ContractNode::Leaf(_) => 1,
            ContractNode::All(cs) | ContractNode::Any(cs) => {
                cs.iter().map(ContractNode::leaf_count).sum()
            }
        }
    }

    /// Resolve against a feasibility predicate: returns the accepted
    /// offers and their total utility, or `None` if unsatisfiable.
    pub fn resolve(&self, feasible: &dyn Fn(&Offer) -> bool) -> Option<(Vec<Offer>, f64)> {
        match self {
            ContractNode::Leaf(offer) => {
                if feasible(offer) {
                    Some((vec![offer.clone()], offer.utility))
                } else {
                    None
                }
            }
            ContractNode::All(children) => {
                let mut offers = Vec::new();
                let mut utility = 0.0;
                for child in children {
                    let (mut o, u) = child.resolve(feasible)?;
                    offers.append(&mut o);
                    utility += u;
                }
                Some((offers, utility))
            }
            ContractNode::Any(children) => children
                .iter()
                .filter_map(|c| c.resolve(feasible))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)),
        }
    }
}

/// A named client preference hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractHierarchy {
    /// Human-readable name of the preference profile.
    pub name: String,
    /// The preference tree.
    pub root: ContractNode,
}

impl ContractHierarchy {
    /// A hierarchy named `name` with root `root`.
    pub fn new(name: impl Into<String>, root: ContractNode) -> ContractHierarchy {
        ContractHierarchy { name: name.into(), root }
    }

    /// Resolve the hierarchy (see [`ContractNode::resolve`]).
    pub fn resolve(&self, feasible: &dyn Fn(&Offer) -> bool) -> Option<(Vec<Offer>, f64)> {
        self.root.resolve(feasible)
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

impl fmt::Display for ContractHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} leaves, depth {})",
            self.name,
            self.root.leaf_count(),
            self.depth()
        )
    }
}

/// Build a synthetic hierarchy of the given depth and branching factor —
/// used by experiment E9 to scale negotiation inputs.
pub fn synthetic_hierarchy(depth: usize, branching: usize) -> ContractHierarchy {
    fn build(level: usize, branching: usize, counter: &mut usize) -> ContractNode {
        if level == 0 {
            let offer = Offer::new(format!("Char{counter}"), *counter as f64);
            *counter += 1;
            ContractNode::Leaf(offer)
        } else {
            let children =
                (0..branching).map(|_| build(level - 1, branching, counter)).collect();
            if level.is_multiple_of(2) {
                ContractNode::All(children)
            } else {
                ContractNode::Any(children)
            }
        }
    }
    let mut counter = 0;
    ContractHierarchy::new(
        format!("synthetic-d{depth}-b{branching}"),
        build(depth, branching, &mut counter),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, utility: f64) -> ContractNode {
        ContractNode::Leaf(Offer::new(name, utility))
    }

    #[test]
    fn leaf_resolution_respects_feasibility() {
        let node = leaf("Encryption", 5.0);
        let yes = node.resolve(&|_| true).unwrap();
        assert_eq!(yes.1, 5.0);
        assert_eq!(yes.0[0].characteristic, "Encryption");
        assert!(node.resolve(&|_| false).is_none());
    }

    #[test]
    fn any_picks_highest_feasible_utility() {
        let node = ContractNode::Any(vec![
            leaf("Replication", 10.0),
            leaf("Compression", 3.0),
            leaf("Actuality", 7.0),
        ]);
        let (offers, u) = node.resolve(&|_| true).unwrap();
        assert_eq!(u, 10.0);
        assert_eq!(offers[0].characteristic, "Replication");
        // Best infeasible: falls back to second best.
        let (offers, u) = node.resolve(&|o| o.characteristic != "Replication").unwrap();
        assert_eq!(u, 7.0);
        assert_eq!(offers[0].characteristic, "Actuality");
        assert!(node.resolve(&|_| false).is_none());
    }

    #[test]
    fn all_requires_every_child() {
        let node = ContractNode::All(vec![leaf("Encryption", 2.0), leaf("Compression", 3.0)]);
        let (offers, u) = node.resolve(&|_| true).unwrap();
        assert_eq!(offers.len(), 2);
        assert_eq!(u, 5.0);
        assert!(node.resolve(&|o| o.characteristic != "Encryption").is_none());
    }

    #[test]
    fn nested_hierarchy() {
        // (Encryption AND (Replication OR Actuality))
        let h = ContractHierarchy::new(
            "secure-and-available",
            ContractNode::All(vec![
                leaf("Encryption", 1.0),
                ContractNode::Any(vec![leaf("Replication", 8.0), leaf("Actuality", 4.0)]),
            ]),
        );
        assert_eq!(h.depth(), 3);
        let (offers, u) = h.resolve(&|_| true).unwrap();
        assert_eq!(u, 9.0);
        assert_eq!(offers.len(), 2);
        // No replication capacity: degrade to actuality.
        let (offers, u) = h.resolve(&|o| o.characteristic != "Replication").unwrap();
        assert_eq!(u, 5.0);
        assert!(offers.iter().any(|o| o.characteristic == "Actuality"));
    }

    #[test]
    fn offer_params_travel_through_resolution() {
        let node = ContractNode::Leaf(
            Offer::new("Actuality", 2.0).with_param("validity_ms", Any::ULongLong(500)),
        );
        let (offers, _) = node.resolve(&|_| true).unwrap();
        assert_eq!(offers[0].params[0].1, Any::ULongLong(500));
    }

    #[test]
    fn synthetic_hierarchies_scale() {
        for depth in 1..=4 {
            let h = synthetic_hierarchy(depth, 2);
            assert_eq!(h.depth(), depth + 1);
            assert_eq!(h.root.leaf_count(), 1 << depth);
            assert!(h.resolve(&|_| true).is_some());
        }
        assert!(synthetic_hierarchy(2, 3).to_string().contains("9 leaves"));
    }
}
