//! Random explanation pools for the metric evaluation (§3.2.5).
//!
//! The thesis characterizes its three comparison metrics by generating
//! *random* modification-based explanations: repeatedly pick random
//! modification operators and random query elements, apply up to three
//! levels of modification, and measure all three distances of every
//! generated explanation against the original query. This module is that
//! generator — seeded, deduplicated by signature, drawing its operator
//! pool from the same fine-grained candidate generator the rewriter uses.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use whyq_core::fine::generate::fine_candidates;
use whyq_graph::domains::AttributeDomains;
use whyq_query::{signature::signature, GraphMod, PatternQuery};

/// Pool-generation configuration.
#[derive(Debug, Clone, Copy)]
pub struct MutationConfig {
    /// Number of explanations to generate.
    pub count: usize,
    /// Maximum modification depth (the thesis uses three levels).
    pub max_ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            count: 300,
            max_ops: 3,
            seed: 17,
        }
    }
}

/// Generate a pool of distinct random explanations for `q`.
///
/// Each explanation applies 1..=`max_ops` random modifications drawn from
/// the union of relaxing and concretizing candidates of the evolving
/// query. Candidates that fail to apply are skipped; duplicates (by
/// canonical signature) are discarded. Returns `(query, applied mods)`
/// pairs.
pub fn random_explanations(
    q: &PatternQuery,
    domains: &AttributeDomains,
    config: MutationConfig,
) -> Vec<(PatternQuery, Vec<GraphMod>)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(signature(q));
    let mut out = Vec::with_capacity(config.count);
    // generation attempts are bounded to avoid spinning on tiny op spaces
    let max_attempts = config.count * 20;
    let mut attempts = 0;
    while out.len() < config.count && attempts < max_attempts {
        attempts += 1;
        let depth = rng.random_range(1..=config.max_ops.max(1));
        let mut current = q.clone();
        let mut mods = Vec::new();
        for _ in 0..depth {
            let mut pool = fine_candidates(&current, domains, true, true);
            pool.extend(fine_candidates(&current, domains, false, true));
            if pool.is_empty() {
                break;
            }
            let m = pool[rng.random_range(0..pool.len())].clone();
            if let Ok((next, _)) = m.applied(&current) {
                current = next;
                mods.push(m);
            }
        }
        if mods.is_empty() {
            continue;
        }
        if seen.insert(signature(&current)) {
            out.push((current, mods));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldbc::{ldbc_graph, ldbc_queries, LdbcConfig};

    #[test]
    fn pool_is_distinct_and_seeded() {
        let g = ldbc_graph(LdbcConfig {
            persons: 60,
            seed: 3,
        });
        let domains = AttributeDomains::build(&g, 64);
        let q = &ldbc_queries()[0];
        let config = MutationConfig {
            count: 50,
            max_ops: 3,
            seed: 5,
        };
        let pool_a = random_explanations(q, &domains, config);
        let pool_b = random_explanations(q, &domains, config);
        assert_eq!(pool_a.len(), pool_b.len());
        assert!(pool_a.len() >= 40, "only {} generated", pool_a.len());
        // all distinct
        let sigs: HashSet<String> = pool_a.iter().map(|(q, _)| signature(q)).collect();
        assert_eq!(sigs.len(), pool_a.len());
        // depth bounded
        assert!(pool_a.iter().all(|(_, m)| (1..=3).contains(&m.len())));
        // determinism
        for (a, b) in pool_a.iter().zip(&pool_b) {
            assert_eq!(signature(&a.0), signature(&b.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = ldbc_graph(LdbcConfig {
            persons: 60,
            seed: 3,
        });
        let domains = AttributeDomains::build(&g, 64);
        let q = &ldbc_queries()[0];
        let a = random_explanations(
            q,
            &domains,
            MutationConfig {
                count: 30,
                max_ops: 2,
                seed: 1,
            },
        );
        let b = random_explanations(
            q,
            &domains,
            MutationConfig {
                count: 30,
                max_ops: 2,
                seed: 2,
            },
        );
        let sigs_a: HashSet<String> = a.iter().map(|(q, _)| signature(q)).collect();
        let sigs_b: HashSet<String> = b.iter().map(|(q, _)| signature(q)).collect();
        assert_ne!(sigs_a, sigs_b);
    }
}
