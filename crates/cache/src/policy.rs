//! Cache-eviction policies.
//!
//! The single-shot two-stage converter (`two_stage::reference`) asks a policy
//! which cached values to evict when it needs to free space on a processor. The
//! policy receives the full set of evictable candidates together with recency
//! and future-use information and returns the victims, ordered by eviction
//! preference. [`crate::ConversionArena`] asks no policy: it evicts in the
//! clairvoyant order itself.

use mbsp_dag::NodeId;

/// Information about one evictable cached value handed to an [`EvictionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateVictim {
    /// The cached node.
    pub node: NodeId,
    /// Its memory weight `μ(v)` (the space freed by evicting it).
    pub weight: f64,
    /// Position (in the processor's compute sequence) of the next use of this value
    /// on this processor, or `None` if it is never used here again.
    pub next_use: Option<usize>,
    /// Position of the most recent use (compute or input) of this value on this
    /// processor; 0 if it was never used (e.g. it was only prefetched).
    pub last_use: usize,
    /// Whether the value is already in slow memory (evicting it then costs no save).
    pub has_blue: bool,
    /// Whether the value is still needed in the future by *any* processor or is a
    /// sink (evicting it without a blue pebble would require saving it first).
    pub needed_later: bool,
}

/// A cache-eviction policy: selects which cached values to drop when space is needed.
pub trait EvictionPolicy {
    /// Human-readable name of the policy (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Compares two candidates by eviction preference: `Less` means `a` should be
    /// evicted before `b`. The order must be **total** (policies break remaining
    /// ties by node id), so any selection strategy produces the same eviction
    /// sequence.
    fn order(&self, a: &CandidateVictim, b: &CandidateVictim) -> std::cmp::Ordering;

    /// Is [`EvictionPolicy::order`] exactly the clairvoyant order: furthest
    /// `next_use` first with `None` (no further use) furthest of all, then
    /// `(has_blue desc, weight desc, node asc)`?
    ///
    /// [`crate::TwoStageScheduler::schedule`] converts through
    /// [`crate::ConversionArena`], which evicts in exactly this order without
    /// calling `order`, for a policy answering `true`; any other policy goes
    /// through the single-shot `two_stage::reference::convert`. Either way
    /// the same victims are chosen.
    fn orders_by_next_use(&self) -> bool {
        false
    }

    /// Orders the candidates by eviction preference (most evictable first). The
    /// single-shot converter walks this order and evicts until enough space is
    /// free.
    fn rank(&self, candidates: &[CandidateVictim]) -> Vec<NodeId> {
        let mut order: Vec<&CandidateVictim> = candidates.iter().collect();
        order.sort_by(|a, b| self.order(a, b));
        order.into_iter().map(|c| c.node).collect()
    }
}

/// Bélády's clairvoyant policy: evict the value whose next use on this processor is
/// furthest in the future; values never needed again are evicted first. Ties are
/// broken towards values that already have a blue pebble (their eviction is free)
/// and then towards heavier values (more space freed per eviction).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClairvoyantPolicy;

impl ClairvoyantPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        ClairvoyantPolicy
    }
}

impl EvictionPolicy for ClairvoyantPolicy {
    fn name(&self) -> &'static str {
        "clairvoyant"
    }

    fn orders_by_next_use(&self) -> bool {
        // `order` below keys on `next_use` descending with `None → usize::MAX`,
        // then (has_blue desc, weight desc, node asc): the promised order.
        true
    }

    fn order(&self, a: &CandidateVictim, b: &CandidateVictim) -> std::cmp::Ordering {
        let key_a = a.next_use.unwrap_or(usize::MAX);
        let key_b = b.next_use.unwrap_or(usize::MAX);
        // Larger next use (further in the future) first.
        key_b
            .cmp(&key_a)
            .then_with(|| b.has_blue.cmp(&a.has_blue))
            .then_with(|| {
                b.weight
                    .partial_cmp(&a.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.node.cmp(&b.node))
    }
}

/// Least-recently-used policy: evict the value whose last use lies furthest in the
/// past. Ties are broken towards values that already have a blue pebble and then
/// towards heavier values.
#[derive(Debug, Clone, Copy, Default)]
pub struct LruPolicy;

impl LruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        LruPolicy
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn order(&self, a: &CandidateVictim, b: &CandidateVictim) -> std::cmp::Ordering {
        a.last_use
            .cmp(&b.last_use)
            .then_with(|| b.has_blue.cmp(&a.has_blue))
            .then_with(|| {
                b.weight
                    .partial_cmp(&a.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.node.cmp(&b.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(node: usize, next_use: Option<usize>, last_use: usize) -> CandidateVictim {
        CandidateVictim {
            node: NodeId::new(node),
            weight: 1.0,
            next_use,
            last_use,
            has_blue: false,
            needed_later: next_use.is_some(),
        }
    }

    #[test]
    fn clairvoyant_prefers_furthest_next_use() {
        let cands = vec![
            candidate(0, Some(5), 1),
            candidate(1, Some(20), 2),
            candidate(2, None, 3),
            candidate(3, Some(10), 0),
        ];
        let order = ClairvoyantPolicy::new().rank(&cands);
        assert_eq!(order[0], NodeId::new(2)); // never used again
        assert_eq!(order[1], NodeId::new(1)); // used at 20
        assert_eq!(order[2], NodeId::new(3)); // used at 10
        assert_eq!(order[3], NodeId::new(0)); // used at 5
    }

    #[test]
    fn lru_prefers_oldest_last_use() {
        let cands = vec![
            candidate(0, Some(5), 7),
            candidate(1, Some(6), 2),
            candidate(2, Some(7), 9),
        ];
        let order = LruPolicy::new().rank(&cands);
        assert_eq!(order[0], NodeId::new(1));
        assert_eq!(order[1], NodeId::new(0));
        assert_eq!(order[2], NodeId::new(2));
    }

    #[test]
    fn clairvoyant_tie_break_prefers_blue_and_heavy() {
        let mut a = candidate(0, Some(5), 1);
        let mut b = candidate(1, Some(5), 1);
        b.has_blue = true;
        let order = ClairvoyantPolicy::new().rank(&[a, b]);
        assert_eq!(order[0], NodeId::new(1));
        a.weight = 3.0;
        b.has_blue = false;
        let order = ClairvoyantPolicy::new().rank(&[a, b]);
        assert_eq!(order[0], NodeId::new(0));
    }

    #[test]
    fn policies_report_names() {
        assert_eq!(ClairvoyantPolicy::new().name(), "clairvoyant");
        assert_eq!(LruPolicy::new().name(), "lru");
    }

    #[test]
    fn empty_candidate_list_is_fine() {
        assert!(ClairvoyantPolicy::new().rank(&[]).is_empty());
        assert!(LruPolicy::new().rank(&[]).is_empty());
    }
}
