//! Per-shard agent arenas for the M:N sharded executor.
//!
//! Two pieces live here. [`Slab`] is a std-only arena in the
//! `sharded_slab::Pool` shape: values occupy dense slots, freed slots go
//! on an intrusive free list and are reused LIFO, so a shard worker's
//! agents sit contiguously in memory and slot keys stay small and dense.
//! [`ShardPlan`] is the seed-derived placement of an agent population
//! onto `workers` shards: a SplitMix64-shuffled permutation of the agent
//! ids is dealt round-robin, which balances shard sizes to within one
//! agent while making both the assignment *and* each shard's internal
//! drain order a pure function of `(run_seed, n, workers)` — never of
//! thread timing.
//!
//! Determinism survives M:N because the plan is only a partition: the
//! coordinator merges every wave's per-agent outputs back in ascending
//! agent-id order before they touch the router or the trace, so the
//! within-shard drain order (and the worker count itself) is
//! unobservable in any run artifact.

use crate::seed::SplitMix64;

/// Domain-separation constant for the shard-placement stream, so placing
/// agents never correlates with the per-link fault streams derived from
/// the same run seed.
const SHARD_STREAM: u64 = 0x243F_6A88_85A3_08D3;

#[derive(Debug)]
enum Entry<T> {
    Occupied(T),
    Vacant { next_free: Option<usize> },
}

/// A slot arena with LIFO slot reuse.
///
/// Keys are dense `usize` slots; removing a value frees its slot for the
/// next insertion. Slot keys are stable for the lifetime of the value.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: Option<usize>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// An empty arena with room for `capacity` values before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free_head: None,
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (occupied + free-listed).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Stores `value`, reusing the most recently freed slot if one
    /// exists, and returns its slot key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free_head {
            Some(slot) => {
                self.free_head = match self.entries.get(slot) {
                    Some(Entry::Vacant { next_free }) => *next_free,
                    _ => None,
                };
                if let Some(entry) = self.entries.get_mut(slot) {
                    *entry = Entry::Occupied(value);
                }
                slot
            }
            None => {
                self.entries.push(Entry::Occupied(value));
                self.entries.len().saturating_sub(1)
            }
        }
    }

    /// The value at `slot`, if occupied.
    pub fn get(&self, slot: usize) -> Option<&T> {
        match self.entries.get(slot) {
            Some(Entry::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value at `slot`, if occupied.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        match self.entries.get_mut(slot) {
            Some(Entry::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value at `slot`, freeing the slot for
    /// reuse. Returns `None` when the slot is vacant or out of range.
    pub fn remove(&mut self, slot: usize) -> Option<T> {
        let entry = self.entries.get_mut(slot)?;
        if matches!(entry, Entry::Vacant { .. }) {
            return None;
        }
        let freed = std::mem::replace(
            entry,
            Entry::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = Some(slot);
        self.len -= 1;
        match freed {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant { .. } => None,
        }
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

/// The seed-derived placement of `n` agents onto `workers` shards.
///
/// Placement is a pure function of `(run_seed, n, workers)`: a
/// Fisher–Yates shuffle of the agent ids (domain-separated from the link
/// streams) dealt round-robin. Shard sizes differ by at most one, and an
/// agent's slot index within its shard doubles as the shard's drain
/// position.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    workers: usize,
    /// Agent id → `(shard, slot)`.
    placement: Vec<(u32, u32)>,
    /// Per shard: agent ids in slot (= drain) order.
    members: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Plans `n` agents onto `workers` shards (clamped to at least 1)
    /// under `run_seed`.
    pub fn new(n: usize, workers: usize, run_seed: u64) -> Self {
        let workers = workers.max(1).min(n.max(1));
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64::new(run_seed ^ SHARD_STREAM);
        for i in (1..n).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let mut members: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
        let mut placement = vec![(0u32, 0u32); n];
        for (deal, &agent) in perm.iter().enumerate() {
            let shard = deal % workers;
            if let (Some(bucket), Some(place)) = (members.get_mut(shard), placement.get_mut(agent))
            {
                *place = (shard as u32, bucket.len() as u32);
                bucket.push(agent);
            }
        }
        ShardPlan {
            workers,
            placement,
            members,
        }
    }

    /// Number of shards (= worker threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The `(shard, slot)` an agent was dealt to.
    pub fn placement_of(&self, agent: usize) -> (usize, usize) {
        match self.placement.get(agent) {
            Some(&(shard, slot)) => (shard as usize, slot as usize),
            None => (0, 0),
        }
    }

    /// The agent ids of one shard, in slot (= drain) order.
    pub fn members(&self, shard: usize) -> &[usize] {
        match self.members.get(shard) {
            Some(ids) => ids,
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_inserts_and_reuses_slots_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        let c = slab.insert("c");
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "double-free is a no-op");
        assert_eq!(slab.len(), 1);
        // LIFO reuse: the most recently freed slot (a = 0) comes back
        // first, then b = 1; capacity never grows past 3.
        assert_eq!(slab.insert("d"), a);
        assert_eq!(slab.insert("e"), b);
        assert_eq!(slab.capacity(), 3);
        assert_eq!(slab.get(c), Some(&"c"));
        if let Some(v) = slab.get_mut(c) {
            *v = "C";
        }
        assert_eq!(slab.get(c), Some(&"C"));
        assert_eq!(slab.get(99), None);
    }

    #[test]
    fn shard_plan_is_a_balanced_partition() {
        let plan = ShardPlan::new(103, 8, 42);
        assert_eq!(plan.workers(), 8);
        let mut seen = [false; 103];
        for shard in 0..plan.workers() {
            let members = plan.members(shard);
            assert!(
                (103 / 8..=103 / 8 + 1).contains(&members.len()),
                "shard sizes within one of each other"
            );
            for (slot, &agent) in members.iter().enumerate() {
                assert_eq!(plan.placement_of(agent), (shard, slot));
                assert!(!seen[agent], "agent dealt twice");
                seen[agent] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every agent placed");
    }

    #[test]
    fn shard_plan_is_seed_derived() {
        let a = ShardPlan::new(64, 4, 7);
        let b = ShardPlan::new(64, 4, 7);
        let c = ShardPlan::new(64, 4, 8);
        for shard in 0..4 {
            assert_eq!(a.members(shard), b.members(shard), "same seed, same plan");
        }
        assert!(
            (0..4).any(|s| a.members(s) != c.members(s)),
            "different seed, different plan"
        );
    }

    #[test]
    fn shard_plan_clamps_degenerate_worker_counts() {
        let zero = ShardPlan::new(5, 0, 1);
        assert_eq!(zero.workers(), 1);
        assert_eq!(zero.members(0).len(), 5);
        let oversubscribed = ShardPlan::new(3, 16, 1);
        assert_eq!(oversubscribed.workers(), 3, "never more shards than agents");
        let empty = ShardPlan::new(0, 4, 1);
        assert_eq!(empty.workers(), 1);
        assert!(empty.members(0).is_empty());
    }
}
