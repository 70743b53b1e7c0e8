//! Differential test of [`NogoodStore`] against a reference model.
//!
//! The model is the design the store's dedupe chains and mention lists
//! replaced: dedupe buckets `hash -> Vec<slot id>` and one `Vec<slot id>`
//! per variable, both edited with `push`/`retain`. Slot ids come from
//! the same LIFO free list, so both sides must agree on every index. A
//! SplitMix64-driven property loop feeds both the same random sequence
//! of `insert`, `insert_learned`, `forget`, `bump_activity` and
//! `contains` calls over a few variables, so duplicates, slot reuse and
//! chain edits are frequent. After every step it requires equal
//! answers, `entries`, `mutation_log` and per-variable `for_variable`
//! order. Each case runs under a hash mask ([`HASH_MASK`]); narrow masks
//! put many nogoods on one dedupe chain, so removals splice chain heads,
//! chain middles and reused slots.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::assignment::VarValue;
use crate::ids::VariableId;
use crate::nogood::{Nogood, NogoodLits};
use crate::store::{NogoodIdx, NogoodStore, HASH_MASK};
use crate::value::Value;

/// One live slot of the model.
#[derive(Debug, Clone)]
struct ModelSlot {
    lits: Vec<VarValue>,
    seq: u64,
    activity: u64,
    learned: bool,
}

/// The reference store: bucket dedupe and a `Vec` per variable.
#[derive(Default)]
struct Model {
    slots: Vec<Option<ModelSlot>>,
    free: Vec<u32>,
    next_seq: u64,
    buckets: BTreeMap<u64, Vec<u32>>,
    var_index: BTreeMap<VariableId, Vec<u32>>,
    log: Vec<u32>,
}

fn model_hash(lits: &[VarValue]) -> u64 {
    let mut hasher = DefaultHasher::new();
    lits.hash(&mut hasher);
    hasher.finish()
}

impl Model {
    fn lits(&self, id: u32) -> &[VarValue] {
        self.slots[id as usize]
            .as_ref()
            .map_or(&[], |s| s.lits.as_slice())
    }

    fn contains(&self, lits: &[VarValue]) -> bool {
        self.buckets
            .get(&model_hash(lits))
            .is_some_and(|bucket| bucket.iter().any(|&i| self.lits(i) == lits))
    }

    fn insert(&mut self, lits: &[VarValue], learned: bool) -> bool {
        if self.contains(lits) {
            return false;
        }
        let slot = ModelSlot {
            lits: lits.to_vec(),
            seq: self.next_seq,
            activity: 1,
            learned,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() as u32 - 1
            }
        };
        self.next_seq += 1;
        self.buckets.entry(model_hash(lits)).or_default().push(id);
        for lit in lits {
            self.var_index.entry(lit.var).or_default().push(id);
        }
        self.log.push(id);
        true
    }

    fn remove(&mut self, id: u32) {
        // Removing a dead slot leaves the model unchanged, so the next
        // comparison reports the store's stray removal.
        let Some(slot) = self.slots[id as usize].take() else {
            return;
        };
        let hash = model_hash(&slot.lits);
        if let Some(bucket) = self.buckets.get_mut(&hash) {
            bucket.retain(|&i| i != id);
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
        for lit in &slot.lits {
            if let Some(list) = self.var_index.get_mut(&lit.var) {
                list.retain(|&i| i != id);
            }
        }
        self.free.push(id);
        self.log.push(id);
    }

    fn forget(&mut self, budget: usize) -> Vec<NogoodIdx> {
        let mut candidates: Vec<(u64, u64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| s.learned)
            .map(|(i, s)| (s.activity, s.seq, i as u32))
            .collect();
        if candidates.len() <= budget {
            return Vec::new();
        }
        candidates.sort_unstable();
        let evict = candidates.len() - budget;
        let mut evicted: Vec<NogoodIdx> = candidates[..evict]
            .iter()
            .map(|&(_, _, id)| id as usize)
            .collect();
        for &id in &evicted {
            self.remove(id as u32);
        }
        for s in self.slots.iter_mut().flatten().filter(|s| s.learned) {
            s.activity /= 2;
        }
        evicted.sort_unstable();
        evicted
    }

    fn bump_activity(&mut self, idx: NogoodIdx) {
        if let Some(Some(s)) = self.slots.get_mut(idx) {
            s.activity = s.activity.saturating_add(1);
        }
    }

    fn entries(&self) -> Vec<(NogoodIdx, Vec<VarValue>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.lits.clone())))
            .collect()
    }

    fn for_variable(&self, var: VariableId) -> Vec<(NogoodIdx, Vec<VarValue>)> {
        self.var_index
            .get(&var)
            .map(|list| {
                list.iter()
                    .map(|&i| (i as usize, self.lits(i).to_vec()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// SplitMix64, as everywhere else in the workspace's property loops.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

const VARS: u32 = 7;

fn gen_nogood(rng: &mut Rng) -> Nogood {
    let len = 1 + rng.below(3) as usize;
    let mut elems: Vec<(VariableId, Value)> = Vec::with_capacity(len);
    while elems.len() < len {
        let var = VariableId::new(rng.below(u64::from(VARS)) as u32);
        if elems.iter().all(|&(seen, _)| seen != var) {
            elems.push((var, Value::new(rng.below(3) as u16)));
        }
    }
    Nogood::of(elems)
}

fn assert_same(case: u64, step: usize, store: &NogoodStore, model: &Model) {
    let at = format!("case {case} step {step}");
    let entries: Vec<(NogoodIdx, Vec<VarValue>)> = store
        .entries()
        .map(|(i, ng)| (i, ng.lits().to_vec()))
        .collect();
    assert_eq!(entries, model.entries(), "entries, {at}");
    assert_eq!(store.mutation_log(), &model.log[..], "mutation log, {at}");
    assert_eq!(store.slot_count(), model.slots.len(), "slot count, {at}");
    assert_eq!(store.len(), entries.len(), "len, {at}");
    let learned = model.slots.iter().flatten().filter(|s| s.learned).count();
    assert_eq!(store.learned_len(), learned, "learned len, {at}");
    for v in 0..=VARS {
        let var = VariableId::new(v);
        let order: Vec<(NogoodIdx, Vec<VarValue>)> = store
            .for_variable(var)
            .map(|(i, ng)| (i, ng.lits().to_vec()))
            .collect();
        assert_eq!(order, model.for_variable(var), "for_variable({var}), {at}");
    }
}

#[test]
fn store_matches_the_reference_model() {
    const MASKS: [u64; 4] = [u64::MAX, 0x7, 0x1, 0];
    for case in 0..240u64 {
        let mut rng = Rng(0x5704_e5ee_d000 ^ case);
        HASH_MASK.with(|mask| mask.set(MASKS[(case % 4) as usize]));

        // Initial constraints, borrowed into the store.
        let initial: Vec<Nogood> = (0..rng.below(6)).map(|_| gen_nogood(&mut rng)).collect();
        let mut store = NogoodStore::with_nogoods(&initial);
        let mut model = Model::default();
        for ng in &initial {
            model.insert(ng.lits(), false);
        }
        assert_same(case, 0, &store, &model);

        for step in 1..=160 {
            match rng.below(10) {
                0..=3 => {
                    let ng = gen_nogood(&mut rng);
                    let expected = model.insert(ng.lits(), false);
                    assert_eq!(
                        store.insert(ng),
                        expected,
                        "insert, case {case} step {step}"
                    );
                }
                4..=6 => {
                    let ng = gen_nogood(&mut rng);
                    let expected = model.insert(ng.lits(), true);
                    assert_eq!(
                        store.insert_learned(ng),
                        expected,
                        "insert_learned, case {case} step {step}"
                    );
                }
                7 => {
                    let budget = rng.below(store.learned_len() as u64 + 1) as usize;
                    assert_eq!(
                        store.forget(budget),
                        model.forget(budget),
                        "forget({budget}), case {case} step {step}"
                    );
                }
                8 => {
                    let idx = rng.below(store.slot_count() as u64 + 2) as usize;
                    store.bump_activity(idx);
                    model.bump_activity(idx);
                }
                _ => {
                    let ng = gen_nogood(&mut rng);
                    assert_eq!(
                        store.contains(&ng),
                        model.contains(ng.lits()),
                        "contains, case {case} step {step}"
                    );
                }
            }
            assert_same(case, step, &store, &model);
        }
    }
    HASH_MASK.with(|mask| mask.set(u64::MAX));
}
