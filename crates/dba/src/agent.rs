//! The distributed breakout agent state machine (§4.3 of the paper).

use std::collections::BTreeMap;
use std::mem;

use discsp_core::{
    AgentId, Domain, IncrementalEval, NogoodIdx, NogoodLits, NogoodStore, Value, VarValue,
    VariableId,
};
use discsp_runtime::{AgentStats, DistributedAgent, Envelope, Outbox};
use serde::{Deserialize, Serialize};

use crate::msg::DbaMessage;

/// Where constraint weights live.
///
/// The paper's footnote 7: the original DB assigned a weight "to a pair of
/// variables" for graph coloring, while this paper "assigns it to a
/// nogood" and found the latter better. Both modes are provided so the
/// claim can be ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WeightMode {
    /// One weight per nogood (the paper's choice).
    #[default]
    PerNogood,
    /// One weight per foreign-variable group: all nogoods sharing the
    /// same set of non-own variables share a weight (the ICMAS'96
    /// variable-pair scheme generalized to n-ary nogoods).
    PerPair,
}

/// Wave-alternation phase of a DB agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitOk,
    WaitImprove,
}

/// A neighbour variable's cell in the dense wave buffers.
#[derive(Debug, Clone, Copy)]
struct NeighborVar {
    var: VariableId,
    /// The value the last completed `ok?` wave saw (`None` before the
    /// first wave).
    view: Option<Value>,
    /// The `ok?` value buffered for the next `ok?` wave.
    pending: Option<Value>,
}

/// A neighbour agent's cell in the dense wave buffers: the `improve` it
/// sent for the next `improve` wave, if it arrived yet.
#[derive(Debug, Clone, Copy)]
struct NeighborAgent {
    agent: AgentId,
    pending: Option<u64>,
}

/// One distributed breakout agent owning a single variable.
///
/// DB alternates two synchronized waves: an `ok?` wave announcing values,
/// then an `improve` wave arbitrating which agent in each neighborhood
/// may move (ties break toward the smaller agent id). An agent whose cost
/// is positive while nobody nearby can improve is at a *quasi-local-
/// minimum* and escapes by the breakout strategy: incrementing the weight
/// of each currently violated nogood.
#[derive(Debug)]
pub struct DbaAgent {
    id: AgentId,
    var: VariableId,
    domain: Domain,
    value: Value,
    store: NogoodStore,
    /// Incremental violation cache over `store` × `view`. Synced once per
    /// wave (the view only changes at wave boundaries); never meters
    /// checks itself — [`DbaAgent::eval_value`] charges the naive cost.
    eval: IncrementalEval,
    /// Weight of nogood `i` is `weights[weight_group[i]]`.
    weights: Vec<u64>,
    weight_group: Vec<usize>,
    /// Neighbour variables, ascending: the view and the buffered `ok?`s.
    vars: Vec<NeighborVar>,
    /// Neighbour agents, ascending: the `ok?`/`improve` send order and
    /// the buffered `improve`s.
    agents: Vec<NeighborAgent>,
    /// How many `vars` hold a buffered `ok?` (the `ok?` wave is ready at
    /// `vars.len()`).
    oks_buffered: usize,
    /// How many `agents` hold a buffered `improve`.
    improves_buffered: usize,
    phase: Phase,
    /// Computed during the `ok?` wave for use in the `improve` wave.
    planned_value: Value,
    my_improve: u64,
    my_eval: u64,
    violated_now: Vec<usize>,
    stats: AgentStats,
}

impl DbaAgent {
    /// Creates an agent for `var` with its relevant nogoods and
    /// neighborhood, all weights starting at 1.
    ///
    /// `nogoods` may be owned or borrowed (`problem.nogoods_of(var)`):
    /// the agent copies their literals into its own store.
    ///
    /// # Panics
    ///
    /// Panics if `initial_value` is outside `domain`.
    pub fn new<I>(
        id: AgentId,
        var: VariableId,
        domain: Domain,
        initial_value: Value,
        nogoods: I,
        neighbors: Vec<(VariableId, AgentId)>,
        mode: WeightMode,
    ) -> Self
    where
        I: IntoIterator,
        I::Item: NogoodLits,
    {
        assert!(
            domain.contains(initial_value),
            "initial value {initial_value} outside domain {domain}"
        );
        let store = NogoodStore::with_nogoods(nogoods);
        let (weights, weight_group) = match mode {
            WeightMode::PerNogood => {
                let groups: Vec<usize> = store.indices().collect();
                (vec![1; store.len()], groups)
            }
            WeightMode::PerPair => {
                let mut group_of: BTreeMap<Vec<VariableId>, usize> = BTreeMap::new();
                let mut groups = Vec::with_capacity(store.len());
                for ng in store.iter() {
                    let key: Vec<VariableId> = ng.vars().filter(|&v| v != var).collect();
                    let next = group_of.len();
                    let g = *group_of.entry(key).or_insert(next);
                    groups.push(g);
                }
                (vec![1; group_of.len()], groups)
            }
        };
        let mut vars: Vec<NeighborVar> = neighbors
            .iter()
            .map(|&(var, _)| NeighborVar {
                var,
                view: None,
                pending: None,
            })
            .collect();
        vars.sort_unstable_by_key(|n| n.var);
        vars.dedup_by_key(|n| n.var);
        let mut agents: Vec<NeighborAgent> = neighbors
            .iter()
            .map(|&(_, agent)| NeighborAgent {
                agent,
                pending: None,
            })
            .collect();
        agents.sort_unstable_by_key(|n| n.agent);
        agents.dedup_by_key(|n| n.agent);
        DbaAgent {
            id,
            var,
            domain,
            value: initial_value,
            store,
            eval: IncrementalEval::new(var),
            weights,
            weight_group,
            vars,
            agents,
            oks_buffered: 0,
            improves_buffered: 0,
            phase: Phase::WaitOk,
            planned_value: initial_value,
            my_improve: 0,
            my_eval: 0,
            violated_now: Vec::new(),
            stats: AgentStats::default(),
        }
    }

    /// The variable this agent owns.
    pub fn var(&self) -> VariableId {
        self.var
    }

    /// The variable's current value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// The current weight of the nogood at store index `index`.
    pub fn weight_of(&self, index: usize) -> Option<u64> {
        self.weight_group.get(index).map(|&g| self.weights[g])
    }

    /// Re-syncs the incremental cache with the current view. Must run
    /// after every view mutation and before any [`DbaAgent::eval_value`];
    /// work is proportional to the view size plus the nogoods touching
    /// actually-changed variables.
    fn sync_eval(&mut self) {
        let view = self
            .vars
            .iter()
            .filter_map(|n| n.view.map(|value| (n.var, value)));
        self.eval.refresh(&self.store, view);
    }

    /// Metered weighted cost of taking `value` under the current view;
    /// the violated store indices are appended to `violated` when given.
    ///
    /// Answers from the [`IncrementalEval`] cache but charges one check
    /// per stored nogood — exactly the cost of the naive full scan this
    /// replaces, keeping `maxcck` bit-identical (pinned by the golden
    /// metric tests).
    fn eval_value(&self, value: Value, mut violated: Option<&mut Vec<NogoodIdx>>) -> u64 {
        self.store.charge_checks(self.store.len() as u64);
        let mut cost = 0u64;
        for i in self.store.indices() {
            if self.eval.is_violated(i, value) {
                cost += self.weights[self.weight_group[i]];
                if let Some(violated) = violated.as_deref_mut() {
                    violated.push(i);
                }
            }
        }
        cost
    }

    fn send_ok(&self, out: &mut Outbox<DbaMessage>) {
        for peer in &self.agents {
            out.send(
                peer.agent,
                DbaMessage::Ok {
                    var: self.var,
                    value: self.value,
                },
            );
        }
    }

    /// Runs the `ok?` wave: absorb neighbor values, compute eval /
    /// improve / planned move, broadcast `improve`.
    fn process_ok_wave(&mut self, out: &mut Outbox<DbaMessage>) {
        for n in &mut self.vars {
            if let Some(value) = n.pending.take() {
                n.view = Some(value);
            }
        }
        self.oks_buffered = 0;
        self.sync_eval();
        let mut violated = mem::take(&mut self.violated_now);
        violated.clear();
        let eval = self.eval_value(self.value, Some(&mut violated));
        self.my_eval = eval;
        self.violated_now = violated;
        // Best alternative value.
        let mut best_value = self.value;
        let mut best_cost = eval;
        for d in self.domain.iter() {
            if d == self.value {
                continue;
            }
            let cost = self.eval_value(d, None);
            if cost < best_cost {
                best_cost = cost;
                best_value = d;
            }
        }
        self.planned_value = best_value;
        self.my_improve = eval - best_cost;
        self.send_improve(out);
        self.phase = Phase::WaitImprove;
    }

    fn send_improve(&self, out: &mut Outbox<DbaMessage>) {
        for peer in &self.agents {
            out.send(
                peer.agent,
                DbaMessage::Improve {
                    improve: self.my_improve,
                    eval: self.my_eval,
                },
            );
        }
    }

    /// Runs the `improve` wave: arbitrate the right to move, move or
    /// break out, broadcast `ok?`.
    fn process_improve_wave(&mut self, out: &mut Outbox<DbaMessage>) {
        // The right to change: strictly larger improve than every
        // neighbor, ties broken toward the smaller agent id. The wave is
        // ready, so every neighbor's improve is buffered.
        let (id, mine) = (self.id, self.my_improve);
        let mut wins = mine > 0;
        let mut nobody_improves = mine == 0;
        for n in &mut self.agents {
            let imp = n.pending.take().unwrap_or(0);
            wins &= mine > imp || (mine == imp && id < n.agent);
            nobody_improves &= imp == 0;
        }
        self.improves_buffered = 0;
        if wins {
            self.value = self.planned_value;
        } else if self.my_eval > 0 && nobody_improves {
            // Quasi-local-minimum: breakout — raise the weight of every
            // currently violated nogood.
            for &i in &self.violated_now {
                self.weights[self.weight_group[i]] += 1;
            }
        }
        self.send_ok(out);
        self.phase = Phase::WaitOk;
    }

    fn wave_ready(&self) -> bool {
        match self.phase {
            Phase::WaitOk => self.oks_buffered == self.vars.len(),
            Phase::WaitImprove => self.improves_buffered == self.agents.len(),
        }
    }

    /// Buffers a neighbor's `ok?` for the next `ok?` wave. A repeat from
    /// the same variable (a nudge resend) overwrites instead of counting
    /// twice; variables outside the neighborhood are ignored.
    fn buffer_ok(&mut self, var: VariableId, value: Value) {
        if let Ok(i) = self.vars.binary_search_by_key(&var, |n| n.var) {
            if self.vars[i].pending.replace(value).is_none() {
                self.oks_buffered += 1;
            }
        }
    }

    /// Buffers a neighbor's `improve` for the next `improve` wave, with
    /// the same repeat and outsider rules as [`DbaAgent::buffer_ok`].
    fn buffer_improve(&mut self, from: AgentId, improve: u64) {
        if let Ok(i) = self.agents.binary_search_by_key(&from, |n| n.agent) {
            if self.agents[i].pending.replace(improve).is_none() {
                self.improves_buffered += 1;
            }
        }
    }
}

impl DistributedAgent for DbaAgent {
    type Message = DbaMessage;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<DbaMessage>) {
        if self.agents.is_empty() {
            // Isolated variable: settle its (unary) nogoods immediately —
            // no waves will ever run.
            self.sync_eval();
            self.eval_value(self.value, None);
            // Domains are nonempty by construction; the fallback keeps
            // this step function panic-free.
            let best = self
                .domain
                .iter()
                .min_by_key(|&d| self.eval_value(d, None))
                .unwrap_or(self.value);
            self.value = best;
            return;
        }
        self.send_ok(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<DbaMessage>>, out: &mut Outbox<DbaMessage>) {
        if self.agents.is_empty() {
            // An isolated variable has no waves to run (and already
            // settled at start); without this guard the vacuously-ready
            // wave loop below would spin forever.
            return;
        }
        for env in inbox {
            match env.payload {
                DbaMessage::Ok { var, value } => self.buffer_ok(var, value),
                DbaMessage::Improve { improve, .. } => self.buffer_improve(env.from, improve),
            }
        }
        // A buffered backlog can complete several waves back to back
        // (possible when the link policy delays or reorders messages).
        while self.wave_ready() {
            match self.phase {
                Phase::WaitOk => self.process_ok_wave(out),
                Phase::WaitImprove => self.process_improve_wave(out),
            }
        }
    }

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(self.var, self.value)]
    }

    fn take_checks(&mut self) -> u64 {
        self.store.take_checks()
    }

    fn stats(&self) -> AgentStats {
        self.stats
    }

    fn on_nudge(&mut self, out: &mut Outbox<DbaMessage>) {
        if self.agents.is_empty() {
            return;
        }
        // Resend the message of the wave this agent last completed — what
        // a stalled neighbor must be waiting for. A wave buffer holds one
        // cell per neighbor and a repeat overwrites its cell without
        // counting again, so a peer that already has the message absorbs
        // the copy idempotently.
        match self.phase {
            Phase::WaitOk => self.send_ok(out),
            Phase::WaitImprove => self.send_improve(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Nogood;

    fn x(i: u32) -> VariableId {
        VariableId::new(i)
    }
    fn v(i: u16) -> Value {
        Value::new(i)
    }

    fn two_agent_pair(mode: WeightMode) -> DbaAgent {
        DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            vec![
                Nogood::of([(x(0), v(0)), (x(1), v(0))]),
                Nogood::of([(x(0), v(1)), (x(1), v(1))]),
            ],
            vec![(x(1), AgentId::new(1))],
            mode,
        )
    }

    #[test]
    fn eval_counts_weighted_violations() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        agent.vars[0].view = Some(v(0));
        agent.sync_eval();
        let mut violated = Vec::new();
        assert_eq!(agent.eval_value(v(0), Some(&mut violated)), 1);
        assert_eq!(violated, vec![0]);
        violated.clear();
        assert_eq!(agent.eval_value(v(1), Some(&mut violated)), 0);
        assert!(violated.is_empty());
        // Four checks were metered (two nogoods × two evaluations).
        assert_eq!(agent.store.take_checks(), 4);
    }

    #[test]
    fn ok_wave_computes_improve_and_plans_move() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        assert_eq!(agent.my_eval, 1);
        assert_eq!(agent.my_improve, 1);
        assert_eq!(agent.planned_value, v(1));
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0].payload,
            DbaMessage::Improve {
                improve: 1,
                eval: 1
            }
        ));
    }

    #[test]
    fn improve_wave_moves_winner_only() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        let mut out = Outbox::new(agent.id());
        // ok? wave: neighbor at 0 → conflict, improve 1.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        // improve wave: neighbor also has improve 1 — tie, smaller id
        // (this agent) wins.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Improve {
                    improve: 1,
                    eval: 1,
                },
            )],
            &mut out,
        );
        assert_eq!(agent.value(), v(1));
    }

    #[test]
    fn improve_tie_loses_to_smaller_neighbor_id() {
        let mut agent = DbaAgent::new(
            AgentId::new(5),
            x(5),
            Domain::new(2),
            v(0),
            vec![Nogood::of([(x(5), v(0)), (x(1), v(0))])],
            vec![(x(1), AgentId::new(1))],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(5),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(5),
                DbaMessage::Improve {
                    improve: 1,
                    eval: 1,
                },
            )],
            &mut out,
        );
        // Tie at improve 1 but neighbor id 1 < 5: stay put.
        assert_eq!(agent.value(), v(0));
    }

    #[test]
    fn quasi_local_minimum_triggers_breakout() {
        // Both of this agent's values conflict with the neighbor's fixed
        // state: improve 0, eval > 0 for everyone → weights escalate.
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            vec![
                Nogood::of([(x(0), v(0)), (x(1), v(0))]),
                Nogood::of([(x(0), v(1)), (x(1), v(0))]),
            ],
            vec![(x(1), AgentId::new(1))],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        assert_eq!(agent.my_improve, 0);
        assert_eq!(agent.weight_of(0), Some(1));
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Improve {
                    improve: 0,
                    eval: 1,
                },
            )],
            &mut out,
        );
        // Only the violated nogood's weight rose.
        assert_eq!(agent.weight_of(0), Some(2));
        assert_eq!(agent.weight_of(1), Some(1));
    }

    fn ok(from: u32, to: u32, value: u16) -> Envelope<DbaMessage> {
        Envelope::new(
            AgentId::new(from),
            AgentId::new(to),
            DbaMessage::Ok {
                var: x(from),
                value: v(value),
            },
        )
    }

    fn improve(from: u32, to: u32, improve: u64) -> Envelope<DbaMessage> {
        Envelope::new(
            AgentId::new(from),
            AgentId::new(to),
            DbaMessage::Improve { improve, eval: 1 },
        )
    }

    #[test]
    fn early_and_duplicate_messages_fill_one_buffer_cell_each() {
        // Agent 1 between neighbours 0 and 2 (two-color path).
        let mut agent = DbaAgent::new(
            AgentId::new(1),
            x(1),
            Domain::new(2),
            v(0),
            vec![
                Nogood::of([(x(1), v(0)), (x(0), v(0))]),
                Nogood::of([(x(1), v(1)), (x(0), v(1))]),
                Nogood::of([(x(1), v(0)), (x(2), v(0))]),
                Nogood::of([(x(1), v(1)), (x(2), v(1))]),
            ],
            vec![(x(2), AgentId::new(2)), (x(0), AgentId::new(0))],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        // A duplicated ok? (a nudge resend) counts once: the wave still
        // waits for neighbour 2.
        agent.on_batch(vec![ok(0, 1, 1), ok(0, 1, 1)], &mut out);
        assert!(out.is_empty());
        assert_eq!(agent.phase, Phase::WaitOk);
        agent.on_batch(vec![ok(2, 1, 0)], &mut out);
        assert_eq!(agent.phase, Phase::WaitImprove);
        // x2 = 0 conflicts with the own 0; moving to 1 conflicts with
        // x0 = 1 instead: eval 1, improve 0.
        assert_eq!((agent.my_eval, agent.my_improve), (1, 0));
        let sent: Vec<AgentId> = out.drain().iter().map(|e| e.to).collect();
        assert_eq!(
            sent,
            vec![AgentId::new(0), AgentId::new(2)],
            "ascending ids"
        );

        // Neighbour 0 already finished this improve wave and sends its
        // next ok? early: buffered, nothing runs.
        agent.on_batch(vec![improve(0, 1, 0), ok(0, 1, 0)], &mut out);
        assert!(out.is_empty());
        assert_eq!(agent.phase, Phase::WaitImprove);
        // A nudge resends the pending wave's improve, unchanged.
        agent.on_nudge(&mut out);
        let resent = out.drain();
        assert_eq!(resent.len(), 2);
        assert!(resent.iter().all(|e| matches!(
            e.payload,
            DbaMessage::Improve {
                improve: 0,
                eval: 1
            }
        )));
        // Neighbour 0's improve arrives twice; the wave completes once:
        // nobody improves, so the violated nogood's weight rises and the
        // agent announces ok?.
        agent.on_batch(vec![improve(0, 1, 0), improve(2, 1, 0)], &mut out);
        assert_eq!(agent.weight_of(2), Some(2));
        assert_eq!(agent.phase, Phase::WaitOk);
        let announced = out.drain();
        assert_eq!(announced.len(), 2);
        assert!(announced
            .iter()
            .all(|e| matches!(e.payload, DbaMessage::Ok { value, .. } if value == v(0))));
        // The early ok? from neighbour 0 is still buffered: neighbour 2's
        // ok? alone completes the next ok? wave, against x0 = 0, x2 = 1.
        agent.on_batch(vec![ok(2, 1, 1)], &mut out);
        assert_eq!(agent.phase, Phase::WaitImprove);
        assert_eq!((agent.my_eval, agent.my_improve), (1, 0));
        assert_eq!(agent.violated_now, vec![0]);
    }

    #[test]
    fn per_pair_mode_groups_by_foreign_vars() {
        let agent = two_agent_pair(WeightMode::PerPair);
        // Both nogoods share the foreign set {x1}: one weight group.
        assert_eq!(agent.weights.len(), 1);
        assert_eq!(agent.weight_group, vec![0, 0]);
    }

    #[test]
    fn isolated_agent_batch_terminates() {
        // Regression: the simulator calls on_batch every cycle even with
        // an empty inbox; a neighborless agent must return immediately
        // instead of spinning in the vacuously-ready wave loop.
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            Vec::<Nogood>::new(),
            vec![],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(vec![], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn isolated_agent_settles_at_start() {
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            vec![Nogood::of([(x(0), v(0))])],
            vec![],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_start(&mut out);
        assert!(out.is_empty());
        assert_eq!(agent.value(), v(1));
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_initial_value_rejected() {
        let _ = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(9),
            Vec::<Nogood>::new(),
            vec![],
            WeightMode::PerNogood,
        );
    }
}
