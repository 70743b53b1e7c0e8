//! The synchronous simulator's termination order. After every cycle the
//! observer ends the run on a solution first, then on an agent's proof of
//! insolubility, then at the cycle limit (`cycles == cycle_limit`).

use discsp_core::{AgentId, DistributedCsp, Domain, Termination, Value, VarValue, VariableId};
use discsp_runtime::{
    AgentStats, Classify, DistributedAgent, Envelope, MessageClass, Outbox, SyncSimulator,
};

#[derive(Debug, Clone)]
struct Silent;

impl Classify for Silent {
    fn class(&self) -> MessageClass {
        MessageClass::Ok
    }
}

/// Holds its variable at a fixed value, sends nothing, and may claim
/// from the start that the problem is insoluble.
struct Fixed {
    id: AgentId,
    value: Value,
    insoluble: bool,
}

impl DistributedAgent for Fixed {
    type Message = Silent;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, _out: &mut Outbox<Silent>) {}

    fn on_batch(&mut self, _inbox: Vec<Envelope<Silent>>, _out: &mut Outbox<Silent>) {}

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
    }

    fn take_checks(&mut self) -> u64 {
        0
    }

    fn stats(&self) -> AgentStats {
        AgentStats::default()
    }

    fn detected_insoluble(&self) -> bool {
        self.insoluble
    }
}

/// Two variables that must differ, held at `values`; agent 0 claims
/// insolubility when `insoluble` is set.
fn run(values: [u16; 2], insoluble: bool) -> (Termination, u64) {
    let mut b = DistributedCsp::builder();
    let x = b.variable(Domain::new(2));
    let y = b.variable(Domain::new(2));
    b.not_equal(x, y).expect("edge");
    let problem = b.build().expect("problem");
    let agents = (0..2)
        .map(|i| Fixed {
            id: AgentId::new(i),
            value: Value::new(values[i as usize]),
            insoluble: insoluble && i == 0,
        })
        .collect();
    let mut sim = SyncSimulator::new(agents);
    sim.cycle_limit(3);
    let metrics = sim.run(&problem).expect("runs").outcome.metrics;
    (metrics.termination, metrics.cycles)
}

#[test]
fn a_solution_is_observed_before_a_claim_of_insolubility() {
    assert_eq!(run([0, 1], true), (Termination::Solved, 1));
    assert_eq!(run([0, 0], true), (Termination::Insoluble, 1));
    assert_eq!(run([0, 0], false), (Termination::CutOff, 3));
}
