//! Seeded violation in the exact engine's phase shape: `impl Cluster`
//! methods that take the engine state (`&mut EngineState`) alongside
//! `&mut self`. The restore below rolls the cluster back from a
//! checkpoint but never charges the ledger. Not compiled — scanned by the
//! analyzer's tests, which assert the exact lines below.

impl Cluster {
    pub fn run_program_with_faults(&mut self, machines: &mut [Shard]) -> Result<(), MpcError> {
        let mut state = EngineState::new(self.num_machines());
        let cp = self.capture_checkpoint(&state, machines);
        self.strike_faults(&mut state, machines, &cp);
        self.charge_rounds(1);
        Ok(())
    }

    // Line 17: flagged by charge-flow too — nothing below it charges.
    fn strike_faults(&mut self, state: &mut EngineState, machines: &mut [Shard], cp: &Checkpoint) {
        self.quarantined.clear();
        self.recover(state, machines, cp);
    }

    // Line 25: flagged by recovery-accounting (a `recover` path with no
    // charge token) and by charge-flow (it ships `inboxes` back with no
    // charge on any path below it).
    fn recover(&mut self, state: &mut EngineState, machines: &mut [Shard], cp: &Checkpoint) {
        state.incoming.clear();
        for inbox in &cp.inboxes {
            state.incoming.extend(inbox.iter().cloned());
        }
        for (shard, snap) in machines.iter_mut().zip(&cp.program) {
            shard.restore(snap);
        }
        self.provenance = (*cp.provenance).clone();
        state.transport = cp.transport.clone();
    }

    fn capture_checkpoint(&self, state: &EngineState, machines: &[Shard]) -> Checkpoint {
        Checkpoint::new(&state.incoming, machines)
    }
}
