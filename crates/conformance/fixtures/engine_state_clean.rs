//! Clean counterpart of `engine_state_violation.rs`: the same `impl
//! Cluster` phase methods over `&mut EngineState`, but the restore charges
//! one restore round plus the re-shipped checkpoint words, so neither
//! recovery-accounting nor charge-flow has anything to report.

impl Cluster {
    pub fn run_program_with_faults(&mut self, machines: &mut [Shard]) -> Result<(), MpcError> {
        let mut state = EngineState::new(self.num_machines());
        let cp = self.capture_checkpoint(&state, machines);
        self.strike_faults(&mut state, machines, &cp);
        self.charge_rounds(1);
        Ok(())
    }

    fn strike_faults(&mut self, state: &mut EngineState, machines: &mut [Shard], cp: &Checkpoint) {
        self.quarantined.clear();
        self.recover(state, machines, cp);
    }

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
        self.charge_recovery(1, cp.words().max(1));
    }

    fn capture_checkpoint(&self, state: &EngineState, machines: &[Shard]) -> Checkpoint {
        Checkpoint::new(&state.incoming, machines)
    }
}
