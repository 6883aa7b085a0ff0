//! Fixture: seeded `recovery-accounting` violations. Not compiled —
//! scanned by the analyzer's tests, which assert the exact lines below.

impl Cluster {
    /// Accounted recovery: restores a checkpoint and charges the replayed
    /// rounds plus the reshipped words. Must NOT be flagged.
    fn restore_checkpoint(&mut self, cp: &Checkpoint) -> usize {
        self.inboxes = cp.inboxes.clone();
        self.charge_rounds(1);
        self.charge_words(cp.words(), cp.words() as u64);
        cp.words()
    }

    /// Unaccounted: rolls cluster state back for free. Line 15: violation.
    fn recover_silently(&mut self, cp: &Checkpoint) {
        self.inboxes = cp.inboxes.clone();
        self.provenance = cp.provenance.clone();
    }

    /// Read-only recovery inspection — `&self` is out of scope.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery_log
    }
}

/// Unaccounted free function driving the cluster. Line 27: violation.
pub fn retry_lost_messages(cluster: &mut Cluster, pending: &[Message]) {
    for msg in pending {
        cluster.inboxes[msg.dst].push(msg.clone());
    }
}

/// A user program restoring its own snapshot is not cluster state.
impl MachineProgram for FixtureSum {
    fn restore(&mut self, snapshot: &[u64]) {
        self.acc = snapshot[0];
    }
}

// csmpc-allow(recovery-accounting): fixture for the suppressed case
pub fn retry_suppressed(cluster: &mut Cluster) {
    cluster.inboxes.clear();
}

impl Cluster {
    /// Accounted speculation: the spare's duplicated work and re-shipped
    /// snapshot land on the ledger via `charge_recovery`. Must NOT be
    /// flagged.
    fn speculate_straggler(&mut self, machine: usize) {
        self.spares.push(machine);
        self.charge_recovery(1, self.max_storage);
    }

    /// Unaccounted: decommissions a machine for free — migration words
    /// never hit the ledger. Line 56: violation.
    fn quarantine_machine(&mut self, machine: usize) {
        self.quarantined.insert(machine);
        self.spares.retain(|&m| m != machine);
    }
}

/// Unaccounted free function idling the barrier before a retry — the
/// stall rounds are real and must be charged. Line 64: violation.
pub fn backoff_before_retry(cluster: &mut Cluster, stall: usize) {
    cluster.backoff_until = cluster.round + stall;
}

// csmpc-allow(recovery-accounting): fixture for the suppressed case
fn quarantine_suppressed(cluster: &mut Cluster) {
    cluster.quarantined.clear();
}
