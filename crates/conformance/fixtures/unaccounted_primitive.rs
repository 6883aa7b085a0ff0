//! Fixture: seeded `unaccounted-primitive` violations. Not compiled —
//! scanned by the analyzer's tests, which assert the exact lines below.

pub struct FixtureGraph {
    n: usize,
    degs: Vec<usize>,
}

impl FixtureGraph {
    /// Accounted: charges the ledger. Must NOT be flagged.
    pub fn count_nodes(&self, cluster: &mut Cluster) -> usize {
        cluster.charge_rounds(1);
        self.n
    }

    /// Unaccounted: drives the cluster but never charges. Line 17: violation.
    pub fn leak_degree_sum(&self, cluster: &mut Cluster) -> usize {
        let _ = cluster.num_machines();
        self.degs.iter().sum()
    }

    /// A multi-line signature must be handled too. Line 23: violation.
    pub fn leak_labels<T: Clone>(
        &self,
        cluster: &mut Cluster,
        labels: &[T],
    ) -> Vec<T> {
        let _ = cluster.num_machines();
        labels.to_vec()
    }

    /// No cluster involved — out of scope for the lint.
    pub fn degree(&self, v: usize) -> usize {
        self.degs[v]
    }

    // csmpc-allow(unaccounted-primitive): fixture for the suppressed case
    pub fn suppressed_probe(&self, cluster: &mut Cluster) -> usize {
        let _ = cluster.num_machines();
        self.n
    }
}
