//! The one place the benchmark reads the graph layer's kernel work counters.
//!
//! Today the counters are process-global (`qcm_graph::neighborhoods::perf`),
//! so a reading covers every mining thread of the process: callers take a
//! reading before and after a region in which nothing but the measured work
//! mines. When the counters move into a per-run ledger, only
//! [`kernel_counters`] changes.

use qcm_graph::neighborhoods::perf;

/// Kernel work done by the graph layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Edge-membership probes.
    pub edge_queries: u64,
    /// Edge probes answered by a bitset row.
    pub bitset_hits: u64,
    /// Neighbourhood / candidate-set intersections.
    pub intersections: u64,
}

impl KernelCounters {
    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            edge_queries: self.edge_queries.saturating_sub(earlier.edge_queries),
            bitset_hits: self.bitset_hits.saturating_sub(earlier.bitset_hits),
            intersections: self.intersections.saturating_sub(earlier.intersections),
        }
    }

    /// Bitset hits ÷ edge queries (0 when there were no queries).
    pub fn bitset_hit_ratio(&self) -> f64 {
        crate::report::ratio(self.bitset_hits as f64, self.edge_queries as f64)
    }
}

/// Reads the kernel counters now.
pub fn kernel_counters() -> KernelCounters {
    let snapshot = perf::snapshot();
    KernelCounters {
        edge_queries: snapshot.edge_queries,
        bitset_hits: snapshot.bitset_hits,
        intersections: snapshot.intersections,
    }
}
