//! Guest counts: what the simulated machine did. They explain host time
//! and must be bit-identical across engines and across any change meant
//! only to make the simulator faster.

use crate::report::Metrics;
use smtp::types::{Fingerprint, Histogram};
use smtp::RunStats;

/// Digest of a run's guest counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The guest counts of one completed run. `sim_cycles` is
/// `System::now()` after the run: it includes the protocol drain after
/// the application finished, which `RunStats::cycles` stops short of.
pub fn guest_counts(s: &RunStats, sim_cycles: u64) -> Metrics {
    let mut remote = Histogram::new();
    // Classes 2 and 3 are the remote read and read-exclusive misses.
    for h in &s.latency.end_to_end[2..] {
        remote.merge(h);
    }
    let elapsed = s.spatial.elapsed.max(1) as f64;
    let link_util_peak = s
        .spatial
        .links
        .iter()
        .map(|l| l.busy as f64 / elapsed)
        .fold(0.0, f64::max);
    let mut m = Metrics::new();
    m.set("system.sim_cycles", sim_cycles as f64);
    m.set("system.app_cycles", s.cycles as f64);
    m.set("pipeline.app_insts", s.app_instructions as f64);
    m.set("pipeline.prot_insts", s.protocol_instructions as f64);
    m.set("pipeline.mem_stall_frac", s.memory_stall_frac());
    m.set("cache.l1d_miss_rate", s.l1d_app_miss_rate);
    m.set("cache.l2_miss_rate", s.l2_app_miss_rate);
    m.set("cache.remote_miss_p50", remote.percentile(50.0) as f64);
    m.set("cache.remote_miss_p95", remote.percentile(95.0) as f64);
    m.set("protocol.handlers", s.handlers as f64);
    m.set("protocol.occupancy_peak", s.protocol_occupancy_peak);
    m.set(
        "protocol.dispatch_wait_p95",
        s.dispatch_queue_wait.percentile(95.0) as f64,
    );
    m.set(
        "mem.sdram_wait_p95",
        s.sdram_queue_wait.percentile(95.0) as f64,
    );
    m.set("mem.ecc_corrected", s.faults.ecc_corrected as f64);
    m.set("noc.msgs", s.network.messages as f64);
    m.set("noc.bytes", s.network.bytes as f64);
    m.set("noc.link_util_peak", link_util_peak);
    m.set("noc.retransmits", s.faults.link_retransmits as f64);
    m.set(
        "workloads.sync_ops",
        (s.lock_acquires + s.barrier_episodes) as f64,
    );
    m
}

/// Digest of guest counts: every name and the exact bits of its value.
pub fn digest(counts: &Metrics) -> Digest {
    let mut f = Fingerprint::new();
    for (name, value) in counts.iter() {
        f.mix_str(name);
        f.mix_f64(value);
    }
    Digest(f.finish())
}

/// Compare a run's digest with the expected one.
pub fn check(got: Digest, expected: Digest) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "guest digest {got} differs from expected {expected}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(cycles: f64) -> Metrics {
        let mut m = Metrics::new();
        m.set("system.sim_cycles", cycles);
        m.set("noc.msgs", 10.0);
        m
    }

    #[test]
    fn digest_sees_every_value() {
        assert_eq!(digest(&counts(5.0)), digest(&counts(5.0)));
        assert_ne!(digest(&counts(5.0)), digest(&counts(6.0)));
    }

    #[test]
    fn perturbed_digest_is_a_failure() {
        let d = digest(&counts(5.0));
        assert!(check(d, d).is_ok());
        assert!(check(Digest(d.0 ^ 1), d).is_err());
    }
}
