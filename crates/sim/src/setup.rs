//! Factories wiring schedulers, cache policies and databases together.

use jaws_cache::{Lru, LruK, ReplacementPolicy, Slru, Urc};
use jaws_morton::AtomId;
use jaws_scheduler::{
    CasJobs, GatingConfig, Jaws, JawsConfig, LifeRaft, MetricParams, NoShare, QosScheduler,
    Scheduler,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig, TurbDb};
use serde::{Deserialize, Serialize};

/// The five schedulers of the paper's evaluation (§VI-B), plus knobs for the
/// ablation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Arrival order, no I/O sharing.
    NoShare,
    /// LifeRaft with age bias α = 1 (arrival order with co-scheduling).
    LifeRaft1,
    /// LifeRaft with age bias α = 0 (pure contention).
    LifeRaft2,
    /// JAWS without job-awareness.
    Jaws1 {
        /// Batch size k.
        batch_k: usize,
    },
    /// Full JAWS.
    Jaws2 {
        /// Batch size k.
        batch_k: usize,
    },
    /// CasJobs-style two-class multi-queue baseline (related work, §II):
    /// short queries preempt, no data sharing.
    CasJobs {
        /// Estimated-service threshold between classes, in ms.
        threshold_ms: u32,
    },
    /// Earliest-deadline-first with deadlines proportional to query size
    /// (the §VII QoS extension); `stretch_x10` is the stretch factor × 10.
    Qos {
        /// Deadline stretch × 10 (e.g. 30 = a query tolerates 3× its own
        /// estimated service time).
        stretch_x10: u32,
    },
}

impl SchedulerKind {
    /// All five evaluation schedulers at the paper's defaults (k = 15).
    pub fn evaluation_set() -> [SchedulerKind; 5] {
        [
            SchedulerKind::NoShare,
            SchedulerKind::LifeRaft1,
            SchedulerKind::LifeRaft2,
            SchedulerKind::Jaws1 { batch_k: 15 },
            SchedulerKind::Jaws2 { batch_k: 15 },
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::NoShare => "NoShare",
            SchedulerKind::LifeRaft1 => "LifeRaft_1",
            SchedulerKind::LifeRaft2 => "LifeRaft_2",
            SchedulerKind::Jaws1 { .. } => "JAWS_1",
            SchedulerKind::Jaws2 { .. } => "JAWS_2",
            SchedulerKind::CasJobs { .. } => "CasJobs",
            SchedulerKind::Qos { .. } => "JAWS-QoS",
        }
    }
}

/// The cache replacement policies of Table I (plus plain LRU as a reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// Plain least-recently-used.
    Lru,
    /// LRU-K (K = 2): the SQL Server baseline.
    LruK,
    /// Segmented LRU, 5% protected segment.
    Slru,
    /// Utility Ranked Caching driven by scheduler knowledge.
    Urc,
}

impl CachePolicyKind {
    /// The three policies of Table I.
    pub fn table1_set() -> [CachePolicyKind; 3] {
        [
            CachePolicyKind::LruK,
            CachePolicyKind::Slru,
            CachePolicyKind::Urc,
        ]
    }
}

/// Instantiates a cache policy. `cache_atoms` sizes SLRU's protected segment
/// (5% per Table I).
pub fn build_policy(
    kind: CachePolicyKind,
    cache_atoms: usize,
) -> Box<dyn ReplacementPolicy<AtomId>> {
    match kind {
        CachePolicyKind::Lru => Box::new(Lru::new()),
        CachePolicyKind::LruK => Box::new(LruK::new()),
        CachePolicyKind::Slru => Box::new(Slru::for_cache(cache_atoms)),
        CachePolicyKind::Urc => Box::new(Urc::new()),
    }
}

/// Instantiates a scheduler. `run_len` is the run length `r` shared by α
/// adaptation and cache run boundaries; `gate_timeout_ms` bounds gated waits.
pub fn build_scheduler(
    kind: SchedulerKind,
    params: MetricParams,
    run_len: usize,
    gate_timeout_ms: f64,
) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::NoShare => Box::new(NoShare::new(run_len)),
        SchedulerKind::LifeRaft1 => Box::new(LifeRaft::arrival_order(params, run_len)),
        SchedulerKind::LifeRaft2 => Box::new(LifeRaft::contention(params, run_len)),
        SchedulerKind::Jaws1 { batch_k } => Box::new(Jaws::new(JawsConfig {
            batch_k,
            run_len,
            ..JawsConfig::jaws1(params)
        })),
        SchedulerKind::Jaws2 { batch_k } => Box::new(Jaws::new(JawsConfig {
            batch_k,
            run_len,
            gating: GatingConfig {
                gate_timeout_ms,
                ..GatingConfig::default()
            },
            ..JawsConfig::jaws2(params)
        })),
        SchedulerKind::CasJobs { threshold_ms } => {
            Box::new(CasJobs::new(params, threshold_ms as f64, run_len))
        }
        SchedulerKind::Qos { stretch_x10 } => Box::new(QosScheduler::new(
            params,
            stretch_x10 as f64 / 10.0,
            run_len,
        )),
    }
}

/// Opens a database with the given cache configuration.
pub fn build_db(
    db: DbConfig,
    cost: CostModel,
    mode: DataMode,
    cache_atoms: usize,
    policy: CachePolicyKind,
) -> TurbDb {
    TurbDb::open(
        db,
        cost,
        mode,
        cache_atoms,
        build_policy(policy, cache_atoms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_matches_paper_lineup() {
        let names: Vec<&str> = SchedulerKind::evaluation_set()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(
            names,
            vec!["NoShare", "LifeRaft_1", "LifeRaft_2", "JAWS_1", "JAWS_2"]
        );
    }

    #[test]
    fn factories_produce_matching_names() {
        let params = MetricParams::paper_testbed();
        for kind in SchedulerKind::evaluation_set() {
            let s = build_scheduler(kind, params, 50, 60_000.0);
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn policy_factory_produces_each_kind() {
        assert_eq!(build_policy(CachePolicyKind::Lru, 100).name(), "LRU");
        assert_eq!(build_policy(CachePolicyKind::LruK, 100).name(), "LRU-K");
        assert_eq!(build_policy(CachePolicyKind::Slru, 100).name(), "SLRU");
        assert_eq!(build_policy(CachePolicyKind::Urc, 100).name(), "URC");
    }
}
