//! EventSets: PAPI's abstraction for a set of simultaneously-measured
//! events — here with the paper's §IV.E redesign.
//!
//! The old perf_event component assumed one perf PMU per EventSet, because
//! one EventSet mapped to one perf event *group* and groups cannot span
//! PMUs. The redesign tracks the PMU type of every added event and splits
//! the EventSet into **multiple perf event groups, one per PMU type**;
//! start/stop/read/reset then iterate over all groups (the extra layer of
//! indirection §V.5 worries about, measurable in the benches).
//!
//! In [`crate::PapiMode::Legacy`] the old behaviour is preserved: adding an
//! event from a second PMU fails with `PAPI_ECNFLCT`
//! ([`PapiError::MultiPmuUnsupported`]), and RAPL/uncore events must live
//! in their own component EventSets.

use crate::error::PapiError;
use simcpu::pmu::COUNTER_MASK;
use simcpu::types::CpuId;
use simos::perf::{EventFd, PerfAttr, PmuKind, Target};
use simos::task::Pid;

/// Handle to an EventSet within a [`crate::Papi`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventSetId(pub usize);

/// EventSet lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EsState {
    Stopped,
    Running,
}

/// What the EventSet is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Follow a task (PAPI's default is the calling thread; the simulation
    /// requires an explicit pid).
    Task(Pid),
    /// Count system-wide on one CPU.
    Cpu(CpuId),
}

/// Legacy component separation (pre-paper PAPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    PerfEvent,
    Rapl,
    Uncore,
}

impl Component {
    pub fn name(self) -> &'static str {
        match self {
            Component::PerfEvent => "perf_event",
            Component::Rapl => "rapl",
            Component::Uncore => "perf_event_uncore",
        }
    }

    /// Which legacy component an event of the given PMU kind belongs to.
    pub fn for_pmu_kind(kind: PmuKind) -> Component {
        match kind {
            PmuKind::Rapl => Component::Rapl,
            PmuKind::Uncore => Component::Uncore,
            _ => Component::PerfEvent,
        }
    }
}

/// One native event inside an EventSet.
#[derive(Debug, Clone)]
pub struct NativeRef {
    /// Fully-qualified resolved name.
    pub fq_name: String,
    pub attr: PerfAttr,
    pub pmu_kind: PmuKind,
    /// CPUs the PMU covers (for choosing system-scope targets).
    pub pmu_first_cpu: CpuId,
    /// The open fd, once the set has been started at least once.
    pub fd: Option<EventFd>,
    /// 48-bit unwrap state: the raw counter value observed at the last
    /// start/reset (core-PMU events only). Counters may begin anywhere in
    /// the 48-bit range and wrap mid-run; [`NativeRef::since_base`]
    /// recovers the exact delta regardless.
    pub wrap_base: Option<u64>,
}

impl NativeRef {
    /// The count since the last start/reset: `raw` unwrapped modulo 2^48
    /// against the wrap base when there is one, `raw` itself otherwise.
    pub fn since_base(&self, raw: u64) -> u64 {
        match self.wrap_base {
            Some(base) => raw.wrapping_sub(base) & COUNTER_MASK,
            None => raw,
        }
    }
}

/// A user-visible entry: either a native event or a derived preset.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The name the user added ("PAPI_TOT_INS", "adl_glc::…").
    pub label: String,
    /// Indices into `natives`; presets on hybrid machines reference one
    /// native per core-type PMU and report the *sum* (derived-add).
    pub native_indices: Vec<usize>,
}

/// The EventSet.
#[derive(Debug)]
pub struct EventSet {
    pub id: EventSetId,
    pub state: EsState,
    pub attach: Option<Attach>,
    pub natives: Vec<NativeRef>,
    pub entries: Vec<Entry>,
    pub multiplex: bool,
    /// Group leader fds, populated at first start.
    pub group_leaders: Vec<EventFd>,
    /// Legacy component binding (None until the first event is added).
    pub component: Option<Component>,
}

impl EventSet {
    pub fn new(id: EventSetId) -> EventSet {
        EventSet {
            id,
            state: EsState::Stopped,
            attach: None,
            natives: Vec::new(),
            entries: Vec::new(),
            multiplex: false,
            group_leaders: Vec::new(),
            component: None,
        }
    }

    /// Whether the fds have been created.
    pub fn opened(&self) -> bool {
        !self.group_leaders.is_empty() || self.natives.iter().any(|n| n.fd.is_some())
    }

    /// Distinct PMU types present, in first-seen order.
    pub fn pmu_types(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for n in &self.natives {
            if !out.contains(&n.attr.pmu_type) {
                out.push(n.attr.pmu_type);
            }
        }
        out
    }

    /// The perf target for one native, honouring system-scope PMUs.
    pub fn target_for(&self, native: &NativeRef) -> Result<Target, PapiError> {
        let attach = self.attach.ok_or(PapiError::NotAttached)?;
        Ok(match (native.pmu_kind, attach) {
            // RAPL/uncore are per-package: always cpu scope.
            (PmuKind::Rapl | PmuKind::Uncore, _) => Target::Cpu(native.pmu_first_cpu),
            (_, Attach::Task(pid)) => Target::Thread(pid),
            (_, Attach::Cpu(cpu)) => Target::Cpu(cpu),
        })
    }
}

/// Plan perf event groups: indices of `pmu_types` (one per native), grouped
/// per PMU type — or one group per native under multiplexing (PAPI's
/// multiplex mode makes every event its own group leader, as the paper
/// notes).
pub fn plan_groups(native_pmu_types: &[u32], multiplex: bool) -> Vec<Vec<usize>> {
    if multiplex {
        return (0..native_pmu_types.len()).map(|i| vec![i]).collect();
    }
    let mut order: Vec<u32> = Vec::new();
    for &t in native_pmu_types {
        if !order.contains(&t) {
            order.push(t);
        }
    }
    order
        .into_iter()
        .map(|t| {
            native_pmu_types
                .iter()
                .enumerate()
                .filter(|(_, &pt)| pt == t)
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    mod props {
        use super::super::plan_groups;
        use proptest::prelude::*;

        proptest! {
            /// plan_groups is a partition: every native index appears in
            /// exactly one group, groups are PMU-homogeneous, and the
            /// leader (first member) owns the group's PMU type.
            #[test]
            fn plan_is_a_homogeneous_partition(
                types in proptest::collection::vec(0u32..6, 0..40),
                multiplex in proptest::bool::ANY,
            ) {
                let plan = plan_groups(&types, multiplex);
                let mut seen = vec![false; types.len()];
                for group in &plan {
                    prop_assert!(!group.is_empty());
                    let pmu = types[group[0]];
                    for &i in group {
                        prop_assert!(!seen[i], "index {i} in two groups");
                        seen[i] = true;
                        prop_assert_eq!(types[i], pmu, "mixed-PMU group");
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "index dropped");
                if multiplex {
                    prop_assert!(plan.iter().all(|g| g.len() == 1));
                }
            }
        }
    }

    #[test]
    fn plan_groups_splits_by_pmu() {
        // The paper's Raptor Lake example: P, P, E, RAPL → 3 groups.
        let groups = plan_groups(&[4, 4, 5, 6], false);
        assert_eq!(groups, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn plan_groups_single_pmu_one_group() {
        assert_eq!(plan_groups(&[4, 4, 4], false), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn plan_groups_multiplex_every_event_alone() {
        assert_eq!(
            plan_groups(&[4, 4, 5], true),
            vec![vec![0], vec![1], vec![2]]
        );
    }

    #[test]
    fn plan_groups_empty() {
        assert!(plan_groups(&[], false).is_empty());
    }

    #[test]
    fn component_mapping() {
        assert_eq!(
            Component::for_pmu_kind(PmuKind::CoreHw),
            Component::PerfEvent
        );
        assert_eq!(Component::for_pmu_kind(PmuKind::Rapl), Component::Rapl);
        assert_eq!(Component::for_pmu_kind(PmuKind::Uncore), Component::Uncore);
        assert_eq!(Component::Uncore.name(), "perf_event_uncore");
    }

    #[test]
    fn pmu_types_first_seen_order() {
        let mut es = EventSet::new(EventSetId(0));
        for t in [7u32, 4, 7, 5] {
            es.natives.push(NativeRef {
                fq_name: format!("ev{t}"),
                attr: PerfAttr::counting(t, simcpu::events::ArchEvent::Instructions),
                pmu_kind: PmuKind::CoreHw,
                pmu_first_cpu: CpuId(0),
                fd: None,
                wrap_base: None,
            });
        }
        assert_eq!(es.pmu_types(), vec![7, 4, 5]);
    }

    #[test]
    fn target_requires_attach() {
        let es = EventSet::new(EventSetId(0));
        let n = NativeRef {
            fq_name: "x".into(),
            attr: PerfAttr::counting(4, simcpu::events::ArchEvent::Instructions),
            pmu_kind: PmuKind::CoreHw,
            pmu_first_cpu: CpuId(0),
            fd: None,
            wrap_base: None,
        };
        assert_eq!(es.target_for(&n), Err(PapiError::NotAttached));
    }

    #[test]
    fn rapl_native_targets_cpu_even_when_task_attached() {
        let mut es = EventSet::new(EventSetId(0));
        es.attach = Some(Attach::Task(Pid(3)));
        let n = NativeRef {
            fq_name: "rapl::RAPL_ENERGY_PKG".into(),
            attr: PerfAttr::counting(8, simcpu::events::ArchEvent::Instructions),
            pmu_kind: PmuKind::Rapl,
            pmu_first_cpu: CpuId(0),
            fd: None,
            wrap_base: None,
        };
        assert_eq!(es.target_for(&n), Ok(Target::Cpu(CpuId(0))));
        let hw = NativeRef {
            pmu_kind: PmuKind::CoreHw,
            ..n
        };
        assert_eq!(es.target_for(&hw), Ok(Target::Thread(Pid(3))));
    }
}
