//! Discrete-event execution of the Fig. 9 dependency graph.
//!
//! Eq. 1 is a closed-form *approximation* of the iteration latency with
//! overlap. This module cross-checks it by actually scheduling the
//! operator DAG on exclusive resources — the compute stream, the memory
//! (embedding) path and the network — with list scheduling: a node runs
//! as soon as its dependencies are done and its resource is free. The
//! paper's pipelining moves the *next* batch's input distribution onto
//! the network resource concurrently with this batch's compute.

use crate::iteration::IterationBreakdown;
use neo_telemetry::Phase;

/// The execution resource an operator occupies exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// SM compute stream (GEMMs, interaction).
    Compute,
    /// HBM-bound embedding path.
    Memory,
    /// NIC / NVLink collectives.
    Network,
}

/// One operator in the iteration DAG.
#[derive(Debug, Clone)]
pub struct Op {
    /// The phase the operator is (unique within the graph).
    pub phase: Phase,
    /// Execution time in seconds.
    pub duration: f64,
    /// Resource occupied while running.
    pub resource: Resource,
    /// Operators that must finish first.
    pub deps: Vec<Phase>,
}

/// A scheduled operator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Start time (seconds from iteration start).
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// The simulated iteration schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `(op phase, placement)` in completion order.
    pub ops: Vec<(Phase, Scheduled)>,
    /// Iteration makespan in seconds.
    pub makespan: f64,
}

impl Timeline {
    /// Placement of one operator.
    pub fn op(&self, phase: Phase) -> Option<Scheduled> {
        self.ops.iter().find(|(p, _)| *p == phase).map(|&(_, s)| s)
    }
}

/// Builds the Fig. 9 DAG from an Eq. 1 component breakdown.
///
/// Operators are [`Phase`]s, the names the trainer's spans carry.
///
/// With pipelining, the input AlltoAll and HtoD copy belong to the *next*
/// batch and run concurrently (they only gate the next iteration's
/// embedding lookup, not this one's); without it they gate the lookup.
pub fn fig9_graph(bd: &IterationBreakdown, pipelined: bool) -> Vec<Op> {
    let input_deps: Vec<Phase> = Vec::new();
    let lookup_deps: Vec<Phase> = if pipelined {
        vec![]
    } else {
        vec![Phase::InputA2a, Phase::Htod]
    };
    vec![
        Op {
            phase: Phase::InputA2a,
            duration: bd.input_a2a,
            resource: Resource::Network,
            deps: input_deps,
        },
        Op {
            phase: Phase::Htod,
            duration: bd.htod,
            resource: Resource::Memory,
            deps: vec![],
        },
        Op {
            phase: Phase::FwdBottomMlp,
            duration: bd.bot_mlp_fwd,
            resource: Resource::Compute,
            deps: vec![],
        },
        Op {
            phase: Phase::EmbLookup,
            duration: bd.emb_lookup,
            resource: Resource::Memory,
            deps: lookup_deps,
        },
        Op {
            phase: Phase::AlltoallFwd,
            duration: bd.a2a_fwd,
            resource: Resource::Network,
            deps: vec![Phase::EmbLookup],
        },
        Op {
            phase: Phase::Interaction,
            duration: bd.interaction / 2.0,
            resource: Resource::Compute,
            deps: vec![Phase::FwdBottomMlp, Phase::AlltoallFwd],
        },
        Op {
            phase: Phase::TopMlp,
            duration: bd.top_mlp_fwd,
            resource: Resource::Compute,
            deps: vec![Phase::Interaction],
        },
        Op {
            phase: Phase::TopMlpBwd,
            duration: bd.top_mlp_bwd,
            resource: Resource::Compute,
            deps: vec![Phase::TopMlp],
        },
        Op {
            phase: Phase::InteractionBwd,
            duration: bd.interaction / 2.0,
            resource: Resource::Compute,
            deps: vec![Phase::TopMlpBwd],
        },
        Op {
            phase: Phase::AlltoallBwd,
            duration: bd.a2a_bwd,
            resource: Resource::Network,
            deps: vec![Phase::InteractionBwd],
        },
        Op {
            phase: Phase::SparseOptim,
            duration: bd.emb_update,
            resource: Resource::Memory,
            deps: vec![Phase::AlltoallBwd],
        },
        Op {
            phase: Phase::BwdBottomMlp,
            duration: bd.bot_mlp_bwd,
            resource: Resource::Compute,
            deps: vec![Phase::InteractionBwd],
        },
        Op {
            phase: Phase::AllreduceTop,
            duration: bd.allreduce / 2.0,
            resource: Resource::Network,
            deps: vec![Phase::TopMlpBwd],
        },
        Op {
            phase: Phase::AllreduceBot,
            duration: bd.allreduce / 2.0,
            resource: Resource::Network,
            deps: vec![Phase::BwdBottomMlp],
        },
    ]
}

/// List-schedules the DAG: among ready ops, earliest-possible-start first
/// (ties broken by declaration order), each resource strictly serial.
///
/// # Panics
///
/// Panics if the graph references an unknown dependency or contains a
/// cycle.
pub fn simulate(ops: &[Op]) -> Timeline {
    let idx = |phase: Phase| -> usize {
        #[expect(
            clippy::panic,
            reason = "malformed-graph contract documented under # Panics"
        )]
        ops.iter()
            .position(|o| o.phase == phase)
            .unwrap_or_else(|| panic!("unknown dependency {phase}"))
    };
    let deps: Vec<Vec<usize>> = ops
        .iter()
        .map(|o| o.deps.iter().map(|&d| idx(d)).collect())
        .collect();

    let mut finish: Vec<Option<f64>> = vec![None; ops.len()];
    let mut free = [0.0f64; 3]; // per Resource
    let mut done = 0usize;
    let mut order = Vec::new();
    while done < ops.len() {
        // ready ops: all deps finished
        let mut best: Option<(f64, usize)> = None;
        for (i, op) in ops.iter().enumerate() {
            if finish[i].is_some() {
                continue;
            }
            let ready_at = deps[i]
                .iter()
                .try_fold(0.0f64, |acc, &d| finish[d].map(|f| acc.max(f)));
            let Some(ready_at) = ready_at else { continue };
            let s = ready_at.max(free[op.resource as usize]);
            if best.is_none_or(|(bs, _)| s < bs) {
                best = Some((s, i));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "cycle contract documented under # Panics"
        )]
        let (s, i) = best.expect("cycle in op graph");
        let e = s + ops[i].duration;
        finish[i] = Some(e);
        free[ops[i].resource as usize] = e;
        order.push((ops[i].phase, Scheduled { start: s, end: e }));
        done += 1;
    }
    #[expect(clippy::expect_used, reason = "the loop above scheduled every op")]
    let makespan = finish
        .iter()
        .map(|f| f.expect("scheduled"))
        .fold(0.0, f64::max);
    Timeline {
        ops: order,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iteration::{IterationModel, ModelScenario};
    use neo_dlrm_model::ModelProfile;

    fn breakdown(pipelined: bool) -> IterationBreakdown {
        let m = IterationModel::prototype();
        let mut scen = ModelScenario::from_profile(&ModelProfile::a2(), 65536).with_imbalance(1.3);
        if !pipelined {
            scen = scen.without_pipelining();
        }
        m.breakdown(&scen, 16)
    }

    #[test]
    fn schedule_respects_dependencies() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        let get = |p: Phase| t.op(p).unwrap();
        assert!(get(Phase::AlltoallFwd).start >= get(Phase::EmbLookup).end - 1e-12);
        assert!(get(Phase::Interaction).start >= get(Phase::FwdBottomMlp).end - 1e-12);
        assert!(get(Phase::Interaction).start >= get(Phase::AlltoallFwd).end - 1e-12);
        assert!(get(Phase::TopMlpBwd).start >= get(Phase::TopMlp).end - 1e-12);
        assert!(get(Phase::SparseOptim).start >= get(Phase::AlltoallBwd).end - 1e-12);
        assert!(get(Phase::AllreduceBot).start >= get(Phase::BwdBottomMlp).end - 1e-12);
    }

    #[test]
    fn resources_never_overlap() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        for res in [Resource::Compute, Resource::Memory, Resource::Network] {
            let mut spans: Vec<Scheduled> = ops
                .iter()
                .filter(|o| o.resource == res)
                .map(|o| t.op(o.phase).unwrap())
                .collect();
            spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in spans.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12, "{res:?} overlap: {w:?}");
            }
        }
    }

    #[test]
    fn event_sim_brackets_eq1_closed_form() {
        // Eq. 1 is the optimistic closed form: it overlaps the input
        // AlltoAll and the AllReduce freely, while the event sim charges
        // their contention for the single NIC. So the event-sim makespan
        // must sit at-or-above Eq. 1 (minus float slack) but within ~50%
        // — the two are approximations of the same machine.
        for pipelined in [true, false] {
            let bd = breakdown(pipelined);
            let t = simulate(&fig9_graph(&bd, pipelined));
            let eq1 = bd.t_total - 4e-3; // strip the fixed overhead term
            assert!(
                t.makespan >= eq1 * 0.8,
                "pipelined={pipelined}: sim {:.2} ms far below Eq.1 {:.2} ms",
                t.makespan * 1e3,
                eq1 * 1e3
            );
            assert!(
                t.makespan <= eq1 * 1.5,
                "pipelined={pipelined}: sim {:.2} ms far above Eq.1 {:.2} ms",
                t.makespan * 1e3,
                eq1 * 1e3
            );
        }
    }

    #[test]
    fn pipelining_shortens_the_makespan() {
        let bd = breakdown(false); // same component durations
        let with = simulate(&fig9_graph(&bd, true)).makespan;
        let without = simulate(&fig9_graph(&bd, false)).makespan;
        assert!(with < without, "{with} < {without}");
    }

    #[test]
    fn makespan_bounded_by_serial_sum_and_critical_path() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        let serial: f64 = ops.iter().map(|o| o.duration).sum();
        assert!(
            t.makespan <= serial + 1e-12,
            "never worse than fully serial"
        );
        // never better than the longest single op
        let longest = ops.iter().map(|o| o.duration).fold(0.0, f64::max);
        assert!(t.makespan >= longest);
    }

    #[test]
    #[should_panic(expected = "unknown dependency")]
    fn unknown_dep_panics() {
        simulate(&[Op {
            phase: Phase::TopMlp,
            duration: 1.0,
            resource: Resource::Compute,
            deps: vec![Phase::Interaction],
        }]);
    }
}
