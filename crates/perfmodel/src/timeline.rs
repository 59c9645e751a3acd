//! Discrete-event execution of the Fig. 9 dependency graph.
//!
//! Eq. 1 is a closed-form *approximation* of the iteration latency with
//! overlap. This module cross-checks it by actually scheduling the
//! operator DAG on exclusive resources — the compute stream, the memory
//! (embedding) path, the main-stream network and the posted comm lane —
//! with list scheduling: a node runs as soon as its dependencies are done
//! and its resource is free. The paper's pipelining moves the *next*
//! batch's input distribution onto the network resource concurrently with
//! this batch's compute, and posts the pooled AlltoAll / AllReduce halves
//! on the comm lane so they run under the backward pass.

use crate::iteration::IterationBreakdown;
use neo_telemetry::phase;
use serde::{Deserialize, Serialize};

/// The execution resource an operator occupies exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// SM compute stream (GEMMs, interaction).
    Compute,
    /// HBM-bound embedding path.
    Memory,
    /// NIC / NVLink collectives issued from the main stream (blocking).
    Network,
    /// The per-rank comm lane the overlapped (Fig. 9) trainer posts
    /// nonblocking collectives onto — a second comm stream that runs
    /// concurrently with both compute and the main-stream collectives,
    /// exactly as `neo_collectives::post_*` does.
    CommLane,
}

impl Resource {
    /// Whether ops on this resource count as communication time.
    pub fn is_comm(self) -> bool {
        matches!(self, Resource::Network | Resource::CommLane)
    }
}

/// One operator in the iteration DAG.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operator name (unique within the graph).
    pub name: &'static str,
    /// Execution time in seconds.
    pub duration: f64,
    /// Resource occupied while running.
    pub resource: Resource,
    /// Names of operators that must finish first.
    pub deps: Vec<&'static str>,
}

/// A scheduled operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scheduled {
    /// Start time (seconds from iteration start).
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// The simulated iteration schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `(op name, placement)` in completion order.
    pub ops: Vec<(&'static str, Scheduled)>,
    /// Iteration makespan in seconds.
    pub makespan: f64,
}

impl Timeline {
    /// Placement of one operator.
    pub fn op(&self, name: &str) -> Option<Scheduled> {
        self.ops.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }

    /// Total busy time of a resource (for utilization reports).
    pub fn busy(&self, ops: &[Op], resource: Resource) -> f64 {
        ops.iter()
            .filter(|o| o.resource == resource)
            .filter_map(|o| self.op(o.name))
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Builds the Fig. 9 DAG from an Eq. 1 component breakdown.
///
/// Operator names come from [`neo_telemetry::phase`] so that a simulated
/// timeline and a measured span timeline (from an armed
/// [`neo_telemetry::TelemetrySink`]) can be joined by name.
///
/// With pipelining, the input AlltoAll and HtoD copy belong to the *next*
/// batch and run concurrently (they only gate the next iteration's
/// embedding lookup, not this one's); without it they gate the lookup.
pub fn fig9_graph(bd: &IterationBreakdown, pipelined: bool) -> Vec<Op> {
    let input_deps: Vec<&'static str> = Vec::new();
    let lookup_deps: Vec<&'static str> = if pipelined {
        vec![]
    } else {
        vec![phase::INPUT_A2A, phase::HTOD]
    };
    vec![
        Op {
            name: phase::INPUT_A2A,
            duration: bd.input_a2a,
            resource: Resource::Network,
            deps: input_deps,
        },
        Op {
            name: phase::HTOD,
            duration: bd.htod,
            resource: Resource::Memory,
            deps: vec![],
        },
        Op {
            name: phase::FWD_BOTTOM_MLP,
            duration: bd.bot_mlp_fwd,
            resource: Resource::Compute,
            deps: vec![],
        },
        Op {
            name: phase::EMB_LOOKUP,
            duration: bd.emb_lookup,
            resource: Resource::Memory,
            deps: lookup_deps,
        },
        Op {
            name: phase::ALLTOALL_FWD,
            duration: bd.a2a_fwd,
            resource: Resource::Network,
            deps: vec![phase::EMB_LOOKUP],
        },
        Op {
            name: phase::INTERACTION,
            duration: bd.interaction / 2.0,
            resource: Resource::Compute,
            deps: vec![phase::FWD_BOTTOM_MLP, phase::ALLTOALL_FWD],
        },
        Op {
            name: phase::TOP_MLP,
            duration: bd.top_mlp_fwd,
            resource: Resource::Compute,
            deps: vec![phase::INTERACTION],
        },
        Op {
            name: phase::TOP_MLP_BWD,
            duration: bd.top_mlp_bwd,
            resource: Resource::Compute,
            deps: vec![phase::TOP_MLP],
        },
        Op {
            name: phase::INTERACTION_BWD,
            duration: bd.interaction / 2.0,
            resource: Resource::Compute,
            deps: vec![phase::TOP_MLP_BWD],
        },
        Op {
            name: phase::ALLTOALL_BWD,
            duration: bd.a2a_bwd,
            resource: Resource::Network,
            deps: vec![phase::INTERACTION_BWD],
        },
        Op {
            name: phase::SPARSE_OPTIM,
            duration: bd.emb_update,
            resource: Resource::Memory,
            deps: vec![phase::ALLTOALL_BWD],
        },
        Op {
            name: phase::BWD_BOTTOM_MLP,
            duration: bd.bot_mlp_bwd,
            resource: Resource::Compute,
            deps: vec![phase::INTERACTION_BWD],
        },
        Op {
            name: phase::ALLREDUCE_TOP,
            duration: bd.allreduce / 2.0,
            resource: Resource::Network,
            deps: vec![phase::TOP_MLP_BWD],
        },
        Op {
            name: phase::ALLREDUCE_BOT,
            duration: bd.allreduce / 2.0,
            resource: Resource::Network,
            deps: vec![phase::BWD_BOTTOM_MLP],
        },
    ]
}

/// Dependency structure of the phases the live trainer actually emits,
/// as `(name, resource, deps)` — the Fig. 9 graph extended with the
/// row-wise sharding collectives (reduce-scatter / all-gather), the
/// dense AllReduce spans (the serial trainer's combined `allreduce`
/// plus the overlapped trainer's posted top/bottom halves), and the
/// dense optimizer.
///
/// Collectives the overlapped trainer posts nonblocking — the input
/// AlltoAll, the pooled-output AlltoAll and the two AllReduce halves —
/// sit on [`Resource::CommLane`]; blocking collectives stay on
/// [`Resource::Network`]. Simulating this template therefore yields the
/// overlapped (Fig. 9) schedule's predicted shape, while
/// [`serial_comm_fraction`] (which ignores placement and dependency
/// structure) predicts the serial one.
///
/// The dependency edges encode the *steady-state* overlapped iteration:
/// the embedding lookup does not wait on the input AlltoAll (this batch's
/// index exchange was posted during the previous iteration and has long
/// landed), and the `input_a2a` op here is the *next* batch's exchange,
/// posted right after the pooled features are assembled so it rides the
/// comm lane under the interaction, top MLP and backward. The combined
/// `allreduce` is the post-backward blocking loss mean; the gradient
/// AllReduce appears as its posted top/bottom halves.
///
/// [`measured_graph`] instantiates this template with measured durations;
/// the names are exactly the ones `trainer::sync` records, so a measured
/// span summary joins by name with no translation table. Phases a given
/// run never recorded (e.g. the AllReduce halves in a serial run) join as
/// zero-duration ops and drop out of every total.
pub const MEASURED_TEMPLATE: &[(&str, Resource, &[&str])] = &[
    (phase::HTOD, Resource::Memory, &[]),
    (phase::FWD_BOTTOM_MLP, Resource::Compute, &[]),
    (phase::EMB_LOOKUP, Resource::Memory, &[phase::HTOD]),
    (
        phase::ALLTOALL_FWD,
        Resource::CommLane,
        &[phase::EMB_LOOKUP],
    ),
    (
        phase::INPUT_A2A,
        Resource::CommLane,
        &[phase::ALLTOALL_FWD, phase::REDUCE_SCATTER],
    ),
    (
        phase::REDUCE_SCATTER,
        Resource::Network,
        &[phase::EMB_LOOKUP],
    ),
    (
        phase::INTERACTION,
        Resource::Compute,
        &[
            phase::FWD_BOTTOM_MLP,
            phase::ALLTOALL_FWD,
            phase::REDUCE_SCATTER,
        ],
    ),
    (phase::TOP_MLP, Resource::Compute, &[phase::INTERACTION]),
    (phase::TOP_MLP_BWD, Resource::Compute, &[phase::TOP_MLP]),
    (
        phase::ALLREDUCE_TOP,
        Resource::CommLane,
        &[phase::TOP_MLP_BWD],
    ),
    (
        phase::INTERACTION_BWD,
        Resource::Compute,
        &[phase::TOP_MLP_BWD],
    ),
    (
        phase::ALLTOALL_BWD,
        Resource::Network,
        &[phase::INTERACTION_BWD],
    ),
    (phase::ALLGATHER, Resource::Network, &[phase::ALLTOALL_BWD]),
    (
        phase::SPARSE_OPTIM,
        Resource::Memory,
        &[phase::ALLTOALL_BWD, phase::ALLGATHER],
    ),
    (
        phase::BWD_BOTTOM_MLP,
        Resource::Compute,
        &[phase::INTERACTION_BWD],
    ),
    (
        phase::ALLREDUCE_BOT,
        Resource::CommLane,
        &[phase::BWD_BOTTOM_MLP],
    ),
    (
        phase::DENSE_OPTIM,
        Resource::Compute,
        &[phase::ALLREDUCE_TOP, phase::ALLREDUCE_BOT],
    ),
    (phase::ALLREDUCE, Resource::Network, &[phase::DENSE_OPTIM]),
];

/// Joins measured per-phase durations (seconds, e.g. mean span time from a
/// [`neo_telemetry`] summary) onto [`MEASURED_TEMPLATE`], producing an op
/// graph that [`simulate`] can schedule. Phases missing from `phase_secs`
/// get zero duration, so a partial measurement still yields a valid DAG;
/// names not in the template (aggregates like `iteration`) are ignored.
pub fn measured_graph(phase_secs: &[(String, f64)]) -> Vec<Op> {
    let dur = |name: &str| -> f64 {
        phase_secs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d.max(0.0))
            .unwrap_or(0.0)
    };
    MEASURED_TEMPLATE
        .iter()
        .map(|&(name, resource, deps)| Op {
            name,
            duration: dur(name),
            resource,
            deps: deps.to_vec(),
        })
        .collect()
}

/// Exposed vs. total communication time in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommExposure {
    /// Total busy time of the communication resources (NIC + comm lane).
    pub comm_total: f64,
    /// Communication wall-clock not overlapped by any compute or memory
    /// op. Comm intervals are unioned first, so a main-stream collective
    /// running under a posted one counts once — mirroring how
    /// `neo-prof` measures exposure from span timelines.
    pub exposed: f64,
}

impl CommExposure {
    /// Exposed communication as a fraction of `makespan` (0 when idle).
    pub fn fraction_of(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            (self.exposed / makespan).clamp(0.0, 1.0)
        }
    }
}

/// Sorts and merges intervals into a disjoint ascending cover.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (s, e) in iv {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Measures exposed communication in a schedule: the union of all comm-op
/// intervals (main-stream network *and* posted comm lane) minus the cover
/// of concurrently running compute and memory ops. Unioning first means a
/// NIC collective running under a posted one is not double-counted. In a
/// fully serialized schedule nothing overlaps, so `exposed == comm_total`.
pub fn comm_exposure(t: &Timeline, ops: &[Op]) -> CommExposure {
    let intervals = |comm: bool| -> Vec<(f64, f64)> {
        ops.iter()
            .filter(|o| o.resource.is_comm() == comm)
            .filter_map(|o| t.op(o.name).map(|s| (s.start, s.end)))
            .filter(|&(s, e)| e > s)
            .collect()
    };
    let cover = merge_intervals(intervals(false));
    let comm_total: f64 = intervals(true).iter().map(|&(s, e)| e - s).sum();
    let mut exposed = 0.0;
    for &(s, e) in &merge_intervals(intervals(true)) {
        let overlap: f64 = cover
            .iter()
            .map(|&(cs, ce)| (e.min(ce) - s.max(cs)).max(0.0))
            .sum();
        exposed += (e - s - overlap).max(0.0);
    }
    CommExposure {
        comm_total,
        exposed,
    }
}

/// Exposed-comm fraction of a *fully serialized* schedule: with strictly
/// one op at a time, every communication second is exposed, so the
/// fraction is simply `sum(comm durations) / sum(all durations)` —
/// resource placement (NIC vs. comm lane) does not matter when nothing
/// runs concurrently. This is the prediction to compare against a
/// measured per-rank timeline from the default serial `trainer::sync`
/// schedule.
pub fn serial_comm_fraction(ops: &[Op]) -> f64 {
    let total: f64 = ops.iter().map(|o| o.duration).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let comm: f64 = ops
        .iter()
        .filter(|o| o.resource.is_comm())
        .map(|o| o.duration)
        .sum();
    (comm / total).clamp(0.0, 1.0)
}

/// List-schedules the DAG: among ready ops, earliest-possible-start first
/// (ties broken by declaration order), each resource strictly serial.
///
/// # Panics
///
/// Panics if the graph references an unknown dependency or contains a
/// cycle.
pub fn simulate(ops: &[Op]) -> Timeline {
    schedule(ops, |r| match r {
        Resource::Compute => 0,
        Resource::Memory => 1,
        Resource::Network => 2,
        Resource::CommLane => 3,
    })
}

/// List-schedules the DAG on the *worker-thread* execution model of the
/// live trainer: one simulated-GPU worker thread runs compute, memory
/// traffic and blocking collectives inline — they serialize regardless
/// of resource — while posted [`Resource::CommLane`] collectives run
/// concurrently on the per-rank comm-lane thread. This is the schedule
/// to predict overlapped-run measurements with; [`simulate`] keeps the
/// idealized per-resource concurrency of the hardware roofline.
///
/// # Panics
///
/// Panics if the graph references an unknown dependency or contains a
/// cycle.
pub fn simulate_worker(ops: &[Op]) -> Timeline {
    schedule(ops, |r| match r {
        Resource::CommLane => 1,
        _ => 0,
    })
}

/// Shared list scheduler: ops mapped to the same `unit` serialize.
fn schedule(ops: &[Op], unit: fn(Resource) -> u8) -> Timeline {
    let idx = |name: &str| -> usize {
        ops.iter()
            .position(|o| o.name == name)
            // lint: allow(panic) — malformed-graph contract documented under # Panics
            .unwrap_or_else(|| panic!("unknown dependency {name}"))
    };
    let deps: Vec<Vec<usize>> = ops
        .iter()
        .map(|o| o.deps.iter().map(|d| idx(d)).collect())
        .collect();

    let mut finish: Vec<Option<f64>> = vec![None; ops.len()];
    let mut start: Vec<Option<f64>> = vec![None; ops.len()];
    let mut unit_free: std::collections::HashMap<u8, f64> = std::collections::HashMap::new();
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
            let res_free = unit_free.get(&unit(op.resource)).copied().unwrap_or(0.0);
            let s = ready_at.max(res_free);
            if best.is_none_or(|(bs, _)| s < bs) {
                best = Some((s, i));
            }
        }
        // lint: allow(panic) — cycle contract documented under # Panics
        let (s, i) = best.expect("cycle in op graph");
        let e = s + ops[i].duration;
        start[i] = Some(s);
        finish[i] = Some(e);
        unit_free.insert(unit(ops[i].resource), e);
        order.push((ops[i].name, Scheduled { start: s, end: e }));
        done += 1;
    }
    let makespan = finish
        .iter()
        // lint: allow(panic) — the loop above scheduled every op
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
        let get = |n: &str| t.op(n).unwrap();
        assert!(get(phase::ALLTOALL_FWD).start >= get(phase::EMB_LOOKUP).end - 1e-12);
        assert!(get(phase::INTERACTION).start >= get(phase::FWD_BOTTOM_MLP).end - 1e-12);
        assert!(get(phase::INTERACTION).start >= get(phase::ALLTOALL_FWD).end - 1e-12);
        assert!(get(phase::TOP_MLP_BWD).start >= get(phase::TOP_MLP).end - 1e-12);
        assert!(get(phase::SPARSE_OPTIM).start >= get(phase::ALLTOALL_BWD).end - 1e-12);
        assert!(get(phase::ALLREDUCE_BOT).start >= get(phase::BWD_BOTTOM_MLP).end - 1e-12);
    }

    #[test]
    fn fig9_names_come_from_the_shared_span_taxonomy() {
        let bd = breakdown(false);
        for ops in [fig9_graph(&bd, true), fig9_graph(&bd, false)] {
            for op in &ops {
                assert!(
                    phase::is_known(op.name),
                    "op {:?} missing from neo_telemetry::phase::ALL",
                    op.name
                );
                for d in &op.deps {
                    assert!(phase::is_known(d), "dep {d:?} not in the taxonomy");
                }
            }
        }
    }

    #[test]
    fn resources_never_overlap() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        for res in [
            Resource::Compute,
            Resource::Memory,
            Resource::Network,
            Resource::CommLane,
        ] {
            let mut spans: Vec<Scheduled> = ops
                .iter()
                .filter(|o| o.resource == res)
                .map(|o| t.op(o.name).unwrap())
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
    fn busy_time_accounts_all_ops() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        let total: f64 = [Resource::Compute, Resource::Memory, Resource::Network]
            .iter()
            .map(|&r| t.busy(&ops, r))
            .sum();
        let serial: f64 = ops.iter().map(|o| o.duration).sum();
        assert!((total - serial).abs() < 1e-12);
    }

    #[test]
    fn measured_graph_joins_by_name_and_tolerates_gaps() {
        let secs = vec![
            (phase::EMB_LOOKUP.to_string(), 3e-3),
            (phase::ALLTOALL_FWD.to_string(), 2e-3),
            ("iteration".to_string(), 99.0), // aggregate: ignored
            ("not_a_phase".to_string(), 1.0),
        ];
        let ops = measured_graph(&secs);
        assert_eq!(ops.len(), MEASURED_TEMPLATE.len());
        let get = |n: &str| ops.iter().find(|o| o.name == n).unwrap().clone();
        assert!((get(phase::EMB_LOOKUP).duration - 3e-3).abs() < 1e-15);
        assert!((get(phase::ALLTOALL_FWD).duration - 2e-3).abs() < 1e-15);
        assert_eq!(get(phase::TOP_MLP).duration, 0.0);
        assert!(!ops.iter().any(|o| o.name == "iteration"));
        // the template schedules cleanly
        let t = simulate(&ops);
        assert!(t.makespan >= 5e-3 - 1e-12);
        for op in &ops {
            assert!(phase::is_known(op.name));
        }
    }

    #[test]
    fn serialized_schedule_exposes_all_comm() {
        // Hand-build a strictly serial timeline over the measured template.
        let secs: Vec<(String, f64)> = phase::ALL.iter().map(|p| (p.to_string(), 1e-3)).collect();
        let ops = measured_graph(&secs);
        let mut cursor = 0.0;
        let sched: Vec<(&'static str, Scheduled)> = ops
            .iter()
            .map(|o| {
                let s = cursor;
                cursor += o.duration;
                (
                    o.name,
                    Scheduled {
                        start: s,
                        end: cursor,
                    },
                )
            })
            .collect();
        let t = Timeline {
            ops: sched,
            makespan: cursor,
        };
        let exp = comm_exposure(&t, &ops);
        assert!(
            (exp.exposed - exp.comm_total).abs() < 1e-12,
            "serial schedule must expose all comm: {exp:?}"
        );
        let frac = exp.fraction_of(t.makespan);
        assert!((frac - serial_comm_fraction(&ops)).abs() < 1e-12);
    }

    #[test]
    fn overlapped_schedule_exposes_less_comm() {
        let bd = breakdown(true);
        let ops = fig9_graph(&bd, true);
        let t = simulate(&ops);
        let exp = comm_exposure(&t, &ops);
        assert!(exp.comm_total > 0.0);
        assert!(exp.exposed <= exp.comm_total + 1e-12);
        assert!(exp.fraction_of(t.makespan) <= 1.0);
        assert_eq!(exp.fraction_of(0.0), 0.0);
    }

    #[test]
    fn comm_lane_template_hides_posted_collectives() {
        // Durations shaped like the overlapped trainer under injected
        // delay: sizable posted collectives, backward compute long
        // enough to hide part of them. The simulated overlap prediction
        // must land strictly below the serial prediction.
        let secs: Vec<(String, f64)> = [
            (phase::INPUT_A2A, 2e-3),
            (phase::HTOD, 0.2e-3),
            (phase::FWD_BOTTOM_MLP, 0.5e-3),
            (phase::EMB_LOOKUP, 0.5e-3),
            (phase::ALLTOALL_FWD, 2e-3),
            (phase::INTERACTION, 0.5e-3),
            (phase::TOP_MLP, 1e-3),
            (phase::TOP_MLP_BWD, 1.5e-3),
            (phase::ALLREDUCE_TOP, 1e-3),
            (phase::INTERACTION_BWD, 0.5e-3),
            (phase::ALLTOALL_BWD, 2e-3),
            (phase::BWD_BOTTOM_MLP, 1e-3),
            (phase::ALLREDUCE_BOT, 1e-3),
            (phase::DENSE_OPTIM, 0.3e-3),
        ]
        .iter()
        .map(|&(n, d)| (n.to_string(), d))
        .collect();
        let ops = measured_graph(&secs);
        let t = simulate(&ops);
        let overlap = comm_exposure(&t, &ops).fraction_of(t.makespan);
        let serial = serial_comm_fraction(&ops);
        assert!(
            overlap < serial - 1e-6,
            "posted collectives must hide behind backward compute: \
             overlap {overlap:.4} vs serial {serial:.4}"
        );
    }

    #[test]
    fn concurrent_comm_resources_count_once_in_exposure() {
        // A NIC collective fully inside a posted comm-lane collective,
        // with no compute cover at all: exposure is the union (the
        // longer interval), not the sum.
        let ops = vec![
            Op {
                name: phase::ALLTOALL_BWD,
                duration: 4e-3,
                resource: Resource::Network,
                deps: vec![],
            },
            Op {
                name: phase::ALLREDUCE_TOP,
                duration: 10e-3,
                resource: Resource::CommLane,
                deps: vec![],
            },
        ];
        let t = Timeline {
            ops: vec![
                (
                    phase::ALLTOALL_BWD,
                    Scheduled {
                        start: 2e-3,
                        end: 6e-3,
                    },
                ),
                (
                    phase::ALLREDUCE_TOP,
                    Scheduled {
                        start: 0.0,
                        end: 10e-3,
                    },
                ),
            ],
            makespan: 10e-3,
        };
        let exp = comm_exposure(&t, &ops);
        assert!((exp.comm_total - 14e-3).abs() < 1e-12, "busy time sums");
        assert!(
            (exp.exposed - 10e-3).abs() < 1e-12,
            "union exposes 10 ms, not 14 ms: {exp:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown dependency")]
    fn unknown_dep_panics() {
        simulate(&[Op {
            name: "x",
            duration: 1.0,
            resource: Resource::Compute,
            deps: vec!["missing"],
        }]);
    }
}
