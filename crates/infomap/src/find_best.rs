//! The `FindBestCommunity` kernel (paper Algorithms 1 & 2).
//!
//! For one vertex/supernode the kernel (a) accumulates its outgoing flow per
//! neighbouring module and its incoming flow per neighbouring module — the
//! hash-heavy part the paper accelerates — then (b) evaluates the map-
//! equation delta of moving into each candidate module and returns the best.
//!
//! The kernel is generic over the accumulation device
//! ([`FlowAccumulator`]): plugging in
//! [`asa_hashsim::ChainedAccumulator`] yields Algorithm 1 (Baseline),
//! plugging in [`asa_accel::AsaAccumulator`] yields Algorithm 2 (ASA).
//! Everything outside the device — neighbour iteration, module-id loads,
//! candidate evaluation — is charged to the sink identically for both, so
//! simulated differences come only from the device. Over
//! `ChainedAccumulator` with a `NullSink` nothing is charged: that is the
//! host's hash reference ([`crate::driver::HashEngine`]) and the Native
//! column of Tables III/IV ([`crate::instrumented::native_infomap`]).

use asa_graph::NodeId;
use asa_simarch::accum::FlowAccumulator;
use asa_simarch::events::{EventSink, InstrClass};

use crate::flow::FlowNetwork;
use crate::mapeq::{MapState, ModuleFlows};

/// Synthetic address of the `node[v].modId` array (Algorithm 1 line 5 reads
/// it per neighbour).
const MODID_BASE: u64 = 0xA000_0000;
/// Synthetic address of per-module statistics read during evaluation.
const MODSTAT_BASE: u64 = 0xB000_0000;

/// Branch site: "does this candidate improve on the best so far?"
/// (Algorithm 1 line 21) — data-dependent and hard to predict.
const SITE_BEST_UPDATE: u32 = 0x300;
/// Loop-continuation branch of the out-link loop (Algorithm 1 line 4).
/// Power-law degree sequences make the trip counts irregular, so the exit
/// direction of these short loops mispredicts frequently — on *both* the
/// Baseline and the ASA path, exactly as in the compiled kernel.
const SITE_OUT_LOOP: u32 = 0x301;
/// Loop-continuation branch of the in-link loop.
const SITE_IN_LOOP: u32 = 0x302;
/// Loop-continuation branch of the candidate-evaluation loop
/// (Algorithm 1 line 16).
const SITE_CAND_LOOP: u32 = 0x303;

/// Outcome of evaluating one vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveDecision {
    /// The vertex examined.
    pub vertex: NodeId,
    /// Module minimizing the codelength delta (may equal the current one).
    pub best_module: u32,
    /// Delta codelength (bits) of moving there; ≤ 0.
    pub delta: f64,
}

/// Reusable buffers for the kernel, one per worker.
#[derive(Debug, Default)]
pub struct FindBestScratch {
    out_pairs: Vec<(u32, f64)>,
    in_pairs: Vec<(u32, f64)>,
    candidates: Vec<(u32, ModuleFlows)>,
}

/// Runs `FindBestCommunity` for vertex `u` against a label snapshot.
///
/// `labels` is the current module assignment (possibly slightly stale in
/// the parallel phase, exactly as in HyPC-Map); `state` carries module
/// exit/flow statistics consistent with `labels`.
pub fn find_best_community<A: FlowAccumulator, S: EventSink>(
    flow: &FlowNetwork,
    labels: &[u32],
    state: &MapState,
    u: NodeId,
    acc: &mut A,
    sink: &mut S,
    scratch: &mut FindBestScratch,
) -> MoveDecision {
    let my_module = labels[u as usize];

    // --- Accumulate outgoing flow per neighbouring module (Alg. 1 ln 4-13,
    // Alg. 2 ln 5-8).
    acc.begin(sink);
    for (v, f) in flow.out_arcs(u) {
        sink.branch(SITE_OUT_LOOP, true); // loop continues
                                          // `node.at(link.first).modId`: one load into the node table.
        sink.mem_read(MODID_BASE + v as u64 * 4);
        sink.instr(InstrClass::Alu, 2); // index math + loop overhead
        acc.accumulate(labels[v as usize], f, sink);
    }
    sink.branch(SITE_OUT_LOOP, false); // loop exit
    acc.gather(&mut scratch.out_pairs, sink);

    // --- Accumulate incoming flow (Alg. 1 ln 14, Alg. 2 ln 13).
    acc.begin(sink);
    for (v, f) in flow.in_arcs(u) {
        sink.branch(SITE_IN_LOOP, true);
        sink.mem_read(MODID_BASE + v as u64 * 4);
        sink.instr(InstrClass::Alu, 2);
        acc.accumulate(labels[v as usize], f, sink);
    }
    sink.branch(SITE_IN_LOOP, false);
    acc.gather(&mut scratch.in_pairs, sink);

    // --- Merge the two gathered lists into per-module (out, in) pairs.
    // Sort + merge-join; charged as ALU work (predictable short loops).
    let n_out = scratch.out_pairs.len();
    let n_in = scratch.in_pairs.len();
    scratch.out_pairs.sort_unstable_by_key(|&(k, _)| k);
    scratch.in_pairs.sort_unstable_by_key(|&(k, _)| k);
    let log2 = |n: usize| usize::BITS - n.leading_zeros().min(31);
    sink.instr(
        InstrClass::Alu,
        (n_out * log2(n_out) as usize + n_in * log2(n_in) as usize + n_out + n_in) as u64 + 2,
    );

    scratch.candidates.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n_out || j < n_in {
        let next_key = match (scratch.out_pairs.get(i), scratch.in_pairs.get(j)) {
            (Some(&(ko, _)), Some(&(ki, _))) => ko.min(ki),
            (Some(&(ko, _)), None) => ko,
            (None, Some(&(ki, _))) => ki,
            (None, None) => unreachable!(),
        };
        let mut mf = ModuleFlows::default();
        if i < n_out && scratch.out_pairs[i].0 == next_key {
            mf.out_flow = scratch.out_pairs[i].1;
            i += 1;
        }
        if j < n_in && scratch.in_pairs[j].0 == next_key {
            mf.in_flow = scratch.in_pairs[j].1;
            j += 1;
        }
        scratch.candidates.push((next_key, mf));
    }

    // --- Evaluate candidates (Alg. 1 ln 15-25 / Alg. 2 ln 14).
    let flows_old = scratch
        .candidates
        .iter()
        .find(|&&(m, _)| m == my_module)
        .map(|&(_, mf)| mf)
        .unwrap_or_default();
    let node = flow.node_summary(u);

    let mut best = MoveDecision {
        vertex: u,
        best_module: my_module,
        delta: 0.0,
    };
    for &(m, mf) in scratch.candidates.iter() {
        sink.branch(SITE_CAND_LOOP, true);
        if m == my_module {
            continue;
        }
        // Module statistics loads + the FP work of the delta codelength
        // (four plogp evaluations and their argument arithmetic — the
        // `calc(...)` call of Algorithm 1 line 20).
        sink.mem_read(MODSTAT_BASE + m as u64 * 16);
        sink.mem_read(MODSTAT_BASE + m as u64 * 16 + 8);
        sink.instr(InstrClass::Float, 16);
        sink.instr(InstrClass::Alu, 4);
        let delta = state.delta_move(my_module, m, &node, flows_old, mf);
        // Tie-break deterministically on module id so parallel and
        // sequential schedules agree.
        let improves =
            delta < best.delta - 1e-15 || (delta < best.delta + 1e-15 && m < best.best_module);
        sink.branch(SITE_BEST_UPDATE, improves);
        if improves && delta < -1e-15 {
            best.best_module = m;
            best.delta = delta;
        }
    }
    sink.branch(SITE_CAND_LOOP, false);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use crate::mapeq::{codelength, module_flows_of};
    use asa_graph::{GraphBuilder, Partition};
    use asa_simarch::accum::OracleAccumulator;
    use asa_simarch::events::NullSink;

    fn two_triangles_flow() -> FlowNetwork {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        FlowNetwork::from_graph(&b.build(), &InfomapConfig::default())
    }

    #[test]
    fn pulls_vertex_into_its_triangle() {
        let flow = two_triangles_flow();
        // Vertex 2 mislabeled into the right-hand triangle's module.
        let partition = Partition::from_labels(vec![0, 0, 1, 1, 1, 1]);
        let state = MapState::new(&flow, &partition);
        let mut acc = OracleAccumulator::default();
        let mut scratch = FindBestScratch::default();
        let d = find_best_community(
            &flow,
            partition.labels(),
            &state,
            2,
            &mut acc,
            &mut NullSink,
            &mut scratch,
        );
        assert_eq!(d.best_module, 0);
        assert!(d.delta < 0.0);
        // The reported delta matches a full recomputation.
        let l0 = codelength(&flow, &partition);
        let mut moved = partition.clone();
        moved.assign(2, 0);
        assert!((d.delta - (codelength(&flow, &moved) - l0)).abs() < 1e-9);
    }

    #[test]
    fn stays_put_when_already_optimal() {
        let flow = two_triangles_flow();
        let partition = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let state = MapState::new(&flow, &partition);
        let mut acc = OracleAccumulator::default();
        let mut scratch = FindBestScratch::default();
        for u in 0..6u32 {
            let d = find_best_community(
                &flow,
                partition.labels(),
                &state,
                u,
                &mut acc,
                &mut NullSink,
                &mut scratch,
            );
            assert_eq!(
                d.best_module,
                partition.community_of(u),
                "vertex {u} should not move out of the optimum"
            );
        }
    }

    #[test]
    fn accumulated_flows_match_oracle_helper() {
        let flow = two_triangles_flow();
        let partition = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        let state = MapState::new(&flow, &partition);
        let mut acc = OracleAccumulator::default();
        let mut scratch = FindBestScratch::default();
        let _ = find_best_community(
            &flow,
            partition.labels(),
            &state,
            2,
            &mut acc,
            &mut NullSink,
            &mut scratch,
        );
        for &(m, mf) in scratch.candidates.iter() {
            let expect = module_flows_of(&flow, &partition, 2, m);
            assert!((mf.out_flow - expect.out_flow).abs() < 1e-12);
            assert!((mf.in_flow - expect.in_flow).abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_vertex_never_moves() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1, 1.0);
        let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        let partition = Partition::singletons(3);
        let state = MapState::new(&flow, &partition);
        let mut acc = OracleAccumulator::default();
        let mut scratch = FindBestScratch::default();
        let d = find_best_community(
            &flow,
            partition.labels(),
            &state,
            2,
            &mut acc,
            &mut NullSink,
            &mut scratch,
        );
        assert_eq!(d.best_module, partition.community_of(2));
        assert_eq!(d.delta, 0.0);
    }
}
