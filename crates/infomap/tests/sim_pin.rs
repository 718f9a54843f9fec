//! Absolute pin of the simulator's counts. The paper's evidence is the
//! simulated kernel's cycles, instructions, mispredictions and cache
//! misses, so any change to the event stream, the branch predictor, the
//! cache hierarchy or the cycle model shows here as a changed literal.
//!
//! The literals were recorded from a per-event inline run. The counts do
//! not depend on the host's thread count: each simulated core charges
//! its own contiguous block of the active set, in vertex order.

use asa_accel::AsaConfig;
use asa_graph::generators::{lfr_benchmark, LfrConfig};
use asa_infomap::instrumented::{simulate_infomap, Device};
use asa_infomap::InfomapConfig;
use asa_simarch::MachineConfig;

/// Every count the pin covers, as exact integers and `f64` bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    sweeps: usize,
    codelength_bits: u64,
    instructions: u64,
    branches: u64,
    mispredictions: u64,
    loads: u64,
    stores: u64,
    l1_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    cycles_bits: u64,
    /// `phase_totals[p].cycles.to_bits()` for compute, hash, overflow.
    phase_cycles_bits: [u64; 3],
}

fn measure(device: Device) -> Pin {
    let g = lfr_benchmark(
        &LfrConfig {
            n: 250,
            ..Default::default()
        },
        29,
    )
    .graph;
    let run = simulate_infomap(
        &g,
        &InfomapConfig::default(),
        &MachineConfig::baseline(3),
        device,
    );
    let t = &run.total;
    Pin {
        sweeps: run.sweeps.len(),
        codelength_bits: run.codelength.to_bits(),
        instructions: t.instructions,
        branches: t.branches,
        mispredictions: t.mispredictions,
        loads: t.loads,
        stores: t.stores,
        l1_misses: t.l1_misses,
        l2_misses: t.l2_misses,
        l3_misses: t.l3_misses,
        cycles_bits: t.cycles.to_bits(),
        phase_cycles_bits: run.phase_totals.each_ref().map(|r| r.cycles.to_bits()),
    }
}

#[test]
fn software_hash_counts_are_pinned() {
    assert_eq!(
        measure(Device::SoftwareHash),
        Pin {
            sweeps: 34,
            codelength_bits: 4619628885088419767,
            instructions: 3125912,
            branches: 263542,
            mispredictions: 50226,
            loads: 246682,
            stores: 153206,
            l1_misses: 20028,
            l2_misses: 19944,
            l3_misses: 19861,
            cycles_bits: 4695489562556257087,
            phase_cycles_bits: [4697269440039291614, 4697524291802224604, 0],
        }
    );
}

#[test]
fn linear_probe_counts_are_pinned() {
    assert_eq!(
        measure(Device::LinearProbe),
        Pin {
            sweeps: 34,
            codelength_bits: 4619628885088419767,
            instructions: 3311568,
            branches: 549768,
            mispredictions: 82462,
            loads: 473715,
            stores: 102907,
            l1_misses: 317,
            l2_misses: 317,
            l3_misses: 317,
            cycles_bits: 4697340835796049273,
            phase_cycles_bits: [4697309737140449607, 4700472991634969941, 0],
        }
    );
}

#[test]
fn small_cam_asa_counts_are_pinned() {
    // A 4-entry CAM overflows, so the overflow phase and the
    // dependent-load switch are both in the stream.
    let device = Device::Asa(AsaConfig {
        cam_bytes: 64,
        entry_bytes: 16,
        ..AsaConfig::paper_default()
    });
    assert_eq!(
        measure(device),
        Pin {
            sweeps: 34,
            codelength_bits: 4619628885088419767,
            instructions: 3003494,
            branches: 255334,
            mispredictions: 65292,
            loads: 328390,
            stores: 181570,
            l1_misses: 301,
            l2_misses: 301,
            l3_misses: 301,
            cycles_bits: 4696775809225941047,
            phase_cycles_bits: [
                4697376807349743947,
                4688336722990706091,
                4697701773938388789,
            ],
        }
    );
}
