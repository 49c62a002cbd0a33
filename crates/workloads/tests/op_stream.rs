//! Pins the generator's op stream, independent of any collector.
//!
//! Every figure golden in the repository is downstream of the exact
//! sequence of `alloc`/`write_ref`/`read_data`/`drop_handle` calls
//! `SyntheticProgram` makes. This test drives each Table 1 benchmark
//! against [`RecordingHeap`] and compares the FNV hash of that sequence
//! with a value **generated on the generator as it stood before PR 15**
//! (float trials, per-allocation `fract`), so any later change to the
//! generator that would move a golden fails here first, in milliseconds,
//! and names the benchmark. Regenerate a pin only together with the
//! goldens, and say why in the commit.

use heap::MemCtx;
use simtime::{Clock, CostModel};
use simulate::{Program, ProgramStatus};
use vmm::{Vmm, VmmConfig};
use workloads::{spec, table1, RecordingHeap};

const SCALE: f64 = 0.01;

/// `(benchmark, digest at seed 1, digest at seed 99)`.
const PINS: [(&str, u64, u64); 9] = [
    (
        "_201_compress",
        0x8ff3_842a_7762_9b9d,
        0x4f2d_465e_ae64_8d91,
    ),
    ("_202_jess", 0xe906_c55a_3f77_6b82, 0xb2d1_38b6_5445_da83),
    (
        "_205_raytrace",
        0xc928_946c_01ca_26f1,
        0x2665_6786_a910_d2ed,
    ),
    ("_209_db", 0x7657_b48e_236b_b5c6, 0x8fae_3286_7907_ec0f),
    ("_213_javac", 0x15e4_54aa_8cca_727c, 0xdc6e_0c12_a2ba_5019),
    ("_228_jack", 0x251f_c468_562b_5284, 0x51ea_7609_4389_580d),
    ("ipsixql", 0x1450_5dbb_aef8_5d0f, 0xd0ab_6ffb_6851_a967),
    ("jython", 0xca7f_2d60_d38a_1a44, 0xc29b_04ea_bc0e_27d0),
    ("pseudoJBB", 0x8e4a_4e39_bb0f_ee51, 0xd84c_30b1_1e43_2e92),
];

/// Runs `name` to completion against the recorder; returns its digest.
fn op_stream(name: &str, seed: u64) -> u64 {
    let mut vmm = Vmm::new(
        VmmConfig::builder().frames(16).build(),
        CostModel::default(),
    );
    let mut clock = Clock::new();
    let pid = vmm.register_process();
    let mut gc = RecordingHeap::new();
    let mut program = spec(name).expect("Table 1 benchmark").program(SCALE, seed);
    loop {
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        match program
            .step(&mut gc, &mut ctx)
            .expect("the recorder never OOMs")
        {
            ProgramStatus::Running => {}
            ProgramStatus::Finished => break,
        }
    }
    assert!(gc.ops() > 1_000, "{name}: only {} calls recorded", gc.ops());
    gc.digest()
}

#[test]
fn op_streams_match_the_pins() {
    assert_eq!(
        PINS.map(|(name, ..)| name).to_vec(),
        table1().iter().map(|b| b.name).collect::<Vec<_>>(),
        "one pin per Table 1 benchmark, in the paper's order"
    );
    let mut moved = Vec::new();
    for (name, at_1, at_99) in PINS {
        for (seed, want) in [(1, at_1), (99, at_99)] {
            let got = op_stream(name, seed);
            if got != want {
                moved.push(format!(
                    "{name} seed {seed}: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "the generator's op stream moved (every figure golden moves with it):\n{}",
        moved.join("\n")
    );
}

#[test]
fn the_stream_depends_on_the_seed_and_repeats_for_one() {
    let a = op_stream("_202_jess", 1);
    assert_eq!(a, op_stream("_202_jess", 1));
    assert_ne!(a, op_stream("_202_jess", 2));
}
