//! Benchmark-like workload presets.
//!
//! Each preset is a [`SyntheticWorkload`] recipe modelling the access
//! *archetype* of a paper benchmark (SPEC CPU2017 memory-intensive subset,
//! single-threaded GAP kernels over Kron/Urand-like inputs, and the
//! server-class traces of paper Fig 19). Footprints are sized against the
//! baseline 2 MB-per-core LLC slice (32 K lines): "friendly" loops fit a
//! core's share, thrashing structures exceed it severalfold, streams are
//! effectively infinite.
//!
//! The three paper-critical knobs per preset:
//! * few PCs with big shared footprints → scattered PCs (xalan-like, low
//!   in paper Fig 2);
//! * many PCs with private small regions → concentrated PCs (pr-like,
//!   high in Fig 2);
//! * Zipf-weighted regions → per-set MPKA skew (mcf, Fig 5a) vs. pure
//!   streams → uniform MPKA (lbm, Fig 5c).
//!
//! Every preset additionally carries a *scalar* stream
//! (`PrivateRegion { lines_per_pc: 1, spacing: 1 }`): many PCs that repeatedly load
//! one line each, rarely enough that L2 evicts it in between. These are
//! the "multi-load PCs mapping to one slice" that dominate the paper's
//! Fig 2 statistic (66.2% on average; graph workloads highest).

use crate::pattern::Pattern;
use crate::synthetic::{StreamSpec, SyntheticWorkload};

/// The benchmark catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    // SPEC CPU2017 memory-intensive archetypes.
    Mcf,
    Xalan,
    Lbm,
    Gcc,
    Omnetpp,
    Cactu,
    Roms,
    Fotonik,
    Bwaves,
    Wrf,
    Cam4,
    Sphinx,
    Pop2,
    Deepsjeng,
    // GAP kernels (suffix = input graph class).
    PrKron,
    PrUrand,
    BfsKron,
    BfsUrand,
    CcKron,
    BcTwitter,
    SsspUrand,
    TcKron,
    // Server-class traces (paper Fig 19).
    Cvp1,
    GoogleWs,
    CloudSuite,
    Xsbench,
    // Scenario-diversity families (DESIGN.md §18): phase-alternating
    // composites that flip archetype mid-run, plus the seed-parameterised
    // slice-scattering adversary searched by
    // `drishti_sim::conformance::adversarial`.
    PhaseMcfLbm,
    PhaseXalanPr,
    PhaseServerBatch,
    AdvScatter,
}

impl Benchmark {
    /// The SPEC-like presets.
    pub fn spec() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            Mcf, Xalan, Lbm, Gcc, Omnetpp, Cactu, Roms, Fotonik, Bwaves, Wrf, Cam4, Sphinx, Pop2,
            Deepsjeng,
        ]
    }

    /// The GAP-like presets.
    pub fn gap() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            PrKron, PrUrand, BfsKron, BfsUrand, CcKron, BcTwitter, SsspUrand, TcKron,
        ]
    }

    /// The server-class presets (Fig 19).
    pub fn server() -> &'static [Benchmark] {
        use Benchmark::*;
        &[Cvp1, GoogleWs, CloudSuite, Xsbench]
    }

    /// SPEC + GAP (the pool the paper's 70 main mixes draw from).
    pub fn spec_and_gap() -> Vec<Benchmark> {
        let mut v = Benchmark::spec().to_vec();
        v.extend_from_slice(Benchmark::gap());
        v
    }

    /// The phase-alternating composites (predictor re-learning pressure).
    pub fn phase() -> &'static [Benchmark] {
        use Benchmark::*;
        &[PhaseMcfLbm, PhaseXalanPr, PhaseServerBatch]
    }

    /// The scenario-diversity presets: the phase composites plus the
    /// slice-scattering adversary. Deliberately *not* part of
    /// [`Benchmark::spec_and_gap`] — the paper's mix protocol and its
    /// pinned catalogue stay untouched.
    pub fn scenario() -> &'static [Benchmark] {
        use Benchmark::*;
        &[PhaseMcfLbm, PhaseXalanPr, PhaseServerBatch, AdvScatter]
    }

    /// Short name matching the paper's labels.
    pub fn label(self) -> &'static str {
        use Benchmark::*;
        match self {
            Mcf => "mcf",
            Xalan => "xalan",
            Lbm => "lbm",
            Gcc => "gcc",
            Omnetpp => "omnetpp",
            Cactu => "cactu",
            Roms => "roms",
            Fotonik => "fotonik",
            Bwaves => "bwaves",
            Wrf => "wrf",
            Cam4 => "cam4",
            Sphinx => "sphinx",
            Pop2 => "pop2",
            Deepsjeng => "deepsjeng",
            PrKron => "pr-kron",
            PrUrand => "pr-urand",
            BfsKron => "bfs-kron",
            BfsUrand => "bfs-urand",
            CcKron => "cc-kron",
            BcTwitter => "bc-twitter",
            SsspUrand => "sssp-urand",
            TcKron => "tc-kron",
            Cvp1 => "cvp1",
            GoogleWs => "google-ws",
            CloudSuite => "cloudsuite",
            Xsbench => "xsbench",
            PhaseMcfLbm => "phase-mcf-lbm",
            PhaseXalanPr => "phase-xalan-pr",
            PhaseServerBatch => "phase-server-batch",
            AdvScatter => "adv-scatter",
        }
    }

    /// The benchmark whose short name is `label`, if any.
    pub fn from_label(label: &str) -> Option<Benchmark> {
        Benchmark::spec()
            .iter()
            .chain(Benchmark::gap())
            .chain(Benchmark::server())
            .chain(Benchmark::scenario())
            .copied()
            .find(|b| b.label() == label)
    }

    /// Instantiate the workload with `seed` (a "sim-point": different seeds
    /// use disjoint address spaces and phases).
    pub fn build(self, seed: u64) -> SyntheticWorkload {
        use Benchmark::*;
        let salted = seed ^ preset_salt(self);
        match self {
            // Phase composites alternate between two base archetypes:
            // reuse-rich ↔ streaming, scattered ↔ concentrated PCs,
            // server ↔ batch. The flip period is short enough that even
            // reduced-scale runs see several re-learning events.
            PhaseMcfLbm => SyntheticWorkload::phased(
                self.label(),
                vec![Mcf.streams(), Lbm.streams()],
                crate::scenario::PHASE_PERIOD,
                salted,
            ),
            PhaseXalanPr => SyntheticWorkload::phased(
                self.label(),
                vec![Xalan.streams(), PrKron.streams()],
                crate::scenario::PHASE_PERIOD,
                salted,
            ),
            PhaseServerBatch => SyntheticWorkload::phased(
                self.label(),
                vec![GoogleWs.streams(), Bwaves.streams()],
                crate::scenario::PHASE_PERIOD,
                salted,
            ),
            // The adversary's stream set is itself seed-derived (scatter
            // stride, PC count, pressure footprint) — the raw seed is the
            // search key, so it is used before the preset salt.
            AdvScatter => SyntheticWorkload::new(
                self.label(),
                crate::scenario::adv_scatter_streams(seed),
                salted,
            ),
            _ => SyntheticWorkload::new(self.label(), self.streams(), salted),
        }
    }

    /// The stream-set recipe of a *base* preset (the giant archetype
    /// table). Scenario composites have no single stream set — they are
    /// assembled in [`Benchmark::build`] from these.
    fn streams(self) -> Vec<StreamSpec> {
        use Benchmark::*;
        use Pattern::*;
        match self {
            // Pointer-heavy, skewed, reuse-rich: the paper's star workload
            // (Fig 5a set skew, Table 1, 77% max gain). The reusable
            // structure is allocated at a large power-of-two stride, so it
            // pressures a narrow band of LLC sets — the high-MPKA skew the
            // dynamic sampled cache feeds on.
            Mcf => vec![
                StreamSpec::new(
                    PointerChase {
                        footprint: 512 * 1024,
                    },
                    8,
                    0.32,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 256 * 1024,
                        alpha: 1.1,
                    },
                    12,
                    0.30,
                ),
                StreamSpec::new(
                    SetColumn {
                        sets: 256,
                        depth: 12,
                        row_stride: 2048,
                        phase_period: 24 * 1024,
                    },
                    6,
                    0.38,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    100,
                    0.0063,
                ),
            ],
            // Very many PCs over shared medium structures: the most
            // scattered PCs of Fig 2, strongest myopia victim.
            Xalan => vec![
                StreamSpec::new(
                    Zipf {
                        footprint: 128 * 1024,
                        alpha: 0.8,
                    },
                    320,
                    0.40,
                ),
                StreamSpec::new(
                    PhasedLoop {
                        small: 16 * 1024,
                        big: 160 * 1024,
                        period: 40 * 1024,
                    },
                    240,
                    0.40,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 20,
                        stride: 1,
                    },
                    40,
                    0.20,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    140,
                    0.0088,
                ),
            ],
            // Pure streaming with heavy stores: uniform MPKA (Fig 5c),
            // Mockingjay's worst case.
            Lbm => vec![
                StreamSpec {
                    store_fraction: 0.45,
                    ..StreamSpec::new(
                        Stream {
                            footprint: 4 << 20,
                            stride: 1,
                        },
                        8,
                        0.85,
                    )
                },
                StreamSpec::new(
                    Loop {
                        footprint: 4 * 1024,
                    },
                    4,
                    0.15,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    60,
                    0.0037,
                ),
            ],
            Gcc => vec![
                StreamSpec::new(
                    PhasedLoop {
                        small: 18 * 1024,
                        big: 128 * 1024,
                        period: 24 * 1024,
                    },
                    200,
                    0.35,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 96 * 1024,
                        alpha: 0.9,
                    },
                    140,
                    0.35,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 512 * 1024,
                        stride: 1,
                    },
                    20,
                    0.30,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    180,
                    0.0112,
                ),
            ],
            Omnetpp => vec![
                StreamSpec::new(
                    PointerChase {
                        footprint: 256 * 1024,
                    },
                    40,
                    0.5,
                ),
                StreamSpec::new(
                    PhasedLoop {
                        small: 14 * 1024,
                        big: 96 * 1024,
                        period: 16 * 1024,
                    },
                    40,
                    0.5,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    140,
                    0.0088,
                ),
            ],
            Cactu => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 1,
                    },
                    12,
                    0.4,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 4,
                    },
                    12,
                    0.3,
                ),
                StreamSpec::new(
                    Loop {
                        footprint: 28 * 1024,
                    },
                    16,
                    0.3,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    80,
                    0.005,
                ),
            ],
            Roms => vec![
                StreamSpec {
                    store_fraction: 0.3,
                    ..StreamSpec::new(
                        Stream {
                            footprint: 3 << 20,
                            stride: 1,
                        },
                        10,
                        0.6,
                    )
                },
                StreamSpec::new(
                    Loop {
                        footprint: 40 * 1024,
                    },
                    10,
                    0.4,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    70,
                    0.0044,
                ),
            ],
            Fotonik => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 1,
                    },
                    8,
                    0.7,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 64 * 1024,
                        alpha: 0.7,
                    },
                    12,
                    0.3,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    70,
                    0.0044,
                ),
            ],
            Bwaves => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 4 << 20,
                        stride: 2,
                    },
                    10,
                    0.65,
                ),
                StreamSpec::new(
                    Loop {
                        footprint: 48 * 1024,
                    },
                    8,
                    0.35,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    70,
                    0.0044,
                ),
            ],
            Wrf => vec![
                StreamSpec::new(
                    PhasedLoop {
                        small: 24 * 1024,
                        big: 144 * 1024,
                        period: 32 * 1024,
                    },
                    50,
                    0.4,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 20,
                        stride: 1,
                    },
                    20,
                    0.35,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 128 * 1024,
                        alpha: 0.8,
                    },
                    30,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    150,
                    0.0094,
                ),
            ],
            Cam4 => vec![
                StreamSpec::new(
                    Loop {
                        footprint: 44 * 1024,
                    },
                    60,
                    0.45,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    25,
                    0.55,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    140,
                    0.0088,
                ),
            ],
            Sphinx => vec![
                StreamSpec::new(
                    Zipf {
                        footprint: 48 * 1024,
                        alpha: 1.0,
                    },
                    40,
                    0.6,
                ),
                StreamSpec::new(
                    Loop {
                        footprint: 10 * 1024,
                    },
                    30,
                    0.4,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    120,
                    0.0075,
                ),
            ],
            Pop2 => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    16,
                    0.5,
                ),
                StreamSpec::new(
                    PointerChase {
                        footprint: 96 * 1024,
                    },
                    16,
                    0.25,
                ),
                StreamSpec::new(
                    Loop {
                        footprint: 24 * 1024,
                    },
                    16,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    110,
                    0.0069,
                ),
            ],
            // Mostly cache-resident: low LLC MPKI, small policy headroom.
            Deepsjeng => with_gap(
                30,
                vec![
                    StreamSpec::new(
                        Loop {
                            footprint: 6 * 1024,
                        },
                        50,
                        0.7,
                    ),
                    StreamSpec::new(
                        Zipf {
                            footprint: 40 * 1024,
                            alpha: 0.9,
                        },
                        30,
                        0.3,
                    ),
                    StreamSpec::new(
                        PrivateRegion {
                            lines_per_pc: 1,
                            spacing: 64,
                        },
                        120,
                        0.0075,
                    ),
                ],
            ),
            // GAP: edge-array streams + vertex-data skew + per-PC private
            // state (concentrated PCs — high in Fig 2).
            PrKron => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 1,
                    },
                    6,
                    0.45,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 256 * 1024,
                        alpha: 1.0,
                    },
                    8,
                    0.30,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 12,
                        spacing: 12,
                    },
                    140,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    500,
                    0.0312,
                ),
            ],
            PrUrand => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 1,
                    },
                    6,
                    0.45,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 512 * 1024,
                        alpha: 0.2,
                    },
                    8,
                    0.30,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 12,
                        spacing: 12,
                    },
                    140,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    500,
                    0.0312,
                ),
            ],
            BfsKron => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    8,
                    0.4,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 192 * 1024,
                        alpha: 0.9,
                    },
                    10,
                    0.35,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 16,
                        spacing: 16,
                    },
                    100,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    420,
                    0.0262,
                ),
            ],
            BfsUrand => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    8,
                    0.4,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 384 * 1024,
                        alpha: 0.3,
                    },
                    10,
                    0.35,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 16,
                        spacing: 16,
                    },
                    100,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    420,
                    0.0262,
                ),
            ],
            CcKron => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    6,
                    0.5,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 256 * 1024,
                        alpha: 0.8,
                    },
                    12,
                    0.3,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 10,
                        spacing: 10,
                    },
                    120,
                    0.2,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    450,
                    0.0281,
                ),
            ],
            BcTwitter => vec![
                StreamSpec::new(
                    Zipf {
                        footprint: 384 * 1024,
                        alpha: 1.1,
                    },
                    14,
                    0.45,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    6,
                    0.30,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 12,
                        spacing: 12,
                    },
                    110,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    430,
                    0.0269,
                ),
            ],
            SsspUrand => vec![
                StreamSpec::new(
                    Zipf {
                        footprint: 448 * 1024,
                        alpha: 0.25,
                    },
                    12,
                    0.4,
                ),
                StreamSpec::new(
                    Stream {
                        footprint: 1 << 21,
                        stride: 1,
                    },
                    8,
                    0.35,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 14,
                        spacing: 14,
                    },
                    100,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    420,
                    0.0262,
                ),
            ],
            TcKron => vec![
                StreamSpec::new(
                    Stream {
                        footprint: 2 << 20,
                        stride: 1,
                    },
                    8,
                    0.55,
                ),
                StreamSpec::new(
                    Zipf {
                        footprint: 160 * 1024,
                        alpha: 0.9,
                    },
                    10,
                    0.25,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 8,
                        spacing: 8,
                    },
                    130,
                    0.20,
                ),
                StreamSpec::new(
                    PrivateRegion {
                        lines_per_pc: 1,
                        spacing: 64,
                    },
                    470,
                    0.0294,
                ),
            ],
            // Server-class: large code/data but mostly upper-level-cache
            // resident ⇒ low LLC MPKI, small replacement headroom (Fig 19).
            Cvp1 => with_gap(
                40,
                vec![
                    StreamSpec::new(
                        Loop {
                            footprint: 3 * 1024,
                        },
                        250,
                        0.55,
                    ),
                    StreamSpec::new(
                        Zipf {
                            footprint: 64 * 1024,
                            alpha: 0.6,
                        },
                        150,
                        0.30,
                    ),
                    StreamSpec::new(
                        Stream {
                            footprint: 256 * 1024,
                            stride: 1,
                        },
                        40,
                        0.15,
                    ),
                    StreamSpec::new(
                        PrivateRegion {
                            lines_per_pc: 1,
                            spacing: 64,
                        },
                        300,
                        0.0187,
                    ),
                ],
            ),
            GoogleWs => with_gap(
                40,
                vec![
                    StreamSpec::new(
                        Loop {
                            footprint: 4 * 1024,
                        },
                        300,
                        0.5,
                    ),
                    StreamSpec::new(
                        Zipf {
                            footprint: 96 * 1024,
                            alpha: 0.5,
                        },
                        200,
                        0.35,
                    ),
                    StreamSpec::new(
                        Stream {
                            footprint: 512 * 1024,
                            stride: 1,
                        },
                        50,
                        0.15,
                    ),
                    StreamSpec::new(
                        PrivateRegion {
                            lines_per_pc: 1,
                            spacing: 64,
                        },
                        320,
                        0.02,
                    ),
                ],
            ),
            CloudSuite => with_gap(
                36,
                vec![
                    StreamSpec::new(
                        Zipf {
                            footprint: 128 * 1024,
                            alpha: 0.7,
                        },
                        220,
                        0.45,
                    ),
                    StreamSpec::new(
                        Loop {
                            footprint: 8 * 1024,
                        },
                        180,
                        0.35,
                    ),
                    StreamSpec::new(
                        Stream {
                            footprint: 384 * 1024,
                            stride: 1,
                        },
                        40,
                        0.20,
                    ),
                    StreamSpec::new(
                        PrivateRegion {
                            lines_per_pc: 1,
                            spacing: 64,
                        },
                        300,
                        0.0187,
                    ),
                ],
            ),
            Xsbench => with_gap(
                28,
                vec![
                    StreamSpec::new(
                        Zipf {
                            footprint: 512 * 1024,
                            alpha: 0.45,
                        },
                        30,
                        0.7,
                    ),
                    StreamSpec::new(
                        Loop {
                            footprint: 12 * 1024,
                        },
                        20,
                        0.3,
                    ),
                    StreamSpec::new(
                        PrivateRegion {
                            lines_per_pc: 1,
                            spacing: 64,
                        },
                        80,
                        0.005,
                    ),
                ],
            ),
            PhaseMcfLbm | PhaseXalanPr | PhaseServerBatch | AdvScatter => {
                unreachable!("scenario presets are assembled in Benchmark::build")
            }
        }
    }
}

/// Raise the instruction gap of every stream (low-LLC-intensity presets).
fn with_gap(gap: u32, specs: Vec<StreamSpec>) -> Vec<StreamSpec> {
    specs
        .into_iter()
        .map(|s| StreamSpec {
            instr_gap: gap,
            ..s
        })
        .collect()
}

/// Distinct salt per preset so "mcf seed 3" and "gcc seed 3" are unrelated.
fn preset_salt(b: Benchmark) -> u64 {
    crate::name_salt(b.label()) & 0xffff_ffff
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadGen;
    use std::collections::HashSet;

    #[test]
    fn every_preset_builds_and_generates() {
        for &b in Benchmark::spec()
            .iter()
            .chain(Benchmark::gap())
            .chain(Benchmark::server())
        {
            let mut w = b.build(1);
            let recs = w.collect(1000);
            assert_eq!(recs.len(), 1000, "{b}");
            assert!(recs.iter().all(|r| r.pc != 0), "{b}");
        }
    }

    #[test]
    fn catalogue_sizes() {
        assert_eq!(Benchmark::spec().len(), 14);
        assert_eq!(Benchmark::gap().len(), 8);
        assert_eq!(Benchmark::server().len(), 4);
        assert_eq!(Benchmark::spec_and_gap().len(), 22);
        // The scenario family is additive: the paper's mix pool is pinned
        // above and must not grow.
        assert_eq!(Benchmark::phase().len(), 3);
        assert_eq!(Benchmark::scenario().len(), 4);
    }

    #[test]
    fn scenario_presets_build_and_generate() {
        for &b in Benchmark::scenario() {
            let mut w = b.build(1);
            let recs = w.collect(1000);
            assert_eq!(recs.len(), 1000, "{b}");
            assert!(recs.iter().all(|r| r.pc != 0), "{b}");
            assert_eq!(Benchmark::from_label(b.label()), Some(b));
        }
    }

    #[test]
    fn phase_preset_visits_both_archetype_regions() {
        // phase-mcf-lbm alternates mcf-like (pointer chase / zipf) and
        // lbm-like (giant stream) stream sets; both phases' address
        // regions must appear once the run crosses a phase boundary.
        let mut w = Benchmark::PhaseMcfLbm.build(1);
        let recs = w.collect(2 * crate::scenario::PHASE_PERIOD as usize + 100);
        let regions: HashSet<u64> = recs.iter().map(|r| (r.line >> 24) & 0xff).collect();
        // mcf contributes 4 streams (regions 1..=4), lbm 3 (regions 5..=7).
        assert!(
            regions.iter().any(|&r| (1..=4).contains(&r))
                && regions.iter().any(|&r| (5..=7).contains(&r)),
            "both phases must run: {regions:?}"
        );
    }

    #[test]
    fn xalan_has_many_more_pcs_than_mcf() {
        let count_pcs = |b: Benchmark| {
            let mut w = b.build(5);
            let pcs: HashSet<u64> = w.collect(50_000).iter().map(|r| r.pc).collect();
            pcs.len()
        };
        let xalan = count_pcs(Benchmark::Xalan);
        let mcf = count_pcs(Benchmark::Mcf);
        assert!(xalan > 3 * mcf, "xalan {xalan} vs mcf {mcf}");
    }

    #[test]
    fn lbm_has_larger_unique_footprint_than_deepsjeng() {
        let uniq = |b: Benchmark| {
            let mut w = b.build(5);
            let lines: HashSet<u64> = w.collect(100_000).iter().map(|r| r.line).collect();
            lines.len()
        };
        assert!(uniq(Benchmark::Lbm) > 3 * uniq(Benchmark::Deepsjeng));
    }

    #[test]
    fn different_seeds_are_disjoint_simpoints() {
        let mut a = Benchmark::Mcf.build(1);
        let mut b = Benchmark::Mcf.build(2);
        let la: HashSet<u64> = a.collect(10_000).iter().map(|r| r.line).collect();
        let lb: HashSet<u64> = b.collect(10_000).iter().map(|r| r.line).collect();
        assert!(la.is_disjoint(&lb));
    }

    #[test]
    fn pr_concentrates_pcs_on_few_lines() {
        // Count PCs touching ≤ 16 distinct lines: should dominate in pr
        // (PrivateRegion PCs) and be rare in xalan.
        let concentrated = |b: Benchmark| {
            let mut w = b.build(9);
            let recs = w.collect(100_000);
            let mut per_pc: std::collections::HashMap<u64, HashSet<u64>> = Default::default();
            for r in &recs {
                per_pc.entry(r.pc).or_default().insert(r.line);
            }
            let multi: Vec<_> = per_pc.values().filter(|s| s.len() > 1).collect();
            multi.iter().filter(|s| s.len() <= 16).count() as f64 / multi.len().max(1) as f64
        };
        let pr = concentrated(Benchmark::PrKron);
        let xalan = concentrated(Benchmark::Xalan);
        assert!(
            pr > xalan + 0.3,
            "pr concentration {pr} should exceed xalan {xalan}"
        );
    }
}
