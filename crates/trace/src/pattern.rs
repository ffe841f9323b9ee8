//! Primitive address patterns.
//!
//! Each pattern is a deterministic state machine producing cache-line
//! addresses within a private address region. Composition into realistic
//! workloads happens in [`crate::synthetic`].

use crate::Rng;

/// The address-pattern vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Sequential scan over `footprint` lines with `stride`, wrapping —
    /// streaming behaviour (lbm-like): no temporal reuse, uniform sets,
    /// trivially prefetchable.
    Stream {
        /// Lines in the region.
        footprint: u64,
        /// Stride in lines.
        stride: u64,
    },
    /// Cyclic walk over `footprint` lines — pure temporal reuse with reuse
    /// distance = footprint.
    Loop {
        /// Lines in the loop.
        footprint: u64,
    },
    /// Walk of a random permutation over `footprint` lines — dependent
    /// pointer chasing (mcf-like): no spatial locality, defeats stride
    /// prefetchers, reuse distance ≈ footprint.
    PointerChase {
        /// Lines in the linked structure.
        footprint: u64,
    },
    /// Zipf-distributed random accesses over `footprint` lines with
    /// exponent `alpha` — skewed popularity (graph vertex data): hot lines
    /// reuse quickly, cold tail thrashes, and set pressure becomes
    /// non-uniform (paper Fig 5a).
    Zipf {
        /// Lines in the region.
        footprint: u64,
        /// Skew exponent (0 = uniform; ~1 = heavy skew).
        alpha: f64,
    },
    /// Each PC owns a private small region of `lines_per_pc` lines and
    /// walks it cyclically — concentrated PCs (pr-like in paper Fig 2):
    /// all loads of one PC land on very few slices.
    PrivateRegion {
        /// Lines owned by each PC.
        lines_per_pc: u64,
        /// Lines between consecutive PCs' regions (≥ `lines_per_pc`).
        /// Page-sized spacing (64) keeps neighbouring PCs' lines on
        /// different pages so spatial prefetchers cannot chain them.
        spacing: u64,
    },
    /// A cyclic walk over a "column" of cache sets: `sets` consecutive
    /// line addresses repeated at `row_stride`-line strides, `depth` rows
    /// deep. Structures allocated with large power-of-two strides map to a
    /// narrow band of LLC sets, producing the high/low-MPKA set skew of
    /// paper Fig 5a — the behaviour Drishti's dynamic sampled cache
    /// exploits. Reuse distance is `sets × depth` accesses (a protectable
    /// working set when `depth` is near the associativity).
    SetColumn {
        /// Distinct consecutive set-index values touched.
        sets: u64,
        /// Lines per set (rows).
        depth: u64,
        /// Lines between rows (the structure's allocation stride; use the
        /// LLC set count, 2048, for maximum concentration).
        row_stride: u64,
        /// Accesses per program phase (0 = static). At each phase change
        /// the column jumps to a different set band and alternates between
        /// a cache-fitting depth (reusable phase) and a 3× depth
        /// (thrashing phase), so the correct PC classification *changes*
        /// and predictors must re-learn — the adaptation pressure that the
        /// paper's phase-change handling (§4.2) targets.
        phase_period: u64,
    },
    /// A loop whose footprint alternates between `small` (cache-fitting,
    /// reusable) and `big` (thrashing) every `period` accesses — a PC whose
    /// friendliness is phase-dependent, forcing continuous re-training.
    PhasedLoop {
        /// Footprint during even phases (lines).
        small: u64,
        /// Footprint during odd phases (lines).
        big: u64,
        /// Accesses per phase.
        period: u64,
    },
    /// Each PC cyclically walks `lines_per_pc` lines spaced `slice_stride`
    /// lines apart — the *anti-concentration* adversary. Paper Fig 2 shows
    /// most multi-load PCs map to one slice (the locality Drishti's
    /// per-slice predictors exploit); this pattern inverts that: with an
    /// odd `slice_stride`, consecutive touches of one PC land on distinct
    /// slices under any modulo/fold slice hash, so no single slice's
    /// predictor ever sees a PC's full reuse behaviour.
    SliceScatter {
        /// Lines owned by each PC.
        lines_per_pc: u64,
        /// Line distance between a PC's consecutive lines (odd values
        /// defeat power-of-two slice interleaving).
        slice_stride: u64,
    },
}

/// Runtime state for one pattern instance.
///
/// No record pays for a division (the pointer chase's affine step
/// aside): positions are wrapping counters and divisors are constants
/// computed at construction.
#[derive(Debug, Clone)]
pub struct PatternState {
    pattern: Pattern,
    base: u64,
    walk: Walk,
}

/// Where a pattern instance stands, with the constants its step needs.
#[derive(Debug, Clone)]
enum Walk {
    /// Stream and Loop: line `pos` of `len`, advanced by `step` (< `len`).
    Cyclic { pos: u64, step: u64, len: u64 },
    /// PointerChase: an affine full-period permutation of `0..len`.
    Chase { pos: u64, mult: u64, len: u64 },
    /// Zipf: cumulative weights over 256 buckets of `bucket_lines` lines;
    /// `mask` is `bucket_lines - 1` when `bucket_lines` is a power of two.
    Zipf {
        cum: Vec<f64>,
        bucket_lines: u64,
        mask: Option<u64>,
    },
    /// PrivateRegion and SliceScatter: one position `pos` in `0..len`,
    /// advanced before every access of the stream; PC `p` then touches
    /// `p * pc_stride + pos * line_stride`.
    PerPc {
        pos: u64,
        len: u64,
        pc_stride: u64,
        line_stride: u64,
    },
    /// SetColumn.
    Column(Column),
    /// PhasedLoop: the access index modulo `small` and modulo `big`, and
    /// its phase.
    Phased {
        small_pos: u64,
        big_pos: u64,
        small: u64,
        big: u64,
        clock: PhaseClock,
    },
}

/// The phase of an access index `i`: `index` is `i / period`, and `left`
/// accesses remain before it advances.
#[derive(Debug, Clone)]
struct PhaseClock {
    index: u64,
    left: u64,
    period: u64,
}

impl PhaseClock {
    fn new(period: u64) -> Self {
        PhaseClock {
            index: 0,
            left: period,
            period,
        }
    }

    /// Counts one access; `true` when the next one starts a phase.
    fn tick(&mut self) -> bool {
        self.left -= 1;
        if self.left > 0 {
            return false;
        }
        self.left = self.period;
        self.index += 1;
        true
    }
}

/// A SetColumn walk at access index `i`: set `i % sets` of row
/// `(i / sets) % depth_eff`, in the band of `i`'s phase.
#[derive(Debug, Clone)]
struct Column {
    sets: u64,
    depth: u64,
    row_stride: u64,
    salt: u64,
    /// `i % sets`, and `i / sets`: completed passes over the sets.
    set: u64,
    passes: u64,
    /// `passes % depth_eff`.
    row: u64,
    /// The phase's band offset and depth.
    band: u64,
    depth_eff: u64,
    /// `None` for a static band.
    clock: Option<PhaseClock>,
}

impl Column {
    fn new(sets: u64, depth: u64, row_stride: u64, phase_period: u64, salt: u64) -> Self {
        let mut column = Column {
            sets,
            depth,
            row_stride,
            salt,
            set: 0,
            passes: 0,
            row: 0,
            band: salt % row_stride,
            depth_eff: depth,
            clock: (phase_period > 0).then(|| PhaseClock::new(phase_period)),
        };
        if column.clock.is_some() {
            column.enter_phase(0);
        }
        column
    }

    /// At each phase change the column jumps to a salted band and
    /// alternates between `depth` (even phases) and `3 × depth` rows.
    fn enter_phase(&mut self, phase: u64) {
        self.band = Rng::new(phase ^ self.salt ^ 0x5e7c).next_u64() % self.row_stride;
        self.depth_eff = if phase % 2 == 1 {
            self.depth * 3
        } else {
            self.depth
        };
        self.row = self.passes % self.depth_eff;
    }

    /// The line offset of this access; then advances to the next.
    fn step(&mut self) -> u64 {
        let offset = self.band + self.row * self.row_stride + self.set;
        self.set += 1;
        if self.set == self.sets {
            self.set = 0;
            self.passes += 1;
            self.row += 1;
            if self.row == self.depth_eff {
                self.row = 0;
            }
        }
        let next_phase = self
            .clock
            .as_mut()
            .and_then(|c| c.tick().then_some(c.index));
        if let Some(phase) = next_phase {
            self.enter_phase(phase);
        }
        offset
    }
}

/// `pos + 1`, wrapping to 0 at `len`.
#[inline]
fn wrap_inc(pos: u64, len: u64) -> u64 {
    if pos + 1 == len {
        0
    } else {
        pos + 1
    }
}

impl PatternState {
    /// Instantiate `pattern` at address `base` (line address) with a
    /// program-stable `program_salt`: two instances of the *same
    /// benchmark* share it, so their set-column bands align across cores
    /// (same binary ⇒ same structure alignment), while their data lines
    /// stay disjoint.
    ///
    /// # Panics
    ///
    /// Panics if a size the walk wraps at is zero.
    pub fn with_salt(pattern: Pattern, base: u64, program_salt: u64, rng: &mut Rng) -> Self {
        let walk = match pattern {
            Pattern::Stream { footprint, stride } => Walk::Cyclic {
                pos: 0,
                step: stride % footprint,
                len: footprint,
            },
            Pattern::Loop { footprint } => Walk::Cyclic {
                pos: 0,
                step: 1 % footprint,
                len: footprint,
            },
            Pattern::PointerChase { footprint } => {
                assert!(footprint > 0, "a pointer chase needs a footprint");
                // An odd multiplier coprime with the footprint produces a
                // full-period affine permutation.
                let mut m = (rng.next_u64() | 1) % footprint.max(2);
                if m < 2 {
                    m = footprint / 2 + 1;
                }
                while gcd(m, footprint.max(1)) != 1 {
                    m += 1;
                }
                Walk::Chase {
                    pos: 0,
                    mult: m,
                    len: footprint,
                }
            }
            Pattern::Zipf { footprint, alpha } => {
                // 256 buckets with Zipf weights; addresses are drawn
                // uniformly within the chosen bucket.
                let mut cum = Vec::with_capacity(256);
                let mut total = 0.0;
                for i in 0..256 {
                    total += 1.0 / ((i + 1) as f64).powf(alpha);
                    cum.push(total);
                }
                for c in &mut cum {
                    *c /= total;
                }
                let bucket_lines = (footprint / 256).max(1);
                Walk::Zipf {
                    cum,
                    bucket_lines,
                    mask: bucket_lines.is_power_of_two().then(|| bucket_lines - 1),
                }
            }
            Pattern::PrivateRegion {
                lines_per_pc,
                spacing,
            } => Walk::PerPc {
                pos: 0,
                len: lines_per_pc,
                pc_stride: spacing.max(lines_per_pc),
                line_stride: 1,
            },
            Pattern::SliceScatter {
                lines_per_pc,
                slice_stride,
            } => Walk::PerPc {
                pos: 0,
                len: lines_per_pc,
                pc_stride: lines_per_pc * slice_stride,
                line_stride: slice_stride,
            },
            Pattern::SetColumn {
                sets,
                depth,
                row_stride,
                phase_period,
            } => {
                assert!(sets > 0 && depth > 0, "a set column needs sets and rows");
                Walk::Column(Column::new(
                    sets,
                    depth,
                    row_stride,
                    phase_period,
                    program_salt,
                ))
            }
            Pattern::PhasedLoop { small, big, period } => {
                assert!(
                    small > 0 && big > 0 && period > 0,
                    "a phased loop needs footprints and a period"
                );
                Walk::Phased {
                    small_pos: 0,
                    big_pos: 0,
                    small,
                    big,
                    clock: PhaseClock::new(period),
                }
            }
        };
        if let Walk::PerPc { len, .. } = walk {
            assert!(len > 0, "each PC needs at least one line");
        }
        PatternState {
            pattern,
            base,
            walk,
        }
    }

    /// Instantiate `pattern` at `base` with an instance-local salt.
    pub fn new(pattern: Pattern, base: u64, rng: &mut Rng) -> Self {
        let salt = rng.next_u64();
        PatternState::with_salt(pattern, base, salt, rng)
    }

    /// The pattern this state executes.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Produce the next line address; `pc_index` is the index of the PC
    /// issuing it within the owning stream (PrivateRegion, PhasedLoop
    /// and SliceScatter use it).
    pub fn next_line(&mut self, pc_index: u64, rng: &mut Rng) -> u64 {
        let offset = match &mut self.walk {
            Walk::Cyclic { pos, step, len } => {
                let line = *pos;
                *pos += *step;
                if *pos >= *len {
                    *pos -= *len;
                }
                line
            }
            Walk::Chase { pos, mult, len } => {
                *pos = (pos.wrapping_mul(*mult) + 1) % *len;
                *pos
            }
            Walk::Zipf {
                cum,
                bucket_lines,
                mask,
            } => {
                let u = rng.unit();
                // The CDF is non-decreasing and ends at exactly 1.0, so the
                // binary search finds the first bucket with `u <= c`.
                let bucket = cum.partition_point(|&c| c < u).min(cum.len() - 1) as u64;
                let r = rng.next_u64();
                let within = match mask {
                    Some(mask) => r & *mask,
                    None => r % *bucket_lines,
                };
                bucket * *bucket_lines + within
            }
            Walk::PerPc {
                pos,
                len,
                pc_stride,
                line_stride,
            } => {
                *pos = wrap_inc(*pos, *len);
                pc_index * *pc_stride + *pos * *line_stride
            }
            Walk::Column(column) => column.step(),
            Walk::Phased {
                small_pos,
                big_pos,
                small,
                big,
                clock,
            } => {
                // Phases are staggered per PC: at any instant some of the
                // stream's PCs are in their cache-fitting phase and others
                // in their thrashing phase. Distinct PCs therefore have
                // *distinct* current behaviour — merging them (as a
                // myopic predictor's index aliasing does) mixes opposite
                // classes, exactly as with real programs' PCs.
                let line = if (clock.index + pc_index).is_multiple_of(2) {
                    *small_pos
                } else {
                    *big_pos
                };
                *small_pos = wrap_inc(*small_pos, *small);
                *big_pos = wrap_inc(*big_pos, *big);
                clock.tick();
                line
            }
        };
        self.base + offset
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The division-based per-record formulas the counters replaced, kept to
/// pin the counters record for record (`synthetic`'s differential test).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A pattern instance stepped by the reference formulas.
    #[derive(Debug)]
    pub(crate) struct RefPattern {
        pattern: Pattern,
        base: u64,
        cursor: u64,
        zipf_cum: Vec<f64>,
        chase_mult: u64,
        program_salt: u64,
    }

    impl RefPattern {
        /// The reference twin of `state`, which must not have stepped yet.
        pub(crate) fn of(state: &PatternState) -> Self {
            let (zipf_cum, chase_mult, program_salt) = match &state.walk {
                Walk::Zipf { cum, .. } => (cum.clone(), 1, 0),
                Walk::Chase { mult, .. } => (Vec::new(), *mult, 0),
                Walk::Column(column) => (Vec::new(), 1, column.salt),
                _ => (Vec::new(), 1, 0),
            };
            RefPattern {
                pattern: state.pattern,
                base: state.base,
                cursor: 0,
                zipf_cum,
                chase_mult,
                program_salt,
            }
        }

        pub(crate) fn next_line(&mut self, pc_index: u64, rng: &mut Rng) -> u64 {
            match self.pattern {
                Pattern::Stream { footprint, stride } => {
                    let line = self.base + (self.cursor % footprint);
                    self.cursor += stride;
                    line
                }
                Pattern::Loop { footprint } => {
                    let line = self.base + (self.cursor % footprint);
                    self.cursor += 1;
                    line
                }
                Pattern::PointerChase { footprint } => {
                    self.cursor = (self.cursor.wrapping_mul(self.chase_mult) + 1) % footprint;
                    self.base + self.cursor
                }
                Pattern::Zipf { footprint, .. } => {
                    let u = rng.unit();
                    let bucket = self
                        .zipf_cum
                        .partition_point(|&c| c < u)
                        .min(self.zipf_cum.len() - 1) as u64;
                    let buckets = self.zipf_cum.len() as u64;
                    let bucket_lines = (footprint / buckets).max(1);
                    self.base + bucket * bucket_lines + rng.below(bucket_lines)
                }
                Pattern::PrivateRegion {
                    lines_per_pc,
                    spacing,
                } => {
                    self.cursor += 1;
                    self.base + pc_index * spacing.max(lines_per_pc) + (self.cursor % lines_per_pc)
                }
                Pattern::SetColumn {
                    sets,
                    depth,
                    row_stride,
                    phase_period,
                } => {
                    let i = self.cursor;
                    self.cursor += 1;
                    let (band_offset, depth_eff) = match i.checked_div(phase_period) {
                        None => (self.program_salt % row_stride, depth),
                        Some(phase) => {
                            let off = Rng::new(phase ^ self.program_salt ^ 0x5e7c).next_u64()
                                % row_stride;
                            let d = if phase % 2 == 1 { depth * 3 } else { depth };
                            (off, d)
                        }
                    };
                    let set = i % sets;
                    let row = (i / sets) % depth_eff;
                    self.base + band_offset + row * row_stride + set
                }
                Pattern::PhasedLoop { small, big, period } => {
                    let i = self.cursor;
                    self.cursor += 1;
                    let phase = i / period + pc_index;
                    let footprint = if phase.is_multiple_of(2) { small } else { big };
                    self.base + (i % footprint)
                }
                Pattern::SliceScatter {
                    lines_per_pc,
                    slice_stride,
                } => {
                    self.cursor += 1;
                    self.base
                        + pc_index * lines_per_pc * slice_stride
                        + (self.cursor % lines_per_pc) * slice_stride
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn state(p: Pattern) -> (PatternState, Rng) {
        let mut rng = Rng::new(99);
        (PatternState::new(p, 1 << 20, &mut rng), rng)
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let (mut s, mut rng) = state(Pattern::Stream {
            footprint: 4,
            stride: 1,
        });
        let lines: Vec<u64> = (0..6).map(|_| s.next_line(0, &mut rng)).collect();
        let b = 1 << 20;
        assert_eq!(lines, vec![b, b + 1, b + 2, b + 3, b, b + 1]);
    }

    #[test]
    fn loop_revisits_everything() {
        let (mut s, mut rng) = state(Pattern::Loop { footprint: 8 });
        let first: Vec<u64> = (0..8).map(|_| s.next_line(0, &mut rng)).collect();
        let second: Vec<u64> = (0..8).map(|_| s.next_line(0, &mut rng)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn pointer_chase_visits_all_lines() {
        let (mut s, mut rng) = state(Pattern::PointerChase { footprint: 64 });
        let seen: HashSet<u64> = (0..64).map(|_| s.next_line(0, &mut rng)).collect();
        assert_eq!(seen.len(), 64, "affine chase must be a full permutation");
    }

    #[test]
    fn pointer_chase_not_sequential() {
        let (mut s, mut rng) = state(Pattern::PointerChase { footprint: 1024 });
        let a = s.next_line(0, &mut rng);
        let b = s.next_line(0, &mut rng);
        let c = s.next_line(0, &mut rng);
        assert!(
            !(b == a + 1 && c == b + 1),
            "chase should not look like a stream"
        );
    }

    #[test]
    fn zipf_is_skewed() {
        let (mut s, mut rng) = state(Pattern::Zipf {
            footprint: 25_600,
            alpha: 1.0,
        });
        let mut first_bucket = 0;
        let n = 20_000;
        for _ in 0..n {
            let line = s.next_line(0, &mut rng) - (1 << 20);
            if line < 100 {
                first_bucket += 1;
            }
        }
        // Bucket 0 holds 100/25600 ≈ 0.4% of lines but ~16% of weight.
        assert!(
            first_bucket > n / 20,
            "hot bucket too cold: {first_bucket}/{n}"
        );
    }

    #[test]
    fn zipf_binary_search_picks_the_linear_scan_bucket() {
        for alpha in [0.6, 1.0, 1.4] {
            let (s, mut rng) = state(Pattern::Zipf {
                footprint: 25_600,
                alpha,
            });
            let Walk::Zipf { cum, .. } = &s.walk else {
                unreachable!("a Zipf pattern walks buckets")
            };
            assert_eq!(*cum.last().unwrap(), 1.0);
            let probes = (0..10_000).map(|_| rng.unit());
            for u in probes.chain(cum.iter().copied()).chain([0.0, 0.999_999_9]) {
                let scan = cum.iter().position(|&c| u <= c).unwrap_or(cum.len() - 1);
                let search = cum.partition_point(|&c| c < u).min(cum.len() - 1);
                assert_eq!(search, scan, "alpha {alpha}, u {u}");
            }
        }
    }

    #[test]
    fn slice_scatter_strides_across_slices() {
        let (mut s, mut rng) = state(Pattern::SliceScatter {
            lines_per_pc: 8,
            slice_stride: 7,
        });
        for pc in 0..4u64 {
            let lines: Vec<u64> = (0..16).map(|_| s.next_line(pc, &mut rng)).collect();
            // Every PC's lines are confined to its own stripe…
            for &l in &lines {
                let off = l - (1 << 20) - pc * 8 * 7;
                assert!(off < 8 * 7, "pc {pc} escaped its stripe: {off}");
                assert_eq!(off % 7, 0, "lines must sit on the stride grid");
            }
            // …and consecutive touches land on different slices for any
            // power-of-two slice count up to 8 (odd stride ⇒ line mod
            // slices changes every step).
            for w in lines.windows(2) {
                for slices in [2u64, 4, 8] {
                    assert_ne!(w[0] % slices, w[1] % slices, "stride must hop slices");
                }
            }
        }
    }

    #[test]
    fn private_region_stays_per_pc() {
        let (mut s, mut rng) = state(Pattern::PrivateRegion {
            lines_per_pc: 8,
            spacing: 8,
        });
        for pc in 0..4u64 {
            for _ in 0..20 {
                let line = s.next_line(pc, &mut rng) - (1 << 20);
                assert!(line >= pc * 8 && line < (pc + 1) * 8);
            }
        }
    }
}
