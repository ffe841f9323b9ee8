//! Shared infrastructure for replacement policies.

use drishti_mem::access::Access;
use drishti_mem::llc::LlcGeometry;
use drishti_mem::CoreId;
use drishti_noc::snap::{Persist, SnapError, StateReader, StateWriter};

/// Per-line policy metadata, indexed `(slice, set, way)`.
#[derive(Debug, Clone)]
pub struct PerLine<T> {
    data: Vec<Vec<T>>,
    ways: usize,
}

impl<T: Clone + Default> PerLine<T> {
    /// Allocate metadata for the given geometry, default-initialised.
    pub fn new(geom: &LlcGeometry) -> Self {
        PerLine {
            data: vec![vec![T::default(); geom.sets_per_slice * geom.ways]; geom.slices],
            ways: geom.ways,
        }
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, slice: usize, set: usize, way: usize) -> &T {
        &self.data[slice][set * self.ways + way]
    }

    /// Mutable access.
    #[inline]
    pub fn get_mut(&mut self, slice: usize, set: usize, way: usize) -> &mut T {
        &mut self.data[slice][set * self.ways + way]
    }

    /// All ways of one set, mutable.
    #[inline]
    pub fn set_mut(&mut self, slice: usize, set: usize) -> &mut [T] {
        &mut self.data[slice][set * self.ways..(set + 1) * self.ways]
    }

    /// All ways of one set, shared.
    #[inline]
    pub fn set(&self, slice: usize, set: usize) -> &[T] {
        &self.data[slice][set * self.ways..(set + 1) * self.ways]
    }
}

impl<T: Persist + Default> Persist for PerLine<T> {
    fn save(&self, w: &mut StateWriter) {
        // `ways` is geometry, re-derived at construction; only the data
        // array is run-state.
        self.data.save(w);
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.data.load(r)
    }
}

/// Index a predictor table with `bits` index bits from a PC signature and
/// the requesting core. The core is folded in because baseline Mockingjay's
/// per-slice predictors are "indexed with a hash of PC and core ID"
/// (paper Fig 1) — the same indexing is used for every organisation so
/// myopic/global comparisons differ only in which bank is trained.
#[inline]
pub fn predictor_index(signature: u64, core: CoreId, bits: u32) -> usize {
    let mut x = signature ^ (core as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 29;
    (x & ((1 << bits) - 1)) as usize
}

/// The access that installed an LLC line, in the 4 B Hawkeye and SHiP++
/// train on: its predictor index, a no-PC bit and its core.
///
/// The index is [`predictor_index`] of the installing signature and core,
/// computed once at install; the function is pure, so training later on
/// the stored index trains the same entry as hashing again would. The
/// no-PC bit marks installs whose signature is 0 (write-backs carry no
/// PC), which the detrain paths skip. Such lines keep their index too:
/// SHiP++ trains a hit line's entry whatever installed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Installer {
    /// Predictor index, with [`Installer::NO_PC`] set for a 0 signature.
    key: u16,
    core: u16,
}

drishti_noc::impl_persist_fields!(Installer { key, core });

impl Installer {
    const NO_PC: u16 = 1 << 15;

    /// The installer of a line filled by `core` with PC `signature`, for a
    /// predictor of `bits` (at most 15) index bits.
    #[inline]
    pub fn new(signature: u64, core: CoreId, bits: u32) -> Self {
        let no_pc = if signature == 0 { Self::NO_PC } else { 0 };
        Installer {
            key: predictor_index(signature, core, bits) as u16 | no_pc,
            core: core as u16,
        }
    }

    /// The predictor entry this installer trains.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.key & !Self::NO_PC)
    }

    /// The installing core.
    #[inline]
    pub fn core(self) -> CoreId {
        usize::from(self.core)
    }

    /// Whether the install carried a PC (a nonzero signature).
    #[inline]
    pub fn has_pc(self) -> bool {
        self.key & Self::NO_PC == 0
    }
}

/// The [`Installer`] of every LLC line, for a predictor of `bits` index
/// bits shared by `cores` cores.
#[derive(Debug)]
pub(crate) struct Installers {
    lines: PerLine<Installer>,
    bits: u32,
    cores: usize,
}

impl Installers {
    /// Installers for `geom`, all zero until each line's first fill.
    ///
    /// # Panics
    ///
    /// Panics if `geom` has more than 2^16 slices or there are more than
    /// 2^16 cores (one slice per core; the core is stored as a `u16`), or
    /// if `bits` exceeds 15.
    pub fn new(geom: &LlcGeometry, cores: usize, bits: u32) -> Self {
        assert!(
            geom.slices.max(cores) <= 1 << 16,
            "installer state holds at most 2^16 slices and cores, got {} and {cores}",
            geom.slices
        );
        assert!(
            bits <= 15,
            "installer index holds at most 15 bits, got {bits}"
        );
        Installers {
            lines: PerLine::new(geom),
            bits,
            cores,
        }
    }

    /// Record that `acc` installed the line at `(slice, set, way)`; return
    /// its installer so the fill can reuse the index.
    #[inline]
    pub fn install(&mut self, slice: usize, set: usize, way: usize, acc: &Access) -> Installer {
        let by = Installer::new(acc.signature(), acc.core, self.bits);
        *self.lines.get_mut(slice, set, way) = by;
        by
    }

    /// The installer of the line at `(slice, set, way)`.
    #[inline]
    pub fn get(&self, slice: usize, set: usize, way: usize) -> Installer {
        *self.lines.get(slice, set, way)
    }

    /// The cores whose installs this plane records.
    pub fn cores(&self) -> usize {
        self.cores
    }
}

impl Persist for Installers {
    fn save(&self, w: &mut StateWriter) {
        self.lines.save(w);
    }
    /// The codec's shape rule holds the plane to its configured size but
    /// cannot see the values, so each restored installer is cross-checked:
    /// an index of `bits` bits and a core below `cores`, else a training
    /// on it would index past the predictor tables.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.lines.load(r)?;
        for (slice, lines) in self.lines.data.iter().enumerate() {
            if let Some(line) = lines
                .iter()
                .position(|by| by.index() >> self.bits != 0 || by.core() >= self.cores)
            {
                let by = lines[line];
                return Err(SnapError::Invalid {
                    what: "llc installer",
                    detail: format!(
                        "slice {slice} line {line}: index {} needs more than {} bits or core {} \
                         is not below {}",
                        by.index(),
                        self.bits,
                        by.core(),
                        self.cores
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A compact hash of a line address for sampler tags.
#[inline]
pub fn line_tag(line: u64, bits: u32) -> u32 {
    let mut x = line;
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    (x & ((1 << bits) - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> LlcGeometry {
        LlcGeometry {
            slices: 2,
            sets_per_slice: 4,
            ways: 3,
            latency: 20,
        }
    }

    #[test]
    fn per_line_round_trips() {
        let mut p: PerLine<u8> = PerLine::new(&geom());
        *p.get_mut(1, 2, 0) = 7;
        assert_eq!(*p.get(1, 2, 0), 7);
        assert_eq!(*p.get(0, 2, 0), 0);
        assert_eq!(p.set(1, 2), &[7, 0, 0]);
        p.set_mut(1, 2)[2] = 9;
        assert_eq!(*p.get(1, 2, 2), 9);
    }

    #[test]
    fn predictor_index_in_range_and_core_sensitive() {
        for core in 0..8 {
            for sig in [0u64, 0x400, 0xdead_beef] {
                assert!(predictor_index(sig, core, 11) < 2048);
            }
        }
        assert_ne!(
            predictor_index(0x400, 0, 11),
            predictor_index(0x400, 1, 11),
            "core must influence the index"
        );
    }

    #[test]
    fn installer_packs_index_pc_bit_and_core_in_four_bytes() {
        assert_eq!(std::mem::size_of::<Installer>(), 4);
        for (sig, core, bits) in [
            (0x400u64, 3usize, 13u32),
            (0xdead_beef, 65_535, 14),
            (0, 2, 14),
        ] {
            let by = Installer::new(sig, core, bits);
            assert_eq!(by.index(), predictor_index(sig, core, bits));
            assert_eq!(by.core(), core);
            assert_eq!(by.has_pc(), sig != 0);
        }
    }

    #[test]
    fn restored_installers_are_cross_checked() {
        let g = geom();
        let mut live = Installers::new(&g, 2, 13);
        live.install(1, 3, 2, &Access::load(1, 0x400, 77));
        let mut w = StateWriter::new();
        live.save(&mut w);
        let good = w.into_bytes();
        let mut fresh = Installers::new(&g, 2, 13);
        fresh.load(&mut StateReader::new(&good)).unwrap();
        assert_eq!(fresh.get(1, 3, 2), live.get(1, 3, 2));
        // The last line's (key, core): an index of 14 bits, then core 2.
        let n = good.len();
        for (at, v) in [(n - 4, 1u16 << 13), (n - 2, 2)] {
            let mut bad = good.clone();
            bad[at..at + 2].copy_from_slice(&v.to_le_bytes());
            let mut fresh = Installers::new(&g, 2, 13);
            match fresh.load(&mut StateReader::new(&bad)) {
                Err(SnapError::Invalid { what, .. }) => assert_eq!(what, "llc installer"),
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn line_tag_is_stable_and_bounded() {
        assert_eq!(line_tag(123, 10), line_tag(123, 10));
        for l in 0..1000u64 {
            assert!(line_tag(l, 10) < 1024);
        }
    }
}
