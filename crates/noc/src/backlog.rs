//! The leaky-bucket backlog every queued resource of the timing model
//! shares: mesh links, inter-chip links, and DRAM banks and buses.

use crate::snap::{Persist, SnapError, StateReader, StateWriter};

/// Leaky-bucket occupancy: `debt` cycles of accepted work that drain one
/// cycle per cycle; a new request waits behind the backlog ahead of it.
/// Unlike a "free at time T" pointer, a bucket tolerates slightly
/// out-of-order request timestamps (different cores' clocks drift within
/// a scheduling step), which would otherwise charge phantom waits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Backlog {
    debt: u64,
    last: u64,
}

impl Backlog {
    /// The largest debt a restored backlog may hold, in cycles. Runs stay
    /// far below it (the four benchmark workloads peak at 164 837 cycles,
    /// on a DRAM bank or bus of `multichip-64c`), and a restored debt at
    /// or under it keeps every wait and latency sum far from `u64`
    /// overflow.
    pub const MAX_DEBT: u64 = 1 << 32;

    /// Accept `work` cycles of work arriving at `cycle`; return how long
    /// it waits behind the backlog.
    #[inline]
    pub fn occupy(&mut self, cycle: u64, work: u64) -> u64 {
        let elapsed = cycle.saturating_sub(self.last);
        self.debt = self.debt.saturating_sub(elapsed);
        self.last = self.last.max(cycle);
        let wait = self.debt;
        self.debt += work;
        wait
    }

    /// Cycles of work pending as of the latest arrival.
    pub fn debt(&self) -> u64 {
        self.debt
    }
}

impl Persist for Backlog {
    fn save(&self, w: &mut StateWriter) {
        self.debt.save(w);
        self.last.save(w);
    }
    /// A debt above [`Backlog::MAX_DEBT`] is refused: no run builds one,
    /// and restored it would overflow the latencies it is added into.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.debt.load(r)?;
        self.last.load(r)?;
        if self.debt > Self::MAX_DEBT {
            return Err(SnapError::Invalid {
                what: "backlog debt",
                detail: format!(
                    "{} cycles exceeds the bound of {}",
                    self.debt,
                    Self::MAX_DEBT
                ),
            });
        }
        Ok(())
    }
}

/// One directed link: its backlog plus the flits it has carried.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkLoad {
    busy: Backlog,
    /// Total flits ever pushed through this link (telemetry).
    pub(crate) flits: u64,
}

crate::impl_persist_fields!(LinkLoad { busy, flits });

impl LinkLoad {
    /// Push `flits` flits arriving at `cycle`, each holding the link for
    /// `cycles_per_flit` cycles; return the wait behind the backlog.
    #[inline]
    pub(crate) fn carry(&mut self, cycle: u64, flits: u64, cycles_per_flit: u64) -> u64 {
        self.flits += flits;
        self.busy.occupy(cycle, flits * cycles_per_flit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_drains_one_cycle_per_cycle() {
        let mut b = Backlog::default();
        assert_eq!(b.occupy(100, 8), 0);
        assert_eq!(b.occupy(103, 8), 5, "8 − 3 elapsed cycles still pending");
        // An arrival stamped before the latest one drains nothing.
        assert_eq!(b.occupy(101, 1), 13);
        assert_eq!(b.debt(), 14);
    }

    #[test]
    fn restored_debt_above_the_bound_is_refused() {
        for (debt, ok) in [(Backlog::MAX_DEBT, true), (Backlog::MAX_DEBT + 1, false)] {
            let mut w = StateWriter::new();
            Backlog { debt, last: 7 }.save(&mut w);
            let mut b = Backlog::default();
            let res = b.load(&mut StateReader::new(w.bytes()));
            assert_eq!(res.is_ok(), ok, "debt {debt}: {res:?}");
            if let Err(SnapError::Invalid { what, .. }) = res {
                assert_eq!(what, "backlog debt");
            }
        }
    }

    #[test]
    fn link_load_keeps_the_three_field_layout() {
        let mut l = LinkLoad::default();
        l.carry(10, 4, 3);
        let mut w = StateWriter::new();
        l.save(&mut w);
        let mut expect = StateWriter::new();
        for v in [12u64, 10, 4] {
            v.save(&mut expect);
        }
        assert_eq!(w.bytes(), expect.bytes(), "debt, last, flits");
    }
}
