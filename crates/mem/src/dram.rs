//! DDR DRAM model.
//!
//! Paper Table 4: one channel per four cores, 6400 MT/s, FR-FCFS, write
//! watermark 7/8, 4 KB row buffer, open page, tRP = tRCD = tCAS = 12.5 ns.
//! At the 4 GHz core clock those timings are 50 cycles each.
//!
//! The model is occupancy-based rather than a cycle-stepped controller:
//! each bank remembers its open row and the cycle it becomes free; each
//! channel's data bus serializes 64-byte bursts. Reads experience
//! row-hit/row-miss latency plus any bank/bus queueing — enough to
//! reproduce the paper's channel-count sensitivity (Fig 22) and the
//! bandwidth pressure that makes LLC misses expensive on many cores.
//! Writes are buffered (write watermark) and drain opportunistically; they
//! consume bank/bus time that delays subsequent reads, which is how extra
//! write-backs (paper Table 5) cost performance and energy.

use crate::LineAddr;
use drishti_noc::faults::{FaultConfig, FaultDomain, FaultSchedule};

/// DRAM timing/geometry parameters (in core cycles at 4 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels (paper: cores / 4).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in cache lines (4 KB row ⇒ 64 lines).
    pub row_lines: u64,
    /// Row precharge, cycles (12.5 ns ⇒ 50).
    pub t_rp: u64,
    /// Row activate (RAS-to-CAS), cycles.
    pub t_rcd: u64,
    /// Column access, cycles.
    pub t_cas: u64,
    /// Data-bus occupancy of one 64 B burst, cycles (6400 MT/s ⇒ ~5 cycles).
    pub burst: u64,
    /// Energy per read burst, picojoules.
    pub read_energy_pj: u64,
    /// Energy per write burst, picojoules.
    pub write_energy_pj: u64,
    /// Energy per row activation, picojoules.
    pub activate_energy_pj: u64,
    /// Per-channel write-queue capacity (paper Table 4 controller).
    pub write_queue_capacity: usize,
    /// Queue occupancy (in entries) at which buffered writes drain to the
    /// banks (paper: 7/8 of the queue).
    pub write_watermark: usize,
}

impl DramConfig {
    /// Paper-baseline DRAM for `cores` cores (one channel per four cores,
    /// minimum one).
    pub fn for_cores(cores: usize) -> Self {
        DramConfig {
            channels: (cores / 4).max(1),
            ..DramConfig::default()
        }
    }

    /// Same, with an explicit channel count (Fig 22 sweep).
    pub fn with_channels(channels: usize) -> Self {
        DramConfig {
            channels: channels.max(1),
            ..DramConfig::default()
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 16,
            row_lines: 64,
            t_rp: 50,
            t_rcd: 50,
            t_cas: 50,
            burst: 5,
            read_energy_pj: 15_000,
            write_energy_pj: 15_000,
            activate_energy_pj: 10_000,
            write_queue_capacity: 64,
            write_watermark: 56, // 7/8 × 64
        }
    }
}

/// Leaky-bucket occupancy: `debt` cycles of pending work that drains one
/// cycle per cycle; a new request waits behind it. Tolerant of slightly
/// out-of-order request timestamps (cores' clocks drift within a
/// scheduling step).
#[derive(Debug, Clone, Copy, Default)]
struct Occupancy {
    debt: u64,
    last: u64,
}

impl Occupancy {
    #[inline]
    fn occupy(&mut self, cycle: u64, work: u64) -> u64 {
        let elapsed = cycle.saturating_sub(self.last);
        self.debt = self.debt.saturating_sub(elapsed);
        self.last = self.last.max(cycle);
        let wait = self.debt;
        self.debt += work;
        wait
    }
}

drishti_noc::impl_persist_fields!(Occupancy { debt, last });

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy: Occupancy,
}

drishti_noc::impl_persist_fields!(Bank { open_row, busy });

/// Traffic and energy counters for the DRAM subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read bursts serviced.
    pub reads: u64,
    /// Write bursts serviced.
    pub writes: u64,
    /// Row-buffer hits (reads + writes).
    pub row_hits: u64,
    /// Row activations (row-buffer misses).
    pub activations: u64,
    /// Sum of read latencies (cycles), for mean-latency reporting.
    pub total_read_latency: u64,
    /// Dynamic energy, picojoules.
    pub energy_pj: u64,
    /// Requests re-steered off a failed channel to a surviving one.
    pub resteered: u64,
    /// Extra cycles charged by injected faults (jitter, outage stalls,
    /// degraded-bandwidth penalties).
    pub fault_delay_cycles: u64,
}

drishti_noc::impl_persist_fields!(DramStats {
    reads,
    writes,
    row_hits,
    activations,
    total_read_latency,
    energy_pj,
    resteered,
    fault_delay_cycles,
});

impl DramStats {
    /// Mean read latency in cycles (0 if no reads).
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }
}

/// Point-in-time view of one DRAM channel (telemetry).
///
/// `reads`/`writes` are cumulative bursts *serviced* on the channel (after
/// any fault re-steer, so they attribute traffic to the channel that
/// actually carried it); `queue_depth` is the posted writes currently
/// buffered and not yet drained; `bus_backlog` is the data-bus leaky-bucket
/// debt in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramChannelSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub queue_depth: u64,
    pub bus_backlog: u64,
}

/// The DRAM subsystem: `channels × banks` with open-page row buffers.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Vec<Bank>>,
    bus: Vec<Occupancy>,
    /// Buffered (posted) writes per channel, drained at the watermark.
    write_queues: Vec<Vec<LineAddr>>,
    /// Read bursts serviced per channel (post-re-steer).
    chan_reads: Vec<u64>,
    /// Write bursts drained per channel (post-re-steer).
    chan_writes: Vec<u64>,
    stats: DramStats,
    /// Injected-fault stream (`None` on the healthy fast path).
    faults: Option<FaultSchedule>,
}

impl Dram {
    /// Create an idle DRAM subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.channels > 0 && cfg.banks_per_channel > 0,
            "degenerate DRAM"
        );
        Dram {
            banks: vec![vec![Bank::default(); cfg.banks_per_channel]; cfg.channels],
            bus: vec![Occupancy::default(); cfg.channels],
            write_queues: vec![Vec::new(); cfg.channels],
            chan_reads: vec![0; cfg.channels],
            chan_writes: vec![0; cfg.channels],
            cfg,
            stats: DramStats::default(),
            faults: None,
        }
    }

    /// Create a fault-aware DRAM subsystem. With a no-op `faults`
    /// configuration this is bit-identical to [`Dram::new`].
    ///
    /// DRAM faults are *channel outages* plus latency jitter — stored data
    /// is never lost (there is no analogue of a message drop), but while a
    /// channel is inside an outage window its traffic is re-steered to the
    /// first surviving channel at degraded bandwidth; if every channel is
    /// down, requests stall until the original channel recovers.
    pub fn with_faults(cfg: DramConfig, faults: &FaultConfig) -> Self {
        let mut d = Dram::new(cfg);
        d.faults = FaultSchedule::for_domain(faults, FaultDomain::Dram);
        d
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    #[inline]
    fn map(&self, line: LineAddr) -> (usize, usize, u64) {
        // Row = line / row_lines. Interleave channels then banks by row
        // bits, with higher row bits XOR-folded into the bank index (as
        // real controllers do) to spread pathological row hot-spots.
        let row = line / self.cfg.row_lines;
        let channel = (row as usize) % self.cfg.channels;
        let bank_bits = row / self.cfg.channels as u64;
        let bank = ((bank_bits ^ (bank_bits >> 7) ^ (bank_bits >> 13)) as usize)
            % self.cfg.banks_per_channel;
        (channel, bank, row)
    }

    fn service(&mut self, line: LineAddr, cycle: u64, is_write: bool) -> u64 {
        let (mapped_ch, bk, row) = self.map(line);
        let channels = self.cfg.channels;

        // Fault layer: jitter every request; re-steer traffic off a failed
        // channel (degraded bandwidth on the rescue path), or stall until
        // recovery when no channel survives.
        let mut ch = mapped_ch;
        let mut fault_extra = 0u64;
        let mut resteered = false;
        if let Some(sched) = self.faults.as_mut() {
            fault_extra += sched.decide(mapped_ch, bk, cycle).jitter;
            if sched.dram_channel_down(mapped_ch, cycle) {
                let survivor = (1..channels)
                    .map(|k| (mapped_ch + k) % channels)
                    .find(|&cand| !sched.dram_channel_down(cand, cycle));
                match survivor {
                    Some(cand) => {
                        ch = cand;
                        resteered = true;
                    }
                    None => {
                        fault_extra += sched
                            .dram_channel_up_at(mapped_ch, cycle)
                            .saturating_sub(cycle);
                    }
                }
            }
        }
        if resteered {
            self.stats.resteered += 1;
        }
        self.stats.fault_delay_cycles += fault_extra;
        if is_write {
            self.chan_writes[ch] += 1;
        } else {
            self.chan_reads[ch] += 1;
        }

        let bank = &mut self.banks[ch][bk];

        // Latency vs. occupancy: a request *experiences* the full array
        // latency, but the bank is only *occupied* until it can accept the
        // next command — column accesses to an open row pipeline at the
        // burst rate (tCCD), while a row miss holds the bank for
        // precharge + activate. The shared channel bus is occupied for the
        // data burst only.
        let (array_latency, occupancy) = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                (self.cfg.t_cas, self.cfg.burst)
            }
            Some(_) => {
                self.stats.activations += 1;
                self.stats.energy_pj += self.cfg.activate_energy_pj;
                (
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
                    self.cfg.t_rp + self.cfg.t_rcd,
                )
            }
            None => {
                self.stats.activations += 1;
                self.stats.energy_pj += self.cfg.activate_energy_pj;
                (self.cfg.t_rcd + self.cfg.t_cas, self.cfg.t_rcd)
            }
        };
        bank.open_row = Some(row);
        let bank_wait = bank.busy.occupy(cycle, occupancy);
        // A re-steered burst crosses the rescue channel at degraded
        // bandwidth: it holds the surviving bus twice as long, modelling
        // the cross-channel detour, and that slower burst is also what the
        // requester experiences.
        let burst = if resteered {
            self.cfg.burst * 2
        } else {
            self.cfg.burst
        };
        let bus_wait = self.bus[ch].occupy(cycle, burst);
        if resteered {
            self.stats.fault_delay_cycles += burst - self.cfg.burst;
        }

        if !is_write {
            self.stats.energy_pj += self.cfg.read_energy_pj;
        }
        bank_wait + array_latency + bus_wait + burst + fault_extra
    }

    /// Issue a read for `line` at `cycle`; returns the load-to-use latency
    /// in cycles (including queueing).
    pub fn read(&mut self, line: LineAddr, cycle: u64) -> u64 {
        let lat = self.service(line, cycle, false);
        self.stats.reads += 1;
        self.stats.total_read_latency += lat;
        lat
    }

    /// Issue a write (LLC write-back) for `line` at `cycle`. Writes are
    /// posted into a per-channel write queue; when the queue reaches the
    /// watermark (paper: 7/8 of its capacity) the buffered writes drain in
    /// a burst, occupying the banks and data bus and delaying subsequent
    /// reads — which is how extra write-backs (paper Table 5) cost read
    /// performance.
    pub fn write(&mut self, line: LineAddr, cycle: u64) {
        self.stats.writes += 1;
        self.stats.energy_pj += self.cfg.write_energy_pj;
        let (ch, _, _) = self.map(line);
        self.write_queues[ch].push(line);
        if self.write_queues[ch].len() >= self.cfg.write_watermark {
            let drained = std::mem::take(&mut self.write_queues[ch]);
            for l in drained {
                self.service(l, cycle, true);
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-channel telemetry snapshot, indexed by channel.
    pub fn channel_snapshots(&self) -> Vec<DramChannelSnapshot> {
        (0..self.cfg.channels)
            .map(|ch| DramChannelSnapshot {
                reads: self.chan_reads[ch],
                writes: self.chan_writes[ch],
                queue_depth: self.write_queues[ch].len() as u64,
                bus_backlog: self.bus[ch].debt,
            })
            .collect()
    }

    /// Reset statistics (bank state retained).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.chan_reads.fill(0);
        self.chan_writes.fill(0);
    }

    /// Serialize the controller's mutable state: banks, bus occupancy,
    /// posted-write queues, per-channel counters, stats, and the fault
    /// cursor. Configuration is excluded — the loader rebuilds it first.
    pub fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.banks.save(w);
        self.bus.save(w);
        self.write_queues.save(w);
        self.chan_reads.save(w);
        self.chan_writes.save(w);
        self.stats.save(w);
        drishti_noc::faults::save_fault_cursor(&self.faults, w);
    }

    /// Restore state written by [`Dram::save_state`] into a DRAM subsystem
    /// built with the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.banks.load(r)?;
        self.bus.load(r)?;
        self.write_queues.load(r)?;
        self.chan_reads.load(r)?;
        self.chan_writes.load(r)?;
        self.stats.load(r)?;
        drishti_noc::faults::load_fault_cursor(&mut self.faults, r, "dram fault schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_cores_scales_channels() {
        assert_eq!(DramConfig::for_cores(4).channels, 1);
        assert_eq!(DramConfig::for_cores(16).channels, 4);
        assert_eq!(DramConfig::for_cores(32).channels, 8);
        assert_eq!(DramConfig::for_cores(1).channels, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = Dram::new(DramConfig::default());
        let first = d.read(0, 0); // cold activate
        let hit = d.read(1, 10_000); // same row
        let miss = d.read(1_000_000, 20_000); // far row: may be same bank or not
        assert!(hit < first, "row hit {hit} should beat activation {first}");
        assert!(hit >= d.config().t_cas);
        assert!(miss >= hit);
    }

    #[test]
    fn conflicting_reads_queue() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.read(0, 0);
        let b = d.read(0, 0); // same bank, same instant
        assert!(b >= a, "second read must not be faster: {a} vs {b}");
    }

    #[test]
    fn write_drain_bursts_delay_reads() {
        let mut d1 = Dram::new(DramConfig::default());
        let clean = d1.read(0, 0);
        // Below the watermark, posted writes cost reads nothing.
        let mut d2 = Dram::new(DramConfig::default());
        for i in 0..8u64 {
            d2.write(i * 7, 0);
        }
        assert_eq!(d2.read(0, 0), clean, "buffered writes are free");
        // Past the watermark, the drain burst back-pressures reads.
        // (Rows that are multiples of the channel count all map to
        // channel 0, so one queue actually reaches its watermark.)
        let mut d3 = Dram::new(DramConfig::default());
        for i in 0..56u64 {
            d3.write(i * 4 * 64, 0);
        }
        let delayed = d3.read(0, 0);
        assert!(
            delayed > clean,
            "drain burst should delay reads: {delayed} vs {clean}"
        );
    }

    #[test]
    fn more_channels_spread_traffic() {
        let run = |channels: usize| -> u64 {
            let mut d = Dram::new(DramConfig::with_channels(channels));
            let mut total = 0;
            for i in 0..256u64 {
                total += d.read(i * 64, 0); // distinct rows, all at cycle 0
            }
            total
        };
        assert!(
            run(8) < run(2),
            "8-channel DRAM should be faster under load"
        );
    }

    #[test]
    fn stats_count_reads_writes_energy() {
        let mut d = Dram::new(DramConfig::default());
        d.read(0, 0);
        d.write(64, 0);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert!(s.energy_pj > 0);
        assert!(s.mean_read_latency() > 0.0);
    }

    #[test]
    fn noop_faults_are_bit_identical_to_healthy_dram() {
        let mut plain = Dram::new(DramConfig::default());
        let mut faulty = Dram::with_faults(DramConfig::default(), &FaultConfig::none());
        for i in 0..500u64 {
            assert_eq!(plain.read(i * 37, i * 3), faulty.read(i * 37, i * 3));
            plain.write(i * 11, i * 3);
            faulty.write(i * 11, i * 3);
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn channel_outage_resteers_to_survivors() {
        use drishti_noc::faults::OutageWindow;
        let cfg = DramConfig::with_channels(4);
        // Channel 0 is down for cycles 0..10_000.
        let faults = FaultConfig {
            seed: 1,
            dram_outages: vec![OutageWindow {
                channel: 0,
                start: 0,
                len: 10_000,
            }],
            ..FaultConfig::none()
        };
        let mut d = Dram::with_faults(cfg, &faults);
        // Rows that are multiples of 4 map to channel 0.
        let during = d.read(0, 100);
        assert_eq!(d.stats().resteered, 1, "channel-0 read must re-steer");
        assert!(
            d.stats().fault_delay_cycles > 0,
            "degraded bandwidth must be charged"
        );
        // After the outage the same traffic goes back to its home channel.
        let after = d.read(64 * 4 * 50, 20_000); // another channel-0 row, fresh bank state
        assert_eq!(d.stats().resteered, 1, "no re-steer after recovery");
        // Both complete — outage degrades, never loses, requests.
        assert!(during > 0 && after > 0);
    }

    #[test]
    fn all_channels_down_stalls_until_recovery() {
        use drishti_noc::faults::OutageWindow;
        let cfg = DramConfig::with_channels(2);
        let faults = FaultConfig {
            seed: 1,
            dram_outages: vec![
                OutageWindow {
                    channel: 0,
                    start: 0,
                    len: 1_000,
                },
                OutageWindow {
                    channel: 1,
                    start: 0,
                    len: 1_000,
                },
            ],
            ..FaultConfig::none()
        };
        let mut d = Dram::with_faults(cfg, &faults);
        let mut healthy = Dram::new(cfg);
        let stalled = d.read(0, 100);
        let clean = healthy.read(0, 100);
        assert!(
            stalled >= clean + 900,
            "request at cycle 100 must wait out the outage ending at 1000: {stalled} vs {clean}"
        );
        assert_eq!(d.stats().resteered, 0, "nowhere to re-steer to");
    }

    #[test]
    fn dram_jitter_is_deterministic_and_bounded() {
        let faults = FaultConfig {
            seed: 77,
            jitter: 8,
            ..FaultConfig::none()
        };
        let run = || {
            let mut d = Dram::with_faults(DramConfig::default(), &faults);
            (0..300u64)
                .map(|i| d.read(i * 97, i * 5))
                .collect::<Vec<u64>>()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same seed must reproduce identical latencies");
        let mut healthy = Dram::new(DramConfig::default());
        let base: Vec<u64> = (0..300u64).map(|i| healthy.read(i * 97, i * 5)).collect();
        for (f, h) in a.iter().zip(&base) {
            assert!(*f >= *h && *f <= *h + 8, "jitter out of bounds: {f} vs {h}");
        }
    }

    #[test]
    fn channel_snapshots_conserve_traffic() {
        let mut d = Dram::new(DramConfig::with_channels(4));
        for i in 0..200u64 {
            d.read(i * 64, i);
            d.write(i * 64 + 7, i);
        }
        let snaps = d.channel_snapshots();
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps.iter().map(|s| s.reads).sum::<u64>(), d.stats().reads);
        // Posted writes either drained on some channel or still sit in a
        // queue — nothing is lost in between.
        let drained: u64 = snaps.iter().map(|s| s.writes).sum();
        let queued: u64 = snaps.iter().map(|s| s.queue_depth).sum();
        assert_eq!(drained + queued, d.stats().writes);
    }

    #[test]
    fn sequential_lines_share_rows() {
        let mut d = Dram::new(DramConfig::default());
        d.read(0, 0);
        for i in 1..16u64 {
            d.read(i, 100_000 * i);
        }
        assert!(
            d.stats().row_hits >= 14,
            "sequential lines should be row hits"
        );
    }
}
