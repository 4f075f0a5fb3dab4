//! DCPMM cost model.
//!
//! The device does not *delay* accesses (wall-clock performance comes from
//! real multithreaded execution); instead it counts events and this model
//! prices them, yielding a simulated media-time figure that experiments can
//! report alongside throughput. Defaults follow the published Optane DC
//! characterisation (Izraelevitz et al., "Basic Performance Measurements of
//! the Intel Optane DC Persistent Memory Module", and Yang et al., FAST '20):
//! random reads ~300 ns, writes into the buffered write-pending queue
//! ~100 ns, and roughly 2–3x penalty for crossing the NUMA interconnect.

/// Per-event costs in nanoseconds (scaled by 100 where fractional
/// precision is useful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of reading one 64 B cache line from media.
    pub read_line_ns: u64,
    /// Cost of writing one 64 B cache line to the write-pending queue.
    pub write_line_ns: u64,
    /// Cost of a `clwb` of one line.
    pub clwb_ns: u64,
    /// Cost of an `sfence`.
    pub sfence_ns: u64,
    /// Remote-socket multiplier, x100 (e.g. `220` = 2.2x).
    pub remote_multiplier_x100: u64,
}

impl CostModel {
    /// Optane DC Persistent Memory (Apache Pass) defaults.
    pub fn dcpmm() -> CostModel {
        CostModel {
            read_line_ns: 300,
            write_line_ns: 100,
            clwb_ns: 60,
            sfence_ns: 30,
            remote_multiplier_x100: 220,
        }
    }

    /// Prices a traffic profile, returning simulated nanoseconds of media
    /// time.
    ///
    /// `local_lines`/`remote_lines` are 64 B line-accesses split by whether
    /// the issuing CPU's socket matched the page's home node.
    pub fn media_time_ns(
        &self,
        read_lines_local: u64,
        read_lines_remote: u64,
        write_lines_local: u64,
        write_lines_remote: u64,
        clwb_count: u64,
        sfence_count: u64,
    ) -> u64 {
        let remote = |ns: u64, lines: u64| ns * lines * self.remote_multiplier_x100 / 100;
        self.read_line_ns * read_lines_local
            + remote(self.read_line_ns, read_lines_remote)
            + self.write_line_ns * write_lines_local
            + remote(self.write_line_ns, write_lines_remote)
            + self.clwb_ns * clwb_count
            + self.sfence_ns * sfence_count
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::dcpmm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcpmm_reads_cost_more_than_writes() {
        let m = CostModel::dcpmm();
        assert!(m.read_line_ns > m.write_line_ns);
    }

    #[test]
    fn remote_lines_cost_more() {
        let m = CostModel::dcpmm();
        let local = m.media_time_ns(100, 0, 0, 0, 0, 0);
        let remote = m.media_time_ns(0, 100, 0, 0, 0, 0);
        assert!(remote > local);
        assert_eq!(remote, local * m.remote_multiplier_x100 / 100);
    }

    #[test]
    fn media_time_sums_components() {
        let m = CostModel {
            read_line_ns: 1,
            write_line_ns: 2,
            clwb_ns: 3,
            sfence_ns: 4,
            remote_multiplier_x100: 100,
        };
        assert_eq!(m.media_time_ns(1, 1, 1, 1, 1, 1), 1 + 1 + 2 + 2 + 3 + 4);
    }
}
