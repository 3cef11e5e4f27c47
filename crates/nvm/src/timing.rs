//! NVM timing parameters (Table III of the paper).

use plp_events::{Cycle, Freq};
use serde::{Deserialize, Serialize};

/// Device timing parameters, in nanoseconds as datasheets (and the
/// paper's Table III) specify them.
///
/// # Example
///
/// ```
/// use plp_nvm::NvmTiming;
/// use plp_events::Freq;
///
/// let t = NvmTiming::paper_default();
/// let cpu = Freq::ghz(4.0);
/// // A row-miss read costs tRCD + tCL + tBURST.
/// assert_eq!(t.read_row_miss_cycles(cpu).get(), 290);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmTiming {
    /// Row-to-column delay (activate), ns.
    pub t_rcd_ns: f64,
    /// Four-activation window, ns (throttles activates).
    pub t_xaw_ns: f64,
    /// Data burst time, ns.
    pub t_burst_ns: f64,
    /// Write recovery (PCM write service), ns.
    pub t_wr_ns: f64,
    /// Refresh (negligible for PCM), ns.
    pub t_rfc_ns: f64,
    /// CAS latency, ns.
    pub t_cl_ns: f64,
}

impl NvmTiming {
    /// Table III: tRCD/tXAW/tBURST/tWR/tRFC/tCL =
    /// 55/50/5/150/5/12.5 ns.
    pub fn paper_default() -> Self {
        NvmTiming {
            t_rcd_ns: 55.0,
            t_xaw_ns: 50.0,
            t_burst_ns: 5.0,
            t_wr_ns: 150.0,
            t_rfc_ns: 5.0,
            t_cl_ns: 12.5,
        }
    }

    /// Read latency when the row buffer misses: activate + CAS + burst.
    pub fn read_row_miss_cycles(&self, cpu: Freq) -> Cycle {
        cpu.cycles_for_ns(self.t_rcd_ns + self.t_cl_ns + self.t_burst_ns)
    }

    /// Read latency when the row buffer hits: CAS + burst.
    pub fn read_row_hit_cycles(&self, cpu: Freq) -> Cycle {
        cpu.cycles_for_ns(self.t_cl_ns + self.t_burst_ns)
    }

    /// Write service time occupying the bank (write recovery).
    pub fn write_cycles(&self, cpu: Freq) -> Cycle {
        cpu.cycles_for_ns(self.t_wr_ns)
    }
}

impl Default for NvmTiming {
    fn default() -> Self {
        NvmTiming::paper_default()
    }
}

/// How block addresses map to banks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interleave {
    /// Consecutive 64-byte blocks rotate across banks (cache-line
    /// interleaving). Spatially local store streams spread over all
    /// banks, which is what makes write-through persistency viable at
    /// all — the paper's evaluation implicitly assumes this (its SP
    /// bottleneck is the BMT walk, not a single PCM bank).
    #[default]
    BlockLevel,
    /// A whole row lives in one bank (row interleaving): maximizes row
    /// buffer hits for sequential reads but serializes local write
    /// streams on one bank.
    RowLevel,
}

/// Deterministic transient-read-fault model: each read attempt fails
/// independently with `fault_probability`; the controller retries up to
/// `max_retries` times, paying `retry_backoff_ns` plus a re-read per
/// retry. Reads that exhaust the budget are counted as unrecovered
/// device read failures ([`crate::NvmStats::read_failures`]) — the
/// media returned ECC-flagged garbage and upstream integrity checks
/// must catch it.
///
/// The fault stream is a pure function of `seed` and the read order, so
/// runs are replayable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadFaultConfig {
    /// Per-attempt failure probability in `[0, 1]`. Zero disables the
    /// model entirely (the default).
    pub fault_probability: f64,
    /// Retry budget after the initial failed attempt.
    pub max_retries: u32,
    /// Controller back-off before each retry, in nanoseconds.
    pub retry_backoff_ns: f64,
    /// Seed of the fault stream.
    pub seed: u64,
}

impl ReadFaultConfig {
    /// The model switched off: no read ever faults.
    pub fn disabled() -> Self {
        ReadFaultConfig {
            fault_probability: 0.0,
            max_retries: 0,
            retry_backoff_ns: 0.0,
            seed: 0,
        }
    }

    /// A fault model with the given per-attempt probability, three
    /// retries and a 100 ns back-off.
    pub fn with_probability(probability: f64, seed: u64) -> Self {
        ReadFaultConfig {
            fault_probability: probability,
            max_retries: 3,
            retry_backoff_ns: 100.0,
            seed,
        }
    }

    /// Whether any read can fault under this configuration.
    pub fn is_enabled(&self) -> bool {
        self.fault_probability > 0.0
    }

    /// The controller's backoff as the shared workspace policy
    /// (`plp_core::retry`): a constant, jitter-free schedule of
    /// `max_retries` waits of `retry_backoff_ns` each. Keeping the
    /// configuration surface as two plain numbers and deriving the
    /// policy here means the device and the harness retry through one
    /// implementation without changing this struct's (cache-keyed)
    /// shape.
    pub fn retry_policy(&self) -> plp_events::retry::RetryPolicy {
        plp_events::retry::RetryPolicy::constant(self.max_retries, self.retry_backoff_ns)
    }
}

impl Default for ReadFaultConfig {
    fn default() -> Self {
        ReadFaultConfig::disabled()
    }
}

/// Overall device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Device capacity in bytes (Table III: 8 GB).
    pub capacity_bytes: u64,
    /// Number of banks.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Read queue capacity (Table III: 64).
    pub read_queue: usize,
    /// Write queue capacity (Table III: 128).
    pub write_queue: usize,
    /// Timing parameters.
    pub timing: NvmTiming,
    /// CPU frequency used to express completions in CPU cycles.
    pub cpu_freq: Freq,
    /// Address-to-bank mapping.
    pub interleave: Interleave,
    /// Transient-read-fault injection (disabled by default).
    pub read_fault: ReadFaultConfig,
}

impl NvmConfig {
    /// The paper's device: 8 GB, 16 banks, 8 KB rows, 64/128-entry
    /// read/write queues, Table III timings, 4 GHz CPU clock domain.
    pub fn paper_default() -> Self {
        NvmConfig {
            capacity_bytes: 8 << 30,
            banks: 16,
            row_bytes: 8 << 10,
            read_queue: 64,
            write_queue: 128,
            timing: NvmTiming::paper_default(),
            cpu_freq: Freq::ghz(4.0),
            interleave: Interleave::BlockLevel,
            read_fault: ReadFaultConfig::disabled(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), NvmError> {
        if self.banks == 0 {
            return Err(NvmError::ZeroBanks);
        }
        if self.read_queue == 0 {
            return Err(NvmError::ZeroQueue { queue: "read" });
        }
        if self.write_queue == 0 {
            return Err(NvmError::ZeroQueue { queue: "write" });
        }
        let block = plp_events::addr::CACHE_BLOCK_SIZE as u64;
        if self.row_bytes < block || !self.row_bytes.is_multiple_of(block) {
            return Err(NvmError::BadRowBytes {
                row_bytes: self.row_bytes,
            });
        }
        if self.capacity_bytes < self.row_bytes {
            return Err(NvmError::BadCapacity {
                capacity_bytes: self.capacity_bytes,
            });
        }
        let p = self.read_fault.fault_probability;
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(NvmError::BadFaultProbability { probability: p });
        }
        // Every command books its latency on a bank; a zero-cycle
        // booking (zero, negative or NaN ns) would hold no slot.
        let (t, cpu) = (&self.timing, self.cpu_freq);
        for (latency, cycles) in [
            ("read row-hit", t.read_row_hit_cycles(cpu)),
            ("read row-miss", t.read_row_miss_cycles(cpu)),
            ("write", t.write_cycles(cpu)),
        ] {
            if cycles == Cycle::ZERO {
                return Err(NvmError::ZeroLatency { latency });
            }
        }
        Ok(())
    }
}

/// Why an [`NvmConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NvmError {
    /// The device must have at least one bank.
    ZeroBanks,
    /// A command queue must admit at least one command.
    ZeroQueue {
        /// Which queue ("read" or "write").
        queue: &'static str,
    },
    /// Rows must hold a whole number of cache blocks.
    BadRowBytes {
        /// The rejected row size.
        row_bytes: u64,
    },
    /// The device must hold at least one row.
    BadCapacity {
        /// The rejected capacity.
        capacity_bytes: u64,
    },
    /// Fault probabilities live in `[0, 1]`.
    BadFaultProbability {
        /// The rejected probability.
        probability: f64,
    },
    /// A command latency converts to zero CPU cycles.
    ZeroLatency {
        /// Which latency ("read row-hit", "read row-miss" or "write").
        latency: &'static str,
    },
    /// An I/O operation on a file-backed image failed.
    ImageIo {
        /// Which operation ("create", "write", "read", "sync", "remove").
        op: &'static str,
    },
    /// The image file is shorter than a full header.
    ImageHeaderTruncated {
        /// Actual file length in bytes.
        len: u64,
    },
    /// The image header does not start with the `PLPNVM1\0` magic.
    ImageBadMagic,
    /// The image header carries an unsupported format version.
    ImageBadVersion {
        /// The rejected version.
        version: u32,
    },
    /// The image header fails its checksum or field validation — a torn
    /// or corrupted header, distinct from a merely truncated file.
    ImageHeaderCorrupt,
}

impl std::fmt::Display for NvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmError::ZeroBanks => write!(f, "NVM device needs at least one bank"),
            NvmError::ZeroQueue { queue } => {
                write!(f, "NVM {queue} queue needs at least one entry")
            }
            NvmError::BadRowBytes { row_bytes } => write!(
                f,
                "NVM row size {row_bytes} must be a positive multiple of the cache block size"
            ),
            NvmError::BadCapacity { capacity_bytes } => {
                write!(f, "NVM capacity {capacity_bytes} is below one row")
            }
            NvmError::BadFaultProbability { probability } => {
                write!(f, "read-fault probability {probability} outside [0, 1]")
            }
            NvmError::ZeroLatency { latency } => {
                write!(f, "NVM {latency} latency is zero CPU cycles")
            }
            NvmError::ImageIo { op } => {
                write!(f, "image file {op} failed")
            }
            NvmError::ImageHeaderTruncated { len } => {
                write!(f, "image file too short for a header ({len} bytes)")
            }
            NvmError::ImageBadMagic => write!(f, "image file lacks the PLPNVM1 magic"),
            NvmError::ImageBadVersion { version } => {
                write!(f, "image format version {version} is not supported")
            }
            NvmError::ImageHeaderCorrupt => {
                write!(f, "image header failed checksum or field validation")
            }
        }
    }
}

impl std::error::Error for NvmError {}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies_at_4ghz() {
        let t = NvmTiming::paper_default();
        let cpu = Freq::ghz(4.0);
        assert_eq!(t.read_row_miss_cycles(cpu).get(), 290); // 72.5 ns
        assert_eq!(t.read_row_hit_cycles(cpu).get(), 70); // 17.5 ns
        assert_eq!(t.write_cycles(cpu).get(), 600); // 150 ns
    }

    #[test]
    fn default_config_matches_table3() {
        let c = NvmConfig::default();
        assert_eq!(c.capacity_bytes, 8 << 30);
        assert_eq!(c.read_queue, 64);
        assert_eq!(c.write_queue, 128);
        assert_eq!(c.timing, NvmTiming::default());
    }

    /// Validates the paper device with its timing edited by `edit`.
    fn validate_timing(edit: impl FnOnce(&mut NvmTiming)) -> Result<(), NvmError> {
        let mut c = NvmConfig::paper_default();
        edit(&mut c.timing);
        c.validate()
    }

    fn zero(latency: &'static str) -> Result<(), NvmError> {
        Err(NvmError::ZeroLatency { latency })
    }

    #[test]
    fn zero_cycle_write_latency_is_rejected() {
        for ns in [0.0, -150.0, f64::NAN] {
            assert_eq!(
                validate_timing(|t| t.t_wr_ns = ns),
                zero("write"),
                "tWR {ns}"
            );
        }
        // Any positive time rounds up to at least one cycle.
        assert_eq!(validate_timing(|t| t.t_wr_ns = 1e-3), Ok(()));
    }

    #[test]
    fn zero_cycle_row_hit_latency_is_rejected() {
        // The row-hit read is tCL + tBURST.
        for (cl, burst) in [(0.0, 0.0), (-12.5, 5.0), (f64::NAN, 5.0), (12.5, f64::NAN)] {
            assert_eq!(
                validate_timing(|t| (t.t_cl_ns, t.t_burst_ns) = (cl, burst)),
                zero("read row-hit"),
                "tCL {cl} tBURST {burst}"
            );
        }
    }

    #[test]
    fn zero_cycle_row_miss_latency_is_rejected() {
        // The row-miss read adds tRCD to the (valid) 17.5 ns row hit.
        for ns in [-17.5, -55.0, f64::NAN] {
            assert_eq!(
                validate_timing(|t| t.t_rcd_ns = ns),
                zero("read row-miss"),
                "tRCD {ns}"
            );
        }
        assert_eq!(validate_timing(|t| t.t_rcd_ns = 0.0), Ok(()));
    }

    #[test]
    fn zero_latency_error_names_the_latency() {
        let e = NvmError::ZeroLatency { latency: "write" };
        assert_eq!(e.to_string(), "NVM write latency is zero CPU cycles");
    }
}
