//! The non-volatile main memory device model.
//!
//! Two halves, mirroring how the paper's evaluation treats memory:
//!
//! * [`NvmDevice`] — *timing*: banks with row buffers, Table III PCM
//!   parameters (tRCD/tXAW/tBURST/tWR/tRFC/tCL = 55/50/5/150/5/12.5 ns),
//!   64-entry read and 128-entry write queues with admission
//!   back-pressure, completions expressed in CPU cycles at 4 GHz;
//! * [`image`] — *contents*: the append-only, write-through device
//!   image file a crashed run leaves behind for recovery to reopen.
//!
//! # Example
//!
//! ```
//! use plp_events::{addr::BlockAddr, Cycle};
//! use plp_nvm::{NvmConfig, NvmDevice};
//!
//! let mut timing = NvmDevice::new(NvmConfig::paper_default());
//! let durable_at = timing.write(Cycle::ZERO, BlockAddr::new(42));
//! assert!(durable_at > Cycle::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

mod device;
pub mod image;
mod timing;

pub use device::{NvmDevice, NvmStats};
pub use image::{read_image, ImageContents, ImageHeader, ImageRecord, ImageWriter};
pub use timing::{Interleave, NvmConfig, NvmError, NvmTiming};
