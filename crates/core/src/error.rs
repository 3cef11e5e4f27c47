//! The shared error type for fallible simulator construction.
//!
//! [`SystemConfig::validate`](crate::SystemConfig::validate),
//! [`SimSetup::new`](crate::SimSetup::new) and
//! [`SimSetup::with_base_ipc`](crate::SimSetup::with_base_ipc)
//! all report through [`ConfigError`], which also wraps the NVM
//! device's own [`NvmError`] so callers handle one type end to end.

use plp_nvm::NvmError;

/// Why a system configuration (or simulator construction) was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Epochs must contain at least one store.
    EpochSizeZero,
    /// A tracking structure must have at least one entry.
    EmptyTable {
        /// Which structure ("WPQ", "PTT" or "ETT").
        table: &'static str,
    },
    /// The core model needs a positive, finite baseline IPC.
    NonPositiveBaseIpc {
        /// The rejected IPC.
        base_ipc: f64,
    },
    /// `triad_nvm` must strictly persist at least one level and leave
    /// at least one level relaxed.
    TriadLevels {
        /// The rejected persisted-level count.
        persisted: u32,
        /// The tree's total level count.
        levels: u32,
    },
    /// The NVM device configuration is invalid.
    Nvm(NvmError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EpochSizeZero => write!(f, "epoch size must be at least 1 store"),
            ConfigError::EmptyTable { table } => {
                write!(f, "{table} must have at least one entry")
            }
            ConfigError::NonPositiveBaseIpc { base_ipc } => {
                write!(f, "base IPC must be positive and finite, got {base_ipc}")
            }
            ConfigError::TriadLevels { persisted, levels } => {
                write!(
                    f,
                    "triad_nvm must persist between 1 and {} levels (tree has {levels}), got {persisted}",
                    levels.saturating_sub(1)
                )
            }
            ConfigError::Nvm(e) => write!(f, "NVM: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Nvm(e) => Some(e),
            ConfigError::EpochSizeZero
            | ConfigError::EmptyTable { .. }
            | ConfigError::NonPositiveBaseIpc { .. }
            | ConfigError::TriadLevels { .. } => None,
        }
    }
}

impl From<NvmError> for ConfigError {
    fn from(e: NvmError) -> Self {
        ConfigError::Nvm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        assert!(ConfigError::EpochSizeZero.to_string().contains("epoch"));
        assert!(ConfigError::EmptyTable { table: "WPQ" }
            .to_string()
            .contains("WPQ"));
        let wrapped = ConfigError::from(NvmError::ZeroBanks);
        assert!(wrapped.to_string().contains("bank"));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(std::error::Error::source(&ConfigError::EpochSizeZero).is_none());
    }
}
