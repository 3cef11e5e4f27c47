//! Trace record types.

use plp_events::addr::BlockAddr;

/// A memory operation in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load from `addr`.
    Load {
        /// Target block.
        addr: BlockAddr,
    },
    /// A store to `addr`.
    Store {
        /// Target block.
        addr: BlockAddr,
        /// Whether the target is in the stack segment. The paper's
        /// default configuration persists only non-stack stores; `_full`
        /// configurations persist everything (§VI).
        stack: bool,
    },
}

impl Op {
    /// The target block address.
    pub fn addr(self) -> BlockAddr {
        match self {
            Op::Load { addr } | Op::Store { addr, .. } => addr,
        }
    }

    /// Whether this is a store.
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store { .. })
    }

    /// Whether this is a stack store.
    pub fn is_stack_store(self) -> bool {
        matches!(self, Op::Store { stack: true, .. })
    }
}

/// One trace event: a run of non-memory instructions followed by a
/// memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Non-memory instructions retired before `op` issues.
    pub gap_instructions: u32,
    /// The memory operation.
    pub op: Op,
}

/// A complete workload trace.
///
/// # Example
///
/// ```
/// use plp_trace::{Op, Trace, TraceEvent};
/// use plp_events::addr::BlockAddr;
///
/// let t = Trace::new(vec![TraceEvent {
///     gap_instructions: 10,
///     op: Op::Store { addr: BlockAddr::new(1), stack: false },
/// }]);
/// assert_eq!(t.total_instructions(), 11);
/// assert_eq!(t.store_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    total_instructions: u64,
}

impl Trace {
    /// Wraps a list of events (each memory operation counts as one
    /// instruction, plus its gap).
    pub fn new(events: Vec<TraceEvent>) -> Self {
        let total_instructions = events.iter().map(|e| e.gap_instructions as u64 + 1).sum();
        Trace {
            events,
            total_instructions,
        }
    }

    /// Iterates over events in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Total instructions, memory operations included.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Number of memory operations.
    pub fn op_count(&self) -> usize {
        self.events.len()
    }

    /// Number of stores (stack and non-stack).
    pub fn store_count(&self) -> u64 {
        self.events.iter().filter(|e| e.op.is_store()).count() as u64
    }

    /// Number of non-stack stores (the persists under the paper's
    /// default protection scope).
    pub fn nonstack_store_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.op.is_store() && !e.op.is_stack_store())
            .count() as u64
    }

    /// Stores per kilo-instruction, the paper's PPKI metric for strict
    /// persistency (`stack_included` selects the `_full` variant).
    pub fn store_ppki(&self, stack_included: bool) -> f64 {
        let stores = if stack_included {
            self.store_count()
        } else {
            self.nonstack_store_count()
        };
        stores as f64 * 1000.0 / self.total_instructions as f64
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(gap: u32, op: Op) -> TraceEvent {
        TraceEvent {
            gap_instructions: gap,
            op,
        }
    }

    #[test]
    fn counts_and_ppki() {
        let t = Trace::new(vec![
            ev(
                99,
                Op::Store {
                    addr: BlockAddr::new(0),
                    stack: false,
                },
            ),
            ev(
                99,
                Op::Store {
                    addr: BlockAddr::new(1),
                    stack: true,
                },
            ),
            ev(
                99,
                Op::Load {
                    addr: BlockAddr::new(2),
                },
            ),
        ]);
        assert_eq!(t.total_instructions(), 300);
        assert_eq!(t.op_count(), 3);
        assert_eq!(t.store_count(), 2);
        assert_eq!(t.nonstack_store_count(), 1);
        assert!((t.store_ppki(true) - 2.0 / 0.3).abs() < 1e-9);
        assert!((t.store_ppki(false) - 1.0 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn op_helpers() {
        let s = Op::Store {
            addr: BlockAddr::new(3),
            stack: true,
        };
        let l = Op::Load {
            addr: BlockAddr::new(4),
        };
        assert!(s.is_store() && s.is_stack_store());
        assert!(!l.is_store() && !l.is_stack_store());
        assert_eq!(s.addr(), BlockAddr::new(3));
        assert_eq!(l.addr(), BlockAddr::new(4));
    }

    #[test]
    fn iteration() {
        let t = Trace::new(vec![ev(
            0,
            Op::Load {
                addr: BlockAddr::new(0),
            },
        )]);
        assert_eq!(t.iter().count(), 1);
        assert_eq!((&t).into_iter().count(), 1);
    }
}
