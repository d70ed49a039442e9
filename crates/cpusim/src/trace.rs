//! Micro-op traces: a run's work as data, for [`Core::run`](crate::Core::run).

/// One unit of modeled work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uop {
    /// `n` integer/branch operations ([`Run::int`](crate::Run::int)).
    Int(u32),
    /// A pointer-chase load ([`Run::load_chain`](crate::Run::load_chain)).
    LoadChain(u64),
}

/// Builder for traces of the queue-walk shape: pointer chases and
/// integer work.
///
/// ```
/// use mpiq_cpusim::TraceBuilder;
/// let t = TraceBuilder::new().int(4).load_chain(0x1000).int(9).build();
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Default, Debug, Clone)]
pub struct TraceBuilder {
    ops: Vec<Uop>,
}

impl TraceBuilder {
    /// Empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Append `n` integer ops.
    pub fn int(mut self, n: u32) -> TraceBuilder {
        self.ops.push(Uop::Int(n));
        self
    }

    /// Append a pointer-chase (serializing) load.
    pub fn load_chain(mut self, addr: u64) -> TraceBuilder {
        self.ops.push(Uop::LoadChain(addr));
        self
    }

    /// Finish.
    pub fn build(self) -> Vec<Uop> {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_sequence() {
        let t = TraceBuilder::new().int(2).load_chain(0x10).build();
        assert_eq!(t, vec![Uop::Int(2), Uop::LoadChain(0x10)]);
    }
}
