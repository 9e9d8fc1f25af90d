//! Recording of execution traces: labelled events and configuration
//! snapshots.
//!
//! # Status and scope
//!
//! [`Trace`] is a passive recording container — **no engine emits traces on
//! its own**. The exact engine ([`crate::Simulation`]) exposes per-agent
//! configurations a caller can snapshot between `run_for` segments; the
//! count-based engines ([`crate::BatchedSimulation`],
//! [`crate::InternedSimulation`]) jump over entire null runs, so a
//! per-interaction trace is not even well defined there — only multiset
//! snapshots at the applied transitions are, via `to_configuration`. For
//! that reason trace capture is deliberately **not** routed through
//! [`crate::Engine`]: a trace-shaped API over the batched engines would
//! promise a granularity they cannot deliver (see `ARCHITECTURE.md`,
//! "Traces and counterexamples").
//!
//! The type's load-bearing consumer is the model checker:
//! [`crate::mcheck`] returns **counterexample traces** — forward paths of
//! non-null transitions into a witness configuration, one snapshot per
//! step — from [`crate::mcheck::ConvergenceReport::counterexample_trace`]
//! when a verification fails. There the step-indexed snapshot sequence is exactly
//! the right format, because the checker reasons in applied transitions,
//! not wall-clock interactions.

use crate::config::Configuration;
use crate::time::Interactions;

/// A labelled event observed during an execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Cumulative interaction count when the event was recorded.
    pub at: Interactions,
    /// Short machine-friendly label, e.g. `"reset-triggered"`.
    pub label: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A trace of an execution: a sequence of labelled events plus optional
/// configuration snapshots.
///
/// # Example
///
/// ```
/// use ppsim::{Configuration, Interactions, Trace};
/// let mut trace: Trace<u32> = Trace::new();
/// trace.record(Interactions::new(10), "phase", "epidemic complete");
/// trace.snapshot(Interactions::new(10), Configuration::uniform(1u32, 3));
/// assert_eq!(trace.events().len(), 1);
/// assert_eq!(trace.snapshots().len(), 1);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Trace<S> {
    events: Vec<TraceEvent>,
    snapshots: Vec<(Interactions, Configuration<S>)>,
}

impl<S> Trace<S> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new(), snapshots: Vec::new() }
    }

    /// Records a labelled event.
    pub fn record(
        &mut self,
        at: Interactions,
        label: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.events.push(TraceEvent { at, label: label.into(), detail: detail.into() });
    }

    /// Records a configuration snapshot.
    pub fn snapshot(&mut self, at: Interactions, config: Configuration<S>) {
        self.snapshots.push((at, config));
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All recorded snapshots, in recording order.
    pub fn snapshots(&self) -> &[(Interactions, Configuration<S>)] {
        &self.snapshots
    }

    /// The last snapshot, if any.
    pub fn last_snapshot(&self) -> Option<&(Interactions, Configuration<S>)> {
        self.snapshots.last()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_and_snapshots_in_order() {
        let mut trace: Trace<u8> = Trace::new();
        assert!(trace.is_empty());
        trace.record(Interactions::new(1), "a", "first");
        trace.record(Interactions::new(2), "b", "second");
        trace.record(Interactions::new(3), "a", "third");
        trace.snapshot(Interactions::new(2), Configuration::uniform(0u8, 2));
        assert!(!trace.is_empty());
        assert_eq!(trace.events().len(), 3);
        assert_eq!(trace.last_snapshot().unwrap().0, Interactions::new(2));
    }

    #[test]
    fn default_is_empty() {
        let trace: Trace<u8> = Trace::default();
        assert!(trace.is_empty());
        assert!(trace.last_snapshot().is_none());
    }
}
