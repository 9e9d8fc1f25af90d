//! Global configurations: the state of every agent in the population.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::agent::AgentId;

/// A configuration maps each of the `n` agents to a local state.
///
/// Internally a vector indexed by [`AgentId`]. Configurations are ordinary
/// data: cloneable, comparable, hashable (when the state is), so they can be
/// recorded in traces and compared in tests.
///
/// # Example
///
/// ```
/// use ppsim::Configuration;
/// let c = Configuration::from_fn(5, |i| i % 2);
/// assert_eq!(c.len(), 5);
/// assert_eq!(c.count_matching(|&s| s == 0), 3);
/// let counts = c.state_counts();
/// assert_eq!(counts[&1], 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Configuration<S> {
    states: Vec<S>,
}

impl<S> Configuration<S> {
    /// Builds a configuration from a vector of states, one per agent.
    pub fn from_states(states: Vec<S>) -> Self {
        Configuration { states }
    }

    /// Builds a configuration of `n` agents by calling `f` on each agent index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> S) -> Self {
        Configuration { states: (0..n).map(f).collect() }
    }

    /// The number of agents.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty (only useful in degenerate tests).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of one agent.
    ///
    /// # Panics
    ///
    /// Panics if the agent index is out of bounds.
    pub fn state(&self, agent: AgentId) -> &S {
        &self.states[agent.index()]
    }

    /// The state of one agent, or `None` if the index is out of bounds.
    pub fn get(&self, agent: AgentId) -> Option<&S> {
        self.states.get(agent.index())
    }

    /// Overwrites the state of one agent.
    ///
    /// # Panics
    ///
    /// Panics if the agent index is out of bounds.
    pub fn set(&mut self, agent: AgentId, state: S) {
        self.states[agent.index()] = state;
    }

    /// Mutable borrows of two distinct agents' states, in argument order (the
    /// exact engine's interacting pair).
    ///
    /// # Panics
    ///
    /// Panics if the two agents are the same or either index is out of
    /// bounds.
    pub fn pair_mut(&mut self, a: AgentId, b: AgentId) -> (&mut S, &mut S) {
        // No branch on which index is smaller: scheduled pairs are random,
        // so such a branch mispredicts on half of all interactions.
        match self.states.get_disjoint_mut([a.index(), b.index()]) {
            Ok([x, y]) => (x, y),
            Err(e) => panic!("invalid interacting pair ({a}, {b}): {e}"),
        }
    }

    /// Iterates over all agent states in agent order.
    pub fn iter(&self) -> std::slice::Iter<'_, S> {
        self.states.iter()
    }

    /// A view of the underlying state slice.
    pub fn as_slice(&self) -> &[S] {
        &self.states
    }

    /// Consumes the configuration, returning the underlying state vector.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// Counts agents whose state satisfies a predicate.
    pub fn count_matching(&self, pred: impl FnMut(&S) -> bool) -> usize {
        self.states
            .iter()
            .filter({
                let mut pred = pred;
                move |s| pred(s)
            })
            .count()
    }

    /// Applies a function to every agent's state in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(usize, &mut S)) {
        for (i, s) in self.states.iter_mut().enumerate() {
            f(i, s);
        }
    }

    /// Appends one agent in the given state (population churn: a join).
    pub fn push(&mut self, state: S) {
        self.states.push(state);
    }

    /// Removes one agent and returns its state, moving the last agent into
    /// the vacated slot (population churn: a departure). O(1); agent
    /// identities after the removed index are renumbered.
    ///
    /// # Panics
    ///
    /// Panics if the agent index is out of bounds.
    pub fn swap_remove(&mut self, agent: AgentId) -> S {
        self.states.swap_remove(agent.index())
    }
}

impl<S: Clone> Configuration<S> {
    /// Builds a configuration where every agent has the same state.
    pub fn uniform(state: S, n: usize) -> Self {
        Configuration { states: vec![state; n] }
    }
}

impl<S: Eq + Hash + Clone> Configuration<S> {
    /// Multiset view of the configuration: how many agents hold each distinct
    /// state.
    ///
    /// Population protocol analyses (and silence checks) care only about this
    /// multiset, not which agent holds which state.
    pub fn state_counts(&self) -> HashMap<S, usize> {
        let mut counts = HashMap::new();
        for s in &self.states {
            *counts.entry(s.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// The number of distinct states present.
    pub fn distinct_states(&self) -> usize {
        self.state_counts().len()
    }
}

impl<S> FromIterator<S> for Configuration<S> {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Configuration { states: iter.into_iter().collect() }
    }
}

impl<S> Extend<S> for Configuration<S> {
    fn extend<T: IntoIterator<Item = S>>(&mut self, iter: T) {
        self.states.extend(iter);
    }
}

impl<'a, S> IntoIterator for &'a Configuration<S> {
    type Item = &'a S;
    type IntoIter = std::slice::Iter<'a, S>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.iter()
    }
}

impl<S> IntoIterator for Configuration<S> {
    type Item = S;
    type IntoIter = std::vec::IntoIter<S>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.into_iter()
    }
}

impl<S: fmt::Debug> fmt::Display for Configuration<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Configuration(n={}, states={:?})", self.states.len(), self.states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_from_fn() {
        let u = Configuration::uniform(7u32, 4);
        assert_eq!(u.as_slice(), &[7, 7, 7, 7]);
        let f = Configuration::from_fn(4, |i| i as u32);
        assert_eq!(f.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut c = Configuration::uniform(0u8, 3);
        c.set(AgentId::new(1), 9);
        assert_eq!(*c.state(AgentId::new(1)), 9);
        assert_eq!(c.get(AgentId::new(5)), None);
    }

    #[test]
    fn pair_mut_borrows_two_agents_in_argument_order() {
        let mut c = Configuration::from_fn(4, |i| i as u32);
        let (a, b) = c.pair_mut(AgentId::new(3), AgentId::new(1));
        (*a, *b) = (*b, *a + 10);
        assert_eq!(c.as_slice(), &[0, 13, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid interacting pair")]
    fn pair_mut_rejects_one_agent_twice() {
        let mut c = Configuration::uniform(0u8, 3);
        let _ = c.pair_mut(AgentId::new(2), AgentId::new(2));
    }

    #[test]
    fn state_counts_are_a_multiset_view() {
        let c = Configuration::from_states(vec!["a", "b", "a", "a"]);
        let counts = c.state_counts();
        assert_eq!(counts[&"a"], 3);
        assert_eq!(counts[&"b"], 1);
        assert_eq!(c.distinct_states(), 2);
    }

    #[test]
    fn collect_and_iterate() {
        let c: Configuration<u32> = (0..5).collect();
        assert_eq!(c.len(), 5);
        let doubled: Vec<u32> = c.iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn map_in_place_updates_every_agent() {
        let mut c = Configuration::uniform(1u32, 3);
        c.map_in_place(|i, s| *s += i as u32);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn into_states_returns_vector() {
        let c = Configuration::from_states(vec![1, 2, 3]);
        assert_eq!(c.into_states(), vec![1, 2, 3]);
    }

    #[test]
    fn push_and_swap_remove_resize_the_population() {
        let mut c = Configuration::from_states(vec![1, 2, 3]);
        c.push(4);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(c.swap_remove(AgentId::new(0)), 1);
        assert_eq!(c.as_slice(), &[4, 2, 3]);
    }

    #[test]
    fn display_mentions_population_size() {
        let c = Configuration::from_states(vec![1, 2]);
        assert!(c.to_string().contains("n=2"));
    }
}
