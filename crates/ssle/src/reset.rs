//! The `Propagate-Reset` subprotocol (Protocol 2).
//!
//! Both `Optimal-Silent-SSR` and `Sublinear-Time-SSR` detect inconsistencies
//! (rank collisions, ghost names, starving unsettled agents, name collisions)
//! and then need the *entire* population to restart from a clean slate, even
//! though agents cannot reliably remember whether they have already restarted
//! (the adversary could fabricate that memory). `Propagate-Reset` achieves
//! this with three phases driven by two counters per resetting agent:
//!
//! 1. **Propagating** (`resetcount > 0`): the reset signal spreads by epidemic
//!    while `resetcount` behaves as a *propagating variable*: on every
//!    interaction both agents' counts become
//!    `max(a.resetcount − 1, b.resetcount − 1, 0)` (Observation 3.1).
//! 2. **Dormant** (`resetcount = 0`): the agent waits `delaytimer` of its own
//!    interactions so the whole population has time to become dormant before
//!    anyone restarts (otherwise an agent could restart twice in one reset).
//! 3. **Awakening**: when `delaytimer` reaches 0 — or the agent meets a
//!    partner that has already resumed computing — the agent executes the main
//!    protocol's `Reset` subroutine and leaves the `Resetting` role.
//!
//! The module is protocol-agnostic: it operates on [`ResetStatus`] values
//! (computing, or resetting with the two counters) and tells the caller what
//! each agent should do next ([`AfterReset`]). The protocol-specific payload
//! carried through a reset (the leader bit of `Optimal-Silent-SSR`, the
//! partially regenerated name of `Sublinear-Time-SSR`) stays in the caller.

use crate::params::ResetParams;

/// The two counters of an agent in the `Resetting` role.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResetTimers {
    /// Propagating countdown; the agent is *propagating* while it is positive
    /// and *dormant* once it reaches zero.
    pub resetcount: u32,
    /// Dormancy countdown; meaningful only while `resetcount == 0`.
    pub delaytimer: u32,
}

impl ResetTimers {
    /// Timers of a freshly *triggered* agent (one that just detected an
    /// error): `resetcount = Rmax`.
    pub fn triggered(params: &ResetParams) -> Self {
        ResetTimers { resetcount: params.r_max, delaytimer: params.d_max }
    }

    /// Whether the agent is dormant (waiting to awaken).
    pub fn is_dormant(&self) -> bool {
        self.resetcount == 0
    }
}

/// How one agent of an interacting pair relates to `Propagate-Reset` at the
/// start of the interaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResetStatus {
    /// The agent is executing the main protocol (its role is not
    /// `Resetting`).
    Computing,
    /// The agent is in the `Resetting` role with the given counters.
    Resetting(ResetTimers),
}

impl ResetStatus {
    fn effective_resetcount(&self) -> u32 {
        match self {
            // Observation 3.1: computing agents count as resetcount = 0.
            ResetStatus::Computing => 0,
            ResetStatus::Resetting(t) => t.resetcount,
        }
    }

    fn is_resetting(&self) -> bool {
        matches!(self, ResetStatus::Resetting(_))
    }
}

/// What an agent should do after one `Propagate-Reset` interaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AfterReset {
    /// Stay in (or remain outside of) the `Resetting` role unchanged: the
    /// agent keeps executing the main protocol.
    Computing,
    /// Be in the `Resetting` role with these counters after the interaction.
    /// If the agent was computing before, it has just been dragged into the
    /// reset and must drop / reinitialize its resetting payload.
    Resetting(ResetTimers),
    /// Execute the main protocol's `Reset` subroutine now and resume
    /// computing.
    Awaken,
}

/// Applies one `Propagate-Reset` interaction (Protocol 2) to the pair
/// `(a, b)`, returning what each agent does next.
///
/// The function is symmetric in the pair; callers invoke it whenever at least
/// one agent of the pair is in the `Resetting` role (calling it when both are
/// computing simply returns two [`AfterReset::Computing`]).
pub fn propagate_reset_step(
    a: ResetStatus,
    b: ResetStatus,
    params: &ResetParams,
) -> (AfterReset, AfterReset) {
    (propagate_reset_one(a, b, params), propagate_reset_one(b, a, params))
}

/// Computes the outcome for `me` when interacting with `partner`.
fn propagate_reset_one(me: ResetStatus, partner: ResetStatus, params: &ResetParams) -> AfterReset {
    let my_rc = me.effective_resetcount();
    let partner_rc = partner.effective_resetcount();

    // Line 1–2: a computing agent is dragged into the Resetting role only by a
    // *propagating* partner.
    let i_am_resetting_now = me.is_resetting() || partner_rc > 0;
    if !i_am_resetting_now {
        return AfterReset::Computing;
    }

    // Lines 3–4 (via Observation 3.1): the new resetcount is
    // max(a.resetcount − 1, b.resetcount − 1, 0), where computing agents count
    // as zero.
    let new_rc = my_rc.saturating_sub(1).max(partner_rc.saturating_sub(1));

    if new_rc > 0 {
        // Still propagating; delaytimer is not meaningful yet (it will be
        // re-initialized when the count reaches zero).
        return AfterReset::Resetting(ResetTimers { resetcount: new_rc, delaytimer: params.d_max });
    }

    // Dormant handling (lines 5–11).
    let was_dormant = matches!(me, ResetStatus::Resetting(t) if t.is_dormant());
    let delaytimer = match me {
        // "resetcount just became 0": initialize the delay timer. This also
        // covers a computing agent dragged in by a partner with resetcount 1.
        ResetStatus::Computing => params.d_max,
        ResetStatus::Resetting(t) if !t.is_dormant() => params.d_max,
        // Already dormant: count down one of this agent's interactions.
        ResetStatus::Resetting(t) => t.delaytimer.saturating_sub(1),
    };

    // Line 10–11: awaken when the delay expires, or immediately upon meeting a
    // computing partner ("awaken by epidemic"). The epidemic-awakening clause
    // applies to agents that were already dormant; a freshly dormant agent
    // first waits out its delay.
    let partner_is_computing = !partner.is_resetting();
    if delaytimer == 0 || (was_dormant && partner_is_computing && partner_rc == 0) {
        AfterReset::Awaken
    } else {
        AfterReset::Resetting(ResetTimers { resetcount: 0, delaytimer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ResetParams {
        ResetParams { r_max: 10, d_max: 20 }
    }

    fn resetting(rc: u32, dt: u32) -> ResetStatus {
        ResetStatus::Resetting(ResetTimers { resetcount: rc, delaytimer: dt })
    }

    #[test]
    fn both_computing_is_a_no_op() {
        let (a, b) =
            propagate_reset_step(ResetStatus::Computing, ResetStatus::Computing, &params());
        assert_eq!(a, AfterReset::Computing);
        assert_eq!(b, AfterReset::Computing);
    }

    #[test]
    fn triggered_agent_drags_computing_partner_in() {
        let p = params();
        let triggered = ResetStatus::Resetting(ResetTimers::triggered(&p));
        let (a, b) = propagate_reset_step(triggered, ResetStatus::Computing, &p);
        assert_eq!(a, AfterReset::Resetting(ResetTimers { resetcount: 9, delaytimer: 20 }));
        assert_eq!(b, AfterReset::Resetting(ResetTimers { resetcount: 9, delaytimer: 20 }));
    }

    #[test]
    fn propagating_counts_follow_the_max_rule() {
        let p = params();
        let (a, b) = propagate_reset_step(resetting(7, 0), resetting(3, 0), &p);
        assert_eq!(a, AfterReset::Resetting(ResetTimers { resetcount: 6, delaytimer: 20 }));
        assert_eq!(b, AfterReset::Resetting(ResetTimers { resetcount: 6, delaytimer: 20 }));
    }

    #[test]
    fn dormant_agent_is_not_dragged_back_by_computing_partner() {
        // A dormant agent meeting a computing partner awakens (epidemic
        // awakening); the computing partner is unaffected.
        let p = params();
        let (a, b) = propagate_reset_step(resetting(0, 5), ResetStatus::Computing, &p);
        assert_eq!(a, AfterReset::Awaken);
        assert_eq!(b, AfterReset::Computing);
    }

    #[test]
    fn dormant_agent_is_recaptured_by_a_propagating_partner() {
        let p = params();
        let (a, _) = propagate_reset_step(resetting(0, 5), resetting(8, 0), &p);
        assert_eq!(a, AfterReset::Resetting(ResetTimers { resetcount: 7, delaytimer: 20 }));
    }

    #[test]
    fn freshly_dormant_agent_initializes_its_delay_timer() {
        let p = params();
        // resetcount 1 → 0 in this interaction: delaytimer is (re)set to Dmax.
        let (a, _) = propagate_reset_step(resetting(1, 3), resetting(1, 3), &p);
        assert_eq!(a, AfterReset::Resetting(ResetTimers { resetcount: 0, delaytimer: 20 }));
    }

    #[test]
    fn dormant_agents_count_down_together() {
        let p = params();
        let (a, b) = propagate_reset_step(resetting(0, 5), resetting(0, 9), &p);
        assert_eq!(a, AfterReset::Resetting(ResetTimers { resetcount: 0, delaytimer: 4 }));
        assert_eq!(b, AfterReset::Resetting(ResetTimers { resetcount: 0, delaytimer: 8 }));
    }

    #[test]
    fn delay_expiry_awakens() {
        let p = params();
        let (a, _) = propagate_reset_step(resetting(0, 1), resetting(0, 9), &p);
        assert_eq!(a, AfterReset::Awaken);
    }

    #[test]
    fn computing_agent_dragged_by_resetcount_one_partner_becomes_dormant() {
        let p = params();
        let (_, b) = propagate_reset_step(resetting(1, 0), ResetStatus::Computing, &p);
        assert_eq!(b, AfterReset::Resetting(ResetTimers { resetcount: 0, delaytimer: 20 }));
    }

    #[test]
    fn resetcount_never_exceeds_partner_max_minus_one() {
        // Property over a grid of counter values: the new count is always
        // max(a−1, b−1, 0).
        let p = params();
        for a_rc in 0..=10u32 {
            for b_rc in 0..=10u32 {
                let (ra, rb) = propagate_reset_step(resetting(a_rc, 5), resetting(b_rc, 5), &p);
                let expected = a_rc.saturating_sub(1).max(b_rc.saturating_sub(1));
                for r in [ra, rb] {
                    match r {
                        AfterReset::Resetting(t) => assert_eq!(t.resetcount, expected),
                        AfterReset::Awaken => assert_eq!(expected, 0),
                        AfterReset::Computing => panic!("resetting agents cannot simply resume"),
                    }
                }
            }
        }
    }

    #[test]
    fn triggered_timers_start_at_r_max() {
        let p = params();
        let t = ResetTimers::triggered(&p);
        assert_eq!(t.resetcount, 10);
        assert!(!t.is_dormant());
    }
}
