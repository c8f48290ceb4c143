//! The composable per-node misbehavior catalog.
//!
//! A [`Behavior`] is a named, stateless policy that contributes to the two inert flag structs
//! the substrates consume: the wire-level [`TamperSpec`] (sender-side frame drop / duplicate /
//! delay, applied by the data plane's tamper point) and the application-level [`Misbehavior`]
//! flags (consulted by workload protocol code at single decision points). Behaviors compose:
//! an [`AdversaryPlan`](crate::adversary::AdversaryPlan) lists any subset by name and the
//! roster folds their contributions together — rates saturate, delays add, flags or.
//!
//! All built-ins are deterministic policies; the randomness they imply (per-frame drop coin
//! flips) is drawn from each byzantine node's own split RNG stream, never the simulation's
//! global stream, so adversarial runs stay byte-reproducible and shard-safe.

use p2plab_net::{Misbehavior, TamperSpec};
use p2plab_sim::SimDuration;

/// One named, composable misbehavior policy.
///
/// Implementations must be stateless: they only fold constants into the flag structs. The
/// trait is sealed: every implementation lives in this module, next to the DSL's name registry
/// and the split-RNG seeding, so hostile policy code never sits inside honest protocol paths.
/// An impl anywhere else does not compile:
///
/// ```compile_fail,E0277
/// #[derive(Debug)]
/// struct Evil;
///
/// impl p2plab_core::Behavior for Evil {
///     fn name(&self) -> &'static str {
///         "evil"
///     }
/// }
/// ```
pub trait Behavior: sealed::Sealed + std::fmt::Debug {
    /// The stable name the DSL's `[adversary] behaviors = [...]` list uses.
    fn name(&self) -> &'static str;

    /// Folds this behavior's wire-level tampering into `spec` (drop / duplicate / delay).
    fn wire(&self, _spec: &mut TamperSpec) {}

    /// Folds this behavior's application-level deviations into `flags`.
    fn apply(&self, _flags: &mut Misbehavior) {}
}

mod sealed {
    /// The supertrait that seals [`Behavior`](super::Behavior): it cannot be named outside
    /// this module, so neither trait can be implemented there.
    pub trait Sealed {}

    impl Sealed for super::AckWithhold {}
    impl Sealed for super::GarbageBitfield {}
    impl Sealed for super::CorruptReplies {}
    impl Sealed for super::SilentDrop {}
    impl Sealed for super::ReplyDelay {}
    impl Sealed for super::Amplify {}
    impl Sealed for super::Equivocate {}
}

/// Never answer data requests (ack/serve withholding — a free-rider that takes and gives
/// nothing back).
#[derive(Debug, Clone, Copy, Default)]
pub struct AckWithhold;

impl Behavior for AckWithhold {
    fn name(&self) -> &'static str {
        "ack-withhold"
    }

    fn apply(&self, flags: &mut Misbehavior) {
        flags.withhold_serves = true;
    }
}

/// Advertise a garbage (all-set) inventory bitfield instead of real holdings, attracting
/// requests that can never be served honestly.
#[derive(Debug, Clone, Copy, Default)]
pub struct GarbageBitfield;

impl Behavior for GarbageBitfield {
    fn name(&self) -> &'static str {
        "garbage-bitfield"
    }

    fn apply(&self, flags: &mut Misbehavior) {
        flags.garbage_advertise = true;
    }
}

/// Serve corrupted payloads: replies that fail the receiver's integrity check and must be
/// rejected and re-fetched elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorruptReplies;

impl Behavior for CorruptReplies {
    fn name(&self) -> &'static str {
        "corrupt-replies"
    }

    fn apply(&self, flags: &mut Misbehavior) {
        flags.corrupt_data = true;
    }
}

/// Silently swallow a fraction of outbound frames before they reach the wire, and suppress
/// application-level forwarding (gossip): the node hears everything and passes on nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentDrop;

impl SilentDrop {
    /// Per-frame probability a fresh outbound frame is swallowed.
    pub const DROP_RATE: f64 = 0.25;
}

impl Behavior for SilentDrop {
    fn name(&self) -> &'static str {
        "silent-drop"
    }

    fn wire(&self, spec: &mut TamperSpec) {
        spec.stack(TamperSpec {
            drop_rate: SilentDrop::DROP_RATE,
            duplicate_rate: 0.0,
            delay: SimDuration::ZERO,
        });
    }

    fn apply(&self, flags: &mut Misbehavior) {
        flags.suppress_forward = true;
    }
}

/// Hold every outbound frame for a fixed stall before sending it (slowloris-style reply
/// delay). Envelope-only: the frame still crosses the wire with honest timing after the hold.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyDelay;

impl ReplyDelay {
    /// The fixed stall added to every fresh outbound frame.
    pub const DELAY: SimDuration = SimDuration::from_millis(100);
}

impl Behavior for ReplyDelay {
    fn name(&self) -> &'static str {
        "reply-delay"
    }

    fn wire(&self, spec: &mut TamperSpec) {
        spec.stack(TamperSpec {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay: ReplyDelay::DELAY,
        });
    }
}

/// Inject an extra copy of a fraction of duplicable outbound frames (traffic amplification /
/// duplicate floods). Reliability layers must deduplicate; the copies still burn bandwidth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Amplify;

impl Amplify {
    /// Per-frame probability a duplicable frame is sent twice.
    pub const DUPLICATE_RATE: f64 = 0.25;
}

impl Behavior for Amplify {
    fn name(&self) -> &'static str {
        "amplify"
    }

    fn wire(&self, spec: &mut TamperSpec) {
        spec.stack(TamperSpec {
            drop_rate: 0.0,
            duplicate_rate: Amplify::DUPLICATE_RATE,
            delay: SimDuration::ZERO,
        });
    }
}

/// Give different answers to different askers (equivocation): the canonical byzantine fault
/// for lookup/consensus protocols.
#[derive(Debug, Clone, Copy, Default)]
pub struct Equivocate;

impl Behavior for Equivocate {
    fn name(&self) -> &'static str {
        "equivocate"
    }

    fn apply(&self, flags: &mut Misbehavior) {
        flags.equivocate = true;
    }
}

/// Every built-in behavior name, sorted — the vocabulary of the DSL's `behaviors` list.
pub const BEHAVIOR_NAMES: [&str; 7] = [
    "ack-withhold",
    "amplify",
    "corrupt-replies",
    "equivocate",
    "garbage-bitfield",
    "reply-delay",
    "silent-drop",
];

/// Resolves a behavior name to its built-in implementation.
pub fn behavior_by_name(name: &str) -> Option<Box<dyn Behavior>> {
    match name {
        "ack-withhold" => Some(Box::new(AckWithhold)),
        "amplify" => Some(Box::new(Amplify)),
        "corrupt-replies" => Some(Box::new(CorruptReplies)),
        "equivocate" => Some(Box::new(Equivocate)),
        "garbage-bitfield" => Some(Box::new(GarbageBitfield)),
        "reply-delay" => Some(Box::new(ReplyDelay)),
        "silent-drop" => Some(Box::new(SilentDrop)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves_and_matches() {
        for name in BEHAVIOR_NAMES {
            let b = behavior_by_name(name).expect(name);
            assert_eq!(b.name(), name);
        }
        assert!(behavior_by_name("omniscient").is_none());
    }

    #[test]
    fn names_are_sorted_and_unique() {
        let mut sorted = BEHAVIOR_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, BEHAVIOR_NAMES.to_vec());
    }

    #[test]
    fn behaviors_compose_into_the_flag_structs() {
        let mut spec = TamperSpec::none();
        let mut flags = Misbehavior::default();
        for name in ["silent-drop", "reply-delay", "amplify", "ack-withhold"] {
            let b = behavior_by_name(name).unwrap();
            b.wire(&mut spec);
            b.apply(&mut flags);
        }
        assert_eq!(spec.drop_rate, SilentDrop::DROP_RATE);
        assert_eq!(spec.duplicate_rate, Amplify::DUPLICATE_RATE);
        assert_eq!(spec.delay, ReplyDelay::DELAY);
        assert!(flags.withhold_serves && flags.suppress_forward);
        assert!(!flags.corrupt_data && !flags.equivocate && !flags.garbage_advertise);
    }

    #[test]
    fn pure_app_level_behaviors_leave_the_wire_alone() {
        for name in [
            "ack-withhold",
            "garbage-bitfield",
            "corrupt-replies",
            "equivocate",
        ] {
            let b = behavior_by_name(name).unwrap();
            let mut spec = TamperSpec::none();
            b.wire(&mut spec);
            assert!(spec.is_noop(), "{name} must not touch the wire");
        }
    }
}
