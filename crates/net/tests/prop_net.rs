//! Property-based tests of the network substrate: addressing, pipes and firewalls.

use p2plab_net::{Direction, Firewall, Pipe, PipeConfig, PipeId, Rule, Subnet, VirtAddr};
use p2plab_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Address parsing and display round-trip for every possible address.
    #[test]
    fn addr_display_parse_roundtrip(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
        let addr = VirtAddr::new(a, b, c, d);
        let parsed: VirtAddr = addr.to_string().parse().unwrap();
        prop_assert_eq!(parsed, addr);
    }

    /// Every host generated from a subnet is contained in it, and host addresses are distinct.
    #[test]
    fn subnet_hosts_are_members(base in any::<u32>(), prefix in 8u8..=30, count in 1u32..100) {
        let subnet = Subnet::new(VirtAddr(base), prefix);
        let count = count.min(subnet.size().saturating_sub(1) as u32);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..count {
            let h = subnet.host_at(i);
            prop_assert!(subnet.contains(h), "{h} not in {subnet}");
            prop_assert!(seen.insert(h), "duplicate host {h}");
        }
    }

    /// A lossless FIFO pipe preserves packet order and never forwards faster than its
    /// configured bandwidth allows.
    #[test]
    fn pipe_is_fifo_and_rate_limited(
        sizes in prop::collection::vec(64u64..16_384, 1..100),
        bps in 56_000u64..10_000_000,
        delay_ms in 0u64..200,
        gap_us in prop::collection::vec(0u64..100_000, 1..100),
    ) {
        let mut pipe = Pipe::new(
            PipeConfig::shaped(bps, SimDuration::from_millis(delay_ms)).with_queue_limit(None),
        );
        let mut rng = SimRng::new(1);
        let mut now = SimTime::ZERO;
        let mut exits = Vec::new();
        let mut total_bytes = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            now += SimDuration::from_micros(gap_us[i % gap_us.len()]);
            match pipe.enqueue(now, size, &mut rng) {
                p2plab_net::EnqueueOutcome::Forwarded { exit, .. } => {
                    // Never earlier than arrival + own serialization + delay.
                    let earliest = now
                        + SimDuration::transmission(size, bps)
                        + SimDuration::from_millis(delay_ms);
                    prop_assert!(exit >= earliest);
                    exits.push(exit);
                    total_bytes += size;
                }
                other => prop_assert!(false, "unexpected drop: {other:?}"),
            }
        }
        // FIFO: exits are non-decreasing.
        for w in exits.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Aggregate rate limit: the last packet cannot leave before all bytes have been
        // serialized at the pipe's rate (plus its propagation delay).
        let last_exit = *exits.last().unwrap();
        let min_finish = SimTime::ZERO
            + SimDuration::transmission(total_bytes, bps)
            + SimDuration::from_millis(delay_ms);
        prop_assert!(
            last_exit + SimDuration::from_nanos(1) >= min_finish,
            "forwarded {total_bytes} bytes faster than {bps} bps allows"
        );
    }

    /// Firewall classification: the number of rules examined never exceeds the rule count, the
    /// evaluation cost is proportional to it, and matching pipes appear in rule order.
    #[test]
    fn firewall_examination_is_bounded_and_ordered(
        dummy_before in 0usize..500,
        dummy_after in 0usize..500,
        n_pipes in 1usize..5,
    ) {
        let mut fw = Firewall::new(SimDuration::from_nanos(50));
        fw.add_dummy_rules(dummy_before);
        for i in 0..n_pipes {
            fw.add_rule(Rule::pipe(Subnet::any(), Subnet::any(), Direction::Out, PipeId(i)));
        }
        fw.add_dummy_rules(dummy_after);
        let c = fw.classify(VirtAddr::new(10, 0, 0, 1), VirtAddr::new(10, 0, 0, 2), Direction::Out);
        prop_assert!(c.accepted);
        prop_assert_eq!(c.rules_examined, fw.rule_count());
        prop_assert_eq!(c.evaluation_cost, SimDuration::from_nanos(50) * fw.rule_count() as u64);
        let expected: Vec<PipeId> = (0..n_pipes).map(PipeId).collect();
        prop_assert_eq!(&c.pipes[..], expected.as_slice());
        // Incoming traffic does not match Out rules.
        let c_in = fw.classify(VirtAddr::new(10, 0, 0, 1), VirtAddr::new(10, 0, 0, 2), Direction::In);
        prop_assert!(c_in.pipes.is_empty());
    }

    /// Random loss drops roughly the configured fraction of packets over many trials.
    #[test]
    fn pipe_loss_rate_is_calibrated(loss_pct in 1u32..99) {
        let loss = loss_pct as f64 / 100.0;
        let mut pipe = Pipe::new(PipeConfig::delay_only(SimDuration::ZERO).with_loss(loss));
        let mut rng = SimRng::new(7);
        let n = 4_000;
        let dropped = (0..n)
            .filter(|_| {
                matches!(
                    pipe.enqueue(SimTime::ZERO, 100, &mut rng),
                    p2plab_net::EnqueueOutcome::Dropped(_)
                )
            })
            .count();
        let observed = dropped as f64 / n as f64;
        prop_assert!((observed - loss).abs() < 0.05, "loss {loss} observed {observed}");
    }
}
