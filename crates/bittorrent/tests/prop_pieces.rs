//! Property-based tests of the BitTorrent data structures: torrent geometry, bitfields and the
//! piece manager's bookkeeping invariants.

use p2plab_bittorrent::{Bitfield, BlockOutcome, PieceManager, Torrent};
use p2plab_sim::{SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Block lengths of any torrent tile the file exactly.
    #[test]
    fn torrent_blocks_tile_the_file(total in 1u64..64 * 1024 * 1024, piece_kb in 1u32..512) {
        let torrent = Torrent {
            name: "prop".into(),
            total_bytes: total,
            piece_size: piece_kb * 1024,
            block_size: 16 * 1024,
        };
        let mut sum = 0u64;
        for p in 0..torrent.num_pieces() {
            let mut piece_sum = 0u64;
            for b in 0..torrent.blocks_in_piece(p) {
                let len = torrent.block_len(p, b) as u64;
                prop_assert!(len > 0);
                prop_assert!(len <= torrent.block_size as u64);
                piece_sum += len;
            }
            prop_assert_eq!(piece_sum, torrent.piece_len(p) as u64);
            sum += piece_sum;
        }
        prop_assert_eq!(sum, total);
    }

    /// Setting and clearing arbitrary piece indices keeps the bitfield count consistent.
    #[test]
    fn bitfield_count_matches_contents(len in 1u32..500, ops in prop::collection::vec((any::<bool>(), 0u32..500), 0..300)) {
        let mut bf = Bitfield::new(len);
        let mut reference = std::collections::BTreeSet::new();
        for (set, idx) in ops {
            let idx = idx % len;
            if set {
                bf.set(idx);
                reference.insert(idx);
            } else {
                bf.clear(idx);
                reference.remove(&idx);
            }
        }
        prop_assert_eq!(bf.count() as usize, reference.len());
        for i in 0..len {
            prop_assert_eq!(bf.get(i), reference.contains(&i));
        }
        prop_assert_eq!(bf.iter_set().count(), reference.len());
        prop_assert_eq!(bf.iter_missing().count(), (len as usize) - reference.len());
    }

    /// Feeding a piece manager blocks in any order completes the download with exactly the
    /// file's byte count, regardless of duplicates along the way.
    #[test]
    fn piece_manager_completes_under_any_arrival_order(
        total_kb in 64u64..2048,
        seed in 0u64..1000,
        duplicate_every in 2usize..10,
    ) {
        let torrent = Torrent::new("prop", total_kb * 1024);
        let mut pm = PieceManager::new(torrent.clone(), false);
        let mut rng = SimRng::new(seed);
        // Enumerate all blocks and shuffle the arrival order.
        let mut blocks: Vec<(u32, u32)> = (0..torrent.num_pieces())
            .flat_map(|p| (0..torrent.blocks_in_piece(p)).map(move |b| (p, b)))
            .collect();
        rng.shuffle(&mut blocks);
        let mut completions = 0;
        for (i, &(p, b)) in blocks.iter().enumerate() {
            let outcome = pm.block_received(p, b);
            match outcome {
                BlockOutcome::Duplicate => prop_assert!(false, "unexpected duplicate"),
                BlockOutcome::PieceComplete(_) | BlockOutcome::FileComplete(_) => completions += 1,
                BlockOutcome::Progress => {}
            }
            // Inject duplicates: they must be reported as such and change nothing.
            if i % duplicate_every == 0 {
                let before = pm.bytes_done();
                prop_assert_eq!(pm.block_received(p, b), BlockOutcome::Duplicate);
                prop_assert_eq!(pm.bytes_done(), before);
            }
        }
        prop_assert!(pm.is_complete());
        prop_assert_eq!(pm.bytes_done(), torrent.total_bytes);
        prop_assert_eq!(completions as u32, torrent.num_pieces());
        prop_assert_eq!(pm.percent_done(), 100.0);
    }

    /// The picker never returns blocks the client already has, never returns blocks the peer
    /// does not have, and respects the requested budget.
    #[test]
    fn picker_respects_peer_bitfield_and_budget(
        peer_pieces in prop::collection::vec(any::<bool>(), 1..64),
        owned in prop::collection::vec(any::<bool>(), 1..64),
        budget in 1usize..20,
        seed in 0u64..1000,
    ) {
        let n = peer_pieces.len().max(owned.len()) as u32;
        let torrent = Torrent {
            name: "prop".into(),
            total_bytes: n as u64 * 64 * 1024,
            piece_size: 64 * 1024,
            block_size: 16 * 1024,
        };
        let mut pm = PieceManager::new(torrent.clone(), false);
        // Mark owned pieces by feeding their blocks.
        for (p, &own) in owned.iter().enumerate() {
            if own {
                for b in 0..torrent.blocks_in_piece(p as u32) {
                    pm.block_received(p as u32, b);
                }
            }
        }
        let mut peer = Bitfield::new(torrent.num_pieces());
        for (p, &has) in peer_pieces.iter().enumerate() {
            if has {
                peer.set(p as u32);
            }
        }
        let mut rng = SimRng::new(seed);
        let picked = pm.pick_blocks(&peer, budget, SimTime::ZERO, &mut rng);
        prop_assert!(picked.len() <= budget);
        for &(p, b) in &picked {
            prop_assert!(peer.get(p), "picked piece {p} the peer does not have");
            prop_assert!(pm.needs_block(p, b) || !pm.have().get(p));
            prop_assert!(!pm.have().get(p), "picked a piece we already own");
        }
        // No duplicates within one pick.
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), picked.len());
    }
}
