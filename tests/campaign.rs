//! Integration tests of the campaign layer: the checked-in campaign files expand to their
//! documented grids, and — the load-bearing determinism claim — running a ≥12-cell grid over
//! multiple workloads produces **byte-identical** aggregate artifacts whatever the thread
//! count.

use p2plab::core::{
    run_campaign, CampaignCell, CampaignSpec, CampaignSummary, RunReport, WORKLOAD_KINDS,
};
use p2plab::sim::RunOutcome;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn example(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The CI smoke campaign covers the whole workload registry through the DSL: the matrix grid
/// crosses every classic kind with the link conditioners, and `gossip-sharded` — whose
/// runtime rejects conditioned links (it models its own wire delays) — rides along as the
/// explicit byzantine `[cells.byzantine]` cell on a clean link, rounds-capped so it drains
/// under `--strict`.
#[test]
fn ci_smoke_campaign_covers_the_registry() {
    let campaign = CampaignSpec::parse(&example("campaigns/ci_smoke.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(campaign.name, "ci-smoke");
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    let expected: BTreeSet<&str> = WORKLOAD_KINDS.iter().copied().collect();
    assert_eq!(kinds, expected);

    let byz = cells.last().expect("non-empty campaign");
    assert_eq!(byz.label, "cell-byzantine");
    assert_eq!(byz.file.workload.kind(), "gossip-sharded");
    assert_eq!(byz.file.spec.shards, 2);
    assert!(byz.file.spec.adversary.is_some(), "the cell carries a plan");
    // Only the byzantine cell is adversarial: the honest grid's reports keep their schema.
    assert!(cells[..cells.len() - 1]
        .iter()
        .all(|c| c.file.spec.adversary.is_none()));
}

/// The ci_smoke byzantine cell is shard-count-invariant: the same cell forced to `shards = 1`
/// and `shards = 4` produces byte-identical `RunReport`s (modulo wall-clock fields), drains —
/// the property `--strict` enforces in CI — and keeps every honest-node invariant clean.
#[test]
fn ci_smoke_byzantine_cell_is_shard_count_invariant() {
    let campaign = CampaignSpec::parse(&example("campaigns/ci_smoke.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    let cell = cells
        .iter()
        .find(|c| c.label == "cell-byzantine")
        .expect("byzantine cell");

    let run_at = |shards: usize| {
        let mut cell = cell.clone();
        cell.file.spec.shards = shards;
        cell.file.run().expect("byzantine cell runs")
    };
    let one = run_at(1);
    assert_eq!(one.outcome, RunOutcome::Drained, "--strict needs a drain");
    assert!(one.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
    assert_eq!(one.metrics.counter("invariant_violations"), Some(0));
    assert!(one.metrics.counter("invariants_checked").unwrap() > 0);
    let four = run_at(4);
    assert_eq!(
        one.deterministic_json(),
        four.deterministic_json(),
        "byzantine RunReport diverged between 1 and 4 shards"
    );
}

/// The checked-in grid campaign expands to its documented 12 cells over two workload kinds,
/// and running it on 1 thread vs several produces byte-identical CSV and JSON aggregates.
#[test]
fn grid_campaign_aggregate_is_thread_count_invariant() {
    let campaign = CampaignSpec::parse(&example("campaigns/loss_arrival_grid.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(cells.len(), 12, "the documented 2x2x3 grid");
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    assert!(kinds.len() >= 2, "grid must span multiple workloads");

    let single: Vec<RunReport> = run_campaign(&cells, 1)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every cell runs");
    let parallel: Vec<RunReport> = run_campaign(&cells, 4)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every cell runs");

    let a = CampaignSummary::new(&campaign.name, &cells, &single);
    let b = CampaignSummary::new(&campaign.name, &cells, &parallel);
    assert_eq!(
        a.to_csv(),
        b.to_csv(),
        "CSV aggregate must be byte-identical"
    );
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "JSON aggregate must be byte-identical"
    );

    // The grid is not degenerate: seeds actually vary outcomes within a kind group, yet the
    // first cell of each kind compares against itself with zero deviation.
    assert_eq!(a.rows.len(), 12);
    assert_eq!(a.rows[0].progress_dev_vs_first, 0.0);
    let seeds: BTreeSet<u64> = a.rows.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, [1u64, 2, 3].into_iter().collect());
}

/// The checked-in byzantine sweep validates end to end (every cell passes the strict DSL
/// re-parse `expand` performs) and its swarm curve shows what the sweep exists to show:
/// honest completion time degrades monotonically with the byzantine fraction, while every
/// honest-node invariant stays clean — adversaries slow the swarm down, they never corrupt it.
#[test]
fn byzantine_sweep_swarm_curve_degrades_monotonically() {
    let campaign = CampaignSpec::parse(&example("campaigns/byzantine_sweep.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(campaign.name, "byzantine-sweep");
    assert_eq!(
        cells.len(),
        24,
        "3 kinds x 2 behavior families x 4 fractions"
    );
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    assert_eq!(kinds.len(), 3, "every adversarial workload kind is swept");

    // The fraction axis is last (fastest), so the first four cells are the swarm curve for
    // the application-protocol behavior family, fractions 0.0 → 0.4.
    let curve: Vec<&CampaignCell> = cells[..4].iter().collect();
    for c in &curve {
        assert_eq!(c.file.workload.kind(), "swarm");
    }
    let fractions: Vec<f64> = curve
        .iter()
        .map(|c| match &c.file.spec.adversary {
            Some(plan) => plan.fraction,
            None => unreachable!("every sweep cell carries a plan"),
        })
        .collect();
    assert_eq!(fractions, [0.0, 0.15, 0.25, 0.4]);

    let reports: Vec<RunReport> = run_campaign(&cells[..4], 2)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every curve cell runs");
    let mut last_times: Vec<f64> = Vec::new();
    for (report, fraction) in reports.iter().zip(&fractions) {
        assert_eq!(report.outcome, RunOutcome::Drained);
        if *fraction > 0.0 {
            assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
            assert!(report.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
        } else {
            // A plan that resolves to nobody is exactly an honest run — no adversary
            // counters, no schema drift.
            assert_eq!(report.metrics.counter("invariant_violations"), None);
        }
        // `honest_completion_time_secs` exists only when the plan resolved to somebody; the
        // fraction-0 anchor's honest population is everybody.
        let hist = report
            .metrics
            .histogram("honest_completion_time_secs")
            .or_else(|| report.metrics.histogram("completion_time_secs"))
            .expect("completion histogram");
        assert!(hist.count > 0, "honest leechers completed");
        last_times.push(hist.max.expect("non-empty histogram has a max"));
    }
    assert!(
        last_times.windows(2).all(|w| w[0] <= w[1]),
        "honest completion must degrade monotonically with the byzantine fraction: {last_times:?}"
    );
    assert!(
        last_times[3] > last_times[0],
        "a 0.4 byzantine fraction must visibly slow the honest swarm: {last_times:?}"
    );
}
