//! Reference completion-time distributions, one per workload and seed slot, recorded by the
//! benchmark (`--record`) into `perfbench/reference/<workload>.txt`.
//!
//! File format, one block per slot:
//!
//! ```text
//! slot <k> seed <scenario seed>
//! <bucket low edge> <count>
//! ...
//! end
//! ```
//!
//! Edges are written with Rust's round-trip float formatting; participants that never
//! finished sit in a bucket at `f64::MAX`.

use p2plab_sim::HistogramSnapshot;

/// The reference distribution of `slot` in a reference file.
pub fn load(file: &str, slot: u64) -> Result<HistogramSnapshot, String> {
    let header = format!("slot {slot} ");
    let mut lines = file.lines().skip_while(|l| !l.starts_with(&header));
    if lines.next().is_none() {
        return Err(format!("no reference recorded for seed slot {slot}"));
    }
    let mut buckets = Vec::new();
    for line in lines.take_while(|l| *l != "end") {
        let parse = || -> Option<(f64, u64)> {
            let (edge, count) = line.split_once(' ')?;
            Some((edge.parse().ok()?, count.parse().ok()?))
        };
        buckets.push(parse().ok_or_else(|| format!("bad reference line {line:?}"))?);
    }
    Ok(HistogramSnapshot {
        count: buckets.iter().map(|&(_, c)| c).sum(),
        min: None,
        max: None,
        p50: None,
        p90: None,
        p99: None,
        buckets,
    })
}

/// Renders one slot's block of a reference file.
pub fn render(slot: u64, seed: u64, dist: &HistogramSnapshot) -> String {
    let mut out = format!("slot {slot} seed {seed}\n");
    for (edge, count) in &dist.buckets {
        out.push_str(&format!("{edge:?} {count}\n"));
    }
    out.push_str("end\n");
    out
}
