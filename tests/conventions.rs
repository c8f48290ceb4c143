//! Repository conventions that neither the compiler nor clippy can see.

use std::path::Path;

/// Figure-regeneration bins are named after what they regenerate.
const BIN_PREFIXES: [&str; 3] = ["fig", "ablation", "tbl"];
/// The three tools that are not figures.
const BIN_NAMES: [&str; 3] = ["campaign", "scale_sweep", "smoke_reports"];

/// New scenarios ship as `.toml` files run through the `campaign` bin, not as new bench
/// binaries.
#[test]
fn bench_bins_are_figures_or_the_named_tools() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let mut ad_hoc = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("crates/bench/src/bin exists") {
        let path = entry.expect("readable entry").path();
        let stem = path.file_stem().expect("named entry").to_string_lossy();
        let allowed =
            BIN_PREFIXES.iter().any(|p| stem.starts_with(p)) || BIN_NAMES.contains(&stem.as_ref());
        if !allowed {
            ad_hoc.push(stem.into_owned());
        }
    }
    assert!(
        ad_hoc.is_empty(),
        "ad-hoc bench bins {ad_hoc:?}: new scenarios ship as `.toml` campaign files; allowed \
         bins are {}* and {}",
        BIN_PREFIXES.join("*/"),
        BIN_NAMES.join("/")
    );
}
