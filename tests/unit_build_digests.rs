//! Unit-build digests: pins `build_units` output bit for bit.
//!
//! Every zoo model at a tiny configuration builds its unit DAG at
//! baseline, with each fusion set alone at its largest chunking, with all
//! sets at their largest chunking together (under the first and the last
//! allocation strategy), and each chunked build again fragmented by one
//! fixed transient-allocation word. Each build reduces to one line:
//!
//! ```text
//! <model>/<config> units=<count> fnv=<fnv(Debug of each unit)>
//! ```
//!
//! or `err=<fnv(message)>` for a geometry that does not build. The unit
//! builder is rewritten for speed from time to time; a rewrite must leave
//! the fixture byte-identical. A deliberate change regenerates it with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test unit_build_digests
//! ```
//!
//! The fixture is not named `*.txt`, so the schedule-fixture readers of
//! `tests/golden` (`astra-cli verify|lint --fixtures`) skip it.

use astra::core::{build_units, build_units_fragmented, AstraError, ExecConfig, PlanContext, Unit};
use astra::models::{BuiltModel, Model};
use astra::store::fnv1a64;

const FIXTURE: &str = "tests/golden/unit_builds.digests";

/// The transient-allocation failure word of the fragmented builds: every
/// other granted group (by `g % 64`) is placed scattered.
const FRAG_WORD: u64 = 0x5555_5555_5555_5555;

fn tiny(model: Model) -> BuiltModel {
    let mut c = model.default_config(8);
    c.hidden = 64;
    c.input = 64;
    c.vocab = 128;
    c.seq_len = 3;
    c.layers = c.layers.min(2);
    model.build(&c)
}

fn build_line(label: &str, built: Result<Vec<Unit>, AstraError>) -> String {
    match built {
        Ok(units) => {
            let mut text = String::new();
            for u in &units {
                text.push_str(&format!("{u:?}\n"));
            }
            format!("{label} units={} fnv={:016x}", units.len(), fnv1a64(text.as_bytes()))
        }
        Err(e) => format!("{label} err={:016x}", fnv1a64(e.to_string().as_bytes())),
    }
}

/// A set's largest chunking: its largest row and column chunk choices.
fn largest(set: &astra::core::enumerate::fusion::FusionSet) -> (usize, usize) {
    let max = |v: Vec<usize>| v.into_iter().max().unwrap_or(1);
    (max(set.row_chunks()), max(set.col_chunks()))
}

fn model_lines(m: Model) -> Vec<String> {
    let built = tiny(m);
    let ctx = PlanContext::new(&built.graph);
    let mut lines = Vec::new();
    let both = |label: String, cfg: &ExecConfig, lines: &mut Vec<String>| {
        lines.push(build_line(&label, build_units(&ctx, cfg)));
        lines.push(build_line(
            &format!("{label}/frag"),
            build_units_fragmented(&ctx, cfg, FRAG_WORD),
        ));
    };
    lines.push(build_line(&format!("{m:?}/baseline"), build_units(&ctx, &ExecConfig::baseline())));
    let mut all = ExecConfig::baseline();
    for set in &ctx.sets {
        let mut cfg = ExecConfig::baseline();
        cfg.chunks.insert(set.id.clone(), largest(set));
        all.chunks.insert(set.id.clone(), largest(set));
        both(format!("{m:?}/set={}", set.id), &cfg, &mut lines);
    }
    both(format!("{m:?}/all-largest"), &all, &mut lines);
    all.strategy = ctx.alloc.strategies.len() - 1;
    both(format!("{m:?}/all-largest/strategy={}", all.strategy), &all, &mut lines);
    lines
}

#[test]
fn unit_build_digests_match_golden() {
    let got: String = Model::all().into_iter().flat_map(model_lines).map(|l| l + "\n").collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the digest fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test unit_build_digests",
            path.display()
        )
    });
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == want.lines().count(),
        "unit-build digests drifted ({} line(s)):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
