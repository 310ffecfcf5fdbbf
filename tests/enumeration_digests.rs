//! Enumeration digests: pins `PlanContext::new`'s static analyses bit for
//! bit.
//!
//! Every zoo model is enumerated at three configurations: a tiny one (the
//! unit-build fixture's), batch 16 at sequence length 8 (MI-LSTM's is the
//! repository benchmark's model) and its paper default at batch 16. Each
//! enumeration reduces to one line:
//!
//! ```text
//! <model>/<config> sets=<count> fusion=<fnv> strategies=<count> static=<count> components=<count> alloc=<fnv>
//! ```
//!
//! `fusion` is FNV-1a of the fusion sets' `Debug`, one set a line; `alloc`
//! is FNV-1a of the allocation enumeration: each strategy's label and
//! granted buffer lists, the static-resolution and conflict-component
//! counts, and the conflicted set ids in sorted order. The enumerator is
//! rewritten for speed from time to time; a rewrite must leave the fixture
//! byte-identical. A deliberate change regenerates it with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test enumeration_digests
//! ```
//!
//! The fixture is not named `*.txt`, so the schedule-fixture readers of
//! `tests/golden` (`astra-cli verify|lint --fixtures`) skip it.

use astra::core::PlanContext;
use astra::models::{Model, ModelConfig};
use astra::store::fnv1a64;

const FIXTURE: &str = "tests/golden/enumeration.digests";

/// The configurations each model is enumerated at, with their labels.
fn configs(model: Model) -> Vec<(&'static str, ModelConfig)> {
    let mut tiny = model.default_config(8);
    tiny.hidden = 64;
    tiny.input = 64;
    tiny.vocab = 128;
    tiny.seq_len = 3;
    tiny.layers = tiny.layers.min(2);
    vec![
        ("tiny", tiny),
        ("b16s8", model.default_config(16).with_seq_len(8)),
        ("default", model.default_config(16)),
    ]
}

fn enumeration_line(label: &str, ctx: &PlanContext<'_>) -> String {
    let mut fusion = String::new();
    for set in &ctx.sets {
        fusion.push_str(&format!("{set:?}\n"));
    }
    let alloc = &ctx.alloc;
    let mut text = String::new();
    for s in &alloc.strategies {
        text.push_str(&format!("{} {:?}\n", s.label, s.granted));
    }
    text.push_str(&format!(
        "static={} components={}\n",
        alloc.static_resolutions, alloc.conflict_components
    ));
    let mut conflicted: Vec<&String> = alloc.conflicted_sets.iter().collect();
    conflicted.sort();
    text.push_str(&format!("{conflicted:?}\n"));
    format!(
        "{label} sets={} fusion={:016x} strategies={} static={} components={} alloc={:016x}",
        ctx.sets.len(),
        fnv1a64(fusion.as_bytes()),
        alloc.strategies.len(),
        alloc.static_resolutions,
        alloc.conflict_components,
        fnv1a64(text.as_bytes())
    )
}

fn model_lines(m: Model) -> Vec<String> {
    configs(m)
        .into_iter()
        .map(|(name, cfg)| {
            let built = m.build(&cfg);
            enumeration_line(&format!("{m:?}/{name}"), &PlanContext::new(&built.graph))
        })
        .collect()
}

#[test]
fn enumeration_digests_match_golden() {
    let got: String = Model::all().into_iter().flat_map(model_lines).map(|l| l + "\n").collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the digest fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test enumeration_digests",
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
        "enumeration digests drifted ({} line(s)):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
