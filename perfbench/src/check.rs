//! Output checks the orchestrator makes across iterations: every
//! deterministic output repeats exactly, matches the checked-in expected
//! entry where one applies, and a restart reproduces the journal run's
//! plan bit for bit.

use crate::protocol::Iteration;
use crate::workload::Workload;

/// Pinned results: steady-state time bits, configs explored and the best
/// plan's digest, per workload on the full-size model.
const EXPECTED: &str = include_str!("../expected.txt");

/// The outputs a plan is identified by.
const PLAN_KEYS: [&str; 3] = ["steady_bits", "configs_explored", "plan_digest"];

/// The expected entry for `w`, except on the self-test's tiny model.
fn expected_entry(w: Workload, tiny: bool) -> Result<Option<[String; 3]>, String> {
    if tiny {
        return Ok(None);
    }
    for line in EXPECTED.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [name, steady, configs, digest] = f[..] {
            if name == w.name() {
                return Ok(Some([steady.to_owned(), configs.to_owned(), digest.to_owned()]));
            }
        }
    }
    Err(format!("expected.txt has no entry for {}", w.name()))
}

/// Checks every iteration and records each failure in its `errors`.
///
/// * Each iteration's deterministic outputs must equal those of the first
///   iteration that reported outputs and has the same traced flag (traced
///   iterations report extra ones; only shared keys compare).
/// * The plan must match the expected entry.
/// * `journal` is the plan of the run that built a restart's store; a
///   restart must reproduce it.
pub fn check_iterations(
    w: Workload,
    tiny: bool,
    iterations: &mut [Iteration],
    journal: Option<&Iteration>,
) -> Result<(), String> {
    let expected = expected_entry(w, tiny)?;
    let first = |traced: bool, its: &[Iteration]| {
        its.iter().find(|it| it.traced == traced && !it.exact.is_empty()).cloned()
    };
    let firsts = [first(false, iterations), first(true, iterations)];
    for it in iterations.iter_mut() {
        if it.exact.is_empty() {
            continue; // failed before reporting; its error says why
        }
        let mut errors = Vec::new();
        let first = firsts[usize::from(it.traced)].as_ref().expect("it reported outputs itself");
        for (k, v) in &it.exact {
            if let Some(v0) = first.exact.get(k) {
                if v0 != v {
                    errors.push(format!("{k} is {v}, but {v0} in the first such iteration"));
                }
            }
        }
        for (i, key) in PLAN_KEYS.iter().enumerate() {
            let got = it.exact.get(*key).map_or("missing", String::as_str);
            if let Some(want) = &expected {
                if got != want[i] {
                    errors.push(format!("{key} is {got}, expected.txt pins {}", want[i]));
                }
            }
            if let Some(j) = journal {
                let want = j.exact.get(*key).map_or("missing", String::as_str);
                if *key != "configs_explored" && got != want {
                    errors.push(format!(
                        "{key} is {got}, but the journal run that built the store had {want}"
                    ));
                }
            }
        }
        it.errors.extend(errors);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(traced: bool, pairs: &[(&str, &str)]) -> Iteration {
        let mut it = Iteration { traced, ..Iteration::default() };
        for (k, v) in pairs {
            it.exact.insert((*k).to_owned(), (*v).to_owned());
        }
        it
    }

    #[test]
    fn every_workload_has_an_expected_entry() {
        for w in Workload::ALL {
            assert!(expected_entry(w, false).unwrap().is_some());
            assert!(expected_entry(w, true).unwrap().is_none());
        }
    }

    #[test]
    fn a_changed_output_fails_only_its_iteration() {
        let a = [("steady_bits", "1"), ("configs_explored", "2"), ("plan_digest", "3")];
        let b = [("steady_bits", "9"), ("configs_explored", "2"), ("plan_digest", "3")];
        let mut its = vec![iteration(false, &a), iteration(false, &b), iteration(false, &a)];
        check_iterations(Workload::MilstmJournal, true, &mut its, None).unwrap();
        assert!(its[0].errors.is_empty() && its[2].errors.is_empty());
        assert_eq!(its[1].errors.len(), 1);
    }

    #[test]
    fn traced_only_outputs_compare_across_traced_iterations() {
        let plain = iteration(false, &[("steady_bits", "1")]);
        let traced = |cmds| iteration(true, &[("steady_bits", "1"), ("emit.cmds", cmds)]);
        // The first iteration failed before it reported anything.
        let mut its = vec![Iteration::default(), plain, traced("5"), traced("5"), traced("6")];
        check_iterations(Workload::MilstmJournal, true, &mut its, None).unwrap();
        assert!(its[..4].iter().all(|it| it.errors.is_empty()));
        assert_eq!(its[4].errors.len(), 1, "{:?}", its[4].errors);
    }

    #[test]
    fn a_restart_must_reproduce_the_journal_plan() {
        let a = [("steady_bits", "1"), ("configs_explored", "2"), ("plan_digest", "3")];
        let journal = iteration(
            false,
            &[("steady_bits", "1"), ("configs_explored", "5"), ("plan_digest", "4")],
        );
        let mut its = vec![iteration(false, &a)];
        check_iterations(Workload::MilstmRestart, true, &mut its, Some(&journal)).unwrap();
        assert_eq!(its[0].errors.len(), 1, "{:?}", its[0].errors);
    }
}
