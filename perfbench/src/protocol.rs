//! Line protocol between the orchestrator and the child process that runs
//! one iteration.
//!
//! The child prints one record per line:
//!
//! * `m <name> <value>` — a host measurement (wall time, memory);
//! * `x <name> <value>` — a deterministic output that must repeat exactly
//!   (compared as text, so digests keep all 64 bits);
//! * `s <name> <start_ns> <end_ns> <parent|->` — a span;
//! * `e <message>` — a failed output check.
//!
//! Floats use Rust's shortest round-trip formatting, so the orchestrator
//! parses back the exact bits.

use std::collections::BTreeMap;

use crate::trace::Span;

/// What the child prints, buffered until the iteration ends.
#[derive(Debug, Default)]
pub struct Out {
    text: String,
}

impl Out {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.line(&format!("m {name} {value}"));
    }

    pub fn exact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.line(&format!("x {name} {value}"));
    }

    pub fn error(&mut self, message: &str) {
        self.line(&format!("e {}", message.replace('\n', " | ")));
    }

    pub fn span(&mut self, s: &Span) {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        self.line(&format!("s {} {} {} {parent}", s.name, s.start_ns, s.end_ns));
    }

    fn line(&mut self, l: &str) {
        self.text.push_str(l);
        self.text.push('\n');
    }

    pub fn into_text(self) -> String {
        self.text
    }
}

/// One iteration as the orchestrator sees it.
#[derive(Debug, Default, Clone)]
pub struct Iteration {
    /// Whether the iteration recorded spans and probed the layers.
    pub traced: bool,
    pub metrics: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, String>,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl Iteration {
    /// Parses a child's standard output.
    pub fn parse(text: &str) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        for line in text.lines() {
            let bad = || format!("unreadable line from iteration: {line:?}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            match tag {
                "e" => it.errors.push(rest.to_owned()),
                "m" | "x" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    if tag == "m" {
                        it.metrics.insert(name.to_owned(), value.parse().map_err(|_| bad())?);
                    } else {
                        it.exact.insert(name.to_owned(), value.to_owned());
                    }
                }
                "s" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [name, start, end, parent] = f[..] else { return Err(bad()) };
                    it.spans.push(Span {
                        name: name.to_owned(),
                        start_ns: start.parse().map_err(|_| bad())?,
                        end_ns: end.parse().map_err(|_| bad())?,
                        parent: match parent {
                            "-" => None,
                            p => Some(p.parse().map_err(|_| bad())?),
                        },
                    });
                }
                _ => return Err(bad()),
            }
        }
        Ok(it)
    }

    /// A deterministic output, parsed: `f64` for counts, `u64` for
    /// digests and float bits.
    pub fn exact_as<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.exact
            .get(name)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("iteration did not report {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_record_kind() {
        let mut out = Out::default();
        out.metric("optimize_s", 0.1 + 0.2);
        out.exact("plan_digest", u64::MAX);
        out.error("two\nlines");
        out.span(&Span { name: "a".into(), start_ns: 1, end_ns: 5, parent: None });
        out.span(&Span { name: "b".into(), start_ns: 2, end_ns: 3, parent: Some(0) });
        let it = Iteration::parse(&out.into_text()).unwrap();
        assert_eq!(it.metrics["optimize_s"].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(it.exact["plan_digest"], u64::MAX.to_string());
        assert_eq!(it.errors, vec!["two | lines".to_owned()]);
        assert_eq!(it.spans.len(), 2);
        assert_eq!(it.spans[1].parent, Some(0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Iteration::parse("m only-a-name").is_err());
        assert!(Iteration::parse("q x 1").is_err());
    }
}
