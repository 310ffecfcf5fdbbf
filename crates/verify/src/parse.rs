//! Parser for the stable text format [`Schedule::render`] produces, so the
//! verifier can run over golden-trace fixtures without rebuilding the model
//! that emitted them.
//!
//! Kernel descriptors are not round-tripped — the rendered label is kept as
//! the launch label and every kernel becomes a placeholder copy. That is
//! enough for every structural rule (events, cycles, barriers, dead code);
//! footprint-based rules need the emitter's access table and do not apply
//! to parsed fixtures.

use astra_gpu::{EventId, KernelDesc, Schedule, StreamId};

/// Parses one rendered schedule.
///
/// The result has the rendered text's commands, streams, device map and
/// event wiring, but each launch is rebuilt as a labelled placeholder (a
/// 1-byte copy carrying the rendered label), since the text names a kernel
/// only by its label. The prefix hash folds the kernel and the label, so a
/// parsed schedule with any launch hashes differently from the schedule
/// that was rendered: it can never match that schedule's boundaries or
/// memo keys, and re-rendering it gives back the same text.
///
/// # Errors
///
/// Returns a message naming the offending line when the text does not
/// follow the rendered grammar (`streams N`, optional `devices 0,1,..`,
/// `launch sK [waits[..]] label`, `record sK -> eN`, `barrier`, `hostsync`,
/// `transfer sK [waits[..]] NB dS->dD`, `allreduce sK NB gN`), when a
/// `record` line's event id does not match the id the schedule builder
/// assigns (ids are consecutive from e0 in record order), or when a
/// transfer does not cross devices / does not land on its stream's device.
pub fn parse_rendered(text: &str) -> Result<Schedule, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).peekable();

    let (_, first) = lines.next().ok_or_else(|| "empty schedule text".to_string())?;
    let streams: usize = first
        .trim()
        .strip_prefix("streams ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("line 1: expected `streams N`, got `{first}`"))?;
    if streams == 0 {
        return Err("line 1: schedule needs at least one stream".to_string());
    }
    let mut device_of = vec![0usize; streams];
    if let Some(&(idx, l)) = lines.peek() {
        if let Some(list) = l.trim().strip_prefix("devices ") {
            let lineno = idx + 1;
            device_of = list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| format!("line {lineno}: bad device index `{t}`"))
                })
                .collect::<Result<Vec<usize>, String>>()?;
            if device_of.len() != streams {
                return Err(format!(
                    "line {lineno}: devices line maps {} stream(s) but the schedule has \
                     {streams}",
                    device_of.len()
                ));
            }
            lines.next();
        }
    }
    let mut sched = Schedule::with_devices(streams, device_of);

    for (idx, raw) in lines {
        let line = raw.trim();
        let lineno = idx + 1;
        if line == "barrier" {
            sched.barrier();
        } else if line == "hostsync" {
            sched.host_sync();
        } else if let Some(rest) = line.strip_prefix("record ") {
            let (s, e) = rest
                .split_once(" -> ")
                .ok_or_else(|| format!("line {lineno}: expected `record sK -> eN`"))?;
            let stream = parse_stream(s, lineno)?;
            let want = parse_event(e, lineno)?;
            let got = sched.record(StreamId(stream));
            if got != want {
                return Err(format!(
                    "line {lineno}: record declares e{} but the builder assigns e{} \
                     (ids must be consecutive in record order)",
                    want.0, got.0
                ));
            }
        } else if let Some(rest) = line.strip_prefix("launch ") {
            let mut parts = rest.splitn(2, ' ');
            let stream = parse_stream(parts.next().unwrap_or(""), lineno)?;
            let mut tail = parts.next().unwrap_or("").trim_start();
            let mut waits = Vec::new();
            if let Some(after) = tail.strip_prefix("waits[") {
                let (list, rest2) = after
                    .split_once(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated waits[..]"))?;
                for ev in list.split(',').filter(|t| !t.is_empty()) {
                    waits.push(parse_event(ev, lineno)?);
                }
                tail = rest2.trim_start();
            }
            if tail.is_empty() {
                return Err(format!("line {lineno}: launch is missing its label"));
            }
            sched.launch_labeled(
                StreamId(stream),
                KernelDesc::MemCopy { bytes: 1.0 },
                &waits,
                tail,
            );
        } else if let Some(rest) = line.strip_prefix("transfer ") {
            let mut parts = rest.splitn(2, ' ');
            let stream = parse_stream(parts.next().unwrap_or(""), lineno)?;
            let mut tail = parts.next().unwrap_or("").trim_start();
            let mut waits = Vec::new();
            if let Some(after) = tail.strip_prefix("waits[") {
                let (list, rest2) = after
                    .split_once(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated waits[..]"))?;
                for ev in list.split(',').filter(|t| !t.is_empty()) {
                    waits.push(parse_event(ev, lineno)?);
                }
                tail = rest2.trim_start();
            }
            let (bytes_tok, dev_tok) = tail
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: expected `NB dS->dD` after transfer"))?;
            let bytes = parse_bytes(bytes_tok, lineno)?;
            let (s, d) = dev_tok
                .split_once("->")
                .ok_or_else(|| format!("line {lineno}: expected `dS->dD`, got `{dev_tok}`"))?;
            let src = parse_device(s, lineno)?;
            let dst = parse_device(d, lineno)?;
            if stream >= streams {
                return Err(format!("line {lineno}: stream s{stream} out of range"));
            }
            if src == dst {
                return Err(format!("line {lineno}: transfer d{src}->d{dst} does not cross devices"));
            }
            let home = sched.stream_device(StreamId(stream));
            if home != dst {
                return Err(format!(
                    "line {lineno}: transfer stream s{stream} lives on d{home}, not its \
                     destination d{dst}"
                ));
            }
            sched.transfer(StreamId(stream), bytes, src, dst, &waits);
        } else if let Some(rest) = line.strip_prefix("allreduce ") {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            let [s, b, g] = toks[..] else {
                return Err(format!("line {lineno}: expected `allreduce sK NB gN`"));
            };
            let stream = parse_stream(s, lineno)?;
            let bytes = parse_bytes(b, lineno)?;
            let group: u32 = g
                .strip_prefix('g')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("line {lineno}: expected a group `gN`, got `{g}`"))?;
            if stream >= streams {
                return Err(format!("line {lineno}: stream s{stream} out of range"));
            }
            sched.all_reduce(StreamId(stream), bytes, group);
        } else {
            return Err(format!("line {lineno}: unrecognized command `{line}`"));
        }
    }
    Ok(sched)
}

fn parse_stream(tok: &str, lineno: usize) -> Result<usize, String> {
    tok.trim()
        .strip_prefix('s')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("line {lineno}: expected a stream `sK`, got `{tok}`"))
}

fn parse_event(tok: &str, lineno: usize) -> Result<EventId, String> {
    tok.trim()
        .strip_prefix('e')
        .and_then(|n| n.parse().ok())
        .map(EventId)
        .ok_or_else(|| format!("line {lineno}: expected an event `eN`, got `{tok}`"))
}

fn parse_bytes(tok: &str, lineno: usize) -> Result<u64, String> {
    tok.trim()
        .strip_suffix('B')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("line {lineno}: expected a byte count `NB`, got `{tok}`"))
}

fn parse_device(tok: &str, lineno: usize) -> Result<usize, String> {
    tok.trim()
        .strip_prefix('d')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("line {lineno}: expected a device `dN`, got `{tok}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_rendered_schedule() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
        let ev = s.record(StreamId(0));
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 }, &[ev], "mine x");
        s.barrier();
        s.host_sync();
        let text = s.render();
        let parsed = parse_rendered(&text).expect("parses its own rendering");
        assert_eq!(parsed.render(), text, "render -> parse -> render is a fixpoint");
        assert_eq!(parsed.num_streams(), 2);
        assert_eq!(parsed.cmds().len(), 5);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_rendered("").is_err());
        assert!(parse_rendered("streams 0").is_err());
        assert!(parse_rendered("streams 1\nlaunch s0").is_err(), "missing label");
        assert!(parse_rendered("streams 1\nlaunch s0 waits[e0 k").is_err(), "unterminated");
        assert!(parse_rendered("streams 1\nfrobnicate").is_err());
        assert!(
            parse_rendered("streams 1\nrecord s0 -> e5").is_err(),
            "ids must be consecutive from e0"
        );
    }

    #[test]
    fn parses_multi_wait_launches() {
        let text = "streams 2\nrecord s0 -> e0\nrecord s1 -> e1\nlaunch s0 waits[e0,e1] k\n";
        let s = parse_rendered(text).expect("parses");
        assert_eq!(s.cmds().len(), 3);
        assert_eq!(s.render(), text);
    }

    #[test]
    fn round_trips_a_multi_device_schedule() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 64.0 });
        let e = s.record(StreamId(0));
        s.transfer(StreamId(1), 4096, 0, 1, &[e]);
        s.launch(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 });
        s.all_reduce(StreamId(0), 1024, 0);
        s.all_reduce(StreamId(1), 1024, 0);
        let text = s.render();
        let parsed = parse_rendered(&text).expect("parses its own rendering");
        assert_eq!(parsed.render(), text, "render -> parse -> render is a fixpoint");
        assert_eq!(parsed.stream_devices(), &[0, 1]);
        assert_eq!(parsed.allreduce_expect(0), 2);
    }

    #[test]
    fn rejects_malformed_multi_device_lines() {
        assert!(parse_rendered("streams 2\ndevices 0\n").is_err(), "map length mismatch");
        assert!(parse_rendered("streams 2\ndevices 0,x\n").is_err(), "bad device index");
        assert!(
            parse_rendered("streams 2\ndevices 0,1\ntransfer s1 64B d1->d1\n").is_err(),
            "transfer must cross devices"
        );
        assert!(
            parse_rendered("streams 2\ndevices 0,1\ntransfer s0 64B d0->d1\n").is_err(),
            "wrong home device"
        );
        assert!(
            parse_rendered("streams 2\ndevices 0,1\ntransfer s1 64 d0->d1\n").is_err(),
            "bytes need the B suffix"
        );
        assert!(parse_rendered("streams 1\nallreduce s0 64B\n").is_err(), "missing group");
        assert!(parse_rendered("streams 1\nallreduce s0 64B q7\n").is_err(), "bad group token");
    }

    /// A one-device text may name a transfer from a device it never maps
    /// and an all-reduce: both parse, and an engine without a topology
    /// rejects them with an error rather than a panic.
    #[test]
    fn cross_device_text_on_one_device_errors_in_the_engine() {
        use astra_gpu::{DeviceSpec, Engine, GpuError};
        let dev = DeviceSpec::p100();
        for text in ["streams 1\ntransfer s0 100B d1->d0\n", "streams 1\nallreduce s0 64B g0\n"] {
            let s = parse_rendered(text).expect("parses");
            let err = Engine::new(&dev).run(&s).unwrap_err();
            assert!(matches!(err, GpuError::InvalidSchedule(_)), "{text}: {err:?}");
        }
    }
}
