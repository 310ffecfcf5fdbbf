//! Executable schedules: ordered command lists over multiple streams.
//!
//! A [`Schedule`] is what a dispatcher (native, XLA-like, or Astra's custom
//! wirer) hands to the [`Engine`](crate::engine::Engine): a sequence of
//! asynchronous kernel launches on numbered streams, cudaEvent-style records
//! and waits, device-wide barriers (super-epoch boundaries), and synchronous
//! host syncs.
//!
//! # Layout
//!
//! A schedule allocates nothing per command. Each [`Cmd`] is a plain
//! `Copy` value: a launch's or transfer's wait list is a [`Waits`] range
//! into one schedule-owned wait pool, read back with [`Schedule::waits`];
//! the rare explicit launch label lives in a sparse side table
//! ([`Schedule::label`]). Emitting a schedule therefore costs a handful of
//! buffer allocations whatever its length (one per buffer when the emitter
//! pre-sizes them with [`Schedule::with_capacity`]), and dropping it frees
//! those buffers, not one wait list per launch.
//!
//! Schedules also carry two pieces of tooling-facing metadata that never
//! show up in [`Schedule::render`] (golden traces stay byte-stable):
//!
//! * optional *segment boundaries* ([`Schedule::mark_boundary`]) with a
//!   rolling prefix hash per boundary, the anchor points for incremental
//!   simulation: two schedules whose boundary hashes match are guaranteed to
//!   share the exact command prefix, so an
//!   [`EngineCheckpoint`](crate::engine::EngineCheckpoint) captured on one
//!   can seed the other;
//! * optional per-command *tags* ([`Schedule::set_tag`]) linking a command
//!   back to whatever emitted it (the wirer tags launches with the unit
//!   index), which is how the static verifier resolves buffer footprints.
//!
//! Span labels are not stored: [`Schedule::span_label`] renders a command's
//! label on demand. A span-recording engine run renders one per span; a
//! span-free run (every exploration trial) renders none.

use crate::kernel::KernelDesc;

/// Identifier of a GPU stream within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Identifier of a cudaEvent-style event within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// A command's wait list: a range into its schedule's wait pool. Only the
/// schedule that appended the command can resolve it
/// ([`Schedule::waits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Waits {
    start: u32,
    len: u32,
}

impl Waits {
    /// Number of events waited on.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the command waits on nothing.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One dispatcher command. Holds no heap data: wait lists and labels live
/// in the [`Schedule`] that owns the command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmd {
    /// Asynchronously launch `kernel` on `stream`, after all `waits` events
    /// have fired. An explicit label, if any, is [`Schedule::label`].
    Launch {
        /// Target stream.
        stream: StreamId,
        /// The kernel to run.
        kernel: KernelDesc,
        /// Events that must fire before the kernel may start.
        waits: Waits,
    },
    /// Record `event` on `stream` once all prior work in the stream is done.
    Record {
        /// Stream whose completion the event captures.
        stream: StreamId,
        /// The event to record.
        event: EventId,
    },
    /// Device-wide barrier: no stream proceeds past it until every stream
    /// has drained to it (super-epoch boundary, paper §4.5.3).
    Barrier,
    /// The CPU blocks until the device is idle, then pays a host round trip.
    HostSync,
    /// Cross-device copy of `bytes` from device `src` to device `dst`,
    /// issued on `stream` (which must live on `dst` — the transfer lands the
    /// data where its consumer runs). Occupies the stream for the link
    /// latency plus the bandwidth time, contending with other transfers on
    /// the same link.
    Transfer {
        /// Stream the transfer occupies (on the destination device).
        stream: StreamId,
        /// Payload size in bytes.
        bytes: u64,
        /// Source device index.
        src: usize,
        /// Destination device index.
        dst: usize,
        /// Events that must fire before the copy may start (normally the
        /// producer's done-event on the source device).
        waits: Waits,
    },
    /// Ring all-reduce rendezvous: every stream issuing an `AllReduce` with
    /// the same `group` id blocks until all participants arrive, then all
    /// pay the ring cost of `bytes` over the topology link together.
    AllReduce {
        /// Participating stream.
        stream: StreamId,
        /// Per-participant payload in bytes (gradient size).
        bytes: u64,
        /// Rendezvous group id; participant count is the number of
        /// `AllReduce` commands sharing it.
        group: u32,
    },
}

// Commands hold no heap data: a schedule appends and drops them without
// allocating or freeing anything per command.
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Cmd>();
};

/// Streams a schedule may have: a stream index fits the 28 bits the
/// prefix hash packs it into.
const MAX_STREAMS: usize = 1 << 28;

impl Cmd {
    /// Folds the command into the rolling prefix hash `h`. The first word
    /// packs the variant tag (bits 0–2), a launch's label flag (bit 3),
    /// the stream (bits 4–31) and a 32-bit field (a record's event, a
    /// launch's or transfer's wait count, an all-reduce's group). A launch
    /// folds it together with `digest`, its kernel's
    /// [`KernelDesc::digest`] (passed in so an emitter digests each kernel
    /// once; other commands ignore it): the digest is XORed into the
    /// state ahead of the one mixing step, so a launch costs one fold, not
    /// two. Then a transfer folds its bytes, source and destination, and an
    /// all-reduce its bytes; then the waits, two event ids per word (the
    /// count is in the first word); then a launch's explicit label (length,
    /// then its bytes eight at a time). The first word fixes how many words
    /// follow, so distinct command lists fold distinct word sequences. The
    /// destructures are exhaustive, so a new variant or field does not
    /// compile until it is hashed.
    fn fold_into(&self, h: u64, digest: u64, waits: &[EventId], label: Option<&str>) -> u64 {
        match self {
            Cmd::Launch { stream, kernel: _, waits: _ } => {
                fold_launch(h, *stream, digest, waits, label)
            }
            Cmd::Record { stream: StreamId(s), event: EventId(e) } => {
                fold_hash(h, head(1, *s, u64::from(*e)))
            }
            Cmd::Barrier => fold_hash(h, 2),
            Cmd::HostSync => fold_hash(h, 3),
            Cmd::Transfer { stream: StreamId(s), bytes, src, dst, waits: _ } => {
                let h = [head(4, *s, waits.len() as u64), *bytes, *src as u64, *dst as u64]
                    .into_iter()
                    .fold(h, fold_hash);
                fold_waits(h, waits)
            }
            Cmd::AllReduce { stream: StreamId(s), bytes, group } => {
                fold_hash(fold_hash(h, head(5, *s, u64::from(*group))), *bytes)
            }
        }
    }
}

/// A command's first fold word: variant tag, stream and a 32-bit field
/// (see [`Cmd::fold_into`]).
#[inline]
fn head(tag: u64, stream: usize, field: u64) -> u64 {
    tag | (stream as u64) << 4 | field << 32
}

/// Folds a wait list, two event ids per word.
#[inline]
fn fold_waits(h: u64, waits: &[EventId]) -> u64 {
    waits.chunks(2).fold(h, |h, pair| {
        let hi = pair.get(1).map_or(0, |w| u64::from(w.0) << 32);
        fold_hash(h, u64::from(pair[0].0) | hi)
    })
}

/// [`Cmd::fold_into`] of a launch on `stream` whose kernel digests to
/// `digest`: the one place a launch is folded, for a [`Schedule`] and a
/// [`ScheduleKey`] alike.
#[inline]
fn fold_launch(
    h: u64,
    StreamId(s): StreamId,
    digest: u64,
    waits: &[EventId],
    label: Option<&str>,
) -> u64 {
    let labelled = u64::from(label.is_some()) << 3;
    let h = fold_hash(h ^ digest, head(labelled, s, waits.len() as u64));
    let h = fold_waits(h, waits);
    label.map_or(h, |l| fold_bytes(h, l.as_bytes()))
}

/// The prefix hash a [`Schedule`] over `num_streams` streams starts from.
fn seed_hash(num_streams: usize) -> u64 {
    // The same command list over a different stream topology is a
    // different schedule.
    fold_hash(0x4153_5452, num_streams as u64)
}

/// What a single-device [`Schedule`] built by the same calls would report
/// as its prefix hash, command count and wait-list total, without storing
/// a command: a memo-key pass. [`ScheduleKey::record`] numbers events
/// exactly as [`Schedule::record`] does, so an emitter can wire the same
/// events into either.
///
/// ```
/// use astra_gpu::{KernelDesc, Schedule, ScheduleKey, StreamId};
///
/// let k = KernelDesc::MemCopy { bytes: 64.0 };
/// let (mut s, mut key) = (Schedule::new(2), ScheduleKey::new(2));
/// s.launch(StreamId(0), k);
/// key.launch(StreamId(0), k.digest(), &[]);
/// let ev = s.record(StreamId(0));
/// assert_eq!(key.record(StreamId(0)), ev);
/// s.launch_after(StreamId(1), k, &[ev]);
/// key.launch(StreamId(1), k.digest(), &[ev]);
/// assert_eq!(key.prefix_hash(), s.prefix_hash());
/// assert_eq!(key.num_cmds(), s.cmds().len());
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleKey {
    prefix_hash: u64,
    cmds: usize,
    waits: usize,
    next_event: u32,
}

impl ScheduleKey {
    /// The key of an empty single-device schedule over `num_streams`
    /// streams.
    ///
    /// # Panics
    ///
    /// Panics if `num_streams` is zero or above 2^28.
    pub fn new(num_streams: usize) -> Self {
        check_stream_count(num_streams);
        ScheduleKey { prefix_hash: seed_hash(num_streams), cmds: 0, waits: 0, next_event: 0 }
    }

    /// Folds an unlabelled launch on `stream` after `waits` of a kernel
    /// whose [`KernelDesc::digest`] is `digest`: what
    /// [`Schedule::launch_digested`] folds.
    #[inline]
    pub fn launch(&mut self, stream: StreamId, digest: u64, waits: &[EventId]) {
        self.prefix_hash = fold_launch(self.prefix_hash, stream, digest, waits, None);
        self.cmds += 1;
        self.waits += waits.len();
    }

    /// Folds a fresh event's record on `stream` and returns its id.
    #[inline]
    pub fn record(&mut self, stream: StreamId) -> EventId {
        let event = EventId(self.next_event);
        self.next_event += 1;
        self.prefix_hash = Cmd::Record { stream, event }.fold_into(self.prefix_hash, 0, &[], None);
        self.cmds += 1;
        event
    }

    /// Folds a device-wide barrier.
    #[inline]
    pub fn barrier(&mut self) {
        self.prefix_hash = Cmd::Barrier.fold_into(self.prefix_hash, 0, &[], None);
        self.cmds += 1;
    }

    /// The prefix hash of the commands folded so far.
    pub fn prefix_hash(&self) -> u64 {
        self.prefix_hash
    }

    /// Number of commands folded so far.
    pub fn num_cmds(&self) -> usize {
        self.cmds
    }

    /// Total wait-list entries folded so far.
    pub fn num_waits(&self) -> usize {
        self.waits
    }
}

fn check_stream_count(num_streams: usize) {
    assert!(num_streams > 0, "a schedule needs at least one stream");
    assert!(num_streams <= MAX_STREAMS, "a schedule has at most {MAX_STREAMS} streams");
}

/// An ordered multi-stream command list, plus the number of streams it uses.
///
/// # Examples
///
/// ```
/// use astra_gpu::{Cmd, KernelDesc, Schedule, StreamId};
///
/// let mut s = Schedule::new(2);
/// s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
/// let ev = s.record(StreamId(0));
/// let c = s.launch_after(StreamId(1), KernelDesc::MemCopy { bytes: 1024.0 }, &[ev]);
/// assert_eq!(s.cmds().len(), 3);
/// let Cmd::Launch { waits, .. } = s.cmds()[c] else { unreachable!() };
/// assert_eq!(s.waits(waits), &[ev]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    num_streams: usize,
    cmds: Vec<Cmd>,
    // Every launch's and transfer's wait list, back to back in command
    // order; each command's `Waits` is a range into it.
    wait_pool: Vec<EventId>,
    // (command index, label) of each explicitly labelled launch, in
    // increasing command order.
    labels: Vec<(usize, String)>,
    next_event: u32,
    num_launches: usize,
    // Transfers and all-reduces: the commands priced on a topology's link.
    num_link_cmds: usize,
    // Queue items each stream will receive (launches + records + barriers),
    // maintained incrementally so the engine can pre-size its FIFOs.
    stream_cmds: Vec<usize>,
    // Rolling hash of every command appended so far (a structural fold of
    // each command's fields, see `Cmd::fold_into`). Folded left-to-right, so
    // equal hashes mean equal command prefixes (modulo 64-bit collisions).
    prefix_hash: u64,
    // (command index, prefix hash at that index) for each marked boundary,
    // strictly increasing in the index.
    boundaries: Vec<(usize, u64)>,
    // Emitter tag per command (e.g. the wirer's unit index). Pure metadata:
    // excluded from render() and from the prefix hash.
    tags: Vec<Option<u32>>,
    // Device index each stream dispatches onto. All zeros for single-device
    // schedules (the default), in which case it is invisible to render()
    // and the prefix hash — existing golden traces stay byte-stable.
    device_of: Vec<usize>,
    // Expected participant count per all-reduce rendezvous group.
    allreduce_expect: Vec<(u32, usize)>,
}

/// One splitmix64-style fold step for the rolling prefix hash.
#[inline]
pub(crate) fn fold_hash(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a byte string's length, then its bytes eight at a time
/// (little-endian, the last word zero-padded), into `h`.
fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(fold_hash(h, bytes.len() as u64), |h, c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        fold_hash(h, u64::from_le_bytes(word))
    })
}

/// FNV-1a over a byte string; feeds [`fold_hash`] with device and link
/// names when fingerprinting a topology.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Schedule {
    /// Creates an empty schedule over `num_streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `num_streams` is zero or above 2^28.
    pub fn new(num_streams: usize) -> Self {
        check_stream_count(num_streams);
        Schedule {
            num_streams,
            cmds: Vec::new(),
            wait_pool: Vec::new(),
            labels: Vec::new(),
            next_event: 0,
            num_launches: 0,
            num_link_cmds: 0,
            stream_cmds: vec![0; num_streams],
            prefix_hash: seed_hash(num_streams),
            boundaries: Vec::new(),
            tags: Vec::new(),
            device_of: vec![0; num_streams],
            allreduce_expect: Vec::new(),
        }
    }

    /// Creates an empty schedule over `num_streams` streams with room for
    /// `cmds` commands and `waits` wait-list entries in total, so an
    /// emitter that knows its sizes appends without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `num_streams` is zero or above 2^28.
    pub fn with_capacity(num_streams: usize, cmds: usize, waits: usize) -> Self {
        let mut s = Schedule::new(num_streams);
        s.reserve(cmds, waits);
        s
    }

    /// Reserves room for `cmds` more commands and `waits` more wait-list
    /// entries.
    pub fn reserve(&mut self, cmds: usize, waits: usize) {
        self.cmds.reserve(cmds);
        self.tags.reserve(cmds);
        self.wait_pool.reserve(waits);
    }

    /// Creates an empty schedule whose streams are placed on explicit
    /// devices: stream `i` dispatches onto device `device_of[i]`. The
    /// mapping participates in the prefix hash (the same command list over a
    /// different placement is a different schedule), *unless* every stream
    /// sits on device 0, in which case this is exactly [`Schedule::new`].
    ///
    /// # Panics
    ///
    /// Panics if `device_of.len() != num_streams`, or if `num_streams` is
    /// zero or above 2^28.
    pub fn with_devices(num_streams: usize, device_of: Vec<usize>) -> Self {
        assert_eq!(
            device_of.len(),
            num_streams,
            "device map must cover every stream"
        );
        let mut s = Schedule::new(num_streams);
        if device_of.iter().any(|&d| d != 0) {
            for &d in &device_of {
                s.prefix_hash = fold_hash(s.prefix_hash, d as u64 + 1);
            }
            s.device_of = device_of;
        }
        s
    }

    /// Number of streams the schedule dispatches onto.
    pub fn num_streams(&self) -> usize {
        self.num_streams
    }

    /// Device index each stream dispatches onto (all zeros for
    /// single-device schedules).
    pub fn stream_devices(&self) -> &[usize] {
        &self.device_of
    }

    /// Device index of one stream.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn stream_device(&self, stream: StreamId) -> usize {
        self.device_of[stream.0]
    }

    /// Whether any stream is placed on a device other than 0.
    pub fn is_multi_device(&self) -> bool {
        self.device_of.iter().any(|&d| d != 0)
    }

    /// Number of devices the schedule spans (`max(device) + 1`).
    pub fn num_devices(&self) -> usize {
        self.device_of.iter().copied().max().unwrap_or(0) + 1
    }

    /// Every all-reduce group in the schedule with its participant count,
    /// in first-appearance order.
    pub fn allreduce_groups(&self) -> &[(u32, usize)] {
        &self.allreduce_expect
    }

    /// Expected participant count of all-reduce `group` (the number of
    /// [`Cmd::AllReduce`] commands appended with that group id).
    pub fn allreduce_expect(&self, group: u32) -> usize {
        self.allreduce_expect
            .iter()
            .find(|&&(g, _)| g == group)
            .map_or(0, |&(_, n)| n)
    }

    /// The commands, in dispatch order.
    pub fn cmds(&self) -> &[Cmd] {
        &self.cmds
    }

    /// The events a wait range of one of this schedule's commands names,
    /// in the order they were appended.
    ///
    /// # Panics
    ///
    /// Panics if `waits` came from a different schedule and runs past this
    /// one's wait pool.
    pub fn waits(&self, waits: Waits) -> &[EventId] {
        let start = waits.start as usize;
        &self.wait_pool[start..start + waits.len as usize]
    }

    /// The wait list of command `cmd_idx`: a launch's or transfer's events,
    /// empty for every other command.
    ///
    /// # Panics
    ///
    /// Panics if `cmd_idx` is out of range.
    pub fn cmd_waits(&self, cmd_idx: usize) -> &[EventId] {
        match self.cmds[cmd_idx] {
            Cmd::Launch { waits, .. } | Cmd::Transfer { waits, .. } => self.waits(waits),
            _ => &[],
        }
    }

    /// The explicit label of command `cmd_idx`: `Some` only for a launch
    /// appended with [`Schedule::launch_labeled`].
    pub fn label(&self, cmd_idx: usize) -> Option<&str> {
        self.labels
            .binary_search_by_key(&cmd_idx, |&(i, _)| i)
            .ok()
            .map(|pos| self.labels[pos].1.as_str())
    }

    /// Number of kernel launches in the schedule.
    pub fn num_launches(&self) -> usize {
        self.num_launches
    }

    /// Number of transfers and all-reduces in the schedule: the commands
    /// an engine prices on a [`Topology`](crate::Topology)'s link, so it
    /// can run them only with one.
    pub fn num_link_cmds(&self) -> usize {
        self.num_link_cmds
    }

    /// Number of events recorded so far. [`Schedule::record`] numbers
    /// events `0..n` in program order, so every [`EventId`] this schedule
    /// hands out is below it.
    pub fn num_events(&self) -> usize {
        self.next_event as usize
    }

    /// Per-stream count of queue items (launches, records, and barriers) —
    /// the capacity each stream's FIFO needs during execution.
    pub fn stream_cmd_counts(&self) -> &[usize] {
        &self.stream_cmds
    }

    /// Rolling content hash of the full command list appended so far.
    ///
    /// Equal hashes on two schedules mean (modulo 64-bit collision) the two
    /// command lists are identical — commands, kernels, waits, labels, and
    /// stream count all participate.
    pub fn prefix_hash(&self) -> u64 {
        self.prefix_hash
    }

    /// Marks the current position as a segment boundary. The engine may
    /// capture an [`EngineCheckpoint`](crate::engine::EngineCheckpoint) at a
    /// boundary, and may resume from a checkpoint whose `(index, hash)` pair
    /// matches one. Consecutive marks at the same position collapse to one.
    pub fn mark_boundary(&mut self) {
        let at = self.cmds.len();
        if self.boundaries.last().is_some_and(|&(i, _)| i == at) {
            return;
        }
        self.boundaries.push((at, self.prefix_hash));
    }

    /// The marked boundaries as `(command index, prefix hash)` pairs, in
    /// increasing index order. A boundary at `cmds().len()` covers the whole
    /// schedule (a checkpoint there memoizes the complete run).
    pub fn boundaries(&self) -> &[(usize, u64)] {
        &self.boundaries
    }

    /// The prefix hash at a marked boundary, or `None` if `cmd_idx` is not a
    /// boundary.
    pub fn boundary_hash(&self, cmd_idx: usize) -> Option<u64> {
        self.boundaries
            .binary_search_by_key(&cmd_idx, |&(i, _)| i)
            .ok()
            .map(|pos| self.boundaries[pos].1)
    }

    /// The span label of command `cmd_idx`, rendered on demand: a launch's
    /// explicit label or its kernel's default, a transfer's or all-reduce's
    /// payload summary; `None` for records, barriers, host syncs, and
    /// out-of-range indices.
    pub fn span_label(&self, cmd_idx: usize) -> Option<String> {
        match self.cmds.get(cmd_idx)? {
            Cmd::Launch { kernel, .. } => {
                Some(self.label(cmd_idx).map_or_else(|| kernel.label(), str::to_owned))
            }
            Cmd::Transfer { bytes, src, dst, .. } => {
                Some(format!("xfer[{:.1}KB d{src}->d{dst}]", *bytes as f64 / 1e3))
            }
            Cmd::AllReduce { bytes, group, .. } => {
                Some(format!("allreduce[{:.1}KB g{group}]", *bytes as f64 / 1e3))
            }
            Cmd::Record { .. } | Cmd::Barrier | Cmd::HostSync => None,
        }
    }

    /// Emitter tag per command (`None` where nothing was tagged). Tags are
    /// tooling metadata: invisible to [`Schedule::render`] and the prefix
    /// hash, so tagging never perturbs golden traces or sim-cache keys.
    pub fn tags(&self) -> &[Option<u32>] {
        &self.tags
    }

    /// Tags command `cmd_idx` with an emitter-defined value (the custom
    /// wirer stores the unit index so the verifier can resolve footprints).
    ///
    /// # Panics
    ///
    /// Panics if `cmd_idx` is out of range.
    pub fn set_tag(&mut self, cmd_idx: usize, tag: u32) {
        self.tags[cmd_idx] = Some(tag);
    }

    /// Copies `waits` into the wait pool and returns its range.
    fn pool_waits(&mut self, waits: &[EventId]) -> Waits {
        if waits.is_empty() {
            return Waits::default();
        }
        let start = u32::try_from(self.wait_pool.len()).expect("wait pool fits u32 indices");
        self.wait_pool.extend_from_slice(waits);
        Waits { start, len: waits.len() as u32 }
    }

    /// Appends `cmd`, folding it (with a launch's kernel digest, its
    /// resolved wait list and label) into the rolling prefix hash. Returns
    /// the command index.
    fn push(&mut self, cmd: Cmd, digest: u64, waits: &[EventId], label: Option<&str>) -> usize {
        self.prefix_hash = cmd.fold_into(self.prefix_hash, digest, waits, label);
        self.tags.push(None);
        self.cmds.push(cmd);
        self.cmds.len() - 1
    }

    /// Appends an unlabelled launch with no waits. Returns the command index.
    pub fn launch(&mut self, stream: StreamId, kernel: KernelDesc) -> usize {
        self.push_launch(stream, kernel, kernel.digest(), &[], None)
    }

    /// Appends a launch gated on `waits`. Returns the command index.
    pub fn launch_after(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: &[EventId],
    ) -> usize {
        self.push_launch(stream, kernel, kernel.digest(), waits, None)
    }

    /// Appends a launch gated on `waits` whose kernel's
    /// [`KernelDesc::digest`] the caller already holds. Equivalent to
    /// [`Schedule::launch_after`]. Returns the command index.
    pub fn launch_digested(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        digest: u64,
        waits: &[EventId],
    ) -> usize {
        debug_assert_eq!(digest, kernel.digest(), "stale kernel digest");
        self.push_launch(stream, kernel, digest, waits, None)
    }

    /// Appends a labelled launch gated on `waits`. Returns the command index.
    pub fn launch_labeled(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        waits: &[EventId],
        label: impl Into<String>,
    ) -> usize {
        let label = label.into();
        let idx = self.push_launch(stream, kernel, kernel.digest(), waits, Some(&label));
        self.labels.push((idx, label));
        idx
    }

    fn push_launch(
        &mut self,
        stream: StreamId,
        kernel: KernelDesc,
        digest: u64,
        waits: &[EventId],
        label: Option<&str>,
    ) -> usize {
        self.check_stream(stream);
        self.num_launches += 1;
        self.stream_cmds[stream.0] += 1;
        let range = self.pool_waits(waits);
        self.push(Cmd::Launch { stream, kernel, waits: range }, digest, waits, label)
    }

    /// Records a fresh event on `stream` and returns its id.
    pub fn record(&mut self, stream: StreamId) -> EventId {
        self.check_stream(stream);
        let ev = EventId(self.next_event);
        self.next_event += 1;
        self.stream_cmds[stream.0] += 1;
        self.push(Cmd::Record { stream, event: ev }, 0, &[], None);
        ev
    }

    /// Appends a device-wide barrier (super-epoch boundary).
    pub fn barrier(&mut self) {
        for c in &mut self.stream_cmds {
            *c += 1;
        }
        self.push(Cmd::Barrier, 0, &[], None);
    }

    /// Appends a blocking host synchronization.
    pub fn host_sync(&mut self) {
        self.push(Cmd::HostSync, 0, &[], None);
    }

    /// Appends a cross-device transfer of `bytes` from device `src` to
    /// device `dst`, issued on `stream` and gated on `waits`. Returns the
    /// command index.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range, if `src == dst`, or if `stream`
    /// does not live on `dst` (transfers land data where the consumer runs).
    pub fn transfer(
        &mut self,
        stream: StreamId,
        bytes: u64,
        src: usize,
        dst: usize,
        waits: &[EventId],
    ) -> usize {
        self.check_stream(stream);
        assert_ne!(src, dst, "a transfer must cross devices");
        assert_eq!(
            self.device_of[stream.0], dst,
            "transfer stream must live on the destination device"
        );
        self.stream_cmds[stream.0] += 1;
        self.num_link_cmds += 1;
        let range = self.pool_waits(waits);
        self.push(Cmd::Transfer { stream, bytes, src, dst, waits: range }, 0, waits, None)
    }

    /// Appends an all-reduce rendezvous participant on `stream` for `group`.
    /// Returns the command index.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn all_reduce(&mut self, stream: StreamId, bytes: u64, group: u32) -> usize {
        self.check_stream(stream);
        self.stream_cmds[stream.0] += 1;
        self.num_link_cmds += 1;
        match self.allreduce_expect.iter_mut().find(|(g, _)| *g == group) {
            Some((_, n)) => *n += 1,
            None => self.allreduce_expect.push((group, 1)),
        }
        self.push(Cmd::AllReduce { stream, bytes, group }, 0, &[], None)
    }

    /// Renders the schedule as stable, line-oriented text: one command per
    /// line, in dispatch order, with kernel labels, stream bindings, and
    /// event wiring spelled out. Golden-trace tests snapshot this exact
    /// format, so treat any change to it as a schedule-visible change.
    ///
    /// ```text
    /// streams 2
    /// launch s0 gemm[16x64x64]@cublas
    /// record s0 -> e0
    /// launch s1 waits[e0] gemm[16x64x64]@cublas
    /// barrier
    /// hostsync
    /// ```
    ///
    /// The text does not round-trip to the same prefix hash: it spells a
    /// launch's kernel only by its label, so a reader of it (the
    /// verifier's `parse_rendered`) rebuilds every launch as a placeholder
    /// kernel carrying that label. The rebuilt schedule has the same
    /// commands, streams and wiring, but hashes differently from the
    /// emitted one and can never match its memo keys.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "streams {}", self.num_streams);
        if self.is_multi_device() {
            let devs: Vec<String> = self.device_of.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "devices {}", devs.join(","));
        }
        let fmt_waits = |out: &mut String, waits: &[EventId]| {
            use std::fmt::Write as _;
            if !waits.is_empty() {
                let _ = write!(out, " waits[");
                for (i, w) in waits.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(out, "{sep}e{}", w.0);
                }
                let _ = write!(out, "]");
            }
        };
        for (i, cmd) in self.cmds.iter().enumerate() {
            match *cmd {
                Cmd::Launch { stream, kernel, waits } => {
                    let _ = write!(out, "launch s{}", stream.0);
                    fmt_waits(&mut out, self.waits(waits));
                    match self.label(i) {
                        Some(name) => {
                            let _ = writeln!(out, " {name}");
                        }
                        None => {
                            let _ = writeln!(out, " {}", kernel.label());
                        }
                    }
                }
                Cmd::Record { stream, event } => {
                    let _ = writeln!(out, "record s{} -> e{}", stream.0, event.0);
                }
                Cmd::Barrier => out.push_str("barrier\n"),
                Cmd::HostSync => out.push_str("hostsync\n"),
                Cmd::Transfer { stream, bytes, src, dst, waits } => {
                    let _ = write!(out, "transfer s{}", stream.0);
                    fmt_waits(&mut out, self.waits(waits));
                    let _ = writeln!(out, " {bytes}B d{src}->d{dst}");
                }
                Cmd::AllReduce { stream, bytes, group } => {
                    let _ = writeln!(out, "allreduce s{} {bytes}B g{group}", stream.0);
                }
            }
        }
        out
    }

    fn check_stream(&self, stream: StreamId) {
        assert!(
            stream.0 < self.num_streams,
            "stream {} out of range (schedule has {})",
            stream.0,
            self.num_streams
        );
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ids_are_unique() {
        let mut s = Schedule::new(2);
        let a = s.record(StreamId(0));
        let b = s.record(StreamId(1));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn launch_on_bad_stream_panics() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 });
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _ = Schedule::new(0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn stream_counts_past_the_hash_header_panic() {
        let _ = ScheduleKey::new(MAX_STREAMS + 1);
    }

    #[test]
    fn render_spells_out_streams_waits_and_labels() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1024.0 });
        let ev = s.record(StreamId(0));
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 1.0 }, &[ev], "mine");
        s.barrier();
        s.host_sync();
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "streams 2");
        assert!(lines[1].starts_with("launch s0 "));
        assert_eq!(lines[2], "record s0 -> e0");
        assert_eq!(lines[3], "launch s1 waits[e0] mine");
        assert_eq!(lines[4], "barrier");
        assert_eq!(lines[5], "hostsync");
    }

    #[test]
    fn launch_counting() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1.0 });
        s.record(StreamId(0));
        s.barrier();
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 1.0 });
        assert_eq!(s.num_launches(), 2);
        assert_eq!(s.cmds().len(), 4);
    }

    #[test]
    fn prefix_hash_tracks_content() {
        let mut a = Schedule::new(1);
        let mut b = Schedule::new(1);
        assert_eq!(a.prefix_hash(), b.prefix_hash());
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        b.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        assert_eq!(a.prefix_hash(), b.prefix_hash(), "identical prefixes hash equal");
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        b.launch(StreamId(0), KernelDesc::MemCopy { bytes: 9.0 });
        assert_ne!(a.prefix_hash(), b.prefix_hash(), "kernel content must show up");
        // Stream count participates even with identical commands.
        let one = Schedule::new(1);
        let two = Schedule::new(2);
        assert_ne!(one.prefix_hash(), two.prefix_hash());
    }

    #[test]
    fn fold_sees_fields_the_builders_fix() {
        // The builders assign a record's event id and tie a transfer's
        // destination to its stream, so only a direct fold can vary either
        // field alone.
        let rec = |event| Cmd::Record { stream: StreamId(0), event: EventId(event) };
        assert_ne!(rec(0).fold_into(7, 0, &[], None), rec(1).fold_into(7, 0, &[], None));
        let xfer = |dst| Cmd::Transfer {
            stream: StreamId(0),
            bytes: 8,
            src: 0,
            dst,
            waits: Waits::default(),
        };
        assert_ne!(xfer(1).fold_into(7, 0, &[], None), xfer(2).fold_into(7, 0, &[], None));
    }

    #[test]
    fn boundaries_record_position_and_hash() {
        let mut s = Schedule::new(1);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        s.mark_boundary();
        s.mark_boundary(); // dedupes
        let h1 = s.prefix_hash();
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 16.0 });
        s.mark_boundary();
        assert_eq!(s.boundaries(), &[(1, h1), (2, s.prefix_hash())]);
        assert_eq!(s.boundary_hash(1), Some(h1));
        assert_eq!(s.boundary_hash(0), None);
    }

    #[test]
    fn span_labels_render_per_launch() {
        let mut s = Schedule::new(2);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        s.record(StreamId(0));
        s.launch_labeled(StreamId(1), KernelDesc::MemCopy { bytes: 8.0 }, &[], "mine");
        s.barrier();
        s.host_sync();
        assert_eq!(s.span_label(0), Some(KernelDesc::MemCopy { bytes: 8.0 }.label()));
        assert_eq!(s.span_label(1), None);
        assert_eq!(s.span_label(2).as_deref(), Some("mine"));
        assert_eq!(s.span_label(3), None);
        assert_eq!(s.span_label(4), None);
        assert_eq!(s.span_label(5), None, "out of range");
    }

    #[test]
    fn tags_are_metadata_only() {
        let mut a = Schedule::new(1);
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        a.record(StreamId(0));
        let mut b = a.clone();
        b.set_tag(0, 7);
        assert_eq!(a.render(), b.render(), "tags are invisible to render");
        assert_eq!(a.prefix_hash(), b.prefix_hash(), "tags are invisible to the hash");
        assert_eq!(b.tags(), &[Some(7), None]);
        assert_eq!(a.tags(), &[None, None]);
    }

    #[test]
    fn device_map_participates_in_hash_but_zeros_are_invisible() {
        let plain = Schedule::new(2);
        let zeros = Schedule::with_devices(2, vec![0, 0]);
        assert_eq!(plain.prefix_hash(), zeros.prefix_hash());
        assert_eq!(plain.render(), zeros.render());
        assert!(!zeros.is_multi_device());
        let multi = Schedule::with_devices(2, vec![0, 1]);
        assert_ne!(plain.prefix_hash(), multi.prefix_hash());
        let other = Schedule::with_devices(2, vec![1, 0]);
        assert_ne!(multi.prefix_hash(), other.prefix_hash(), "mapping order matters");
        assert!(multi.is_multi_device());
        assert_eq!(multi.num_devices(), 2);
        assert_eq!(multi.stream_device(StreamId(1)), 1);
        assert!(multi.render().lines().nth(1) == Some("devices 0,1"));
    }

    #[test]
    fn transfer_and_allreduce_render_and_count() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.launch(StreamId(0), KernelDesc::MemCopy { bytes: 64.0 });
        let ev = s.record(StreamId(0));
        s.transfer(StreamId(1), 4096, 0, 1, &[ev]);
        s.all_reduce(StreamId(0), 1024, 0);
        s.all_reduce(StreamId(1), 1024, 0);
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[4], "transfer s1 waits[e0] 4096B d0->d1");
        assert_eq!(lines[5], "allreduce s0 1024B g0");
        assert_eq!(lines[6], "allreduce s1 1024B g0");
        assert_eq!(s.allreduce_expect(0), 2);
        assert_eq!(s.allreduce_expect(9), 0);
        // Transfers and all-reduces occupy their streams but are not kernel
        // launches.
        assert_eq!(s.num_launches(), 1);
        assert_eq!(s.stream_cmd_counts(), &[3, 2]);
        assert_eq!(s.span_label(2).as_deref(), Some("xfer[4.1KB d0->d1]"));
        assert_eq!(s.span_label(3).as_deref(), Some("allreduce[1.0KB g0]"));
    }

    #[test]
    #[should_panic(expected = "destination device")]
    fn transfer_on_wrong_device_panics() {
        let mut s = Schedule::with_devices(2, vec![0, 1]);
        s.transfer(StreamId(0), 64, 0, 1, &[]);
    }

    #[test]
    fn boundaries_stay_out_of_render() {
        let mut a = Schedule::new(1);
        a.launch(StreamId(0), KernelDesc::MemCopy { bytes: 8.0 });
        let mut b = a.clone();
        b.mark_boundary();
        assert_eq!(a.render(), b.render(), "boundaries are engine metadata, not commands");
    }
}
