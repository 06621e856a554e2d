//! The serving wire protocol: length-prefixed binary frames over TCP.
//!
//! A client sends a `.wf` program source plus input arrays in one
//! `SUBMIT` frame; the server compiles it (through a pluggable
//! [`WireCompiler`], since the language front end lives above this
//! crate), routes the job through the tenant-aware
//! [`crate::service::WavefrontService`], and streams back either a
//! `RESULT` frame with the requested output arrays or a typed `ERROR`
//! frame that round-trips to the same [`PipelineError`] the in-process
//! API returns. Admission rejections therefore look identical on both
//! sides of the wire — never a silent drop, never a stalled listener.
//!
//! ## Frame format
//!
//! Every frame is `u32` little-endian payload length, then the payload;
//! the first payload byte is the opcode. Integers are little-endian,
//! floats IEEE-754 `f64` bits, strings length-prefixed UTF-8. See
//! `docs/SERVICE.md` ("Serving over the wire") for the field-by-field
//! layout of each opcode; in this file each frame's fields are listed
//! once, in wire order, by the `wire_structs!`/`wire_enum!` tables below,
//! and both directions of the codec are generated from that one list.
//!
//! | opcode | direction | meaning |
//! |-------:|-----------|---------|
//! | 1 | client → server | `SUBMIT` a program + arrays |
//! | 2 | server → client | `RESULT` of one job |
//! | 3 | server → client | typed `ERROR` |
//! | 4 | client → server | `STATS` request |
//! | 5 | server → client | `STATS` reply (JSON) |
//! | 6 | client → server | `SHUTDOWN` (when enabled) |
//! | 7 | server → client | `OK` acknowledgement |
//! | 8 | client → server | `SUBMIT_DAG`: a job graph in one frame |
//! | 9 | server → client | `DAG_RESULT`: per-node results + stats |
//! | 10 | both | `HELLO` version check |
//! | 11 | client → server | `METRICS` request |
//! | 12 | server → client | `METRICS` reply: Prometheus text + JSON |
//! | 13 | client → server | `ALLOC` a server-resident array |
//! | 14 | server → client | `HANDLE`: resident-array id, epoch, values |
//! | 15 | client → server | `SUBMIT_LOOP`: a time-stepping loop over handles |
//! | 16 | server → client | `LOOP_RESULT`: steps run + overlap stats |
//! | 17 | client → server | `FREE` a resident array (reply returns its values) |
//!
//! ## Protocol version
//!
//! There is one layout, numbered [`PROTOCOL_VERSION`]. `HELLO` carries
//! the sender's number as a `u16` and is an equality check: the server
//! echoes its own number to a peer that matches and answers any other
//! with a typed [`PipelineError::ProtocolError`] naming both, after
//! which the connection stays usable. The handshake is optional — a
//! connection that never sends it is decoded at the same layout.
//! Convergence callbacks are host-side closures and do not travel the
//! wire — a wire loop always runs a fixed step count.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use wavefront_core::array::{DenseArray, Layout};
use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::kernel::KernelMode;
use wavefront_core::program::{Program, Store};
use wavefront_core::region::{LoopStructureOrder, Region};

use crate::error::{AdmissionReason, PipelineError};
use crate::schedule::BlockPolicy;
use crate::service::cache::PlanCache;
use crate::service::dag::{DagSpec, NodeRef};
use crate::service::fingerprint::fnv1a;
use crate::service::job::{JobSpec, JobSpecBuilder};
use crate::service::looping::LoopSpec;
use crate::service::scheduler::SchedulerKind;
use crate::service::{JobTopology, JobTrace, WavefrontService};
use crate::telemetry::{EngineKind, TimeUnit};

/// The one wire layout this build speaks; `HELLO` refuses any other.
pub const PROTOCOL_VERSION: u16 = 4;

/// Sentinel nest index meaning "largest scan nest" (the common case for
/// one-scan programs).
pub(crate) const NEST_AUTO: u16 = u16::MAX;

/// Elements of the box `lo..=hi`, in a product wide enough that
/// client-chosen corners cannot overflow it.
fn cells<const R: usize>(lo: [i64; R], hi: [i64; R]) -> u128 {
    lo.iter().zip(&hi).fold(1u128, |n, (&l, &h)| {
        n.saturating_mul((h as i128 - l as i128 + 1).max(0) as u128)
    })
}

/// Knobs of a [`WireServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest frame either side accepts; oversized frames are a
    /// [`PipelineError::ProtocolError`], not an allocation. It also
    /// bounds what a request may allocate: a resident array too large
    /// to come home in one frame is refused, and so is a job whose
    /// declared arrays together are.
    pub max_frame: u32,
    /// Whether a `SHUTDOWN` frame stops the accept loop (off by
    /// default; the bench harness turns it on for loopback runs).
    pub allow_shutdown: bool,
    /// Compiled `.wf` sources the server keeps (LRU, keyed by source
    /// text + constant bindings) so repeated submissions skip the
    /// front end.
    pub program_cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_frame: 64 << 20,
            allow_shutdown: false,
            program_cache: 32,
        }
    }
}
/// A compiled wire program: what a [`WireCompiler`] hands back to the
/// server for one `SUBMIT` source.
pub struct WireProgram<const R: usize> {
    /// The lowered program.
    pub program: Arc<Program<R>>,
    /// All compiled nests of the program, program order.
    pub nests: Vec<Arc<CompiledNest<R>>>,
    /// Array name → id, for binding input/output payloads.
    pub arrays: Vec<(String, ArrayId)>,
}

/// Compiles `.wf` source text for the wire server. The language front
/// end lives above this crate, so the server takes the compiler as a
/// trait object; `wavefront::serve::LangCompiler` is the standard
/// implementation.
pub trait WireCompiler<const R: usize>: Send + Sync {
    /// Compile `source` with the given constant bindings. Errors are
    /// returned as the front end's diagnostic string and surface to the
    /// client as [`PipelineError::CompileRejected`].
    fn compile(&self, source: &str, consts: &[(String, i64)]) -> Result<WireProgram<R>, String>;
}

/// The topology field of a [`WireRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTopology {
    /// A 1-D processor line.
    Line(usize),
    /// A 2-D processor mesh.
    Mesh([usize; 2]),
}

/// One `SUBMIT` request, as the client-side value type.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Tenant the job is billed to (empty = the default tenant).
    pub tenant: String,
    /// Intra-tenant priority (higher first).
    pub priority: u8,
    /// Rank of the program (must match the server's).
    pub rank: u8,
    /// Nest index, or `u16::MAX` for the largest scan nest.
    pub nest: u16,
    /// Processor topology.
    pub topology: WireTopology,
    /// Engine to run on.
    pub engine: EngineKind,
    /// Requested kernel tier ceiling (interpreter, scalar tape, or
    /// lane-parallel tape).
    pub kernel_mode: KernelMode,
    /// Block policy; only `Fixed`/`Model1`/`Model2`/`FullPortion`
    /// travel the wire (probe and adaptive are host-side policies).
    pub block: BlockPolicy,
    /// Machine preset: 0 = Cray T3E, 1 = SGI PowerChallenge.
    pub machine: u8,
    /// Constant bindings for the `.wf` source.
    pub consts: Vec<(String, i64)>,
    /// The `.wf` program text.
    pub source: String,
    /// Input arrays: name → values in canonical bounds order.
    pub arrays: Vec<(String, Vec<f64>)>,
    /// Names of the arrays to return after the run.
    pub returns: Vec<String>,
    /// Client-supplied trace ID, echoed back inside the reply's span
    /// breakdown.
    pub trace_id: Option<u64>,
}

impl WireRequest {
    /// A request with the common defaults: default tenant, priority 0,
    /// auto nest, 4-processor line, threads engine, lane kernels, Model2
    /// blocks, Cray T3E costs.
    pub fn new(rank: u8, source: impl Into<String>) -> Self {
        WireRequest {
            tenant: String::new(),
            priority: 0,
            rank,
            nest: NEST_AUTO,
            topology: WireTopology::Line(4),
            engine: EngineKind::Threads,
            kernel_mode: KernelMode::Lanes,
            block: BlockPolicy::Model2,
            machine: 0,
            consts: Vec::new(),
            source: source.into(),
            arrays: Vec::new(),
            returns: Vec::new(),
            trace_id: None,
        }
    }
}

/// One `RESULT` reply, as the client-side value type.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Engine-reported makespan.
    pub makespan: f64,
    /// Unit of the makespan.
    pub time_unit: TimeUnit,
    /// Seconds spent in planning/kernel preparation (collapses on warm
    /// cache hits).
    pub prep_seconds: f64,
    /// Seconds spent executing.
    pub run_seconds: f64,
    /// Boundary messages the engine observed.
    pub messages: u64,
    /// Block size the planner chose.
    pub block: u32,
    /// The requested output arrays, values in canonical bounds order.
    pub arrays: Vec<(String, Vec<f64>)>,
    /// The job's lifecycle span breakdown, carrying the client-supplied
    /// trace ID.
    pub spans: Option<JobTrace>,
}

/// One node of a [`WireDagRequest`]: an ordinary submit payload plus
/// its dependency edges.
#[derive(Debug, Clone)]
pub struct WireDagNode {
    /// Label the node is addressed by in the reply.
    pub label: String,
    /// The node's job (its `tenant` field is overridden by the
    /// DAG-level tenant when that one is non-empty).
    pub request: WireRequest,
    /// Edges: `(producer node index, array name)` — the producer's
    /// published array is installed into this node's store before it
    /// runs.
    pub inputs: Vec<(u32, String)>,
}

/// One `SUBMIT_DAG` request.
#[derive(Debug, Clone)]
pub struct WireDagRequest {
    /// Tenant the whole DAG is billed to (empty = per-node tenants).
    pub tenant: String,
    /// Scheduling policy name (`"fifo"`, `"critical-path"`,
    /// `"locality"`).
    pub scheduler: String,
    /// The nodes, in index order.
    pub nodes: Vec<WireDagNode>,
    /// Client-supplied trace ID applied to every node that carries no
    /// trace ID of its own.
    pub trace_id: Option<u64>,
}

/// One `DAG_RESULT` reply: per-node typed results plus the run's
/// [`crate::service::DagStats`] as JSON.
#[derive(Debug)]
pub struct WireDagResponse {
    /// Per-node results in node order; failures are the same typed
    /// [`PipelineError`] values the in-process API produces.
    pub nodes: Vec<(String, Result<WireResponse, PipelineError>)>,
    /// The DAG's stats object, serialized.
    pub stats_json: String,
}

/// One `ALLOC` request: park an array server-side
/// and get back a resident handle for zero-copy loop bindings.
#[derive(Debug, Clone)]
pub struct WireAllocRequest {
    /// Rank of the region (must match the server's).
    pub rank: u8,
    /// Inclusive lower corner, one coordinate per dimension.
    pub lo: Vec<i64>,
    /// Inclusive upper corner, one coordinate per dimension.
    pub hi: Vec<i64>,
    /// Storage layout: 0 = row-major, 1 = column-major. Handle bindings
    /// must match the program declaration's layout, and the `.wf` front
    /// end compiles declarations column-major — so handles feeding wire
    /// loops normally use 1 (the [`WireAllocRequest::col_major`]
    /// constructor's choice).
    pub layout: u8,
    /// Initial values in canonical bounds order; empty means zeros.
    pub values: Vec<f64>,
}

impl WireAllocRequest {
    /// An alloc request matching the `.wf` front end's column-major
    /// array declarations. Empty `values` allocate zeros.
    pub fn col_major(lo: Vec<i64>, hi: Vec<i64>, values: Vec<f64>) -> Self {
        WireAllocRequest {
            rank: lo.len() as u8,
            lo,
            hi,
            layout: tag_of(&Layout::ColMajor),
            values,
        }
    }
}

/// One `HANDLE` reply: the resident array's id and
/// epoch, plus its values when the request retires the buffer (`FREE`).
/// `ALLOC` replies carry no values — the client just sent them.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHandle {
    /// Service-unique handle id (stable across loop rotations).
    pub id: u64,
    /// Times the buffer has been republished by a job put-back — the
    /// write-after-read fence counter ([`crate::service::WavefrontService::handle_epoch`]).
    pub epoch: u64,
    /// The buffer's values in canonical bounds order (`FREE` only).
    pub values: Vec<f64>,
}

/// One `SUBMIT_LOOP` request: run `request` as the
/// body of a time-stepping loop over server-resident arrays.
#[derive(Debug, Clone)]
pub struct WireLoopRequest {
    /// The body job. Its `arrays` payload seeds the *non-resident*
    /// arrays; resident arrays bind through the handle lists below.
    pub request: WireRequest,
    /// Read-only handle bindings: `(array name, handle id)`.
    pub input_handles: Vec<(String, u64)>,
    /// In-place read/write handle bindings: `(array name, handle id)`.
    /// Every array the body's nest writes must appear here.
    pub output_handles: Vec<(String, u64)>,
    /// Steps to run (convergence callbacks are host-side closures and
    /// do not travel the wire).
    pub steps: u64,
    /// Handle rotation applied between steps: after each step the
    /// buffer bound to `from` is republished under `to`'s binding.
    /// `[("next","curr"), ("curr","next")]` is the classic
    /// double-buffer swap.
    pub rotate: Vec<(String, String)>,
    /// Whether the dispatcher may pipeline across iterations (on by
    /// default; off forces a barrier between steps — the ablation knob).
    pub pipelined: bool,
}

/// One `LOOP_RESULT` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct WireLoopResponse {
    /// Steps actually run.
    pub steps_run: u64,
    /// Whether the loop fused whole chunks into single engine runs.
    pub fused: bool,
    /// Dispatch chunks the steps were grouped into.
    pub chunks: u64,
    /// Seconds of cross-iteration overlap harvested by pipelining.
    pub overlap_seconds: f64,
    /// Seconds of per-rank busy time across the loop.
    pub busy_seconds: f64,
    /// `overlap_seconds / busy_seconds`.
    pub overlap_efficiency: f64,
    /// Final `name → handle id` bindings after all rotations — the ids
    /// to `FREE` (or keep looping on) for each logical array.
    pub final_bindings: Vec<(String, u64)>,
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

fn io_err(context: &str, e: std::io::Error) -> PipelineError {
    PipelineError::Io {
        context: format!("{context}: {e}"),
    }
}

/// A payload length as its `u32` prefix: refused, never wrapped, if longer.
fn frame_len(len: usize) -> Result<u32, PipelineError> {
    u32::try_from(len).map_err(|_| PipelineError::ProtocolError {
        reason: format!("a {len}-byte payload overflows the u32 frame length"),
    })
}

/// Send one frame in one write: `frame` is a payload behind the 4-byte
/// length slot [`framed`] reserves, and the length goes there.
fn write_frame(w: &mut impl Write, frame: &mut [u8]) -> Result<(), PipelineError> {
    let len = frame_len(frame.len() - 4)?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)
        .and_then(|_| w.flush())
        .map_err(|e| io_err("write frame", e))
}

/// Read one frame's payload into `buf`, whose capacity is reused from
/// frame to frame. `Ok(false)` is a clean EOF at a frame boundary (the
/// peer hung up); anything else is a full payload or a typed error.
fn read_frame(r: &mut impl Read, max_frame: u32, buf: &mut Vec<u8>) -> Result<bool, PipelineError> {
    let truncated = |what: String| PipelineError::ProtocolError {
        reason: format!("truncated frame{what}"),
    };
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut header[n..]).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => truncated(" header".into()),
            _ => io_err("read frame header", e),
        })?,
        Err(e) => return Err(io_err("read frame header", e)),
    }
    let len = u32::from_le_bytes(header);
    if len > max_frame {
        return Err(PipelineError::ProtocolError {
            reason: format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        });
    }
    buf.clear();
    buf.reserve(len as usize);
    // Straight into the spare capacity: nothing is zeroed first.
    let got = r.take(u64::from(len)).read_to_end(buf);
    match got.map_err(|e| io_err("read frame payload", e))? {
        n if n == len as usize => Ok(true),
        _ => Err(truncated(format!(": expected {len} payload bytes"))),
    }
}

// ---------------------------------------------------------------------
// The codec: every wire type describes itself once
// ---------------------------------------------------------------------

/// A payload under construction. Encoding never stops half-way; a value
/// that cannot travel records why in `rejected` and [`framed`] reports it.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
    rejected: Option<PipelineError>,
    /// A server reply's `floats` payloads in wire order, each written
    /// straight from the array it is still in; the reply value carries
    /// an empty `Vec` in its place.
    held: VecDeque<Held>,
}

/// A `floats` payload the server writes from an array's own buffer.
type Held = Box<dyn FnOnce(&mut Vec<u8>)>;

/// A cursor over one received payload. `what` names the field being
/// read, for the error a short or malformed frame draws.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
    /// On the server, a request's `floats` payloads stay in the frame:
    /// each decodes as an empty `Vec` and its bytes are listed here, in
    /// wire order, to be copied once, straight into the array it binds.
    held: Option<Vec<&'a [u8]>>,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            what: "opcode",
            held: None,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn short(&self) -> PipelineError {
        PipelineError::ProtocolError {
            reason: format!("malformed frame: ran out of bytes reading {}", self.what),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PipelineError> {
        if n > self.remaining() {
            return Err(self.short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn done(&self) -> Result<(), PipelineError> {
        if self.remaining() != 0 {
            return Err(PipelineError::ProtocolError {
                reason: format!(
                    "malformed frame: {} trailing bytes after the payload",
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

/// A value with one wire form: `put` appends it, `get` reads it back.
/// Lengths read from the peer are checked against the bytes actually
/// present before anything is allocated for them.
trait Wire: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError>;
}

/// A [`Wire`] type that is a whole frame: its opcode leads the payload.
trait Frame: Wire {
    const OP: u8;
}

macro_rules! wire_ints {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the length asked for")))
            }
        }
    )*};
}
wire_ints!(u8, u16, u32, u64, i64, f64);

impl Wire for bool {
    fn put(&self, e: &mut Enc) {
        (*self as u8).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        Ok(u8::get(d)? != 0)
    }
}

/// Length-prefixed UTF-8 (u32 length — sources can be long).
impl Wire for String {
    fn put(&self, e: &mut Enc) {
        (self.len() as u32).put(e);
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        let len = u32::get(d)? as usize;
        let bytes = d.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PipelineError::ProtocolError {
            reason: format!("malformed frame: {} is not valid UTF-8", d.what),
        })
    }
}

/// An array payload: u64 count, then the values, copied in bulk. On the
/// server they skip the `Vec` both ways (see `Enc::held`, `Dec::held`).
impl Wire for Vec<f64> {
    fn put(&self, e: &mut Enc) {
        match e.held.pop_front() {
            Some(held) => {
                debug_assert!(self.is_empty(), "held for an empty list");
                held(&mut e.buf)
            }
            None => {
                let line = Region::rect([1], [self.len() as i64]);
                put_array(line, Layout::RowMajor, self, &mut e.buf)
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        let n = u64::get(d)?;
        // A count claiming more floats than the frame holds is refused
        // before allocating; dividing keeps a hostile count from
        // overflowing the comparison.
        if n > (d.remaining() / 8) as u64 {
            return Err(d.short());
        }
        let bytes = d.take(n as usize * 8)?;
        if let Some(held) = &mut d.held {
            held.push(bytes);
            return Ok(Vec::new());
        }
        let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        Ok(bytes.chunks_exact(8).map(f).collect())
    }
}

/// Presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        bool::get(d)?.then(|| T::get(d)).transpose()
    }
}

/// Success flag, then the value or the error (a `DAG_RESULT` node).
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, e: &mut Enc) {
        self.is_ok().put(e);
        match self {
            Ok(v) => v.put(e),
            Err(err) => err.put(e),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        Ok(if bool::get(d)? {
            Ok(T::get(d)?)
        } else {
            Err(E::get(d)?)
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// What a counted list may hold (everything but the bare `f64` of an
/// array payload, which has its own wider count).
trait Item: Wire {}
impl Item for String {}
impl<A: Wire, B: Wire> Item for (A, B) {}
impl Item for WireDagNode {}

/// A counted list: u16 count, then the items.
impl<T: Item> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        (self.len() as u16).put(e);
        for item in self {
            item.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
        let n = u16::get(d)? as usize;
        // Reserve no more than the frame's remaining bytes, whatever the
        // count claims.
        let fits = d.remaining() / std::mem::size_of::<T>();
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(T::get(d)?);
        }
        Ok(out)
    }
}

/// The coordinates of one `ALLOC` corner: as many as the frame's rank
/// byte says, with no count of their own.
struct Corner<'a>(&'a u8);

impl Corner<'_> {
    fn put(&self, coords: &[i64], e: &mut Enc) {
        for c in coords {
            c.put(e);
        }
    }
    fn get(&self, d: &mut Dec<'_>) -> Result<Vec<i64>, PipelineError> {
        (0..*self.0).map(|_| i64::get(d)).collect()
    }
}

/// Implements [`Wire`] for each struct by listing its fields once, in
/// wire order; a field travels as its own type's wire form, or through
/// the codec a `field: codec` entry names (which may mention the fields
/// listed before it). A leading `op =>` also makes the struct the
/// [`Frame`] of that opcode.
macro_rules! wire_structs {
    (@put $e:ident, $f:ident) => { $f.put($e) };
    (@put $e:ident, $f:ident, $codec:expr) => { $codec.put($f, $e) };
    (@get $d:ident) => { Wire::get($d)? };
    (@get $d:ident, $codec:expr) => { $codec.get($d)? };
    ($($($op:literal =>)? $ty:ident { $($f:ident $(: $codec:expr)?),* $(,)? })*) => {$(
        // A frame with no body touches neither `e` nor `d`; a codec's
        // `&field` is a `&&T` in `put`, where fields are borrowed already.
        #[allow(unused_variables, clippy::needless_borrow)]
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                let $ty { $($f),* } = self;
                $(wire_structs!(@put e, $f $(, $codec)?);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
                $(
                    d.what = stringify!($f);
                    let $f = wire_structs!(@get d $(, $codec)?);
                )*
                Ok($ty { $($f),* })
            }
        }
        $(impl Frame for $ty {
            const OP: u8 = $op;
        })?
    )*};
}

/// `wire_enum!(Type, "what"; tag => { Variant shape } (fields), ..)`
/// implements [`Wire`] for a tagged enum from one two-way table: a `u8`
/// tag, then the variant's fields in wire order. `{ shape }` is both
/// the pattern `put` matches and the expression `get` builds (an
/// `or { pattern }` widens the `put` side only). A field is
/// `name: Type`, or `name as Int` for a `usize` narrowed on the wire;
/// `= expr` makes `put` send `expr` in its place (`Type as this` names
/// the whole value for it), so a name the shape does not bind is a
/// field `get` reads and drops. A closing `; else v => err` refuses to
/// encode the variants not listed.
macro_rules! wire_enum {
    (@pat { $($shape:tt)+ }) => { $($shape)+ };
    (@pat { $($shape:tt)+ } { $($pat:tt)+ }) => { $($pat)+ };
    (@put $e:ident, $f:ident : $t:ty) => { $f.put($e) };
    (@put $e:ident, $f:ident : $t:ty = $v:expr) => { <$t as Wire>::put(&$v, $e) };
    (@put $e:ident, $f:ident as $t:ty) => { (*$f as $t).put($e) };
    (@get $d:ident, : $t:ty) => { <$t as Wire>::get($d)? };
    (@get $d:ident, as $t:ty) => { <$t as Wire>::get($d)? as _ };
    ($ty:ty $(as $this:ident)?, $what:literal;
     $($tag:literal => { $($shape:tt)+ } $(or { $($pat:tt)+ })?
        ($($f:ident $k:tt $t:ty $(= $v:expr)?),*)),+ $(,)?
     $(; else $other:ident => $refusal:expr)?) => {
        impl Wire for $ty {
            #[allow(unused_variables)]
            fn put(&self, e: &mut Enc) {
                $(let $this = self;)?
                match self {
                    $(wire_enum!(@pat { $($shape)+ } $({ $($pat)+ })?) => {
                        e.buf.push($tag);
                        $(wire_enum!(@put e, $f $k $t $(= $v)?);)*
                    })+
                    $($other => {
                        e.rejected.get_or_insert($refusal);
                    })?
                }
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, PipelineError> {
                d.what = $what;
                match u8::get(d)? {
                    $($tag => {
                        $(let $f = wire_enum!(@get d, $k $t);)*
                        Ok($($shape)+)
                    })+
                    tag => Err(PipelineError::ProtocolError {
                        reason: format!("unknown {} {tag}", $what),
                    }),
                }
            }
        }
    };
}

wire_enum! { WireTopology, "topology tag";
    0 => { WireTopology::Line(procs) } (procs as u32),
    1 => { WireTopology::Mesh([rows, cols]) } (rows as u32, cols as u32),
}

wire_enum! { EngineKind, "engine tag";
    0 => { EngineKind::Sim } (),
    1 => { EngineKind::Seq } (),
    2 => { EngineKind::Threads } (),
}

wire_enum! { KernelMode, "kernel-mode tag";
    0 => { KernelMode::Interpreted } (),
    1 => { KernelMode::Lanes } (),
    2 => { KernelMode::Scalar } (),
}

wire_enum! { BlockPolicy, "block-policy tag";
    0 => { BlockPolicy::Fixed(b) } (b as u32),
    1 => { BlockPolicy::Model1 } (),
    2 => { BlockPolicy::Model2 } (),
    3 => { BlockPolicy::FullPortion } ()
    ; else other => PipelineError::InvalidJob {
        reason: format!("block policy {other:?} is host-side only and cannot travel the wire"),
    }
}

wire_enum! { TimeUnit, "time-unit tag";
    0 => { TimeUnit::ModelUnits } (),
    1 => { TimeUnit::Seconds } (),
}

wire_enum! { Layout, "layout tag";
    0 => { Layout::RowMajor } (),
    1 => { Layout::ColMajor } (),
}

wire_enum! { AdmissionReason, "admission-reason tag";
    0 => { AdmissionReason::QueueFull { capacity } } (capacity as u64),
    1 => { AdmissionReason::InFlightLimit { limit } } (limit as u64),
    2 => { AdmissionReason::UnknownTenant } (_limit: u64 = 0),
}

// The `ERROR` body. Admission rejections round-trip exactly (tenant,
// reason and limit), as do the compile, job, handle and loop errors; a
// protocol error travels as its full text, and every error not listed
// travels as code 4 with its text and comes back as `Remote` — the one
// lossy catch-all.
wire_enum! { PipelineError as err, "error code";
    1 => { PipelineError::AdmissionDenied { tenant, reason } }
        (tenant: String, reason: AdmissionReason, _text: String = err.to_string()),
    2 => { PipelineError::ProtocolError { reason } } (reason: String = err.to_string()),
    3 => { PipelineError::CompileRejected { reason } } (reason: String),
    5 => { PipelineError::InvalidJob { reason } } (reason: String),
    6 => { PipelineError::UnknownHandle { id } } (id: u64),
    7 => { PipelineError::HandleConflict { reason } } (reason: String),
    8 => { PipelineError::InvalidLoop { reason } } (reason: String),
    4 => { PipelineError::Remote { message } } or { _ } (message: String = err.to_string()),
}

impl Frame for PipelineError {
    const OP: u8 = 3;
}

/// The frames with no public value type of their own.
struct Hello {
    version: u16,
}
struct StatsReq {}
struct Stats {
    json: String,
}
struct Shutdown {}
struct Ack {}
struct MetricsReq {}
struct Metrics {
    prometheus: String,
    json: String,
}
struct Free {
    id: u64,
}

wire_structs! {
    1 => WireRequest {
        tenant, priority, rank, nest, topology, engine, kernel_mode, block, machine, consts,
        source, arrays, returns, trace_id,
    }
    2 => WireResponse {
        makespan, time_unit, prep_seconds, run_seconds, messages, block, arrays, spans,
    }
    JobTrace {
        trace_id, tenant, start_seconds, admit_seconds, queue_seconds, exec_seconds,
        prep_seconds, run_seconds, drain_seconds, total_seconds,
    }
    4 => StatsReq {}
    5 => Stats { json }
    6 => Shutdown {}
    7 => Ack {}
    8 => WireDagRequest { tenant, scheduler, nodes, trace_id }
    WireDagNode { label, inputs, request }
    9 => WireDagResponse { stats_json, nodes }
    10 => Hello { version }
    11 => MetricsReq {}
    12 => Metrics { prometheus, json }
    13 => WireAllocRequest { rank, lo: Corner(&rank), hi: Corner(&rank), layout, values }
    14 => WireHandle { id, epoch, values }
    15 => WireLoopRequest { request, input_handles, output_handles, steps, rotate, pipelined }
    16 => WireLoopResponse {
        steps_run, fused, chunks, overlap_seconds, busy_seconds, overlap_efficiency,
        final_bindings,
    }
    17 => Free { id }
}

/// A whole frame in `buf`'s capacity, behind the 4-byte length slot
/// [`write_frame`] fills: the opcode, then the value, with `held` written
/// in place of its `floats` (see `Enc::held`) — or why it cannot travel.
fn framed<F: Frame>(f: &F, buf: Vec<u8>, held: VecDeque<Held>) -> Result<Vec<u8>, PipelineError> {
    let mut e = Enc::default();
    (e.buf, e.held) = (buf, held);
    e.buf.clear();
    e.buf.extend_from_slice(&[0, 0, 0, 0, F::OP]);
    f.put(&mut e);
    debug_assert!(e.held.is_empty(), "a held array the reply never wrote");
    e.rejected.map_or(Ok(e.buf), Err)
}

/// The rest of a frame whose opcode has been read: the value, and
/// nothing after it.
fn decode<F: Frame>(d: &mut Dec<'_>) -> Result<F, PipelineError> {
    let frame = F::get(d)?;
    d.done()?;
    Ok(frame)
}

fn error_frame(err: &PipelineError) -> Vec<u8> {
    framed(err, Vec::new(), VecDeque::new()).expect("every error has a wire form")
}

/// The one-byte tag a tagged enum travels as, and back — for the public
/// structs that carry such an enum as a raw `u8`.
fn tag_of(v: &impl Wire) -> u8 {
    let mut e = Enc::default();
    v.put(&mut e);
    e.buf[0]
}

fn from_tag<T: Wire>(tag: u8) -> Result<T, PipelineError> {
    T::get(&mut Dec::new(&[tag]))
}

// ---------------------------------------------------------------------
// Canonical order: how an array's values travel
// ---------------------------------------------------------------------

/// An array's values walked in `walk` order through a buffer stored in
/// `store` order, as runs along the walk's fastest dimension: where each
/// run starts in the buffer (none when the bounds are empty), and the
/// length and buffer step all runs share. Canonical bounds order — the
/// order `floats` travel in — is `Region::iter`'s, that is row-major.
fn runs<const R: usize>(b: Region<R>, walk: Layout, store: Layout) -> (Vec<usize>, usize, usize) {
    let (lo, mut hi, ext) = (b.lo(), b.hi(), b.extents());
    let mut order = LoopStructureOrder::default_for_rank();
    if walk == Layout::ColMajor {
        order.order.reverse();
    }
    let fast = order.order[R - 1];
    let step = match store {
        Layout::RowMajor => ext[fast + 1..].iter().product::<i64>(),
        Layout::ColMajor => ext[..fast].iter().product(),
    };
    hi[fast] = lo[fast];
    let firsts = Region::rect(lo, hi).iter_with(&order).take(b.len());
    let starts = firsts.map(|p| store.offset(b, p)).collect();
    (starts, ext[fast] as usize, step as usize)
}

/// Append the payload of `data`, an array over `bounds` in `layout`
/// order: the count, then the values in canonical order. Writes are in
/// order and reads strided — the cheap way round for a transpose.
fn put_array<const R: usize>(bounds: Region<R>, layout: Layout, data: &[f64], buf: &mut Vec<u8>) {
    let (starts, len, step) = runs(bounds, Layout::RowMajor, layout);
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let from = buf.len();
    buf.resize(from + 8 * data.len(), 0);
    let put = |(b, v): (&mut [u8], &f64)| b.copy_from_slice(&v.to_le_bytes());
    for (out, &at) in buf[from..].chunks_exact_mut(8 * len.max(1)).zip(&starts) {
        let out = out.chunks_exact_mut(8);
        match step {
            1 => out.zip(&data[at..at + len]).for_each(put),
            _ => out.zip(data[at..].iter().step_by(step)).for_each(put),
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The `floats` payloads of one server exchange, in wire order, that its
/// values carry as empty `Vec`s: the request's, still in its frame, and
/// the reply's, still in the arrays they leave from.
#[derive(Default)]
struct Floats<'a> {
    request: std::vec::IntoIter<&'a [u8]>,
    reply: VecDeque<Held>,
}

/// One request answered: decode the rest of the frame as `Q`, run it,
/// encode the `A` it returns into `buf` — a failure at any step is the
/// typed `ERROR` reply instead.
fn answer<'a, Q: Frame, A: Frame>(
    d: &mut Dec<'a>,
    buf: Vec<u8>,
    run: impl FnOnce(Q, &mut Floats<'a>) -> Result<A, PipelineError>,
) -> Vec<u8> {
    let mut io = Floats::default();
    decode(d)
        .and_then(|q| {
            io.request = d.held.take().unwrap_or_default().into_iter();
            run(q, &mut io)
        })
        .and_then(|reply| framed(&reply, buf, io.reply))
        .unwrap_or_else(|e| error_frame(&e))
}

/// Drops a connection's duplicate handle from [`WireServer`]'s list
/// (and any whose socket has already died) when its handler ends —
/// returning or panicking — so the list tracks live connections only.
struct ForgetConn<'a> {
    conns: &'a Mutex<Vec<TcpStream>>,
    peer: Option<std::net::SocketAddr>,
}

impl Drop for ForgetConn<'_> {
    fn drop(&mut self) {
        let Some(peer) = self.peer else { return };
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.retain(|c| match c.peer_addr() {
            Ok(p) => p != peer,
            Err(_) => false,
        });
    }
}

/// A TCP front end over a [`WavefrontService`]: thread-per-connection,
/// non-blocking admission via [`WavefrontService::try_submit`], and a
/// compiled-source LRU so repeated programs skip the front end.
pub struct WireServer<const R: usize> {
    service: Arc<WavefrontService<R>>,
    compiler: Arc<dyn WireCompiler<R>>,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    programs: Mutex<PlanCache>,
    /// Duplicate handles of every live connection, so `SHUTDOWN` can
    /// close idle clients instead of waiting for them to hang up
    /// (handlers prune their own entry on exit).
    conns: Mutex<Vec<TcpStream>>,
}

impl<const R: usize> WireServer<R> {
    /// A server over `service` compiling sources with `compiler`,
    /// default [`ServeConfig`].
    pub fn new(service: Arc<WavefrontService<R>>, compiler: Arc<dyn WireCompiler<R>>) -> Self {
        Self::with_config(service, compiler, ServeConfig::default())
    }

    /// A server with explicit wire knobs.
    pub fn with_config(
        service: Arc<WavefrontService<R>>,
        compiler: Arc<dyn WireCompiler<R>>,
        cfg: ServeConfig,
    ) -> Self {
        WireServer {
            service,
            compiler,
            cfg,
            shutdown: AtomicBool::new(false),
            programs: Mutex::new(PlanCache::new(cfg.program_cache)),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Accept connections on `listener` until a `SHUTDOWN` frame
    /// arrives (when [`ServeConfig::allow_shutdown`] is set). Each
    /// connection gets its own thread; per-connection errors never take
    /// down the accept loop.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        let local = listener.local_addr()?;
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        // Request/response framing: Nagle would hold the
                        // tail of any multi-segment reply hostage to the
                        // peer's delayed ACK (~40 ms worst case).
                        stream.set_nodelay(true).ok();
                        if let Ok(dup) = stream.try_clone() {
                            self.conns.lock().unwrap().push(dup);
                        }
                        scope.spawn(move || self.handle_connection(stream, local));
                    }
                    Err(_) => continue,
                }
            }
        });
        Ok(())
    }

    fn handle_connection(&self, stream: TcpStream, local: std::net::SocketAddr) {
        let _forget = ForgetConn {
            conns: &self.conns,
            peer: stream.peer_addr().ok(),
        };
        self.drive_connection(stream, local);
    }

    fn drive_connection(&self, mut stream: TcpStream, local: std::net::SocketAddr) {
        // One buffer each way, reused by every frame of the connection.
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        loop {
            match read_frame(&mut stream, self.cfg.max_frame, &mut request) {
                Ok(true) => {}
                // Clean hang-up, or transport error: nothing to reply to.
                Ok(false) | Err(PipelineError::Io { .. }) => return,
                Err(e) => {
                    // Typed rejection for protocol violations, then drop
                    // the connection — framing is unrecoverable.
                    let _ = write_frame(&mut stream, &mut error_frame(&e));
                    return;
                }
            }
            let stopping;
            (reply, stopping) = self.respond(&request, std::mem::take(&mut reply));
            let sent = write_frame(&mut stream, &mut reply);
            if stopping {
                // Close every live connection — the accept loop joins
                // all handlers before returning, and an idle client
                // must not be able to hold the server open.
                for c in self.conns.lock().unwrap().drain(..) {
                    let _ = c.shutdown(std::net::Shutdown::Both);
                }
                // Unblock the accept loop with a self-connection.
                let _ = TcpStream::connect(local);
                return;
            }
            if sent.is_err() {
                return;
            }
        }
    }

    /// Answer one request payload with the reply frame, encoded into
    /// `buf`'s capacity, and whether it was a granted `SHUTDOWN`.
    fn respond(&self, request: &[u8], buf: Vec<u8>) -> (Vec<u8>, bool) {
        let mut d = Dec::new(request);
        d.held = Some(Vec::new());
        let mut stopping = false;
        let reply = match u8::get(&mut d) {
            Ok(WireRequest::OP) => answer(&mut d, buf, |q, io| self.run_submit(q, io)),
            Ok(WireDagRequest::OP) => answer(&mut d, buf, |q, io| self.run_submit_dag(q, io)),
            Ok(WireLoopRequest::OP) => answer(&mut d, buf, |q, io| self.run_submit_loop(q, io)),
            Ok(WireAllocRequest::OP) => answer(&mut d, buf, |q, io| {
                self.run_alloc(q, io.request.next().unwrap_or_default())
            }),
            Ok(Free::OP) => answer(&mut d, buf, |q: Free, io| self.run_free(q.id, io)),
            // An equality check: a matching `HELLO` is echoed.
            Ok(Hello::OP) => answer(&mut d, buf, |peer: Hello, _| match peer.version {
                PROTOCOL_VERSION => Ok(peer),
                v => Err(PipelineError::ProtocolError {
                    reason: format!(
                        "client speaks protocol v{v}, this server speaks v{PROTOCOL_VERSION}"
                    ),
                }),
            }),
            Ok(StatsReq::OP) => answer(&mut d, buf, |StatsReq {}, _| {
                Ok(Stats {
                    json: self.service.stats_json(),
                })
            }),
            Ok(MetricsReq::OP) => answer(&mut d, buf, |MetricsReq {}, _| {
                Ok(Metrics {
                    prometheus: self.service.metrics_prometheus(),
                    json: self.service.metrics_json(),
                })
            }),
            Ok(Shutdown::OP) => answer(&mut d, buf, |Shutdown {}, _| {
                if !self.cfg.allow_shutdown {
                    return Err(PipelineError::ProtocolError {
                        reason: "shutdown is not enabled on this server".into(),
                    });
                }
                self.shutdown.store(true, Ordering::SeqCst);
                stopping = true;
                Ok(Ack {})
            }),
            Ok(op) => error_frame(&PipelineError::ProtocolError {
                reason: format!("unknown opcode {op}"),
            }),
            Err(e) => error_frame(&e),
        };
        (reply, stopping)
    }

    /// Compile and bind one submit body into a job under construction
    /// (shared by `SUBMIT`, each `SUBMIT_DAG` node, and the
    /// `SUBMIT_LOOP` body, which add their own edges and handles).
    fn job(&self, req: &WireRequest, io: &mut Floats) -> Result<JobSpecBuilder<R>, PipelineError> {
        if req.rank as usize != R {
            return Err(PipelineError::ProtocolError {
                reason: format!("server serves rank {R}, request is rank {}", req.rank),
            });
        }
        let wire_prog = self.compiled(req)?;
        let nest = self.select_nest(&wire_prog, req.nest)?;

        let arrays = wire_prog.program.arrays().iter();
        let declared = arrays.map(|d| cells(d.bounds.lo(), d.bounds.hi())).fold(0, u128::saturating_add);
        self.price("declaration", declared)?;
        let mut store = Store::new(&wire_prog.program);
        for ((name, _), bytes) in req.arrays.iter().zip(&mut io.request) {
            let arr = store.get_mut(lookup_array(&wire_prog, name)?);
            fill_array(arr, bytes, || format!("array `{name}` payload"))?;
        }
        // Resolve returns up front so an unknown name fails before the
        // job runs.
        for name in &req.returns {
            lookup_array(&wire_prog, name)?;
        }

        let mut builder = JobSpec::builder(Arc::clone(&wire_prog.program), nest)
            .topology(match req.topology {
                WireTopology::Line(procs) => JobTopology::Line {
                    procs,
                    dist_dim: None,
                },
                WireTopology::Mesh(mesh) => JobTopology::Mesh {
                    mesh,
                    wave_dims: None,
                },
            })
            .block(req.block.clone())
            .machine(match req.machine {
                0 => wavefront_machine::cray_t3e(),
                1 => wavefront_machine::sgi_power_challenge(),
                m => {
                    return Err(PipelineError::ProtocolError {
                        reason: format!("unknown machine preset {m}"),
                    })
                }
            })
            .kernel_mode(req.kernel_mode)
            .engine(req.engine)
            .priority(req.priority)
            .store(store);
        if !req.tenant.is_empty() {
            builder = builder.tenant(req.tenant.clone());
        }
        if let Some(id) = req.trace_id {
            builder = builder.trace_id(id);
        }
        Ok(builder)
    }

    /// Refuse a request that would allocate `cells` elements before
    /// anything is allocated, past what one frame could carry home: a
    /// resident array comes home in the `HANDLE` reply to `FREE` (25
    /// bytes of opcode, id, epoch and count, then 8 a value), and no job
    /// may declare more than that in all.
    fn price(&self, what: &str, cells: u128) -> Result<(), PipelineError> {
        let limit = (self.cfg.max_frame.saturating_sub(25) / 8) as u128;
        if cells > limit {
            return Err(PipelineError::InvalidJob {
                reason: format!(
                    "{what} of {cells} elements exceeds the {limit} that fit a {}-byte frame",
                    self.cfg.max_frame
                ),
            });
        }
        Ok(())
    }

    /// Allocate (or import, when the payload carries values) one
    /// resident array and reply with its handle.
    fn run_alloc(&self, req: WireAllocRequest, values: &[u8]) -> Result<WireHandle, PipelineError> {
        if req.rank as usize != R {
            return Err(PipelineError::ProtocolError {
                reason: format!("server serves rank {R}, alloc is rank {}", req.rank),
            });
        }
        let lo: [i64; R] = req.lo.as_slice().try_into().expect("rank just checked");
        let hi: [i64; R] = req.hi.as_slice().try_into().expect("rank just checked");
        self.price("alloc", cells(lo, hi))?;
        let mut arr = DenseArray::with_layout(Region::rect(lo, hi), from_tag(req.layout)?, 0.0);
        if !values.is_empty() {
            fill_array(&mut arr, values, || "alloc payload".into())?;
        }
        let handle = self.service.import(arr);
        Ok(WireHandle {
            id: handle.id(),
            epoch: 0,
            values: Vec::new(),
        })
    }

    /// Retire one resident array, replying with its final epoch and
    /// values — the wire counterpart of
    /// [`WavefrontService::free`], and the only way loop results leave
    /// the server (the `LOOP_RESULT` frame carries bindings, not data).
    fn run_free(&self, id: u64, io: &mut Floats) -> Result<WireHandle, PipelineError> {
        let handle = self.service.lookup_handle(id)?;
        let epoch = self.service.handle_epoch(&handle)?;
        let array = self.service.free(&handle)?;
        io.reply.push_back(hold(array));
        Ok(WireHandle {
            id,
            epoch,
            values: Vec::new(),
        })
    }

    /// Build the body spec over live handles (a stale id is a typed
    /// [`PipelineError::UnknownHandle`]), run the loop through the
    /// service's dispatcher, and marshal the stats + final bindings.
    fn run_submit_loop(
        &self,
        req: WireLoopRequest,
        io: &mut Floats,
    ) -> Result<WireLoopResponse, PipelineError> {
        let mut job = self.job(&req.request, io)?;
        for (name, id) in &req.input_handles {
            job = job.input_handle(name.clone(), &self.service.lookup_handle(*id)?);
        }
        for (name, id) in &req.output_handles {
            job = job.output_handle(name.clone(), &self.service.lookup_handle(*id)?);
        }
        let mut builder = LoopSpec::builder()
            .job(job.build()?)
            .steps(req.steps as usize)
            .pipelined(req.pipelined);
        for (from, to) in &req.rotate {
            builder = builder.rotate(from.clone(), to.clone());
        }
        let out = self.service.submit_loop(builder.build()?).wait()?;
        Ok(WireLoopResponse {
            steps_run: out.steps_run as u64,
            fused: out.stats.fused,
            chunks: out.stats.chunks as u64,
            overlap_seconds: out.stats.overlap_seconds,
            busy_seconds: out.stats.busy_seconds,
            overlap_efficiency: out.stats.overlap_efficiency,
            final_bindings: out
                .final_bindings
                .iter()
                .map(|(name, h)| (name.clone(), h.id()))
                .collect(),
        })
    }

    /// Marshal one job outcome into a reply: its requested arrays are
    /// handed over to `held`, in order, and written from their buffers.
    fn marshal_response(
        mut out: crate::service::JobOutcome<R>,
        returns: &[String],
        held: &mut VecDeque<Held>,
    ) -> Result<WireResponse, PipelineError> {
        let (mut arrays, mut writes) = (Vec::new(), Vec::new());
        for name in returns {
            writes.push(hold(out.take_output(name)?.to_array()));
            arrays.push((name.clone(), Vec::new()));
        }
        // A node that fails part-way holds none of its arrays.
        held.extend(writes);
        Ok(WireResponse {
            makespan: out.outcome.makespan,
            time_unit: out.outcome.time_unit,
            prep_seconds: out.outcome.prep_seconds,
            run_seconds: out.outcome.run_seconds,
            messages: out.outcome.messages as u64,
            block: out.outcome.block as u32,
            arrays,
            spans: out.spans.take(),
        })
    }

    /// Compile (with the source cache), bind arrays, submit through
    /// admission, and wait for the outcome.
    fn run_submit(&self, req: WireRequest, io: &mut Floats) -> Result<WireResponse, PipelineError> {
        let job = self.job(&req, io)?.build()?;
        let out = self.service.try_submit(job).wait()?;
        Self::marshal_response(out, &req.returns, &mut io.reply)
    }

    /// Compile every node, assemble the [`DagSpec`], run it through the
    /// service's DAG runner, and marshal per-node results. Build-time
    /// failures (unknown scheduler, cycle, bad edge) reject the whole
    /// frame; per-node execution failures travel inside the reply.
    fn run_submit_dag(
        &self,
        req: WireDagRequest,
        io: &mut Floats,
    ) -> Result<WireDagResponse, PipelineError> {
        let kind =
            SchedulerKind::from_name(&req.scheduler).ok_or_else(|| PipelineError::InvalidJob {
                reason: format!(
                    "unknown scheduler `{}` (expected fifo, critical-path, or locality)",
                    req.scheduler
                ),
            })?;
        let mut builder = DagSpec::builder();
        builder.scheduler(kind);
        for node in &req.nodes {
            let mut job = self.job(&node.request, io)?;
            if !req.tenant.is_empty() {
                job = job.tenant(req.tenant.clone());
            }
            // A node without its own trace ID inherits the DAG-level one,
            // so one client ID tags every span in the graph.
            if let (None, Some(id)) = (node.request.trace_id, req.trace_id) {
                job = job.trace_id(id);
            }
            for (from, name) in &node.inputs {
                let from = NodeRef {
                    index: *from as usize,
                };
                job = job.input_from(from, name.clone());
            }
            builder.add_labeled(node.label.clone(), job.build()?);
        }
        let outcome = self.service.submit_dag(builder.build()?).wait();
        let stats_json = outcome.stats.to_json();
        let nodes = outcome
            .nodes
            .into_iter()
            .zip(&req.nodes)
            .map(|(node, wire_node)| {
                let result = node.result.and_then(|out| {
                    Self::marshal_response(out, &wire_node.request.returns, &mut io.reply)
                });
                (node.label, result)
            })
            .collect();
        Ok(WireDagResponse { stats_json, nodes })
    }

    /// Fetch or compile the request's source (LRU keyed by source text
    /// plus constant bindings).
    fn compiled(&self, req: &WireRequest) -> Result<Arc<WireProgram<R>>, PipelineError> {
        let mut key: String = req
            .consts
            .iter()
            .map(|(name, v)| format!("{name}={v};"))
            .collect();
        key.push_str(&req.source);
        // A digest prefix keeps the LRU's key comparisons cheap for
        // long sources.
        let key = format!("{:016x}:{key}", fnv1a(key.as_bytes()));
        if let Some(hit) = self.programs.lock().unwrap().get(&key) {
            if let Ok(prog) = hit.downcast::<WireProgram<R>>() {
                return Ok(prog);
            }
        }
        let prog = Arc::new(
            self.compiler
                .compile(&req.source, &req.consts)
                .map_err(|reason| PipelineError::CompileRejected { reason })?,
        );
        self.programs.lock().unwrap().insert(
            key,
            Arc::clone(&prog) as Arc<dyn std::any::Any + Send + Sync>,
        );
        Ok(prog)
    }

    fn select_nest(
        &self,
        prog: &WireProgram<R>,
        index: u16,
    ) -> Result<Arc<CompiledNest<R>>, PipelineError> {
        if index == NEST_AUTO {
            return prog
                .nests
                .iter()
                .filter(|n| n.is_scan)
                .max_by_key(|n| n.region.len())
                .cloned()
                .ok_or_else(|| PipelineError::InvalidJob {
                    reason: "program has no scan nest to pipeline".into(),
                });
        }
        prog.nests
            .get(index as usize)
            .cloned()
            .ok_or_else(|| PipelineError::InvalidJob {
                reason: format!(
                    "nest index {index} out of range (program has {} nests)",
                    prog.nests.len()
                ),
            })
    }
}

/// Copy a held payload into `arr` in one pass (in layout order, reading
/// the payload strided), or refuse one whose count does not match the
/// bounds (`what` names it).
fn fill_array<const R: usize>(
    arr: &mut DenseArray<R>,
    bytes: &[u8],
    what: impl FnOnce() -> String,
) -> Result<(), PipelineError> {
    let (n, want) = (bytes.len() / 8, arr.bounds().len());
    if n != want {
        let reason = format!("{} has {n} values but its bounds hold {want}", what());
        return Err(PipelineError::InvalidJob { reason });
    }
    let (starts, len, step) = runs(arr.bounds(), arr.layout(), Layout::RowMajor);
    let data = arr.as_mut_slice().chunks_exact_mut(len.max(1));
    for (run, &at) in data.zip(&starts) {
        let values = bytes[8 * at..].chunks_exact(8).step_by(step);
        for (v, b) in run.iter_mut().zip(values) {
            *v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
    }
    Ok(())
}

/// An array held for a reply: its payload is written from its buffer.
fn hold<const R: usize>(arr: DenseArray<R>) -> Held {
    Box::new(move |buf: &mut Vec<u8>| put_array(arr.bounds(), arr.layout(), arr.as_slice(), buf))
}

fn lookup_array<const R: usize>(
    prog: &WireProgram<R>,
    name: &str,
) -> Result<ArrayId, PipelineError> {
    prog.arrays
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, id)| id)
        .ok_or_else(|| PipelineError::InvalidJob {
            reason: format!("program declares no array named `{name}`"),
        })
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking client for the wire protocol; one request in flight per
/// connection.
pub struct WireClient<S: Read + Write> {
    stream: S,
    /// Each request is encoded in, and its reply read into, this buffer.
    buf: Vec<u8>,
}

impl WireClient<TcpStream> {
    /// Connect over TCP with the default frame limit.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, PipelineError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).ok();
        Ok(Self::over(stream))
    }
}

impl<S: Read + Write> WireClient<S> {
    /// A client over any transport (used by the tests to run the
    /// protocol over in-memory streams).
    pub fn over(stream: S) -> Self {
        WireClient {
            stream,
            buf: Vec::new(),
        }
    }

    /// Send `frame` and read the reply's payload into its buffer.
    fn roundtrip(&mut self, frame: Vec<u8>) -> Result<&[u8], PipelineError> {
        self.buf = frame;
        write_frame(&mut self.stream, &mut self.buf)?;
        let max_frame = ServeConfig::default().max_frame;
        match read_frame(&mut self.stream, max_frame, &mut self.buf)? {
            true => Ok(&self.buf),
            false => Err(PipelineError::Io {
                context: "server closed the connection before replying".into(),
            }),
        }
    }

    /// One request, one reply: send `request`, then the reply is the
    /// expected frame `A`, or the typed error an `ERROR` frame carries
    /// — the same [`PipelineError`] the in-process API produces.
    fn call<Q: Frame, A: Frame>(&mut self, request: &Q) -> Result<A, PipelineError> {
        let frame = framed(request, std::mem::take(&mut self.buf), VecDeque::new())?;
        let mut d = Dec::new(self.roundtrip(frame)?);
        match u8::get(&mut d)? {
            op if op == A::OP => decode(&mut d),
            PipelineError::OP => Err(decode(&mut d)?),
            op => Err(PipelineError::ProtocolError {
                reason: format!("unexpected reply opcode {op}"),
            }),
        }
    }

    /// Submit one job and wait for its result. Server-side failures
    /// come back as the same typed [`PipelineError`] values the
    /// in-process API produces.
    pub fn submit(&mut self, req: &WireRequest) -> Result<WireResponse, PipelineError> {
        self.call(req)
    }

    /// Submit a whole job graph in one frame and wait for every node.
    /// Graph-level rejections (unknown scheduler, cycle, bad edge)
    /// surface as this call's error; per-node failures come back typed
    /// inside [`WireDagResponse::nodes`].
    pub fn submit_dag(&mut self, req: &WireDagRequest) -> Result<WireDagResponse, PipelineError> {
        self.call(req)
    }

    /// Check that both ends speak [`PROTOCOL_VERSION`] and return it; a
    /// server on another version answers with a typed protocol error
    /// naming both. Optional: every other call works without it.
    pub fn hello(&mut self) -> Result<u16, PipelineError> {
        let ours = Hello {
            version: PROTOCOL_VERSION,
        };
        self.call(&ours).map(|server: Hello| server.version)
    }

    /// Fetch the server's metrics registry as a
    /// `(prometheus_text, json)` pair.
    pub fn metrics(&mut self) -> Result<(String, String), PipelineError> {
        self.call(&MetricsReq {})
            .map(|m: Metrics| (m.prometheus, m.json))
    }

    /// Fetch the server's stats JSON (`{"service": .., "tenants": ..}`).
    pub fn stats(&mut self) -> Result<String, PipelineError> {
        self.call(&StatsReq {}).map(|s: Stats| s.json)
    }

    /// Ask the server to stop accepting connections (requires
    /// [`ServeConfig::allow_shutdown`]).
    pub fn shutdown(&mut self) -> Result<(), PipelineError> {
        self.call(&Shutdown {}).map(|Ack {}| ())
    }

    /// Park an array server-side and get back its resident handle.
    /// Empty `values` allocate zeros. The handle id plugs into
    /// [`WireLoopRequest`] bindings and [`WireClient::free`].
    pub fn alloc(&mut self, req: &WireAllocRequest) -> Result<WireHandle, PipelineError> {
        self.call(req)
    }

    /// Retire a resident array. The reply carries the buffer's final
    /// values and epoch — this is how loop results come home, since
    /// `LOOP_RESULT` frames carry bindings, not data.
    pub fn free(&mut self, id: u64) -> Result<WireHandle, PipelineError> {
        self.call(&Free { id })
    }

    /// Run a time-stepping loop over server-resident arrays and wait
    /// for its stats. Server-side failures — a stale handle, an invalid
    /// loop shape, a conflict — come back as the same typed
    /// [`PipelineError`] values the in-process API produces.
    pub fn submit_loop(
        &mut self,
        req: &WireLoopRequest,
    ) -> Result<WireLoopResponse, PipelineError> {
        self.call(req)
    }

    /// Send raw bytes as one frame and read back one frame — the tests'
    /// hook for malformed-payload injection.
    pub fn raw_frame(&mut self, payload: &[u8]) -> Result<Vec<u8>, PipelineError> {
        self.roundtrip([&[0; 4], payload].concat())
            .map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, System};
    use std::cell::Cell;
    use std::fmt::Debug;

    use wavefront_core::expr::Expr;
    use wavefront_kernels::rng::SplitMix64;

    use super::*;

    thread_local! {
        /// Bytes this thread has asked the allocator for.
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    /// The system allocator, counting per thread what is asked of it, so
    /// the fuzz test can bound what one decode allocates.
    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the counter is a plain
    // thread-local `Cell` with no destructor and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
            // SAFETY: the caller's obligations are passed through as given.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    fn sample_request() -> WireRequest {
        WireRequest {
            tenant: "acme".into(),
            priority: 3,
            rank: 2,
            nest: NEST_AUTO,
            topology: WireTopology::Mesh([2, 3]),
            engine: EngineKind::Seq,
            kernel_mode: KernelMode::Scalar,
            block: BlockPolicy::Fixed(7),
            machine: 1,
            consts: vec![("n".into(), 32)],
            source: "var a : [1..n] float;".into(),
            arrays: vec![("a".into(), vec![1.0, -2.5, f64::NAN])],
            returns: vec!["a".into()],
            trace_id: Some(0xDEAD_BEEF_CAFE),
        }
    }

    /// The defaults, no trace ID, and the tags `sample_request` leaves out.
    fn plain_request() -> WireRequest {
        let mut req = WireRequest::new(2, "[1..n] a := a'@north;");
        req.engine = EngineKind::Sim;
        req.kernel_mode = KernelMode::Interpreted;
        req.block = BlockPolicy::Model1;
        req
    }

    fn sample_trace() -> JobTrace {
        JobTrace {
            trace_id: Some(0xDEAD_BEEF_CAFE),
            tenant: "acme".into(),
            start_seconds: 1.5,
            admit_seconds: 0.001,
            queue_seconds: 0.002,
            exec_seconds: 0.25,
            prep_seconds: 0.05,
            run_seconds: 0.2,
            drain_seconds: 0.0005,
            total_seconds: 0.2535,
        }
    }

    fn sample_response(spans: Option<JobTrace>) -> WireResponse {
        WireResponse {
            makespan: 12.5,
            time_unit: TimeUnit::Seconds,
            prep_seconds: 0.1,
            run_seconds: 0.4,
            messages: 9,
            block: 4,
            arrays: vec![("phi".into(), vec![1.0, 2.0])],
            spans,
        }
    }

    fn dependency_failed() -> PipelineError {
        PipelineError::DependencyFailed {
            producer: "first".into(),
            error: Box::new(PipelineError::InvalidJob {
                reason: "boom".into(),
            }),
        }
    }

    /// A frame's payload alone, without the length slot: the form the
    /// golden file and the fuzz corpus hold.
    fn encode<F: Frame>(frame: &F) -> Result<Vec<u8>, PipelineError> {
        let mut payload = framed(frame, Vec::new(), VecDeque::new())?;
        payload.drain(..4);
        Ok(payload)
    }

    /// One frame read into a buffer of its own.
    fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, PipelineError> {
        let mut buf = Vec::new();
        Ok(super::read_frame(r, max_frame, &mut buf)?.then_some(buf))
    }

    /// Encode, check the opcode, decode.
    fn roundtrip<F: Frame>(value: &F) -> F {
        let frame = encode(value).expect("encodes");
        let mut d = Dec::new(&frame);
        assert_eq!(u8::get(&mut d).unwrap(), F::OP);
        decode(&mut d).expect("decodes")
    }

    fn submit_from(frame: &[u8]) -> Result<WireRequest, PipelineError> {
        let mut d = Dec::new(frame);
        let _ = u8::get(&mut d);
        decode(&mut d)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// `wire_golden.txt`: one `name hex` line per frame, every opcode,
    /// with and without trace IDs and spans, printed by the encoder of
    /// the last commit that still carried the v1–v3 layouts, at v4.
    fn golden() -> Vec<(&'static str, Vec<u8>)> {
        include_str!("wire_golden.txt")
            .lines()
            .map(|line| {
                let (name, hex) = line.split_once(' ').expect("name, space, hex");
                (name, unhex(hex))
            })
            .collect()
    }

    /// The frame called `name` must be what `value` encodes to, byte for
    /// byte, and decode to a value that prints like `back` (`Debug`
    /// equality, so NaN payloads compare equal to themselves).
    fn pin_lossy<F: Frame + Debug>(name: &str, value: &F, back: &F) {
        let golden = golden();
        let (_, want) = golden
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden frame called {name}"));
        assert_eq!(
            &encode(value).expect("encodes"),
            want,
            "{name}: bytes moved"
        );
        let mut d = Dec::new(want);
        assert_eq!(u8::get(&mut d).unwrap(), F::OP, "{name}: opcode");
        let got: F = decode(&mut d).unwrap_or_else(|e| panic!("{name} must decode: {e}"));
        assert_eq!(
            format!("{got:?}"),
            format!("{back:?}"),
            "{name}: decoded value"
        );
    }

    fn pin<F: Frame + Debug>(name: &str, value: &F) {
        pin_lossy(name, value, value);
    }

    /// The frames with no public type print as the bytes they encode to.
    macro_rules! debug_as_bytes {
        ($($ty:ty),*) => {$(
            impl Debug for $ty {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "{:?}", encode(self))
                }
            }
        )*};
    }
    debug_as_bytes!(Hello, StatsReq, Stats, Shutdown, Ack, MetricsReq, Metrics, Free);

    #[test]
    fn golden_frames_pin_the_layout() {
        pin("submit_traced", &sample_request());
        pin("submit_plain", &plain_request());
        let mut full = plain_request();
        full.engine = EngineKind::Threads;
        full.block = BlockPolicy::FullPortion;
        pin("submit_full_portion", &full);

        pin("result_spans", &sample_response(Some(sample_trace())));
        let mut untraced = sample_trace();
        untraced.trace_id = None;
        pin("result_spans_no_id", &sample_response(Some(untraced)));
        let mut bare = sample_response(None);
        bare.time_unit = TimeUnit::ModelUnits;
        pin("result_bare", &bare);

        let denied = |tenant: &str, reason| PipelineError::AdmissionDenied {
            tenant: tenant.into(),
            reason,
        };
        pin(
            "error_queue_full",
            &denied("acme", AdmissionReason::QueueFull { capacity: 8 }),
        );
        pin(
            "error_in_flight",
            &denied("acme", AdmissionReason::InFlightLimit { limit: 2 }),
        );
        pin(
            "error_unknown_tenant",
            &denied("ghost", AdmissionReason::UnknownTenant),
        );
        // A protocol error travels as its full text, so it gains the
        // "wire protocol violation: " prefix once per hop.
        let protocol = PipelineError::ProtocolError {
            reason: "unknown opcode 42".into(),
        };
        pin_lossy(
            "error_protocol",
            &protocol,
            &PipelineError::ProtocolError {
                reason: protocol.to_string(),
            },
        );
        pin(
            "error_compile",
            &PipelineError::CompileRejected {
                reason: "line 3: expected `;`".into(),
            },
        );
        // The lossy catch-all: unlisted errors come back as `Remote`.
        let remote = |err: &PipelineError| PipelineError::Remote {
            message: err.to_string(),
        };
        pin_lossy(
            "error_catch_all",
            &dependency_failed(),
            &remote(&dependency_failed()),
        );
        let relayed = PipelineError::Remote {
            message: "engine panicked: oops".into(),
        };
        pin_lossy("error_remote", &relayed, &remote(&relayed));
        pin(
            "error_invalid_job",
            &PipelineError::InvalidJob {
                reason: "a line topology needs at least one processor".into(),
            },
        );
        pin(
            "error_unknown_handle",
            &PipelineError::UnknownHandle { id: 99 },
        );
        pin(
            "error_handle_conflict",
            &PipelineError::HandleConflict {
                reason: "handle #7 is checked out by a job in flight".into(),
            },
        );
        pin(
            "error_invalid_loop",
            &PipelineError::InvalidLoop {
                reason: "a loop needs at least one step".into(),
            },
        );

        pin("stats_req", &StatsReq {});
        pin(
            "stats",
            &Stats {
                json: "{\"service\":{},\"tenants\":[]}".into(),
            },
        );
        pin("shutdown", &Shutdown {});
        pin("ok", &Ack {});
        pin("hello", &Hello { version: 4 });
        pin("metrics_req", &MetricsReq {});
        pin(
            "metrics",
            &Metrics {
                prometheus: "# TYPE wavefront_jobs_submitted_total counter\n\
                             wavefront_jobs_submitted_total 1\n"
                    .into(),
                json: "{\"histograms\":[]}".into(),
            },
        );

        let node = |label: &str, request: WireRequest, inputs: Vec<(u32, String)>| WireDagNode {
            label: label.into(),
            request,
            inputs,
        };
        pin(
            "submit_dag_traced",
            &WireDagRequest {
                tenant: "acme".into(),
                scheduler: "locality".into(),
                nodes: vec![
                    node("first", sample_request(), vec![]),
                    node("second", plain_request(), vec![(0, "a".into())]),
                ],
                trace_id: Some(77),
            },
        );
        pin(
            "submit_dag_plain",
            &WireDagRequest {
                tenant: String::new(),
                scheduler: "fifo".into(),
                nodes: vec![node("only", plain_request(), vec![])],
                trace_id: None,
            },
        );
        let dag_result = |second| WireDagResponse {
            stats_json: "{\"nodes\":3}".into(),
            nodes: vec![
                ("first".into(), Ok(sample_response(Some(sample_trace())))),
                ("second".into(), Err(second)),
                ("third".into(), Ok(sample_response(None))),
            ],
        };
        pin_lossy(
            "dag_result",
            &dag_result(dependency_failed()),
            &dag_result(remote(&dependency_failed())),
        );

        pin(
            "alloc_values",
            &WireAllocRequest::col_major(vec![0, -3], vec![7, 4], vec![1.5, -2.25, f64::NAN]),
        );
        pin(
            "alloc_zeros",
            &WireAllocRequest {
                rank: 1,
                lo: vec![1],
                hi: vec![8],
                layout: 0,
                values: Vec::new(),
            },
        );
        pin(
            "handle",
            &WireHandle {
                id: 42,
                epoch: 7,
                values: vec![0.5, 0.25],
            },
        );
        pin(
            "handle_empty",
            &WireHandle {
                id: 1,
                epoch: 0,
                values: vec![],
            },
        );
        pin(
            "submit_loop_traced",
            &WireLoopRequest {
                request: sample_request(),
                input_handles: vec![("load".into(), 3)],
                output_handles: vec![("next".into(), 1), ("curr".into(), 2)],
                steps: 12,
                rotate: vec![
                    ("next".into(), "curr".into()),
                    ("curr".into(), "next".into()),
                ],
                pipelined: false,
            },
        );
        pin(
            "submit_loop_plain",
            &WireLoopRequest {
                request: plain_request(),
                input_handles: vec![],
                output_handles: vec![("a".into(), 5)],
                steps: 1,
                rotate: vec![],
                pipelined: true,
            },
        );
        pin(
            "loop_result",
            &WireLoopResponse {
                steps_run: 40,
                fused: true,
                chunks: 5,
                overlap_seconds: 0.125,
                busy_seconds: 0.5,
                overlap_efficiency: 0.25,
                final_bindings: vec![("next".into(), 2), ("curr".into(), 1)],
            },
        );
        pin(
            "free",
            &Free {
                id: 0x0102_0304_0506_0708,
            },
        );
    }

    #[test]
    fn truncated_submit_is_a_typed_protocol_error() {
        let frame = encode(&sample_request()).unwrap();
        for cut in [1, 5, frame.len() / 2, frame.len() - 1] {
            let err = submit_from(&frame[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, PipelineError::ProtocolError { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode(&sample_request()).unwrap();
        frame.extend_from_slice(&[0xAB; 3]);
        let err = submit_from(&frame).expect_err("trailing bytes must fail");
        assert!(matches!(err, PipelineError::ProtocolError { .. }));
    }

    #[test]
    fn host_only_block_policies_refuse_to_encode() {
        let mut req = sample_request();
        req.block = BlockPolicy::Probe(vec![1, 2]);
        assert!(matches!(
            encode(&req),
            Err(PipelineError::InvalidJob { .. })
        ));
    }

    #[test]
    fn typed_errors_roundtrip_exactly() {
        for err in [
            PipelineError::AdmissionDenied {
                tenant: "acme".into(),
                reason: AdmissionReason::QueueFull { capacity: 8 },
            },
            PipelineError::AdmissionDenied {
                tenant: "acme".into(),
                reason: AdmissionReason::InFlightLimit { limit: 0 },
            },
            PipelineError::AdmissionDenied {
                tenant: "acme".into(),
                reason: AdmissionReason::UnknownTenant,
            },
            PipelineError::UnknownHandle { id: 99 },
            PipelineError::HandleConflict {
                reason: "handle #7 is checked out by a job in flight".into(),
            },
            PipelineError::InvalidLoop {
                reason: "a loop needs at least one step".into(),
            },
        ] {
            assert_eq!(roundtrip(&err), err);
        }
    }

    #[test]
    fn hostile_float_counts_are_refused_before_allocation() {
        // A HANDLE frame claiming 2^61 values: 2^61 * 8 wraps to zero, so
        // the count must be checked by division, not multiplication.
        for count in [1u64 << 61, u64::MAX, 3] {
            let mut frame = vec![WireHandle::OP];
            frame.extend_from_slice(&[0; 16]);
            frame.extend_from_slice(&count.to_le_bytes());
            frame.extend_from_slice(&[0; 16]);
            let mut d = Dec::new(&frame);
            let _ = u8::get(&mut d);
            let err = decode::<WireHandle>(&mut d).expect_err("count exceeds the frame");
            assert!(
                matches!(err, PipelineError::ProtocolError { .. }),
                "{count}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let err =
            read_frame(&mut huge.as_slice(), 1024).expect_err("oversized frame must be refused");
        assert!(matches!(err, PipelineError::ProtocolError { .. }));
    }

    /// Decode a whole frame as the type its opcode names and encode it
    /// again — what either end does with a frame it is sent.
    fn reencode(frame: &[u8]) -> Result<Vec<u8>, PipelineError> {
        fn via<F: Frame>(d: &mut Dec<'_>) -> Result<Vec<u8>, PipelineError> {
            encode(&decode::<F>(d)?)
        }
        let mut d = Dec::new(frame);
        match u8::get(&mut d)? {
            WireRequest::OP => via::<WireRequest>(&mut d),
            WireResponse::OP => via::<WireResponse>(&mut d),
            PipelineError::OP => via::<PipelineError>(&mut d),
            StatsReq::OP => via::<StatsReq>(&mut d),
            Stats::OP => via::<Stats>(&mut d),
            Shutdown::OP => via::<Shutdown>(&mut d),
            Ack::OP => via::<Ack>(&mut d),
            WireDagRequest::OP => via::<WireDagRequest>(&mut d),
            WireDagResponse::OP => via::<WireDagResponse>(&mut d),
            Hello::OP => via::<Hello>(&mut d),
            MetricsReq::OP => via::<MetricsReq>(&mut d),
            Metrics::OP => via::<Metrics>(&mut d),
            WireAllocRequest::OP => via::<WireAllocRequest>(&mut d),
            WireHandle::OP => via::<WireHandle>(&mut d),
            WireLoopRequest::OP => via::<WireLoopRequest>(&mut d),
            WireLoopResponse::OP => via::<WireLoopResponse>(&mut d),
            Free::OP => via::<Free>(&mut d),
            op => Err(PipelineError::ProtocolError {
                reason: format!("unknown opcode {op}"),
            }),
        }
    }

    /// Seeded mutation fuzz over the golden corpus (every opcode, both
    /// directions): each mutant must decode to a typed error or to a
    /// value that encodes again, without panicking, and without a length
    /// field buying more memory than the frame's own bytes account for.
    #[test]
    fn mutated_frames_never_panic_or_over_allocate() {
        let corpus = golden();
        let mut rng = SplitMix64::new(0x5EED_0F0A_11F4_A3E5);
        let mut mutants: Vec<Vec<u8>> = Vec::new();
        for (_, frame) in &corpus {
            // Every position overwritten with each hostile length.
            for at in 1..frame.len() {
                for hostile in [
                    &[0xFF; 2][..],
                    &[0xFF; 4],
                    &[0xFF; 8],
                    &(1u64 << 61).to_le_bytes(),
                ] {
                    let mut m = frame.clone();
                    let end = (at + hostile.len()).min(m.len());
                    m[at..end].copy_from_slice(&hostile[..end - at]);
                    mutants.push(m);
                }
            }
            // Random truncations, extensions and byte flips.
            for _ in 0..120 {
                let mut m = frame.clone();
                match rng.gen_range(3) {
                    0 => m.truncate(rng.gen_range(m.len())),
                    1 => m.extend((0..1 + rng.gen_range(16)).map(|_| rng.next_u64() as u8)),
                    _ => {
                        for _ in 0..1 + rng.gen_range(3) {
                            let at = rng.gen_range(m.len());
                            m[at] ^= 1 + rng.gen_range(255) as u8;
                        }
                    }
                }
                mutants.push(m);
            }
        }
        assert!(mutants.len() >= 10_000, "only {} mutants", mutants.len());

        let (mut decoded, mut refused) = (0usize, 0usize);
        for m in &mutants {
            let before = ALLOCATED.get();
            let outcome = reencode(m);
            let allocated = ALLOCATED.get() - before;
            // In memory a list item costs more than its bytes on the wire
            // (a `String` header is 24 bytes, an empty one travels as 4)
            // and a growing `Vec` doubles; 16x covers both, and is a
            // ceiling no claimed count can move. Re-encoding and the
            // error text fit the constant.
            let ceiling = 16 * m.len() + 1024;
            assert!(
                allocated <= ceiling,
                "a {}-byte frame made the codec allocate {allocated} bytes: {m:02x?}",
                m.len()
            );
            match outcome {
                Ok(_) => decoded += 1,
                Err(PipelineError::ProtocolError { .. }) => refused += 1,
                Err(other) => panic!("a malformed frame must be a protocol error, got {other:?}"),
            }
        }
        assert!(
            decoded > 0 && refused > 0,
            "{decoded} decoded, {refused} refused"
        );
    }

    /// A connection handler that panics still drops its socket's
    /// duplicate from the server's list: the guard runs on the unwind.
    #[test]
    fn a_panicking_handler_forgets_its_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conns = Mutex::new(vec![stream.try_clone().unwrap()]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _forget = ForgetConn {
                conns: &conns,
                peer: stream.peer_addr().ok(),
            };
            panic!("the handler dies mid-request");
        }));
        assert!(unwound.is_err());
        assert!(
            conns.lock().unwrap().is_empty(),
            "the dead handler's socket stayed listed"
        );
        drop(client);
    }

    /// The per-point codec this file used before payloads crossed in
    /// bulk: the oracle the strided copy is checked against.
    fn to_canonical<const R: usize>(arr: &DenseArray<R>) -> Vec<f64> {
        arr.bounds().iter().map(|p| arr.get(p)).collect()
    }

    fn fill_canonical<const R: usize>(arr: &mut DenseArray<R>, values: &[f64]) {
        for (p, &v) in arr.bounds().iter().zip(values.iter()) {
            arr.set(p, v);
        }
    }

    /// One value per float with its own `put`: the byte oracle.
    fn per_float(values: &[f64]) -> Vec<u8> {
        let mut e = Enc::default();
        (values.len() as u64).put(&mut e);
        values.iter().for_each(|v| v.put(&mut e));
        e.buf
    }

    /// Floats whose bits a conversion could disturb — NaNs with
    /// payloads and both signs, −0.0, subnormals, infinities — mixed
    /// with seeded ordinary values.
    fn awkward(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
        let odd = [
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF4_0000_DEAD_BEEF),
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::NEG_INFINITY,
        ];
        (0..n)
            .map(|i| match odd.get(i % 11) {
                Some(&v) => v,
                None => f64::from_bits(rng.next_u64()),
            })
            .collect()
    }

    /// The bulk codec against the per-point oracle over one region, both
    /// layouts: the bytes a held array writes, the bytes a client list
    /// writes and the values it reads back, and the buffer a payload
    /// fills — all bit for bit.
    fn bulk_matches_per_point<const R: usize>(bounds: Region<R>, rng: &mut SplitMix64) {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let values = awkward(bounds.len(), rng);
            let mut want = DenseArray::with_layout(bounds, layout, 0.0);
            fill_canonical(&mut want, &values);
            let bytes = per_float(&to_canonical(&want));

            let mut held = Vec::new();
            hold(want.clone())(&mut held);
            assert_eq!(held, bytes, "{bounds} {layout:?}: a held array's bytes");
            let mut e = Enc::default();
            values.put(&mut e);
            assert_eq!(e.buf, bytes, "{bounds} {layout:?}: a client list's bytes");
            let back = Vec::<f64>::get(&mut Dec::new(&bytes)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "{bounds} {layout:?}: read back");

            let mut got = DenseArray::with_layout(bounds, layout, 7.0);
            fill_array(&mut got, &bytes[8..], || "payload".into()).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(want.as_slice()),
                "{bounds} {layout:?}"
            );
            if !values.is_empty() {
                let short = fill_array(&mut got, &bytes[16..], || "payload".into());
                assert!(matches!(short, Err(PipelineError::InvalidJob { .. })));
            }
        }
    }

    #[test]
    fn the_bulk_codec_matches_the_per_point_one() {
        // Negative, zero and positive lower corners, empty regions, and
        // (column-major) 8-run tiles with and without a remainder.
        let mut rng = SplitMix64::new(0xB0_1C_C0_DE);
        for (lo, hi) in [(-3, 4), (0, 0), (2, 9), (5, 4)] {
            bulk_matches_per_point(Region::rect([lo], [hi]), &mut rng);
        }
        for (lo, hi) in [
            ([-2, 0], [3, 6]),
            ([0, 0], [0, 4]),
            ([1, 5], [7, 5]),
            ([1, 1], [0, 3]),
            ([-9, 2], [9, 7]),
            ([0, -4], [15, 0]),
        ] {
            bulk_matches_per_point(Region::rect(lo, hi), &mut rng);
        }
        for (lo, hi) in [
            ([-1, 0, 2], [2, 3, 6]),
            ([0, 0, 0], [4, 0, 2]),
            ([3, 3, 3], [2, 5, 5]),
            ([-5, 1, 0], [12, 1, 3]),
            ([0, -1, -1], [9, 2, 1]),
        ] {
            bulk_matches_per_point(Region::rect(lo, hi), &mut rng);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_payload_past_the_u32_length_is_refused_not_wrapped() {
        // `write_frame` asks `frame_len` before it writes a byte, so the
        // check needs only a length, not a 4 GiB payload.
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        for len in [u32::MAX as usize + 1, usize::MAX] {
            let err = frame_len(len).expect_err("a length the prefix cannot carry");
            assert!(
                matches!(err, PipelineError::ProtocolError { .. }),
                "{err:?}"
            );
        }
    }

    /// Compiles every source to the paper's Figure 3 scan over `[1..n]²`
    /// (default n = 5), column-major like the `.wf` front end:
    /// `a := 2·a'@north` below row 1.
    struct Fig3;

    impl WireCompiler<2> for Fig3 {
        fn compile(&self, _: &str, consts: &[(String, i64)]) -> Result<WireProgram<2>, String> {
            let n = consts.iter().find(|(k, _)| k == "n").map_or(5, |c| c.1);
            let mut p = Program::new();
            let a = p.array_with_layout("a", Region::rect([1, 1], [n, n]), Layout::ColMajor);
            let north = Expr::read_primed_at(a, [-1, 0]);
            p.stmt(Region::rect([2, 1], [n, n]), a, Expr::lit(2.0) * north);
            let nests = wavefront_core::exec::compile(&p).map_err(|e| e.to_string())?;
            Ok(WireProgram {
                nests: nests.nests().map(|n| Arc::new(n.clone())).collect(),
                program: Arc::new(p),
                arrays: vec![("a".into(), a)],
            })
        }
    }

    fn fig3_server(max_frame: u32) -> WireServer<2> {
        let cfg = ServeConfig {
            max_frame,
            ..ServeConfig::default()
        };
        WireServer::with_config(Arc::new(WavefrontService::new()), Arc::new(Fig3), cfg)
    }

    /// The payload of the reply `server` sends to `request`.
    fn served<F: Frame>(server: &WireServer<2>, request: &F) -> Vec<u8> {
        let (mut reply, _) = server.respond(&encode(request).unwrap(), Vec::new());
        reply.drain(..4);
        reply
    }

    fn reply_as<F: Frame>(reply: &[u8]) -> Result<F, PipelineError> {
        let mut d = Dec::new(reply);
        match u8::get(&mut d)? {
            PipelineError::OP => Err(decode(&mut d)?),
            op => {
                assert_eq!(op, F::OP);
                decode(&mut d)
            }
        }
    }

    /// The largest `ALLOC` a server accepts comes home in a `FREE` reply
    /// that fits its frame limit; one cell more is refused up front.
    #[test]
    fn the_alloc_cap_leaves_room_for_the_free_reply_header() {
        let max_frame = 1024;
        let server = fig3_server(max_frame);
        let alloc = |cells| WireAllocRequest {
            rank: 2,
            lo: vec![1, 1],
            hi: vec![1, cells],
            layout: 1,
            values: Vec::new(),
        };
        let mut cells = 1;
        while reply_as::<WireHandle>(&served(&server, &alloc(cells + 1))).is_ok() {
            cells += 1;
        }
        let handle: WireHandle = reply_as(&served(&server, &alloc(cells))).unwrap();
        let free = served(&server, &Free { id: handle.id });
        let back: WireHandle = reply_as(&free).unwrap();
        assert_eq!(back.values.len() as i64, cells);
        assert!(free.len() <= max_frame as usize, "{} bytes", free.len());
        assert!(free.len() + 8 > max_frame as usize, "the cap wastes room");
        let refused = reply_as::<WireHandle>(&served(&server, &alloc(cells + 1)));
        assert!(
            matches!(refused, Err(PipelineError::InvalidJob { .. })),
            "{refused:?}"
        );
    }

    /// A transport that answers every request with one canned reply
    /// frame and swallows what it is sent, allocating nothing itself.
    struct Canned {
        reply: Vec<u8>,
        at: usize,
    }

    impl Read for Canned {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.reply.len() - self.at);
            buf[..n].copy_from_slice(&self.reply[self.at..self.at + n]);
            self.at = (self.at + n) % self.reply.len();
            Ok(n)
        }
    }

    impl Write for Canned {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Bytes one warm `SUBMIT` of a 65,536-element array asks of the
    /// allocator, on each side. The only large allocation left is the
    /// one that must hold the values: the client's returned array, the
    /// server's job store. The per-float codec that came before took
    /// 3,145,906 bytes on the client thread and 4,195,287 on the
    /// handling thread (not counting the frame it read into a fresh
    /// buffer).
    #[test]
    fn a_warm_submit_allocates_one_array_per_side() {
        const N: i64 = 256;
        let one_array = (N * N * 8) as usize;
        let ceiling = one_array + 16 * 1024;
        let server = fig3_server(ServeConfig::default().max_frame);
        let mut req = WireRequest::new(2, "fig3");
        req.consts = vec![("n".into(), N)];
        req.engine = EngineKind::Seq;
        req.arrays = vec![("a".into(), (0..N * N).map(|i| i as f64).collect())];
        req.returns = vec!["a".into()];
        let request = encode(&req).unwrap();

        let mut buf = Vec::new();
        let mut handled = Vec::new();
        for _ in 0..3 {
            let before = ALLOCATED.get();
            (buf, _) = server.respond(&request, buf);
            handled.push(ALLOCATED.get() - before);
        }
        let reply: WireResponse = reply_as(&buf[4..]).unwrap();
        assert_eq!(reply.arrays[0].1.len(), one_array / 8);

        let mut canned = Vec::new();
        write_frame(&mut canned, &mut buf).unwrap();
        let mut client = WireClient::over(Canned {
            reply: canned,
            at: 0,
        });
        let mut sent = Vec::new();
        for _ in 0..3 {
            let before = ALLOCATED.get();
            let got = client.submit(&req).unwrap();
            sent.push(ALLOCATED.get() - before);
            assert_eq!(got.arrays[0].1.len(), one_array / 8);
        }
        for (side, bytes) in [("handling", handled[2]), ("client", sent[2])] {
            assert!(
                (one_array..=ceiling).contains(&bytes),
                "a warm submit allocated {bytes} bytes on the {side} thread (one array is {one_array})"
            );
        }
    }
}
