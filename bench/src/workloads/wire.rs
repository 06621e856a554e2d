//! `wire_jobs`: a `WireServer` with the `LangCompiler` on loopback in
//! this process, driven by two closed-loop `WireClient` connections.
//! One op is a `submit` round trip of fig3 `.wf` source with n = 256 —
//! 512 KB of array in, 512 KB back, 65 k grid points — including the
//! decode of `RESULT`. Marshalling dominates (≈ 3 ms per op for ≈ 0.3 ms
//! of compute); underneath sits the same service core as `jobs_small`,
//! so a wire-only change must move this workload and leave that one
//! still. Callers wait for their reply, hence the closed loop.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use wavefront::core::prelude::{DenseArray, Layout, Region};
use wavefront::pipeline::{
    EngineKind, JobTrace, ServeConfig, WavefrontService, WireClient, WireRequest, WireServer,
    WireTopology,
};
use wavefront::serve::LangCompiler;

use super::jobs::record_job_traces;
use super::{
    measure_rounds, record_service_stats, record_window, start_service, Outcome, SetupClock,
    TRACED_WINDOW_SHARE,
};
use crate::cases::{bits_eq, Case, Kind, FIG3_SOURCE};
use crate::drive::{run_sliced, Config, Sliced};
use crate::floors;
use crate::host::{GENERATORS, PROCS};
use crate::metrics::Layers;
use crate::probe::{probe_case, record_cases, record_host};
use crate::spans::Spans;
use crate::stats::{median, median_or_zero, quantile};

const N: usize = 256;

/// Warm-up round trips per engine in set-up, each checked against the
/// floor; sized so that set-up takes at least a quarter second.
const WARMUPS: usize = 60;

/// The transport a client runs over: a socket, or a metered one.
trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// Byte and blocked-time counts of one connection (statistics only, so
/// relaxed ordering).
#[derive(Default)]
struct Meter {
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    write_ns: AtomicU64,
    read_ns: AtomicU64,
}

impl Meter {
    fn take(&self) -> [u64; 4] {
        [
            &self.bytes_out,
            &self.bytes_in,
            &self.write_ns,
            &self.read_ns,
        ]
        .map(|c| c.swap(0, Ordering::Relaxed))
    }
}

/// A socket that counts what crosses it and how long each call blocked.
struct Metered {
    inner: TcpStream,
    meter: Arc<Meter>,
}

impl Read for Metered {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.read(buf)?;
        self.meter
            .read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.meter.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Metered {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.write(buf)?;
        self.meter
            .write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.meter.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One traced round trip.
struct Trip {
    secs: f64,
    bytes_out: u64,
    bytes_in: u64,
    /// Seconds blocked inside socket `write` + `read`.
    blocked: f64,
    server: Option<JobTrace>,
}

struct Conn {
    client: WireClient<Box<dyn Stream>>,
    meter: Option<Arc<Meter>>,
    trips: Vec<Trip>,
}

struct Wire {
    case: Case,
    addr: std::net::SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    service: Arc<WavefrontService<2>>,
    /// `[T, S]` requests: the same frame but for the engine byte.
    requests: [WireRequest; 2],
    /// The floor's result in the wire's canonical (bounds) order.
    expected: Vec<f64>,
    floor: Vec<Vec<f64>>,
    start_ms: f64,
}

/// An array's values in canonical bounds order, as the wire carries them.
fn canonical(bounds: Region<2>, layout: Layout, values: Vec<f64>) -> Vec<f64> {
    let arr = DenseArray::from_shared(bounds, layout, Arc::new(values));
    bounds.iter().map(|p| arr.get(p)).collect()
}

impl Wire {
    fn setup(seed: u64) -> crate::Result<(Wire, f64)> {
        let mut clock = SetupClock::start();
        let case = Case::build(Kind::Fig3, N, seed);
        let t0 = Instant::now();
        let service = Arc::new(start_service(true));
        let server = Arc::new(WireServer::with_config(
            Arc::clone(&service),
            Arc::new(LangCompiler),
            ServeConfig {
                allow_shutdown: true,
                ..ServeConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || server.serve(listener));
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (_, a) = case.written[0];
        let input = case.pristine.get(a);
        let mut floor = case.floor_buffers();
        clock.excluding(|| case.run_floor(&mut floor, 1));
        let expected = canonical(input.bounds(), input.layout(), floor[0].clone());
        let mut request = WireRequest::new(2, FIG3_SOURCE);
        request.consts = vec![("n".to_string(), N as i64)];
        request.topology = WireTopology::Line(PROCS);
        request.arrays = vec![(
            "a".to_string(),
            canonical(input.bounds(), input.layout(), input.as_slice().to_vec()),
        )];
        request.returns = vec!["a".to_string()];
        let seq = WireRequest {
            engine: EngineKind::Seq,
            ..request.clone()
        };
        let w = Wire {
            case,
            addr,
            server: Some(server),
            service,
            requests: [request, seq],
            expected,
            floor,
            start_ms,
        };
        let mut conn = w.connect(false)?.0;
        for i in 0..WARMUPS as u64 {
            for cfg in [Config::Threads, Config::Seq] {
                w.op(&mut conn, cfg, i, true, None)?;
            }
        }
        let secs = clock.seconds();
        Ok((w, secs))
    }

    /// Connect and handshake; returns the connection and the seconds
    /// both took.
    fn connect(&self, metered: bool) -> crate::Result<(Conn, f64)> {
        let t0 = Instant::now();
        let socket = TcpStream::connect(self.addr)?;
        socket.set_nodelay(true)?;
        let meter = metered.then(|| Arc::new(Meter::default()));
        let stream: Box<dyn Stream> = match &meter {
            Some(meter) => Box::new(Metered {
                inner: socket,
                meter: Arc::clone(meter),
            }),
            None => Box::new(socket),
        };
        let mut client = WireClient::over(stream);
        client.hello()?;
        Ok((
            Conn {
                client,
                meter,
                trips: Vec::new(),
            },
            t0.elapsed().as_secs_f64(),
        ))
    }

    /// Send `SHUTDOWN` and wait for the accept loop to end.
    fn stop(&mut self) -> crate::Result<()> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        self.connect(false)?.0.client.shutdown()?;
        Ok(server.join().map_err(|_| "server thread panicked")??)
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: stopping the wire server: {e}");
        }
    }
}

impl Sliced for Wire {
    type Conn = Conn;

    fn op(
        &self,
        conn: &mut Conn,
        cfg: Config,
        _i: u64,
        verify: bool,
        trace: Option<(&mut Spans, u64)>,
    ) -> crate::Result<(f64, usize)> {
        let request = &self.requests[usize::from(cfg == Config::Seq)];
        if let Some(meter) = &conn.meter {
            meter.take();
        }
        let start = trace.as_ref().map(|(spans, _)| spans.now());
        let t0 = Instant::now();
        let reply = conn.client.submit(request)?;
        let secs = t0.elapsed().as_secs_f64();
        if verify && !matches!(reply.arrays.as_slice(), [(_, got)] if bits_eq(got, &self.expected))
        {
            return Err("wire reply differs from the floor".into());
        }
        if let (Some((spans, op)), Some(start), Some(meter)) = (trace, start, &conn.meter) {
            let [bytes_out, bytes_in, write_ns, read_ns] = meter.take();
            let (write, read) = (write_ns as f64 * 1e-9, read_ns as f64 * 1e-9);
            let root = spans.add("op", op, None, start, secs);
            // Encode precedes the write and decode follows the read, but
            // only their sum is known; the reads are placed last.
            spans.add(
                "pipeline.service.wire.socket_write",
                op,
                Some(root),
                start,
                write,
            );
            let read_span = spans.add(
                "pipeline.service.wire.socket_read",
                op,
                Some(root),
                start + secs - read,
                read,
            );
            if let Some(jt) = &reply.spans {
                let total = spans.add(
                    "pipeline.service.total",
                    op,
                    Some(read_span),
                    start + secs - read,
                    jt.total_seconds,
                );
                spans.add_job_trace(op, total, start + secs - read, jt);
            }
            conn.trips.push(Trip {
                secs,
                bytes_out,
                bytes_in,
                blocked: write + read,
                server: reply.spans,
            });
        }
        Ok((secs, self.case.points()))
    }

    fn floor_op(&mut self, _i: u64) -> (f64, usize) {
        self.case.reset_floor_buffers(&mut self.floor);
        let t0 = Instant::now();
        self.case.run_floor(&mut self.floor, 1);
        (t0.elapsed().as_secs_f64(), self.case.points())
    }
}

/// Run the workload (see [`super::run`]).
pub fn run(seed: u64, seconds: f64, layers: Option<&mut Layers>) -> crate::Result<Outcome> {
    let Some(layers) = layers else {
        return measure_rounds(
            seconds,
            || Wire::setup(seed),
            |mut w, secs| {
                let mut conns = (0..GENERATORS)
                    .map(|_| Ok(w.connect(false)?.0))
                    .collect::<crate::Result<Vec<_>>>()?;
                let window = run_sliced(&mut w, &mut conns, secs, None);
                drop(conns);
                w.stop()?;
                Ok(window)
            },
        );
    };
    let (mut w, setup_s) = Wire::setup(seed)?;
    let mut conns = Vec::with_capacity(GENERATORS);
    let mut connect_secs = Vec::with_capacity(GENERATORS);
    for _ in 0..GENERATORS {
        let (conn, secs) = w.connect(true)?;
        conns.push(conn);
        connect_secs.push(secs);
    }

    let epoch = Instant::now();
    let mut tracks: Vec<Spans> = (0..GENERATORS).map(|g| Spans::new(epoch, g)).collect();
    let spawns = w.service.stats().pool_spawns;
    let window = run_sliced(
        &mut w,
        &mut conns,
        seconds * TRACED_WINDOW_SHARE,
        Some(&mut tracks),
    );
    record_window(layers, &window, &tracks);
    record_service_stats(layers, &w.service, spawns);
    layers.set("pipeline.service.start_ms", w.start_ms);
    layers.set(
        "pipeline.service.wire.connect_hello_us",
        median(&mut connect_secs) * 1e6,
    );

    let trips: Vec<Trip> = conns.into_iter().flat_map(|c| c.trips).collect();
    let p50 =
        |f: &dyn Fn(&Trip) -> f64| median_or_zero(&mut trips.iter().map(f).collect::<Vec<_>>());
    let server_total = |t: &Trip| t.server.as_ref().map_or(0.0, |jt| jt.total_seconds);
    let (bytes_out, bytes_in) = (p50(&|t| t.bytes_out as f64), p50(&|t| t.bytes_in as f64));
    layers.set("pipeline.service.wire.request_bytes", bytes_out);
    layers.set("pipeline.service.wire.response_bytes", bytes_in);
    layers.set(
        "pipeline.service.wire.client_codec_us_p50",
        p50(&|t| t.secs - t.blocked) * 1e6,
    );
    layers.set(
        "pipeline.service.wire.server_span_us_p50",
        p50(&server_total) * 1e6,
    );
    layers.set(
        "pipeline.service.wire.transport_us_p50",
        p50(&|t| t.blocked - server_total(t)) * 1e6,
    );
    let traces: Vec<(JobTrace, f64)> = trips
        .iter()
        .filter_map(|t| Some((t.server.clone()?, server_total(t))))
        .collect();
    record_job_traces(layers, &traces);
    // Over the wire the caller's gap is everything outside the server's span.
    layers.set(
        "pipeline.service.client_gap_us_p50",
        p50(&|t| t.secs - server_total(t)) * 1e6,
    );
    let mut lat = window.latencies.clone();
    let ops_per_s = window.latencies.len() as f64 / window.t_wall;
    layers.set(
        "pipeline.service.wire.mb_per_s",
        (bytes_out + bytes_in) * ops_per_s / 1e6,
    );
    layers.set(
        "pipeline.service.wire.op_ms_p99",
        quantile(&mut lat, 0.99) * 1e3,
    );
    layers.set("pipeline.service.op_ms_p99", quantile(&mut lat, 0.99) * 1e3);
    let op_p50 = median(&mut lat);
    layers.set(
        "floor.loopback_rtt_us",
        floors::loopback_rtt_us(bytes_out as usize, bytes_in as usize, 200)?,
    );

    let probe = probe_case(&w.case)?;
    layers.set(
        "pipeline.service.overhead_us_p50",
        (op_p50 - probe.p2_secs) * 1e6,
    );
    record_host(layers, &w.case, &probe, window.pipe_speedup())?;
    record_cases(layers, &[probe]);
    w.stop()?;
    Ok(Outcome {
        setup_s,
        window,
        tracks,
    })
}
