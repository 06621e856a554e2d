//! The floors every layer is priced against.
//!
//! The compute floors are plain single-threaded Rust loops over raw
//! slices doing the same arithmetic, per grid point, as the WL programs
//! in `cases.rs` — no `Point`, no name lookup, no store. (The
//! `reference_*` functions in `crates/kernels` go through `get`/`set`
//! and `HashMap` lookups per element; they are validators, not floors.)
//! Each grid point's value depends only on its operands, so any loop
//! order that respects the dependences is bit-identical to the engines;
//! the floors pick the order a person tuning by hand would.
//!
//! The transport floors are what a byte, a message and a thread hand-off
//! cost on this host with none of the program in the way: `memcpy`, a
//! TCP loopback echo and an `mpsc` ping-pong.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

/// Figure 3(d), `[2..n,1..n] a := 2.0 * a'@north`, column-major
/// `a[1..n,1..n]`: every column is an independent doubling chain down
/// the contiguous dimension.
pub fn fig3(n: usize, a: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    for col in a.chunks_exact_mut(n) {
        for i in 1..n {
            col[i] = 2.0 * col[i - 1];
        }
    }
}

/// Columns swept together by [`tomcatv_forward`]: eight independent
/// recurrences in flight hide the divide latency of each.
const TOMCATV_COLS: usize = 8;

/// Tomcatv's forward elimination over `[2..n-2, 2..n-1]` of column-major
/// `[1..n,1..n]` arrays. The recurrence runs down each column (the
/// contiguous dimension); columns are independent, so a block of them is
/// swept side by side.
#[allow(clippy::too_many_arguments)]
pub fn tomcatv_forward(
    n: usize,
    aa: &[f64],
    dd: &[f64],
    d: &mut [f64],
    r: &mut [f64],
    rx: &mut [f64],
    ry: &mut [f64],
) {
    for s in [aa.len(), dd.len(), d.len(), r.len(), rx.len(), ry.len()] {
        assert_eq!(s, n * n);
    }
    // Columns 2..=n-1 are 0-based 1..n-1; rows 2..=n-2 are 0-based 1..n-2.
    let mut j0 = 1;
    while j0 < n - 1 {
        let j1 = (j0 + TOMCATV_COLS).min(n - 1);
        for i in 1..n - 2 {
            for j in j0..j1 {
                let k = i + j * n;
                let rv = aa[k] * d[k - 1];
                r[k] = rv;
                d[k] = 1.0 / (dd[k] - aa[k - 1] * rv);
                rx[k] -= rx[k - 1] * rv;
                ry[k] -= ry[k - 1] * rv;
            }
        }
        j0 = j1;
    }
}

/// One Gauss–Seidel SOR sweep over `[1..n,1..n]` of column-major
/// `[0..n+1,0..n+1]` arrays; dependences run along both dimensions, so
/// this is the textbook doubly nested loop.
pub fn sor(n: usize, u: &mut [f64], f: &[f64]) {
    let e = n + 2;
    assert_eq!(u.len(), e * e);
    assert_eq!(f.len(), e * e);
    for j in 1..=n {
        for i in 1..=n {
            let k = i + j * e;
            u[k] = 0.25 * u[k] + 0.75 * 0.25 * (u[k - 1] + u[k - e] + u[k + 1] + u[k + e] + f[k]);
        }
    }
}

/// The Smith–Waterman recurrence over `[1..n,1..m]` of column-major
/// `[0..n,0..m]` arrays.
pub fn smith_waterman(n: usize, m: usize, h: &mut [f64], score: &[f64]) {
    let e = n + 1;
    assert_eq!(h.len(), e * (m + 1));
    assert_eq!(score.len(), e * (m + 1));
    for j in 1..=m {
        for i in 1..=n {
            let k = i + j * e;
            h[k] = 0.0f64.max((h[k - e - 1] + score[k]).max((h[k - 1] - 2.0).max(h[k - e] - 2.0)));
        }
    }
}

/// `steps` sweeps of the double-buffered relaxation over `[1..n,1..n]`
/// of row-major `[0..n+1,0..n+1]` arrays, the buffers trading names
/// between sweeps (and not after the last). Returns `true` when the
/// names ended up swapped, i.e. the latest iterate is in `b`.
pub fn relax(n: usize, steps: usize, a: &mut [f64], b: &mut [f64], load: &[f64]) -> bool {
    let e = n + 2;
    for s in [a.len(), b.len(), load.len()] {
        assert_eq!(s, e * e);
    }
    let (mut next, mut curr) = (a, b);
    for step in 0..steps {
        for i in 1..=n {
            let (above, row) = next[(i - 1) * e..(i + 1) * e].split_at_mut(e);
            let curr = &curr[i * e..(i + 1) * e];
            let load = &load[i * e..(i + 1) * e];
            for j in 1..=n {
                row[j] = 0.5 * above[j] + 0.4 * curr[j] + 0.1 * load[j + 1];
            }
        }
        if step + 1 < steps {
            std::mem::swap(&mut next, &mut curr);
        }
    }
    steps.is_multiple_of(2)
}

/// Sustained copy bandwidth in GB/s over a `bytes`-sized buffer (32 MiB
/// by default: four times the two L2s), best of `reps`.
pub fn memcpy_gbps(bytes: usize, reps: usize) -> f64 {
    let src = vec![1.0f64; bytes / 8];
    let mut dst = vec![0.0f64; bytes / 8];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    bytes as f64 / best / 1e9
}

/// Median round trip, in microseconds, of `request` bytes out and
/// `response` bytes back over a TCP loopback connection to an echo
/// thread that reads the one and writes the other — the wire workload's
/// byte counts with none of its work.
pub fn loopback_rtt_us(request: usize, response: usize, rounds: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut inbuf = vec![0u8; request];
        let outbuf = vec![7u8; response];
        for _ in 0..rounds {
            s.read_exact(&mut inbuf)?;
            s.write_all(&outbuf)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let outbuf = vec![3u8; request];
    let mut inbuf = vec![0u8; response];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        s.write_all(&outbuf)?;
        s.read_exact(&mut inbuf)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    echo.join().expect("echo thread panicked")?;
    Ok(crate::stats::median(&mut samples))
}

/// Median one-way thread hand-off in microseconds: an `mpsc` ping-pong
/// of an empty message between two threads, halved. The engines' α
/// cannot be lower than this.
pub fn thread_handoff_us(rounds: usize) -> f64 {
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, from_echo) = mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_in.recv() {
            if echo_out.send(v).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds as u64 {
        let t0 = Instant::now();
        to_echo.send(i).expect("echo thread alive");
        from_echo.recv().expect("echo thread alive");
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    drop(to_echo);
    echo.join().expect("echo thread panicked");
    crate::stats::median(&mut samples)
}
