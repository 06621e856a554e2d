//! Code-size comparison — the paper's Section 1 observation: the ASCI
//! SWEEP3D core is 626 lines of Fortran+MPI, only 179 fundamental to the
//! computation; the rest is tiling, buffer management, and communication.
//!
//! In the language-based approach all of that machinery lives once in
//! the compiler/runtime; each application is just its equations. This
//! table counts the non-blank, non-comment lines of each WL kernel, a
//! deterministic output `tests/golden.rs` pins; the shared runtime's
//! own size is a tracked number of `scripts/verify.sh`, which moves with
//! every commit. Run with
//! `cargo run --release -p wavefront-bench --bin table_loc`.

use wavefront_bench::Table;

fn wl_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("--") && !l.starts_with("//"))
        .count()
}

fn main() {
    println!("## Language-based code size (paper: SWEEP3D 626 lines, 179 fundamental)\n");
    let mut table = Table::new(&["kernel", "WL lines", "of which scan-block lines"]);
    let kernels: [(&str, &str); 5] = [
        ("Tomcatv", wavefront_kernels::tomcatv::SOURCE),
        ("SIMPLE", wavefront_kernels::simple::SOURCE),
        ("SWEEP3D octant", wavefront_kernels::sweep3d::SOURCE_OCTANT),
        ("SOR", wavefront_kernels::sor::SOURCE),
        ("Smith-Waterman", wavefront_kernels::smith_waterman::SOURCE),
    ];
    for (name, src) in kernels {
        let total = wl_loc(src);
        // Scan-block lines: between `scan begin` and its `end;`.
        let mut in_scan = false;
        let mut scan_lines = 0usize;
        for l in src.lines().map(str::trim) {
            if l.contains("scan begin") {
                in_scan = true;
                continue;
            }
            if in_scan && l.starts_with("end") {
                in_scan = false;
                continue;
            }
            if in_scan && !l.is_empty() && !l.starts_with("--") {
                scan_lines += 1;
            }
        }
        table.row(&[name.into(), total.to_string(), scan_lines.to_string()]);
    }
    table.print();

    println!(
        "\n  The pipelining machinery the explicit approach would replicate per\n  \
         application lives once in the shared runtime; `scripts/verify.sh`\n  \
         counts its lines on every run (its `tracked:` line)."
    );
    println!(
        "\n  Ratio check (paper: 626/179 ≈ 3.5x overhead for explicit SWEEP3D):\n  \
         each WL kernel above expresses the computation alone — the 447-line\n  \
         difference the paper counts is machinery that here is shared, not\n  \
         rewritten per application."
    );
}
