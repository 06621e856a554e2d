//! The one guard on the paper's figures: every deterministic harness
//! must print exactly what `results/<name>.txt` records.

use std::path::Path;
use std::process::Command;

/// Run `exe` and compare its stdout with `results/<name>.txt`, naming
/// the first differing line.
fn check(name: &str, exe: &str) {
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}.txt"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    let out = Command::new(exe).output().unwrap_or_else(|e| panic!("{exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("harness output is UTF-8");
    if printed == golden {
        return;
    }
    let (mut p, mut g) = (printed.lines(), golden.lines());
    for line in 1.. {
        match (p.next(), g.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => panic!(
                "{name}: output differs from results/{name}.txt only in its line endings"
            ),
            (a, b) => panic!(
                "{name}: output differs from results/{name}.txt at line {line}\n  \
                 printed: {}\n  golden:  {}\n\
                 (if the change is intended: cargo run --release -p wavefront-bench \
                 --bin {name} > results/{name}.txt)",
                a.unwrap_or("<end of output>"),
                b.unwrap_or("<end of file>"),
            ),
        }
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden!(
    counts,
    fig5a,
    fig5b,
    fig6,
    fig7,
    fig_sweep,
    fig_sweep2d,
    table_contraction,
    table_cyclic,
    table_dynamic_b,
    table_fusion,
    table_optb,
    table_overlap,
    table_loc,
    table_transpose,
);
