//! # wavefront-bench
//!
//! Harnesses that regenerate every figure and table of the paper's
//! evaluation (see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record):
//!
//! | binary            | artifact |
//! |-------------------|----------|
//! | `fig5a`           | Figure 5(a): Model1 vs Model2 vs simulated speedup over block size (Tomcatv wavefront, T3E) |
//! | `fig5b`           | Figure 5(b): the hypothetical worst-case α/β |
//! | `fig6`            | Figure 6: uniprocessor cache speedup of scan blocks (Tomcatv & SIMPLE on T3E / PowerChallenge hierarchies) |
//! | `fig7`            | Figure 7: pipelined vs non-pipelined speedup over processor counts |
//! | `fig_sweep`       | extension: SWEEP3D-style octant sweep scaling |
//! | `fig_sweep2d`     | extension: SWEEP3D on a 2-D processor mesh with pipelined k-blocks |
//! | `table_optb`      | Equation (1) closed forms vs numeric vs simulator-probed optima |
//! | `table_dynamic_b` | ablation of block-size policies (incl. the future-work dynamic probe) |
//! | `table_loc`       | language-based vs explicit formulation code sizes |
//! | `table_contraction` | ablation: contracting Tomcatv's promoted scalar `r` |
//! | `table_cyclic`    | ablation: block vs block-cyclic ownership of the wavefront dimension |
//! | `table_fusion`    | barrier vs fused execution of whole programs |
//! | `table_overlap`   | blocking receives vs ideal communication/computation overlap |
//! | `table_transpose` | transpose vs pipeline for programs with wavefronts along both dimensions |
//! | `counts`          | points per kernel tier (lane strip / scalar remainder / interpreter) in one sweep of each `perfbench` nest |
//!
//! Every bin prints simulated, modelled or counted quantities only, so its
//! output is reproducible to the byte; `tests/golden.rs` runs each one
//! and compares stdout with the committed `results/<name>.txt`.
//! Nothing here reads a clock: wall-clock figures are `perfbench`'s job
//! (`bench/`, `BENCHMARK.json`).

/// Minimal fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: vec![] }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Format a float to 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float to 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&["only-one".into()])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.004), "1.00");
        assert_eq!(f1(2.34), "2.3");
    }
}
