//! The programs the workloads run, their seeded inputs, and the link
//! from each to its hand-written floor.
//!
//! A seed reaches the system only as array values: `--seed` → SplitMix64
//! → one stream per array, scaled into a range chosen so that repeated
//! application of the nest neither overflows nor decays into denormals.

use std::sync::Arc;

use wavefront::core::prelude::{compile, ArrayId, CompiledNest, Layout, Program, Store};
use wavefront::kernels::rng::SplitMix64;
use wavefront::kernels::{smith_waterman, sor, tomcatv};
use wavefront::lang::compile_str;

use crate::floors;

/// The paper's Figure 3(d) with a host-supplied size.
pub const FIG3_SOURCE: &str = "
    const n = 5;
    var a : [1..n, 1..n] float;
    direction north = (-1, 0);
    [2..n, 1..n] a := 2.0 * a'@north;
";

/// The double-buffered relaxation of `timestep_bench`: `next` sweeps
/// south over its own fresh values, blending in the previous iterate
/// `curr` and a constant `load` field. Rotated buffers are read
/// pointwise only, so the loop is eligible for fused rotation.
pub const RELAX_SOURCE: &str = "
    const n = 8;
    region Big   = [0..n+1, 0..n+1];
    region Inner = [1..n, 1..n];
    direction north = (-1, 0);
    direction east  = (0, 1);
    var next, curr, load : [Big] float;
    [Inner] next := 0.5 * next'@north + 0.4 * curr + 0.1 * load@east;
";

/// Which program a [`Case`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 3(d) on `[1..n]²`.
    Fig3,
    /// Tomcatv's forward-elimination scan nest on `[1..n]²`.
    TomcatvForward,
    /// One Gauss–Seidel SOR sweep on `[0..n+1]²`.
    Sor,
    /// Smith–Waterman on `[0..n]²`.
    SmithWaterman,
    /// The relaxation step on `[0..n+1]²` (row-major).
    Relax,
}

impl Kind {
    /// Short name used in metric labels and tables.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig3 => "fig3",
            Kind::TomcatvForward => "tomcatv_fwd",
            Kind::Sor => "sor",
            Kind::SmithWaterman => "smith_waterman",
            Kind::Relax => "relax",
        }
    }

    /// Front-end step: WL source → lowered program (the `lang` layer).
    pub fn lower(self, n: usize) -> Lowered2 {
        let n = n as i64;
        let lowered = match self {
            Kind::Fig3 => compile_str::<2>(FIG3_SOURCE, &[("n", n)], Layout::ColMajor),
            Kind::TomcatvForward => tomcatv::build(n),
            Kind::Sor => sor::build(n),
            Kind::SmithWaterman => smith_waterman::build(n, n),
            Kind::Relax => compile_str::<2>(RELAX_SOURCE, &[("n", n)], Layout::RowMajor),
        };
        lowered.unwrap_or_else(|e| panic!("{} does not lower: {e}", self.name()))
    }

    /// Names of the arrays an op leaves changed, in the order the floor
    /// takes them.
    fn written(self) -> &'static [&'static str] {
        match self {
            Kind::Fig3 => &["a"],
            Kind::TomcatvForward => &["d", "r", "rx", "ry"],
            Kind::Sor => &["u"],
            Kind::SmithWaterman => &["h"],
            Kind::Relax => &["next", "curr"],
        }
    }

    /// Value range `[lo, hi)` of the seeded input `name`.
    fn range(self, name: &str) -> (f64, f64) {
        match (self, name) {
            (Kind::Fig3, _) => (0.5, 1.5),
            // Diagonally dominant: d settles near 1/dd, |r| stays below
            // 1/2 and the rx/ry recurrences stay bounded.
            (Kind::TomcatvForward, "aa") => (-1.0, -0.5),
            (Kind::TomcatvForward, "dd") => (3.0, 4.0),
            (Kind::TomcatvForward, "d") => (0.2, 0.5),
            (Kind::TomcatvForward, "rx" | "ry") => (-1.0, 1.0),
            (Kind::SmithWaterman, "h") => (0.0, 0.0),
            _ => (0.0, 1.0),
        }
    }
}

/// A lowered rank-2 program.
pub type Lowered2 = wavefront::lang::Lowered<2>;

/// One program at one size with its seeded inputs.
pub struct Case {
    /// Which program.
    pub kind: Kind,
    /// Problem size (see [`Kind`] for the bounds it implies).
    pub n: usize,
    /// The lowered program.
    pub program: Arc<Program<2>>,
    /// The nest every engine runs.
    pub nest: Arc<CompiledNest<2>>,
    /// Seeded inputs; never written after construction.
    pub pristine: Store<2>,
    /// `(name, id)` of the arrays an op leaves changed, floor order.
    pub written: Vec<(&'static str, ArrayId)>,
    /// Array ids by name, for the floor's read-only operands.
    ids: Vec<(String, ArrayId)>,
}

impl Case {
    /// Lower, compile, pick the nest and generate inputs from `seed`.
    pub fn build(kind: Kind, n: usize, seed: u64) -> Case {
        let lowered = kind.lower(n);
        let compiled = compile(&lowered.program)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", kind.name()));
        let nest = compiled
            .nests()
            .find(|nest| nest.is_scan)
            .unwrap_or_else(|| compiled.nest(0))
            .clone();
        let mut ids: Vec<(String, ArrayId)> = lowered
            .arrays
            .iter()
            .map(|(name, &id)| (name.clone(), id))
            .collect();
        ids.sort_by_key(|&(_, id)| id);
        let mut pristine = Store::new(&lowered.program);
        for (k, (name, id)) in ids.iter().enumerate() {
            let (lo, hi) = kind.range(name);
            let mut rng =
                SplitMix64::new(seed ^ (k as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let values = pristine.get_mut(*id).as_mut_slice();
            if kind == Kind::SmithWaterman && name == "score" {
                // A four-letter alphabet: one pair in four matches.
                values.fill_with(|| if rng.gen_range(4) == 0 { 3.0 } else { -1.0 });
            } else {
                values.fill_with(|| lo + (hi - lo) * rng.gen_f64());
            }
        }
        let id_of = |name: &str| {
            ids.iter()
                .find(|(have, _)| have == name)
                .unwrap_or_else(|| panic!("{} has no array `{name}`", kind.name()))
                .1
        };
        let written = kind
            .written()
            .iter()
            .map(|&name| (name, id_of(name)))
            .collect();
        Case {
            kind,
            n,
            program: Arc::new(lowered.program),
            nest: Arc::new(nest),
            pristine,
            written,
            ids,
        }
    }

    /// Grid points one sweep of the nest updates.
    pub fn points(&self) -> usize {
        self.nest.region.len()
    }

    fn slice(&self, name: &str) -> &[f64] {
        let id = self
            .ids
            .iter()
            .find(|(have, _)| have == name)
            .expect("array exists")
            .1;
        self.pristine.get(id).as_slice()
    }

    /// A store an engine may write: read-only arrays share the pristine
    /// buffers, written ones are private copies, so no write ever pays a
    /// copy-on-write break inside a timed region.
    pub fn working_store(&self) -> Store<2> {
        let mut store = self.pristine.clone();
        for &(_, id) in &self.written {
            *store.get_mut(id) = self.pristine.get(id).detached();
        }
        store
    }

    /// Put the written arrays of `store` back to their seeded values.
    pub fn restore(&self, store: &mut Store<2>) {
        for &(_, id) in &self.written {
            store
                .get_mut(id)
                .as_mut_slice()
                .copy_from_slice(self.pristine.get(id).as_slice());
        }
    }

    /// Private copies of the written arrays, for the floor to run on.
    pub fn floor_buffers(&self) -> Vec<Vec<f64>> {
        self.written
            .iter()
            .map(|&(_, id)| self.pristine.get(id).as_slice().to_vec())
            .collect()
    }

    /// Put `bufs` back to the seeded values.
    pub fn reset_floor_buffers(&self, bufs: &mut [Vec<f64>]) {
        for (buf, &(_, id)) in bufs.iter_mut().zip(&self.written) {
            buf.copy_from_slice(self.pristine.get(id).as_slice());
        }
    }

    /// Run the hand-written loop once over `bufs` (from
    /// [`Case::floor_buffers`]). [`Kind::Relax`] runs `steps` sweeps and
    /// leaves the buffers under their final names, like `submit_loop`'s
    /// `final_bindings`; every other kind ignores `steps`.
    pub fn run_floor(&self, bufs: &mut [Vec<f64>], steps: usize) {
        let n = self.n;
        match (self.kind, bufs) {
            (Kind::Fig3, [a]) => floors::fig3(n, a),
            (Kind::TomcatvForward, [d, r, rx, ry]) => {
                floors::tomcatv_forward(n, self.slice("aa"), self.slice("dd"), d, r, rx, ry)
            }
            (Kind::Sor, [u]) => floors::sor(n, u, self.slice("f")),
            (Kind::SmithWaterman, [h]) => floors::smith_waterman(n, n, h, self.slice("score")),
            (Kind::Relax, [next, curr]) => {
                if floors::relax(n, steps, next, curr, self.slice("load")) {
                    std::mem::swap(next, curr);
                }
            }
            (kind, bufs) => panic!("{} takes other buffers than {}", kind.name(), bufs.len()),
        }
    }

    /// Whether `store` equals the floor's result bit for bit on every
    /// written array.
    pub fn store_matches(&self, bufs: &[Vec<f64>], store: &Store<2>) -> bool {
        self.written
            .iter()
            .zip(bufs)
            .all(|(&(_, id), want)| bits_eq(store.get(id).as_slice(), want))
    }
}

/// Bitwise equality of two value slices (`NaN == NaN`, `0.0 != -0.0`).
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefront::pipeline::{
        EngineKind, JobSpec, LoopSpec, ServiceConfig, Session, WavefrontService,
    };

    const KINDS: [(Kind, usize); 5] = [
        (Kind::Fig3, 19),
        (Kind::TomcatvForward, 23),
        (Kind::Sor, 17),
        (Kind::SmithWaterman, 21),
        (Kind::Relax, 18),
    ];

    #[test]
    fn every_floor_is_bit_identical_to_the_engines() {
        for (kind, n) in KINDS {
            for seed in [1, 0x5EED] {
                let case = Case::build(kind, n, seed);
                let mut want = case.floor_buffers();
                case.run_floor(&mut want, 1);
                for (engine, procs) in [
                    (EngineKind::Seq, 1),
                    (EngineKind::Seq, 2),
                    (EngineKind::Threads, 2),
                ] {
                    let mut store = case.working_store();
                    Session::new(&case.program, &case.nest)
                        .procs(procs)
                        .store(&mut store)
                        .run(engine)
                        .expect("session runs");
                    assert!(
                        case.store_matches(&want, &store),
                        "{} n={n} seed={seed}: floor differs from {engine:?} p={procs}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tomcatv_and_sor_floors_match_the_kernels_crate_references() {
        // The references run the whole program's wavefronts through
        // `Point` get/set; compare on the arrays the forward nest alone
        // determines (tomcatv: `d` and `r` are not touched by the
        // back-substitution) and on SOR's single sweep.
        let case = Case::build(Kind::TomcatvForward, 23, 7);
        let lowered = Kind::TomcatvForward.lower(23);
        let mut store = case.working_store();
        tomcatv::reference_sweeps(&lowered, &mut store);
        let mut want = case.floor_buffers();
        case.run_floor(&mut want, 1);
        for (k, &(name, id)) in case.written.iter().enumerate().take(2) {
            assert!(
                bits_eq(store.get(id).as_slice(), &want[k]),
                "tomcatv `{name}`"
            );
        }

        let case = Case::build(Kind::Sor, 17, 7);
        let lowered = Kind::Sor.lower(17);
        let mut store = case.working_store();
        sor::reference_sweep(&lowered, &mut store);
        let mut want = case.floor_buffers();
        case.run_floor(&mut want, 1);
        assert!(case.store_matches(&want, &store), "sor");
    }

    #[test]
    fn relax_floor_follows_the_loop_rotation_for_odd_and_even_step_counts() {
        for steps in [1, 5, 6] {
            let case = Case::build(Kind::Relax, 18, 11);
            let service: WavefrontService<2> = WavefrontService::with_config(ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            });
            let handles = service.import_store(&case.program, case.pristine.detached());
            let mut body = JobSpec::builder(case.program.clone(), case.nest.clone()).line(2);
            for (name, h) in &handles {
                body = if name == "load" {
                    body.input_handle(name.clone(), h)
                } else {
                    body.output_handle(name.clone(), h)
                };
            }
            let spec = LoopSpec::builder()
                .job(body.build().expect("valid body"))
                .steps(steps)
                .swap("next", "curr")
                .build()
                .expect("valid loop");
            let out = service.submit_loop(spec).wait().expect("loop runs");
            let mut want = case.floor_buffers();
            case.run_floor(&mut want, steps);
            for (k, &(name, _)) in case.written.iter().enumerate() {
                let (_, h) = out
                    .final_bindings
                    .iter()
                    .find(|(have, _)| have == name)
                    .expect("bound");
                let got = service.read(h).expect("readable");
                assert!(
                    bits_eq(got.as_slice(), &want[k]),
                    "`{name}` after {steps} steps"
                );
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        let a = Case::build(Kind::Sor, 9, 42);
        let b = Case::build(Kind::Sor, 9, 42);
        let c = Case::build(Kind::Sor, 9, 43);
        assert_eq!(a.pristine, b.pristine);
        assert_ne!(a.pristine, c.pristine);
    }
}
