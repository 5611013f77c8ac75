//! `design_iteration`: the paper's figure-1 loop. Per application, one
//! session lives for one sweep of the variant grid: budgets around the
//! default schedule length (some too tight, which is feasibility
//! feedback) × scheduler restarts, plus a minority of cover-strategy and
//! constant-CSE changes, with a few exact repeats mixed in. Then a fresh
//! session starts the next sweep, so each sweep's schedule tail does work
//! while its frontend, RT generation and ISA stages are served from the
//! memo.
//!
//! The grid is fixed; the seed draws the sweep orders, where the repeats
//! fall, and the stimulus.

use std::sync::Arc;
use std::time::Instant;

use dspcc::arch::SplitMix64;
use dspcc::isa::CoverStrategy;
use dspcc::{cores, CompileOptions, CompileSession, Core};

use super::{
    compile_op, first_setup, ladder, shuffled, CheckedCell, Ctx, Det, Layers, Measured, Outcome,
    Window, CHECK_FRAMES, OVERHEAD_REPS,
};
use crate::check::{
    build_dfg, check, compile_overhead_us, contained, golden, shape_of, traced_counts, Cell,
    StageMemo,
};
use crate::report::Tally;
use crate::trace::Tracer;

const APPS: [&str; 4] = ["audio", "fir32", "sop16", "biquad3"];
const RESTARTS: [u32; 4] = [1, 2, 4, 6];
/// Exact repeats of an earlier variant per sweep.
const REPEATS: usize = 4;

/// One application's sweep grid.
struct App {
    variants: Vec<CheckedCell>,
}

struct Setup {
    apps: Vec<App>,
    det: Det,
}

/// The variants of one application whose default schedule is `len`
/// cycles long.
fn variants(name: &str, source: &str, len: u32, cores: [&Arc<Core>; 3]) -> Vec<Cell> {
    let [audio, per_edge, exact_cover] = cores;
    let cell = |tag: String, core: &Arc<Core>, options: CompileOptions| Cell {
        label: format!("{name}/{tag}"),
        core: Arc::clone(core),
        source: source.to_owned(),
        options,
    };
    let budgets = [
        Some(len - 3),
        Some(len - 1),
        Some(len),
        Some(len + 2),
        Some(len + 6),
        None,
    ];
    let mut out = Vec::new();
    for budget in budgets {
        for restarts in RESTARTS {
            let options = CompileOptions {
                budget,
                restarts,
                ..CompileOptions::default()
            };
            out.push(cell(format!("b{budget:?}/r{restarts}"), audio, options));
        }
    }
    let default = CompileOptions::default;
    out.push(cell("cover-per-edge".to_owned(), per_edge, default()));
    out.push(cell("cover-exact".to_owned(), exact_cover, default()));
    let cse = |budget, restarts| CompileOptions {
        cse_constants: true,
        budget,
        restarts,
        ..CompileOptions::default()
    };
    out.push(cell("cse".to_owned(), audio, cse(None, 6)));
    out.push(cell(format!("cse/b{len}/r2"), audio, cse(Some(len), 2)));
    out
}

fn with_cover(core: &Core, cover: CoverStrategy) -> Arc<Core> {
    Arc::new(Core {
        cover,
        ..core.clone()
    })
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let audio_core = cores::audio_core();
    let per_edge = with_cover(&audio_core, CoverStrategy::PerEdge);
    let exact_cover = with_cover(&audio_core, CoverStrategy::ExactMinimum);
    let audio = Arc::new(audio_core);
    let quiet = &mut Tracer::new(false);
    let mut out = Setup {
        apps: Vec::new(),
        det: Det::default(),
    };
    for (i, name) in APPS.iter().enumerate() {
        let (_, source) = ladder()
            .into_iter()
            .find(|(n, _)| n == name)
            .expect("design apps are on the ladder");
        let dfg = build_dfg(&source)?;
        let mut rng = SplitMix64::substream(ctx.seed, i as u64);
        let golden = golden(&dfg, audio.format, &mut rng, CHECK_FRAMES, tr)?;
        let base = Cell {
            label: name.to_string(),
            core: Arc::clone(&audio),
            source: source.clone(),
            options: CompileOptions::default(),
        };
        let len = base
            .compile_fresh(quiet)
            .map_err(|e| format!("{name}: default compile failed: {e}"))?
            .cycles();
        // Warm-up: one sweep in grid order, in one session, fixes the
        // outcome every later compile of each variant must repeat.
        let session = CompileSession::new();
        let mut app = App {
            variants: Vec::new(),
        };
        for cell in variants(name, &source, len, [&audio, &per_edge, &exact_cover]) {
            let result = session.compile(&cell.core, &cell.source, &cell.options);
            let expected = shape_of(&result).map_err(|e| format!("{}: {e}", cell.label))?;
            if let Ok(c) = &result {
                check(&cell.core.datapath, &c.microcode, &golden, quiet)
                    .map_err(|e| format!("{}: {e}", cell.label))?;
            }
            out.det.add(&expected, true);
            app.variants.push(CheckedCell {
                cell,
                golden: golden.clone(),
                expected,
            });
        }
        out.apps.push(app);
    }
    Ok(out)
}

/// One sweep's order: a permutation of the grid with [`REPEATS`] exact
/// repeats of already-swept variants inserted.
fn sweep_order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut seq = shuffled(n, rng);
    for _ in 0..REPEATS {
        let at = 1 + (rng.next_u64() % seq.len() as u64) as usize;
        let earlier = seq[(rng.next_u64() % at as u64) as usize];
        seq.insert(at, earlier);
    }
    seq
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (s, first) = first_setup(|| setup(ctx, tr))?;
    let mut window = Window::open(ctx, first);
    let mut rng = SplitMix64::substream(ctx.seed, 0xDE51);
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut op = 0u64;
    'run: loop {
        for app in &s.apps {
            window.setup_if_due(|| setup(ctx, &mut Tracer::new(false)))?;
            let session = CompileSession::new();
            let mut memo = StageMemo::default();
            for i in sweep_order(app.variants.len(), &mut rng) {
                if window.closed() {
                    break 'run;
                }
                tr.set_request(op);
                op += 1;
                let t = Instant::now();
                let result = contained(|| {
                    compile_op(&app.variants[i], &session, &mut memo, tr, &mut layers)
                });
                tally.attempt(t.elapsed());
                if let Err(e) = result {
                    tally.fail(e);
                }
            }
            layers.session_artifacts = layers
                .session_artifacts
                .max(session.cached_artifacts() as u64);
        }
    }
    let Measured { setup_s, elapsed } = window.finish();
    if ctx.trace {
        let cells: Vec<Cell> = s
            .apps
            .iter()
            .flat_map(|a| a.variants.iter().map(|v| v.cell.clone()))
            .collect();
        layers.counts = traced_counts(&cells, &mut Tracer::new(false))?;
        layers.overhead_us = compile_overhead_us(&cells, OVERHEAD_REPS);
    }
    Ok(Outcome {
        tally,
        setup_s,
        elapsed,
        det: s.det,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_repeat_only_what_they_already_compiled() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..50 {
            let seq = sweep_order(28, &mut rng);
            assert_eq!(seq.len(), 28 + REPEATS);
            for (pos, v) in seq.iter().enumerate() {
                let first = seq.iter().position(|x| x == v).unwrap();
                assert!(first <= pos);
            }
            let mut distinct = seq.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct, (0..28).collect::<Vec<_>>());
        }
    }
}
