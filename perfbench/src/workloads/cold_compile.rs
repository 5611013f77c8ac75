//! `cold_compile`: one operation is a compile of one cell in a fresh
//! session with default options (6 restarts, automatic scheduler threads),
//! then the check against the golden model. Every stage runs uncached.
//!
//! Cells: the audio-core size ladder plus a fixed window of generated cores
//! crossed with the standard corpus. The seed draws the order the cells
//! are visited in (a fresh permutation per pass) and the stimulus.

use std::sync::Arc;
use std::time::Instant;

use dspcc::arch::SplitMix64;
use dspcc::conform::standard_corpus;
use dspcc::{cores, CompileOptions, CompileSession};

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

/// Generator seeds of the generated cores. Fixed, so the deterministic
/// metrics do not depend on the workload seed.
const GENERATED_CORES: std::ops::Range<u64> = 0..6;

struct Setup {
    cells: Vec<CheckedCell>,
    /// The audio-core cells, whose totals `cycles_total` and
    /// `code_bits_total` sum.
    audio_cells: Vec<Cell>,
    det: Det,
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let audio = Arc::new(cores::audio_core());
    let cell = |label: String, core: &Arc<dspcc::Core>, source: String| Cell {
        label,
        core: Arc::clone(core),
        source,
        options: CompileOptions::default(),
    };
    let mut cells: Vec<(Cell, bool)> = ladder()
        .into_iter()
        .map(|(name, src)| (cell(format!("audio/{name}"), &audio, src), true))
        .collect();
    for seed in GENERATED_CORES {
        let core = Arc::new(cores::generated_core(seed));
        for (name, src) in standard_corpus() {
            cells.push((cell(format!("gen{seed}/{name}"), &core, src), false));
        }
    }
    let mut out = Setup {
        cells: Vec::new(),
        audio_cells: Vec::new(),
        det: Det::default(),
    };
    for (i, (cell, on_audio)) in cells.into_iter().enumerate() {
        let dfg = build_dfg(&cell.source)?;
        let mut rng = SplitMix64::substream(ctx.seed, i as u64);
        let golden = golden(&dfg, cell.core.format, &mut rng, CHECK_FRAMES, tr)?;
        // Warm-up: the outcome every later compile of this cell must repeat.
        let quiet = &mut Tracer::new(false);
        let result = cell.compile_fresh(quiet);
        let expected = shape_of(&result).map_err(|e| format!("{}: {e}", cell.label))?;
        if let Ok(c) = &result {
            check(&cell.core.datapath, &c.microcode, &golden, quiet)
                .map_err(|e| format!("{}: {e}", cell.label))?;
        }
        out.det.add(&expected, on_audio);
        if on_audio {
            out.audio_cells.push(cell.clone());
        }
        out.cells.push(CheckedCell {
            cell,
            golden,
            expected,
        });
    }
    Ok(out)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (s, first) = first_setup(|| setup(ctx, tr))?;
    let mut window = Window::open(ctx, first);
    let mut rng = SplitMix64::substream(ctx.seed, 0xC01D);
    let mut order = Vec::new();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    for op in 0.. {
        window.setup_if_due(|| setup(ctx, &mut Tracer::new(false)))?;
        if window.closed() {
            break;
        }
        if order.is_empty() {
            order = shuffled(s.cells.len(), &mut rng);
        }
        let cc = &s.cells[order.pop().expect("refilled above")];
        tr.set_request(op);
        let t = Instant::now();
        let session = CompileSession::new();
        let result =
            contained(|| compile_op(cc, &session, &mut StageMemo::default(), tr, &mut layers));
        tally.attempt(t.elapsed());
        if let Err(e) = result {
            tally.fail(e);
        }
        layers.session_artifacts = layers
            .session_artifacts
            .max(session.cached_artifacts() as u64);
    }
    let Measured { setup_s, elapsed } = window.finish();
    if ctx.trace {
        layers.counts = traced_counts(&s.audio_cells, &mut Tracer::new(false))?;
        layers.overhead_us = compile_overhead_us(&s.audio_cells, OVERHEAD_REPS);
    }
    Ok(Outcome {
        tally,
        setup_s,
        elapsed,
        det: s.det,
        layers,
    })
}
