//! `simulate`: a long seeded frame stream through compiled microcode. One
//! operation is one frame; every frame is compared with the golden model's
//! output, precomputed in set-up. The programs are the figure-7 `audio`
//! application and `fir32` on the audio core, in blocks of three `fir32`
//! blocks to one `audio` block. `audio` frames take about twice as long
//! and are a quarter of all frames, so the 99th percentile falls inside
//! their mode rather than in the sparse tail of frames that an interrupt
//! or a busy neighbour slowed down.
//! When a stream ends, its simulator is rebuilt and the stream replays
//! from a fresh state, as the golden model's did.

use std::sync::Arc;
use std::time::Instant;

use dspcc::arch::SplitMix64;
use dspcc::encode::Microcode;
use dspcc::sim::CoreSim;
use dspcc::{cores, CompileOptions, CompileSession, Core};

use super::{first_setup, ladder, Ctx, Det, Layers, Measured, Outcome, Window, CHECK_FRAMES};
use crate::check::{build_dfg, check, fill_frames, golden, shape_of, traced_counts, Cell, Golden};
use crate::report::Tally;
use crate::trace::Tracer;

/// Programs and their stream lengths in frames, after the delay lines fill.
const STREAMS: [(&str, usize); 2] = [("audio", 12_000), ("fir32", 6_000)];
/// Program index of each block, repeating.
const BLOCK_PATTERN: [usize; 4] = [1, 1, 1, 0];
const BLOCK_FRAMES: usize = 256;
/// Traced runs record a span for one frame in this many, which keeps the
/// span log small at hundreds of thousands of frames per second.
const TRACE_EVERY: u64 = 8;

struct Program {
    core: Arc<Core>,
    microcode: Arc<Microcode>,
    stream: Golden,
}

struct Setup {
    programs: Vec<Program>,
    cells: Vec<Cell>,
    det: Det,
    artifacts: u64,
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let core = Arc::new(cores::audio_core());
    let mut out = Setup {
        programs: Vec::new(),
        cells: Vec::new(),
        det: Det::default(),
        artifacts: 0,
    };
    for (i, (name, frames)) in STREAMS.iter().enumerate() {
        let (_, source) = ladder()
            .into_iter()
            .find(|(n, _)| n == name)
            .expect("simulated programs are on the ladder");
        let cell = Cell {
            label: name.to_string(),
            core: Arc::clone(&core),
            source,
            options: CompileOptions::default(),
        };
        let session = CompileSession::new();
        let result = tr.span("session.compile", |_| {
            session.compile(&cell.core, &cell.source, &cell.options)
        });
        out.det.add(&shape_of(&result)?, true);
        let compiled = result.map_err(|e| format!("{name}: {e}"))?;
        out.artifacts = out.artifacts.max(session.cached_artifacts() as u64);
        let dfg = build_dfg(&cell.source)?;
        let mut rng = SplitMix64::substream(ctx.seed, i as u64);
        let stream = golden(&dfg, core.format, &mut rng, *frames, tr)?;
        let head_frames = fill_frames(&dfg) + CHECK_FRAMES;
        let head = Golden {
            inputs: stream.inputs[..head_frames].to_vec(),
            outputs: stream.outputs[..head_frames].to_vec(),
        };
        check(&core.datapath, &compiled.microcode, &head, tr)
            .map_err(|e| format!("{name}: {e}"))?;
        out.programs.push(Program {
            core: Arc::clone(&core),
            microcode: Arc::clone(&compiled.microcode),
            stream,
        });
        out.cells.push(cell);
    }
    Ok(out)
}

fn build(p: &Program, tr: &mut Tracer) -> Result<CoreSim, String> {
    tr.span("sim.build", |_| {
        CoreSim::new(&p.core.datapath, &p.microcode)
    })
    .map_err(|e| format!("simulator construction failed: {e}"))
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (s, first) = first_setup(|| setup(ctx, tr))?;
    let mut window = Window::open(ctx, first);
    let mut sims = Vec::new();
    for p in &s.programs {
        sims.push(build(p, tr)?);
    }
    let mut cursors = vec![0usize; s.programs.len()];
    let mut tally = Tally::default();
    // Traced runs span one frame in [`TRACE_EVERY`]; the rest give the
    // untraced time of the same operation for the overhead.
    let (mut traced_ns, mut untraced_ns) = ((0u128, 0u64), (0u128, 0u64));
    let mut frame = 0u64;
    'run: for &pi in BLOCK_PATTERN.iter().cycle() {
        window.setup_if_due(|| setup(ctx, &mut Tracer::new(false)))?;
        let p = &s.programs[pi];
        for _ in 0..BLOCK_FRAMES {
            if window.closed() {
                break 'run;
            }
            if cursors[pi] == p.stream.inputs.len() {
                sims[pi] = build(p, tr)?;
                cursors[pi] = 0;
            }
            let at = cursors[pi];
            cursors[pi] += 1;
            let traced = tr.enabled() && frame.is_multiple_of(TRACE_EVERY);
            tr.set_request(frame);
            frame += 1;
            let sim = &mut sims[pi];
            let t = Instant::now();
            let got = if traced {
                tr.span("sim.frame", |_| sim.step_frame(&p.stream.inputs[at]))
            } else {
                sim.step_frame(&p.stream.inputs[at])
            };
            let ok = matches!(&got, Ok(out) if *out == p.stream.outputs[at]);
            let dt = t.elapsed();
            tally.attempt(dt);
            let acc = if traced {
                &mut traced_ns
            } else {
                &mut untraced_ns
            };
            acc.0 += dt.as_nanos();
            acc.1 += 1;
            if !ok {
                tally.fail(format!(
                    "{} frame {at}: microcode {got:?} != golden {:?}",
                    s.cells[pi].label, p.stream.outputs[at]
                ));
            }
        }
    }
    let Measured { setup_s, elapsed } = window.finish();
    let mut layers = Layers {
        session_artifacts: s.artifacts,
        ..Layers::default()
    };
    if ctx.trace {
        let mean_us = |(ns, n): (u128, u64)| ns as f64 / n.max(1) as f64 / 1e3;
        layers.overhead_us = mean_us(traced_ns) - mean_us(untraced_ns);
        layers.counts = traced_counts(&s.cells, tr)?;
    }
    Ok(Outcome {
        tally,
        setup_s,
        elapsed,
        det: s.det,
        layers,
    })
}
