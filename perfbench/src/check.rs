//! The correctness check and the traced compile path.
//!
//! Every compiled program is run on the cycle-accurate simulator and
//! compared bit-exact, frame by frame, with the `dspcc::dfg::Interpreter`
//! golden model on seeded stimulus. Compile outcomes are split into typed
//! feasibility feedback (a cell that does not fit its core, which is not a
//! failure) and failures (everything that points at a compiler bug).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc::arch::{Datapath, SplitMix64};
use dspcc::dfg::{parse, Dfg, Interpreter};
use dspcc::encode::Microcode;
use dspcc::num::WordFormat;
use dspcc::sim::CoreSim;
use dspcc::stages::{
    self, AnalysisArtifact, EncodeArtifact, FrontendArtifact, LowerArtifact, ModifyArtifact,
    RegallocArtifact, ScheduleArtifact,
};
use dspcc::{CompileError, CompileOptions, CompileSession, Compiled, Core};

use crate::trace::Tracer;

/// Seeded stimulus and the golden model's outputs for it.
#[derive(Debug, Clone)]
pub struct Golden {
    pub inputs: Vec<Vec<i64>>,
    pub outputs: Vec<Vec<i64>>,
}

/// Parses and builds `source` into a signal-flow graph for the golden
/// model.
pub fn build_dfg(source: &str) -> Result<Dfg, String> {
    let program = parse(source).map_err(|e| format!("parse: {e}"))?;
    Dfg::build(&program).map_err(|e| format!("sema: {e}"))
}

/// Frames after which every delay line holds values computed from the
/// stimulus: the sum over signals of their deepest tap, which bounds every
/// chain of delays. Delay lines start at zero, so before this a deep tap
/// (a FIR's last coefficient, say) only ever multiplies zero.
pub fn fill_frames(dfg: &Dfg) -> usize {
    dfg.signals().iter().map(|s| s.max_tap_depth as usize).sum()
}

/// Runs [`fill_frames`] plus `frames` frames of uniform stimulus over
/// `format`'s range through the interpreter, so that the last `frames`
/// frames exercise every tap.
pub fn golden(
    dfg: &Dfg,
    format: WordFormat,
    rng: &mut SplitMix64,
    frames: usize,
    tr: &mut Tracer,
) -> Result<Golden, String> {
    let frames = fill_frames(dfg) + frames;
    let ports = dfg.input_ports().len();
    let lo = format.min_value();
    let span = (format.max_value() - lo + 1) as u64;
    let mut interp = Interpreter::new(dfg, format);
    let mut g = Golden {
        inputs: Vec::with_capacity(frames),
        outputs: Vec::with_capacity(frames),
    };
    for frame in 0..frames {
        let inputs: Vec<i64> = (0..ports)
            .map(|_| lo + (rng.next_u64() % span) as i64)
            .collect();
        let outputs = tr
            .span("dfg.interp_frame", |_| interp.try_step(&inputs))
            .map_err(|e| format!("golden model rejected frame {frame}: {e}"))?;
        g.inputs.push(inputs);
        g.outputs.push(outputs);
    }
    Ok(g)
}

/// Simulates `microcode` on `datapath` over `golden`'s stimulus and
/// requires every output frame to equal the golden model's.
pub fn check(
    datapath: &Datapath,
    microcode: &Microcode,
    golden: &Golden,
    tr: &mut Tracer,
) -> Result<(), String> {
    tr.span("verify", |tr| {
        let mut sim = tr
            .span("sim.build", |_| CoreSim::new(datapath, microcode))
            .map_err(|e| format!("simulator construction failed: {e}"))?;
        for (frame, (inputs, want)) in golden.inputs.iter().zip(&golden.outputs).enumerate() {
            let got = tr
                .span("sim.frame", |_| sim.step_frame(inputs))
                .map_err(|e| format!("frame {frame}: simulator error: {e}"))?;
            if &got != want {
                return Err(format!(
                    "frame {frame}: microcode {got:?} != golden {want:?} (inputs {inputs:?})"
                ));
            }
        }
        Ok(())
    })
}

/// The deterministic result of compiling one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// The cell compiled: schedule length and instruction-ROM bits.
    Program { cycles: u32, bits: u64 },
    /// Typed feasibility feedback, by stage.
    Feedback(&'static str),
}

/// Feasibility feedback is the paper's designer-facing answer "this does
/// not fit"; it counts against `feasible_cells`, never as a failure.
/// Every other error (parse or analysis errors on generated sources,
/// dependence or encoding errors, contained panics, cache I/O,
/// cancellation) is a failure.
pub fn feedback_stage(e: &CompileError) -> Option<&'static str> {
    match e {
        CompileError::Lower(_) => Some("lower"),
        CompileError::Schedule(_) => Some("schedule"),
        CompileError::RegAlloc(_) => Some("regalloc"),
        CompileError::ProgramTooLong { .. } => Some("program-too-long"),
        _ => None,
    }
}

/// Classifies a compile result; `Err` is a failure message.
pub fn shape_of(result: &Result<Compiled, CompileError>) -> Result<Shape, String> {
    match result {
        Ok(c) => Ok(Shape::Program {
            cycles: c.cycles(),
            bits: c.microcode.rom_bits(),
        }),
        Err(e) => feedback_stage(e)
            .map(Shape::Feedback)
            .ok_or_else(|| format!("compile failed: {e}")),
    }
}

/// Runs `f`, turning a panic into a failure message.
pub fn contained<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("panic: {msg}"))
    })
}

/// One compile input: a core, an application and the options.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub core: Arc<Core>,
    pub source: String,
    pub options: CompileOptions,
}

impl Cell {
    /// Compiles the cell in a fresh session.
    pub fn compile_fresh(&self, tr: &mut Tracer) -> Result<Compiled, CompileError> {
        tr.span("session.compile", |_| {
            CompileSession::new().compile(&self.core, &self.source, &self.options)
        })
    }
}

// ---------------------------------------------------------------------------
// The traced path: the public stage functions called one by one.
// ---------------------------------------------------------------------------

type Table<A> = HashMap<u64, Result<Arc<A>, CompileError>>;

/// Stage artifacts keyed by the same public stage keys `CompileSession`
/// uses, so the traced path skips exactly the stages a session would serve
/// from its memo. A fresh memo makes every stage run.
#[derive(Default)]
pub struct StageMemo {
    frontend: Table<FrontendArtifact>,
    lower: Table<LowerArtifact>,
    modify: Table<ModifyArtifact>,
    analysis: Table<AnalysisArtifact>,
    schedule: Table<ScheduleArtifact>,
    regalloc: Table<RegallocArtifact>,
    encode: Table<EncodeArtifact>,
}

fn memoized<A>(
    table: &mut Table<A>,
    key: u64,
    tr: &mut Tracer,
    span: &'static str,
    run: impl FnOnce() -> Result<A, CompileError>,
) -> Result<Arc<A>, CompileError> {
    if let Some(hit) = table.get(&key) {
        return hit.clone();
    }
    let result = tr.span(span, |_| run()).map(Arc::new);
    table.insert(key, result.clone());
    result
}

/// What the traced path produced.
pub struct Staged {
    pub modified: Arc<ModifyArtifact>,
    pub scheduled: Arc<ScheduleArtifact>,
    pub encoded: Arc<EncodeArtifact>,
}

/// Compiles through `stages::run_*`, one span per stage.
pub fn staged_compile(
    cell: &Cell,
    memo: &mut StageMemo,
    tr: &mut Tracer,
) -> Result<Staged, CompileError> {
    let (core, options) = (&cell.core, &cell.options);
    tr.span("staged.compile", |tr| {
        let fkey = stages::source_fingerprint(&cell.source);
        let frontend = memoized(&mut memo.frontend, fkey, tr, "dfg.frontend", || {
            stages::run_frontend(&cell.source)
        })?;
        let lkey = stages::lower_key(frontend.dfg_fp, core, options);
        let lowered = memoized(&mut memo.lower, lkey, tr, "rtgen.lower", || {
            stages::run_lower(&frontend.dfg, core, options)
        })?;
        let mkey = stages::modify_key(lkey, core);
        let modified = memoized(&mut memo.modify, mkey, tr, "isa.modify", || {
            Ok(stages::run_modify(&lowered, core))
        })?;
        let akey = stages::analysis_key(mkey);
        let analysis = memoized(&mut memo.analysis, akey, tr, "sched.analysis", || {
            stages::run_analysis(&modified)
        })?;
        let skey = stages::schedule_key(akey, core, options);
        let scheduled = memoized(&mut memo.schedule, skey, tr, "sched.schedule", || {
            stages::run_schedule(&modified, &analysis, core, options, None)
        })?;
        let allocated = memoized(
            &mut memo.regalloc,
            stages::regalloc_key(skey),
            tr,
            "encode.regalloc",
            || stages::run_regalloc(&modified, &scheduled, core),
        )?;
        let encoded = memoized(
            &mut memo.encode,
            stages::encode_key(skey, core),
            tr,
            "encode.encode",
            || stages::run_encode(&modified, &scheduled, &allocated, core),
        )?;
        Ok(Staged {
            modified,
            scheduled,
            encoded,
        })
    })
}

/// The traced path must produce the same program as the session: same
/// instruction words, ROM image and schedule — or the same feedback.
pub fn same_result(
    session: &Result<Compiled, CompileError>,
    staged: &Result<Staged, CompileError>,
) -> Result<(), String> {
    match (session, staged) {
        (Ok(c), Ok(s)) => {
            let m = &s.encoded.microcode;
            if c.microcode.words != m.words {
                Err("traced path produced different instruction words".to_owned())
            } else if c.microcode.rom_image != m.rom_image {
                Err("traced path produced a different ROM image".to_owned())
            } else if *c.schedule != *s.scheduled.schedule {
                Err("traced path produced a different schedule".to_owned())
            } else {
                Ok(())
            }
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
        (a, b) => Err(format!(
            "traced path disagrees with the session: {:?} vs {:?}",
            a.as_ref().err().map(ToString::to_string),
            b.as_ref().err().map(ToString::to_string)
        )),
    }
}

/// Deterministic per-layer counts summed over a workload's fixed cells.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub programs: u64,
    pub rts: u64,
    pub artificial_resources: u64,
    pub cycles: u64,
    pub bound: u64,
    pub word_bits: u64,
    pub rom_bits: u64,
}

impl Counts {
    fn add(&mut self, s: &Staged) {
        let m = &s.encoded.microcode;
        self.programs += 1;
        self.rts += s.modified.lowering.program.rt_count() as u64;
        self.artificial_resources += s.modified.artificial_names.len() as u64;
        self.cycles += u64::from(s.scheduled.schedule.length());
        self.bound += u64::from(s.scheduled.bound);
        self.word_bits += u64::from(m.layout.width());
        self.rom_bits += m.rom_bits();
    }
}

/// Compiles every cell both ways — a fresh session and the traced path —
/// requires identical results, and sums the traced path's counts over the
/// cells that compile.
pub fn traced_counts(cells: &[Cell], tr: &mut Tracer) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for cell in cells {
        let session = cell.compile_fresh(tr);
        let staged = staged_compile(cell, &mut StageMemo::default(), tr);
        same_result(&session, &staged).map_err(|e| format!("{}: {e}", cell.label))?;
        if let Ok(s) = &staged {
            counts.add(s);
        }
    }
    Ok(counts)
}

/// Tracing overhead of one compile, in µs: every cell compiled stage by
/// stage from a fresh memo `reps` times with spans recorded and `reps`
/// times without, alternating which goes first; mean traced minus mean
/// untraced time. The spans go to a throwaway tracer.
pub fn compile_overhead_us(cells: &[Cell], reps: usize) -> f64 {
    let (mut on, mut off) = (Duration::ZERO, Duration::ZERO);
    for cell in cells {
        for rep in 0..reps {
            for traced in [rep % 2 == 0, rep % 2 == 1] {
                let mut tr = Tracer::new(traced);
                let t = Instant::now();
                let _ = staged_compile(cell, &mut StageMemo::default(), &mut tr);
                let dt = t.elapsed();
                if traced {
                    on += dt;
                } else {
                    off += dt;
                }
            }
        }
    }
    let n = (cells.len() * reps).max(1) as f64;
    (on.as_secs_f64() - off.as_secs_f64()) / n * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::CHECK_FRAMES;
    use dspcc::{apps, cores};

    fn fir_cell(taps: usize) -> Cell {
        Cell {
            label: format!("fir{taps}"),
            core: Arc::new(cores::audio_core()),
            source: apps::fir(taps),
            options: CompileOptions::default(),
        }
    }

    /// The stimulus the workloads check a program on.
    fn workload_golden(cell: &Cell) -> Golden {
        let dfg = build_dfg(&cell.source).unwrap();
        let mut rng = SplitMix64::new(11);
        golden(
            &dfg,
            cell.core.format,
            &mut rng,
            CHECK_FRAMES,
            &mut Tracer::new(false),
        )
        .unwrap()
    }

    fn quiet_check(cell: &Cell, microcode: &Microcode, g: &Golden) -> Result<(), String> {
        check(&cell.core.datapath, microcode, g, &mut Tracer::new(false))
    }

    #[test]
    fn stimulus_outlasts_the_deepest_delay_chain() {
        let fir64 = build_dfg(&apps::fir(64)).unwrap();
        assert_eq!(fill_frames(&fir64), 63);
        let chain = build_dfg("input u; signal v; output y; v = pass(u@3); y = v@2;").unwrap();
        assert_eq!(fill_frames(&chain), 5);
        let g = workload_golden(&fir_cell(64));
        assert_eq!(g.inputs.len(), 63 + CHECK_FRAMES);
    }

    #[test]
    fn real_microcode_passes_the_check() {
        let cell = fir_cell(64);
        let c = cell.compile_fresh(&mut Tracer::new(false)).unwrap();
        quiet_check(&cell, &c.microcode, &workload_golden(&cell)).unwrap();
    }

    #[test]
    fn every_corrupted_rom_entry_is_reported() {
        let cell = fir_cell(64);
        let c = cell.compile_fresh(&mut Tracer::new(false)).unwrap();
        let g = workload_golden(&cell);
        let rom = &c.microcode.rom_image;
        assert_eq!(rom.len(), 64, "one ROM entry per coefficient");
        for i in (0..rom.len()).rev() {
            let mut bad = (*c.microcode).clone();
            bad.rom_image[i] += 1;
            let err = quiet_check(&cell, &bad, &g).unwrap_err();
            assert!(err.contains("!= golden"), "ROM entry {i}: {err}");
        }
    }

    /// Why the stimulus covers the fill: checked on the first
    /// `CHECK_FRAMES` frames alone, the last coefficient only ever meets
    /// zero-initialised delay lines, and corrupting it goes unseen.
    #[test]
    fn frames_before_the_fill_miss_a_deep_coefficient() {
        let cell = fir_cell(64);
        let c = cell.compile_fresh(&mut Tracer::new(false)).unwrap();
        let g = workload_golden(&cell);
        let short = Golden {
            inputs: g.inputs[..CHECK_FRAMES].to_vec(),
            outputs: g.outputs[..CHECK_FRAMES].to_vec(),
        };
        let undetected: Vec<usize> = (0..c.microcode.rom_image.len())
            .filter(|&i| {
                let mut bad = (*c.microcode).clone();
                bad.rom_image[i] += 1;
                quiet_check(&cell, &bad, &short).is_ok()
            })
            .collect();
        assert!(!undetected.is_empty());
        for i in undetected {
            let mut bad = (*c.microcode).clone();
            bad.rom_image[i] += 1;
            assert!(quiet_check(&cell, &bad, &g).is_err(), "ROM entry {i}");
        }
    }

    #[test]
    fn every_corrupted_instruction_word_is_reported() {
        let cell = fir_cell(64);
        let c = cell.compile_fresh(&mut Tracer::new(false)).unwrap();
        let g = workload_golden(&cell);
        assert!(!c.microcode.words.is_empty());
        for i in 0..c.microcode.words.len() {
            let mut bad = (*c.microcode).clone();
            let width = bad.words[i].width();
            bad.words[i] = dspcc::encode::Word::new(width);
            assert_ne!(
                bad.words[i], c.microcode.words[i],
                "word {i} was already a nop"
            );
            let verdict = quiet_check(&cell, &bad, &g);
            assert!(verdict.is_err(), "zeroing word {i} went undetected");
        }
    }

    #[test]
    fn compiler_bug_errors_are_failures() {
        for e in [
            CompileError::Deps("cycle".to_owned()),
            CompileError::Panicked("boom".to_owned()),
            CompileError::CacheIo("disk".to_owned()),
            CompileError::Cancelled,
        ] {
            assert_eq!(feedback_stage(&e), None, "{e}");
            assert!(shape_of(&Err(e)).is_err());
        }
        let err = contained::<()>(|| panic!("inside")).unwrap_err();
        assert_eq!(err, "panic: inside");
    }

    #[test]
    fn traced_path_matches_the_session() {
        let cell = fir_cell(8);
        let mut tr = Tracer::new(true);
        let counts = traced_counts(std::slice::from_ref(&cell), &mut tr).unwrap();
        assert_eq!(counts.programs, 1);
        assert_eq!(counts.cycles, 13);
        let spans = tr.summary();
        for stage in [
            "dfg.frontend",
            "rtgen.lower",
            "isa.modify",
            "sched.analysis",
            "sched.schedule",
            "encode.regalloc",
            "encode.encode",
        ] {
            assert_eq!(spans[stage].calls, 1, "{stage}");
        }
        // A warm memo serves every stage: no stage span is recorded.
        let mut memo = StageMemo::default();
        let mut tr = Tracer::new(true);
        staged_compile(&cell, &mut memo, &mut tr).unwrap();
        staged_compile(&cell, &mut memo, &mut tr).unwrap();
        assert_eq!(tr.summary()["sched.schedule"].calls, 1);
        assert_eq!(tr.summary()["staged.compile"].calls, 2);
    }
}
