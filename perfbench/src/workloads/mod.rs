//! The four workloads and what they share: run context, set-up
//! repetitions, the audio-core size ladder, the compile operation, and the
//! assembly of end-to-end and per-layer metrics.

pub mod cold_compile;
pub mod design_iteration;
pub mod service_mixed;
pub mod simulate;

use std::time::{Duration, Instant};

use dspcc::arch::SplitMix64;
use dspcc::{apps, CacheStats, CompileSession};

use crate::check::{
    check, same_result, shape_of, staged_compile, Cell, Counts, Golden, Shape, StageMemo,
};
use crate::report::{median, peak_rss_mb, percentile, sorted, Metric, Tally};
use crate::trace::Tracer;

/// Set-up repetitions spread across the measured window, after the first
/// set-up; `setup_s` is the median of all of them.
const SPREAD_SETUPS: usize = 20;

/// Frames of seeded stimulus each compiled program is checked on once its
/// delay lines have filled (see [`crate::check::fill_frames`]).
pub const CHECK_FRAMES: usize = 8;

/// Repetitions per cell, each way, of the tracing-overhead measurement.
pub const OVERHEAD_REPS: usize = 2;

/// Stage lookups of one compile (frontend, lower, modify, analysis,
/// schedule, regalloc, encode): the denominator of `session.hit_ratio`.
const STAGE_LOOKUPS: u64 = 7;

/// What the command line fixes for one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The measured window of a run. Set-up repeats at even intervals across
/// it, outside the measured time, so that `setup_s`, like the operation
/// metrics, samples the machine over the whole run rather than its first
/// moments. A workload offers a repetition the chance to run only where it
/// holds nothing but its inputs, so the repetition's memory stays out of
/// `peak_rss_mb`.
pub struct Window {
    start: Instant,
    end: Instant,
    paused: Duration,
    due: Instant,
    interval: Duration,
    left: usize,
    setup_s: Vec<f64>,
}

/// The set-up durations and the measured time of a closed window.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub elapsed: Duration,
}

/// Runs and times the first set-up, whose result the run uses.
pub fn first_setup<S>(setup: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = Instant::now();
    let inputs = setup()?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

impl Window {
    /// Opens the window; `first` is the first set-up's duration.
    pub fn open(ctx: &Ctx, first: f64) -> Window {
        let start = Instant::now();
        let interval = Duration::from_secs_f64(ctx.seconds / SPREAD_SETUPS as f64);
        Window {
            start,
            end: start + Duration::from_secs_f64(ctx.seconds),
            paused: Duration::ZERO,
            due: start + interval / 2,
            interval,
            left: SPREAD_SETUPS,
            setup_s: vec![first],
        }
    }

    /// Whether the measured time has run out.
    pub fn closed(&self) -> bool {
        Instant::now() >= self.end
    }

    /// Runs a set-up repetition if one is due, drops its result, and
    /// extends the window by its duration.
    pub fn setup_if_due<S>(
        &mut self,
        setup: impl FnOnce() -> Result<S, String>,
    ) -> Result<(), String> {
        let now = Instant::now();
        if self.left > 0 && now >= self.due && now < self.end {
            drop(setup()?);
            let took = now.elapsed();
            self.setup_s.push(took.as_secs_f64());
            self.paused += took;
            self.end += took;
            self.due += self.interval + took;
            self.left -= 1;
        }
        Ok(())
    }

    /// Ends the measurement: every set-up duration of the run, in seconds,
    /// and the measured time (wall time since the window opened, less the
    /// set-up repetitions).
    pub fn finish(self) -> Measured {
        Measured {
            elapsed: self.start.elapsed().saturating_sub(self.paused),
            setup_s: self.setup_s,
        }
    }
}

/// Deterministic end-to-end metrics over a workload's fixed cells.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Det {
    pub cycles_total: u64,
    pub code_bits_total: u64,
    pub feasible_cells: u64,
}

impl Det {
    /// Counts one fixed cell; `on_audio_core` cells also enter the cycle
    /// and code-size totals.
    pub fn add(&mut self, shape: &Shape, on_audio_core: bool) {
        if let Shape::Program { cycles, bits } = *shape {
            self.feasible_cells += 1;
            if on_audio_core {
                self.cycles_total += u64::from(cycles);
                self.code_bits_total += bits;
            }
        }
    }
}

/// Per-layer observations that are not spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced-path counts over the workload's fixed audio-core cells.
    pub counts: Counts,
    pub session_hits: u64,
    pub session_compiles: u64,
    pub session_artifacts: u64,
    /// Mean compile time when the compile is not timed by a span of ours
    /// (it runs on a service worker).
    pub session_compile_us: Option<f64>,
    pub cache: CacheStats,
    pub queue_ms: Vec<f64>,
    pub peak_queue: u64,
    pub retries: u64,
    pub rejected: u64,
    /// Traced minus untraced time of the same operation, µs: a staged
    /// compile, or a simulated frame on `simulate`.
    pub overhead_us: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub elapsed: Duration,
    pub det: Det,
    pub layers: Layers,
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// The size ladder on the audio core: FIR and sum-of-products at several
/// sizes (so super-linear stages show), one IIR cascade, one ALU-only
/// tree, and the paper's figure-7 application.
pub fn ladder() -> Vec<(String, String)> {
    let mut apps_list: Vec<(String, String)> = [8, 16, 32, 64]
        .iter()
        .map(|&n| (format!("fir{n}"), apps::fir(n)))
        .collect();
    apps_list.extend(
        [16, 64]
            .iter()
            .map(|&n| (format!("sop{n}"), apps::sum_of_products(n))),
    );
    apps_list.push(("biquad3".to_owned(), apps::biquad_cascade(3)));
    apps_list.push(("addtree8".to_owned(), apps::add_tree(8)));
    apps_list.push(("audio".to_owned(), apps::audio_application()));
    apps_list
}

/// A compile cell with its golden stimulus and the outcome it must repeat.
pub struct CheckedCell {
    pub cell: Cell,
    pub golden: Golden,
    pub expected: Shape,
}

/// One compile operation: compile through `session`, require the outcome
/// the cell had in set-up, and check the program against the golden model.
/// Traced, the public stage functions are also called one by one (skipping
/// what `memo` holds, as the session skips what its memo holds) and must
/// produce the same program.
pub fn compile_op(
    cc: &CheckedCell,
    session: &CompileSession,
    memo: &mut StageMemo,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let cell = &cc.cell;
    // Traced, the two paths take turns going first, so neither one is
    // always the one that finds the caches warm.
    let staged_first = tr.enabled() && tr.request() % 2 == 1;
    let staged = staged_first.then(|| staged_compile(cell, memo, tr));
    let result = tr.span("session.compile", |_| {
        session.compile(&cell.core, &cell.source, &cell.options)
    });
    let shape = shape_of(&result).map_err(|e| format!("{}: {e}", cell.label))?;
    if shape != cc.expected {
        return Err(format!(
            "{}: {shape:?}, but set-up saw {:?}",
            cell.label, cc.expected
        ));
    }
    if let Ok(c) = &result {
        layers.session_hits += u64::from(c.stats.cache_hits);
        layers.session_compiles += 1;
        check(&cell.core.datapath, &c.microcode, &cc.golden, tr)
            .map_err(|e| format!("{}: {e}", cell.label))?;
    }
    if tr.enabled() {
        let staged = staged.unwrap_or_else(|| staged_compile(cell, memo, tr));
        same_result(&result, &staged).map_err(|e| format!("{}: {e}", cell.label))?;
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run.
pub fn e2e_metrics(o: &Outcome) -> Result<Vec<Metric>, String> {
    let lat = sorted(&o.tally.latencies_ms);
    let secs = o.elapsed.as_secs_f64();
    Ok(vec![
        Metric::new("setup_s", median(&o.setup_s), "s"),
        Metric::new("latency_ms_p50", percentile(&lat, 50.0)?, "ms"),
        Metric::new("latency_ms_p99", percentile(&lat, 99.0)?, "ms"),
        Metric::new("throughput_ops_s", o.tally.attempted as f64 / secs, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
        Metric::new("cycles_total", o.det.cycles_total as f64, "cycles"),
        Metric::new("code_bits_total", o.det.code_bits_total as f64, "bits"),
        Metric::new("feasible_cells", o.det.feasible_cells as f64, "count"),
    ])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run. Times are mean self time per
/// call of the named span; a layer the workload never calls reads 0.
pub fn layer_metrics(tr: &Tracer, l: &Layers) -> Vec<Metric> {
    let s = tr.summary();
    let us = |name: &str| s.get(name).map_or(0.0, |x| x.mean_self_us());
    let c = &l.counts;
    let queue_p50 = percentile(&sorted(&l.queue_ms), 50.0).unwrap_or(0.0);
    vec![
        Metric::new("dfg.frontend_us", us("dfg.frontend"), "us"),
        Metric::new("rtgen.lower_us", us("rtgen.lower"), "us"),
        Metric::new("isa.modify_us", us("isa.modify"), "us"),
        Metric::new("sched.analysis_us", us("sched.analysis"), "us"),
        Metric::new("sched.schedule_us", us("sched.schedule"), "us"),
        Metric::new("encode.regalloc_us", us("encode.regalloc"), "us"),
        Metric::new("encode.encode_us", us("encode.encode"), "us"),
        Metric::new("rtgen.rts", c.rts as f64, "count"),
        Metric::new(
            "isa.artificial_resources",
            c.artificial_resources as f64,
            "count",
        ),
        Metric::new("sched.cycles", c.cycles as f64, "cycles"),
        Metric::new("sched.bound", c.bound as f64, "cycles"),
        Metric::new(
            "sched.gap_cycles",
            c.cycles.saturating_sub(c.bound) as f64,
            "cycles",
        ),
        Metric::new("encode.word_bits", ratio(c.word_bits, c.programs), "bits"),
        Metric::new(
            "session.compile_us",
            l.session_compile_us
                .unwrap_or_else(|| us("session.compile")),
            "us",
        ),
        Metric::new(
            "session.hit_ratio",
            ratio(l.session_hits, STAGE_LOOKUPS * l.session_compiles),
            "ratio",
        ),
        Metric::new("session.artifacts", l.session_artifacts as f64, "count"),
        Metric::new("cache.hits", l.cache.hits as f64, "count"),
        Metric::new("cache.misses", l.cache.misses as f64, "count"),
        Metric::new("cache.stores", l.cache.stores as f64, "count"),
        Metric::new("cache.quarantined", l.cache.quarantined as f64, "count"),
        Metric::new(
            "cache.hit_ratio",
            ratio(l.cache.hits, l.cache.hits + l.cache.misses),
            "ratio",
        ),
        Metric::new("service.queue_ms_p50", queue_p50, "ms"),
        Metric::new("service.peak_queue", l.peak_queue as f64, "count"),
        Metric::new("service.retries", l.retries as f64, "count"),
        Metric::new("service.rejected", l.rejected as f64, "count"),
        Metric::new("sim.build_us", us("sim.build"), "us"),
        Metric::new("sim.frame_us", us("sim.frame"), "us"),
        Metric::new("dfg.interp_frame_us", us("dfg.interp_frame"), "us"),
        Metric::new("verify.us", us("verify"), "us"),
        Metric::new("trace.overhead_us", l.overhead_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{build_dfg, golden};
    use dspcc::{cores, CompileOptions};
    use std::sync::Arc;

    fn checked(source: String, budget: Option<u32>) -> CheckedCell {
        let cell = Cell {
            label: "t".to_owned(),
            core: Arc::new(cores::audio_core()),
            source,
            options: CompileOptions {
                budget,
                ..CompileOptions::default()
            },
        };
        let mut rng = SplitMix64::new(4);
        let dfg = build_dfg(&cell.source).unwrap();
        let golden = golden(&dfg, cell.core.format, &mut rng, 8, &mut Tracer::new(false)).unwrap();
        let expected = shape_of(&cell.compile_fresh(&mut Tracer::new(false))).unwrap();
        CheckedCell {
            cell,
            golden,
            expected,
        }
    }

    fn op(cc: &CheckedCell, tally: &mut Tally) {
        let mut layers = Layers::default();
        let session = CompileSession::new();
        let result = compile_op(
            cc,
            &session,
            &mut StageMemo::default(),
            &mut Tracer::new(true),
            &mut layers,
        );
        tally.attempt(Duration::from_millis(1));
        if let Err(e) = result {
            tally.fail(e);
        }
    }

    #[test]
    fn feedback_counts_against_feasible_cells_never_as_failure() {
        let tight = checked(apps::fir(64), Some(8));
        assert_eq!(tight.expected, Shape::Feedback("schedule"));
        let fits = checked(apps::fir(8), None);
        let mut tally = Tally::default();
        let mut det = Det::default();
        for cc in [&tight, &fits] {
            op(cc, &mut tally);
            det.add(&cc.expected, true);
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert_eq!(tally.fail_ratio(), 0.0);
        assert_eq!(det.feasible_cells, 1);
        assert_eq!(det.cycles_total, 13);
    }

    #[test]
    fn a_wrong_golden_output_fails_the_operation() {
        let mut cc = checked(apps::fir(8), None);
        cc.golden.outputs[3][0] ^= 1;
        let mut tally = Tally::default();
        op(&cc, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(
            tally.failures[0].contains("frame 3"),
            "{:?}",
            tally.failures
        );
        // So does a changed outcome: a cell that compiled in set-up and
        // now reports feedback.
        let mut cc = checked(apps::fir(8), None);
        cc.expected = Shape::Feedback("schedule");
        op(&cc, &mut tally);
        assert_eq!(tally.failed, 2);
    }
}
