//! `service_mixed`: one client thread submits two requests at a time to a
//! `CompileService` (2 workers, one scheduler thread per compile) whose
//! session is backed by a `DiskCache` in the benchmark's own directory of
//! the checkout. It waits for both before it checks either, so its checks
//! stay outside every request's latency. A request's latency ends when the
//! client sees it resolved; tickets are waited on in submission order, so
//! a request that resolves before the one ahead of it is stamped when that
//! one resolves.
//!
//! About 80% of requests repeat a hot key: a ladder application on the
//! audio core, all known to compile (memo reads). About 20% are novel to
//! the session: a ladder shape with coefficient values drawn from the
//! seed, so every memo stage misses and writes. Of all requests, 3% are
//! novel variants of the figure-7 `audio` application and 17% of five
//! small shapes.
//!
//! Set-up builds the inputs: it compiles and checks the hot set and makes
//! the novel keys and their golden outputs. Then, outside the timed
//! set-up, a previous process is played that compiles the hot set and
//! pools of novel keys into the disk cache. A service life ends after
//! [`LIFE_REQUESTS`] requests and the service restarts onto the same cache,
//! cold in memory: each life draws the pools in a fresh order without
//! repeats, so its novel requests write the memo while the disk tier
//! serves their schedule and encoding. One request in about 330 is a fresh
//! key that no process has seen, which also writes the disk tier.
//!
//! The mix is chosen for steady figures on a small shared machine:
//! - every life has the same mix, so the metrics do not depend on how
//!   many lives a run gets through;
//! - the life bound keeps the memo (and `peak_rss_mb`) to what one life
//!   grows;
//! - the `audio` variants are the slowest requests, so the 99th
//!   percentile falls inside their mode rather than in a sparse tail;
//! - fresh keys stay well below 1% of requests, so the shared disk's write
//!   stalls fall beyond the 99th percentile.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc::arch::SplitMix64;
use dspcc::encode::Microcode;
use dspcc::sched::Schedule;
use dspcc::{
    cores, CacheStats, CompileOptions, CompileService, CompileSession, Compiled, Core, DiskCache,
    ServiceConfig, ServiceOutcome, ServiceStats, Ticket,
};

use super::{
    first_setup, ladder, shuffled, Ctx, Det, Layers, Measured, Outcome, Window, CHECK_FRAMES,
    OVERHEAD_REPS,
};
use crate::check::{
    build_dfg, check, compile_overhead_us, contained, golden, same_result, staged_compile,
    traced_counts, Cell, Golden, Shape, StageMemo,
};
use crate::report::Tally;
use crate::trace::Tracer;

/// Requests submitted together, then waited for together.
const IN_FLIGHT: usize = 2;
const LIFE_REQUESTS: u64 = 1_000;
/// The request mix, per mille: fresh keys, then `audio` variants, then
/// small-shape variants; the rest repeat hot keys.
const FRESH_PER_MILLE: u64 = 3;
const HEAVY_PER_MILLE: u64 = 30;
const NOVEL_PER_MILLE: u64 = 200;
/// Stored pool sizes, above what one life draws (about 27 and 167).
const HEAVY_POOL: usize = 45;
const SMALL_POOL: usize = 200;
/// Fresh keys per run, used in turn.
const FRESH_KEYS: usize = 400;
const HEAVY_SHAPE: &str = "audio";
const SMALL_SHAPES: [&str; 5] = ["fir8", "fir16", "sop16", "biquad3", "addtree8"];
/// Frames each novel program is checked on.
const NOVEL_FRAMES: usize = 4;

struct Hot {
    cell: Cell,
    microcode: Arc<Microcode>,
    schedule: Arc<Schedule>,
}

impl Hot {
    /// Whether `c` is the program set-up checked: same instruction words,
    /// ROM image and schedule.
    fn is_served_by(&self, c: &Compiled) -> bool {
        let same_code = Arc::ptr_eq(&c.microcode, &self.microcode)
            || (c.microcode.words == self.microcode.words
                && c.microcode.rom_image == self.microcode.rom_image);
        same_code && *c.schedule == *self.schedule
    }
}

struct Novel {
    source: String,
    golden: Golden,
}

struct Setup {
    core: Arc<Core>,
    options: CompileOptions,
    hot: Vec<Hot>,
    /// The small pool, the heavy pool (both stored by set-up), then the
    /// fresh keys.
    novel: Vec<Novel>,
    det: Det,
}

fn cache_dir() -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("service-{}", std::process::id()))
}

/// The workload's inputs: hot keys compiled in memory and checked, novel
/// keys with their golden outputs.
fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Setup, String> {
    let core = Arc::new(cores::audio_core());
    let options = CompileOptions {
        sched_threads: 1,
        ..CompileOptions::default()
    };
    let session = CompileSession::new();
    let mut hot = Vec::new();
    let mut det = Det::default();
    for (i, (name, source)) in ladder().into_iter().enumerate() {
        let cell = Cell {
            label: name,
            core: Arc::clone(&core),
            source,
            options: options.clone(),
        };
        let c = session
            .compile(&core, &cell.source, &options)
            .map_err(|e| format!("{}: hot key does not compile: {e}", cell.label))?;
        let dfg = build_dfg(&cell.source)?;
        let mut rng = SplitMix64::substream(ctx.seed, i as u64);
        let g = golden(&dfg, core.format, &mut rng, CHECK_FRAMES, tr)?;
        check(&core.datapath, &c.microcode, &g, &mut Tracer::new(false))
            .map_err(|e| format!("{}: {e}", cell.label))?;
        det.add(
            &Shape::Program {
                cycles: c.cycles(),
                bits: c.microcode.rom_bits(),
            },
            true,
        );
        hot.push(Hot {
            cell,
            microcode: Arc::clone(&c.microcode),
            schedule: Arc::clone(&c.schedule),
        });
    }
    let stored = SMALL_POOL + HEAVY_POOL;
    let mut novel = Vec::with_capacity(stored + FRESH_KEYS);
    for k in 0..stored + FRESH_KEYS {
        let shape = if (SMALL_POOL..stored).contains(&k) {
            HEAVY_SHAPE
        } else {
            SMALL_SHAPES[k % SMALL_SHAPES.len()]
        };
        let template = &hot
            .iter()
            .find(|h| h.cell.label == shape)
            .expect("novel shapes are hot keys")
            .cell
            .source;
        let mut rng = SplitMix64::substream(ctx.seed, 0x900D_0000 + k as u64);
        let source = reseed(template, &mut rng);
        let golden = golden(
            &build_dfg(&source)?,
            core.format,
            &mut rng,
            NOVEL_FRAMES,
            tr,
        )?;
        novel.push(Novel { source, golden });
    }
    Ok(Setup {
        core,
        options,
        hot,
        novel,
        det,
    })
}

/// Plays the previous process: a fresh disk cache in `dir` holding the hot
/// keys, which must compile to the programs set-up checked, and the stored
/// pools of novel keys.
fn seed_disk(s: &Setup, dir: &Path) -> Result<Arc<DiskCache>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let cache = Arc::new(DiskCache::new(dir));
    let previous = CompileSession::with_disk_cache(Arc::clone(&cache));
    for h in &s.hot {
        let c = previous
            .compile(&s.core, &h.cell.source, &s.options)
            .map_err(|e| format!("{}: hot key does not compile: {e}", h.cell.label))?;
        if !h.is_served_by(&c) {
            return Err(format!(
                "{}: the disk-backed session compiled a different program",
                h.cell.label
            ));
        }
    }
    for (k, n) in s.novel[..SMALL_POOL + HEAVY_POOL].iter().enumerate() {
        previous
            .compile(&s.core, &n.source, &s.options)
            .map_err(|e| format!("novel key {k} does not compile: {e}"))?;
    }
    Ok(cache)
}

/// `template` with every `coeff` / `const` value redrawn (same sign,
/// magnitude in [0.05, 0.95)): the same graph shape, a new key.
pub fn reseed(template: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::with_capacity(template.len());
    for line in template.lines() {
        match line.split_once('=') {
            Some((head, tail))
                if (head.starts_with("coeff ") || head.starts_with("const "))
                    && tail.trim_end().ends_with(';') =>
            {
                let sign = if tail.trim_start().starts_with('-') {
                    "-"
                } else {
                    ""
                };
                let magnitude = 0.05 + (rng.next_u64() % 900_000) as f64 / 1e6;
                let _ = writeln!(out, "{head}= {sign}{magnitude:.6};");
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// A range of novel keys drawn in a seeded order without repeats; a
/// restart begins a new order.
struct Pool {
    start: usize,
    len: usize,
    order: Vec<usize>,
}

impl Pool {
    fn new(start: usize, len: usize) -> Self {
        Pool {
            start,
            len,
            order: Vec::new(),
        }
    }

    fn restart(&mut self, rng: &mut SplitMix64) {
        self.order = shuffled(self.len, rng);
    }

    fn next(&mut self, rng: &mut SplitMix64) -> usize {
        if self.order.is_empty() {
            self.restart(rng);
        }
        self.start + self.order.pop().expect("refilled above")
    }
}

#[derive(Clone, Copy)]
enum Request {
    Hot(usize),
    Novel(usize),
}

struct Pending {
    request: Request,
    start: Instant,
    ticket: Ticket,
}

/// Service counters summed over lives (peak queue: the maximum).
fn accumulate(into: &mut Layers, s: ServiceStats) {
    into.peak_queue = into.peak_queue.max(s.peak_queue);
    into.retries += s.retries;
    into.rejected += s.rejected;
}

fn start_life(cache: &Arc<DiskCache>) -> CompileService {
    let session = Arc::new(CompileSession::with_disk_cache(Arc::clone(cache)));
    CompileService::new(
        session,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
}

/// Checks one resolved request: a hot key must be served the program set-up
/// verified; a novel one must pass the golden-model check (and, traced, the
/// stage-by-stage path must produce the same program). Returns the
/// compile's own time.
fn verify(
    s: &Setup,
    request: &Request,
    outcome: ServiceOutcome,
    layers: &mut Layers,
    tr: &mut Tracer,
) -> Result<Duration, String> {
    let (compiled, cache_hits) = match outcome {
        ServiceOutcome::Served {
            compiled,
            cache_hits,
            ..
        } => {
            layers.session_hits += u64::from(cache_hits);
            layers.session_compiles += 1;
            (compiled, cache_hits)
        }
        ServiceOutcome::Failed(e) => return Err(format!("request failed: {e}")),
        ServiceOutcome::ShutDown => return Err("request dropped at shutdown".to_owned()),
    };
    match request {
        Request::Hot(i) => {
            let h = &s.hot[*i];
            if !h.is_served_by(&compiled) {
                return Err(format!("{}: served a different program", h.cell.label));
            }
        }
        Request::Novel(k) => {
            let n = &s.novel[*k];
            check(&s.core.datapath, &compiled.microcode, &n.golden, tr)
                .map_err(|e| format!("novel key {k}: {e}"))?;
            // Traced, a key the service computed from scratch is compiled
            // again stage by stage, which must give the same program.
            if tr.enabled() && cache_hits == 0 {
                let cell = Cell {
                    label: format!("novel{k}"),
                    core: Arc::clone(&s.core),
                    source: n.source.clone(),
                    options: s.options.clone(),
                };
                let staged = staged_compile(&cell, &mut StageMemo::default(), tr);
                same_result(&Ok((*compiled).clone()), &staged)?;
            }
        }
    }
    Ok(compiled.stats.total())
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        stores: after.stores - before.stores,
        store_errors: after.store_errors - before.store_errors,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        quarantined: after.quarantined - before.quarantined,
        read_errors: after.read_errors - before.read_errors,
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (s, first) = first_setup(|| setup(ctx, tr))?;
    let dir = cache_dir();
    let result = seed_disk(&s, &dir).and_then(|cache| measure(ctx, &s, &cache, first, tr));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    let (tally, Measured { setup_s, elapsed }, mut layers) = result?;
    if ctx.trace {
        let cells: Vec<Cell> = s.hot.iter().map(|h| h.cell.clone()).collect();
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

fn measure(
    ctx: &Ctx,
    s: &Setup,
    cache: &Arc<DiskCache>,
    first_setup_s: f64,
    tr: &mut Tracer,
) -> Result<(Tally, Measured, Layers), String> {
    let mut rng = SplitMix64::substream(ctx.seed, 0x5E4F);
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut compile_total = Duration::ZERO;
    let before = cache.stats();
    let mut service = start_life(cache);
    let mut submitted_in_life = 0u64;
    let mut small = Pool::new(0, SMALL_POOL);
    let mut heavy = Pool::new(SMALL_POOL, HEAVY_POOL);
    let mut next_fresh = 0;
    let mut batch: Vec<Pending> = Vec::with_capacity(IN_FLIGHT);
    let mut id = 0u64;
    let mut window = Window::open(ctx, first_setup_s);
    loop {
        let closed = window.closed();
        while batch.len() < IN_FLIGHT && submitted_in_life < LIFE_REQUESTS && !closed {
            let draw = rng.next_u64() % 1000;
            let request = if draw < FRESH_PER_MILLE {
                next_fresh = (next_fresh + 1) % FRESH_KEYS;
                Request::Novel(SMALL_POOL + HEAVY_POOL + next_fresh)
            } else if draw < FRESH_PER_MILLE + HEAVY_PER_MILLE {
                Request::Novel(heavy.next(&mut rng))
            } else if draw < NOVEL_PER_MILLE {
                Request::Novel(small.next(&mut rng))
            } else {
                Request::Hot((rng.next_u64() % s.hot.len() as u64) as usize)
            };
            let source = match request {
                Request::Hot(i) => &s.hot[i].cell.source,
                Request::Novel(k) => &s.novel[k].source,
            };
            submitted_in_life += 1;
            let t = Instant::now();
            match service.submit(&s.core, source, s.options.clone()) {
                Ok(ticket) => batch.push(Pending {
                    request,
                    start: t,
                    ticket,
                }),
                Err(refused) => {
                    tally.attempt(t.elapsed());
                    tally.fail(format!("submit refused: {refused}"));
                }
            }
        }
        if batch.is_empty() {
            if closed {
                break;
            }
            // The life is over: restart onto the same disk cache.
            layers.session_artifacts = layers
                .session_artifacts
                .max(service.session().cached_artifacts() as u64);
            accumulate(&mut layers, service.stats());
            drop(service);
            window.setup_if_due(|| setup(ctx, &mut Tracer::new(false)))?;
            service = start_life(cache);
            submitted_in_life = 0;
            small.restart(&mut rng);
            heavy.restart(&mut rng);
            continue;
        }
        // Every request of the batch resolves before any is checked.
        let resolved: Vec<_> = batch
            .drain(..)
            .map(|p| {
                let outcome = p.ticket.wait();
                (p.request, p.start, Instant::now(), outcome)
            })
            .collect();
        for (request, begun, end, outcome) in resolved {
            let latency = end - begun;
            tally.attempt(latency);
            tr.set_request(id);
            id += 1;
            tr.record("service.request", begun, end);
            match contained(|| verify(s, &request, outcome, &mut layers, tr)) {
                Ok(compile) => {
                    compile_total += compile;
                    layers
                        .queue_ms
                        .push(latency.saturating_sub(compile).as_secs_f64() * 1e3);
                }
                Err(e) => tally.fail(e),
            }
        }
    }
    let measured = window.finish();
    layers.session_artifacts = layers
        .session_artifacts
        .max(service.session().cached_artifacts() as u64);
    accumulate(&mut layers, service.stats());
    drop(service);
    layers.cache = delta(cache.stats(), before);
    layers.session_compile_us =
        Some(compile_total.as_secs_f64() * 1e6 / layers.session_compiles.max(1) as f64);
    Ok((tally, measured, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseeding_keeps_the_shape_and_changes_the_key() {
        let template = dspcc::apps::fir(8);
        let mut rng = SplitMix64::new(5);
        let a = reseed(&template, &mut rng);
        let b = reseed(&template, &mut rng);
        assert_ne!(a, template);
        assert_ne!(a, b);
        let shape = |src: &str| format!("{:?}", build_dfg(src).unwrap().census());
        assert_eq!(shape(&a), shape(&template));
        let untouched: Vec<&str> = template
            .lines()
            .filter(|l| !l.starts_with("coeff"))
            .collect();
        let kept: Vec<&str> = a.lines().filter(|l| !l.starts_with("coeff")).collect();
        assert_eq!(untouched, kept);
        assert!(reseed(&dspcc::apps::add_tree(4), &mut rng).contains("const k0 = "));
    }

    /// Novel keys are assumed to compile because their shapes do: check
    /// a seed's pool the way the workload does.
    #[test]
    fn novel_keys_compile_and_pass_the_check() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let s = setup(&ctx, &mut Tracer::new(false)).unwrap();
        assert_eq!(s.novel.len(), SMALL_POOL + HEAVY_POOL + FRESH_KEYS);
        for (k, n) in s.novel.iter().enumerate().skip(3).step_by(29) {
            let c = CompileSession::new()
                .compile(&s.core, &n.source, &s.options)
                .unwrap_or_else(|e| panic!("novel key {k}: {e}"));
            check(
                &s.core.datapath,
                &c.microcode,
                &n.golden,
                &mut Tracer::new(false),
            )
            .unwrap();
        }
    }
}
