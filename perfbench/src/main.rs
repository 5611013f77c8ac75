//! The dspcc benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_compile|design_iteration|service_mixed|simulate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` after its set-up, checks every
//! program it compiles or simulates against the golden model, prints each
//! metric by name and unit, and ends with one JSON line: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). Exits 1 when any operation failed. See `README.md`.

mod check;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;

use report::json_line;
use workloads::{e2e_metrics, layer_metrics, Ctx};

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn run() -> Result<bool, String> {
    let (workload, ctx) = parse_args()?;
    let mut tr = trace::Tracer::new(ctx.trace);
    let outcome = match workload.as_str() {
        "cold_compile" => workloads::cold_compile::run(&ctx, &mut tr),
        "design_iteration" => workloads::design_iteration::run(&ctx, &mut tr),
        "service_mixed" => workloads::service_mixed::run(&ctx, &mut tr),
        "simulate" => workloads::simulate::run(&ctx, &mut tr),
        other => Err(format!("unknown workload `{other}`")),
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    let mut correct = outcome.tally.failed == 0;
    let metrics = if ctx.trace {
        // The traced path's counts must reproduce the untraced totals.
        let (c, d) = (&outcome.layers.counts, &outcome.det);
        if (c.cycles, c.rom_bits) != (d.cycles_total, d.code_bits_total) {
            eprintln!(
                "traced path totals {} cycles / {} bits differ from {} / {}",
                c.cycles, c.rom_bits, d.cycles_total, d.code_bits_total
            );
            correct = false;
        }
        let path =
            PathBuf::from(".bench_out").join(format!("{workload}-seed{}.spans.tsv", ctx.seed));
        tr.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        layer_metrics(&tr, &outcome.layers)
    } else {
        e2e_metrics(&outcome)?
    };
    let t = &outcome.tally;
    println!(
        "workload {workload} seed {} trace {} | {} operations in {:.3} s, {} failed, fail_ratio {}",
        ctx.seed,
        u8::from(ctx.trace),
        t.attempted,
        outcome.elapsed.as_secs_f64(),
        t.failed,
        t.fail_ratio()
    );
    println!(
        "latency samples {}, set-up repetitions {}",
        t.latencies_ms.len(),
        outcome.setup_s.len()
    );
    for m in &metrics {
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    for f in &t.failures {
        println!("FAILED: {f}");
    }
    println!("{}", json_line(correct, t, &metrics)?);
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
