//! `spotfi-e2e` — end-to-end serving benchmark CLI.
//!
//! ```text
//! spotfi-e2e --workload walk|ring16|fig7-batch [--seed N] [--seconds S]
//!            [--trace 0|1] [--spans PATH] [--out PATH]
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). A traced
//! run also writes its spans (default `e2ebench/out/`). Any failed output
//! check exits non-zero without printing metrics.

use std::path::PathBuf;
use std::process::ExitCode;

use spotfi_e2e::{run, BenchError, Options, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: spotfi-e2e --workload walk|ring16|fig7-batch [--seed N] \
                     [--seconds S] [--trace 0|1] [--spans PATH] [--out PATH]";

struct Args {
    workload: Workload,
    opts: Options,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, BenchError> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 6.0,
        trace: false,
    };
    let (mut spans, mut out) = (None, None);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| BenchError::new(format!("{flag} needs a value")))
        };
        let bad = |v: &str| BenchError::new(format!("bad value for {flag}: {v}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                opts.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(BenchError::new(format!("unknown argument {other}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| BenchError::new("--workload is required"))?,
        opts,
        spans,
        out,
    })
}

fn write(path: &PathBuf, text: &str) -> Result<(), BenchError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| BenchError::new(format!("creating {}: {e}", dir.display())))?;
    }
    std::fs::write(path, text)
        .map_err(|e| BenchError::new(format!("writing {}: {e}", path.display())))
}

fn main_inner() -> Result<(), BenchError> {
    let args = parse(std::env::args().skip(1))?;
    let Args { workload, opts, .. } = args;
    eprintln!(
        "spotfi-e2e: workload {} seed {} seconds {} trace {} ({} hardware threads)",
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        spotfi_core::hardware_parallelism()
    );
    let report = run(&workload.spec(), &opts)?;
    let json = report.json_line(if opts.trace { PER_LAYER } else { END_TO_END })?;
    if let Some(tracer) = &report.spans {
        let path = args.spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", workload.name(), opts.seed))
        });
        write(&path, &tracer.to_json())?;
        eprintln!(
            "spotfi-e2e: wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &args.out {
        write(path, &format!("{json}\n"))?;
    }
    print!("{}", report.text());
    println!("{json}");
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spotfi-e2e: error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
