//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--scale S] [--out DIR] [--jobs N]
//!
//! experiments: table1 … table10, figure1, figure2, crossovers,
//!              db-weights, abt, delay-sweep, partition-sweep, all
//! --scale S    fraction of the paper's 100-trial protocol to run
//!              (default 0.1; 1.0 = the full protocol)
//! --out DIR    also write CSV files into DIR
//! --jobs N     worker threads per sweep cell (default: all cores).
//!              Results are bit-identical for every N.
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use discsp_bench::delay::{delay_sweep, delay_sweep_csv, render_delay_sweep};
use discsp_bench::efficiency::{figure2, text_crossovers};
use discsp_bench::figure1::render_figure1;
use discsp_bench::partition::{partition_sweep, partition_sweep_csv, render_partition_sweep};
use discsp_bench::report::{
    comparison_csv, efficiency_csv, redundancy_csv, render_comparison, render_efficiency,
    render_redundancy,
};
use discsp_bench::tables;
use discsp_bench::Family;

const USAGE: &str = "usage: repro <experiment>... [--scale S] [--out DIR] [--jobs N]
experiments: table1..table10, figure1, figure2, crossovers, db-weights, abt,
             delay-sweep, partition-sweep, all
  --scale S   fraction of the paper's 100-trial protocol (default 0.1)
  --out DIR   also write CSV files into DIR
  --jobs N    worker threads per sweep cell (default: all cores);
              results are bit-identical for every N";

struct Options {
    experiments: Vec<String>,
    scale: f64,
    out: Option<PathBuf>,
    jobs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut experiments = Vec::new();
    let mut scale = 0.1;
    let mut out = None;
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).ok_or("--scale needs a value")?;
                scale = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --scale value {value:?}"))?;
                if scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--jobs" => {
                i += 1;
                let value = args.get(i).ok_or("--jobs needs a value")?;
                let n = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs value {value:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(args.get(i).ok_or("--out needs a directory")?));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        return Err("no experiment named".into());
    }
    Ok(Options {
        experiments,
        scale,
        out,
        jobs,
    })
}

fn write_csv(out: &Option<PathBuf>, name: &str, content: &str) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path: &Path = dir.as_ref();
        let file = path.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&file).expect("create csv file");
        f.write_all(content.as_bytes()).expect("write csv file");
        println!("[wrote {}]", file.display());
    }
}

fn run_experiment(id: &str, scale: f64, out: &Option<PathBuf>) -> Result<(), String> {
    let start = std::time::Instant::now();
    match id {
        "table1" | "table2" | "table3" | "table5" | "table6" | "table7" | "table8" | "table9"
        | "table10" => {
            let table = match id {
                "table1" => tables::table1(scale),
                "table2" => tables::table2(scale),
                "table3" => tables::table3(scale),
                "table5" => tables::table5(scale),
                "table6" => tables::table6(scale),
                "table7" => tables::table7(scale),
                "table8" => tables::table8(scale),
                "table9" => tables::table9(scale),
                _ => tables::table10(scale),
            };
            print!("{}", render_comparison(&table));
            write_csv(out, id, &comparison_csv(&table));
        }
        "table4" => {
            let table = tables::table4(scale);
            print!("{}", render_redundancy(&table));
            write_csv(out, id, &redundancy_csv(&table));
        }
        "figure1" => {
            let (text, _) = render_figure1();
            print!("{text}");
        }
        "figure2" => {
            let fig = figure2(scale);
            print!("{}", render_efficiency(&fig));
            write_csv(out, id, &efficiency_csv(&fig));
        }
        "crossovers" => {
            for fig in text_crossovers(scale) {
                print!("{}", render_efficiency(&fig));
                write_csv(
                    out,
                    &format!("crossover-{}-{}", fig.family, fig.n),
                    &efficiency_csv(&fig),
                );
            }
        }
        "db-weights" => {
            for family in Family::all() {
                let table = tables::db_weight_ablation(family, scale);
                print!("{}", render_comparison(&table));
                write_csv(
                    out,
                    &format!("db-weights-{}", family.key()),
                    &comparison_csv(&table),
                );
            }
        }
        "delay-sweep" => {
            let sweep = delay_sweep(Family::Coloring, 60, scale, &[0, 1, 2, 4, 8, 16]);
            print!("{}", render_delay_sweep(&sweep));
            write_csv(out, "delay-sweep-d3c-60", &delay_sweep_csv(&sweep));
        }
        "partition-sweep" => {
            let sweep = partition_sweep(Family::Coloring, 60, scale, &[60, 30, 20, 12, 6, 3, 1]);
            print!("{}", render_partition_sweep(&sweep));
            write_csv(out, "partition-sweep-d3c-60", &partition_sweep_csv(&sweep));
        }
        "abt" => {
            let table = tables::abt_comparison(Family::Coloring, scale);
            print!("{}", render_comparison(&table));
            write_csv(out, "abt-d3c", &comparison_csv(&table));
        }
        other => return Err(format!("unknown experiment {other:?}")),
    }
    println!("[{id} done in {:.1}s]\n", start.elapsed().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut experiments = Vec::new();
    for id in &options.experiments {
        if id == "all" {
            experiments.extend(
                [
                    "figure1",
                    "table1",
                    "table2",
                    "table3",
                    "table4",
                    "table5",
                    "table6",
                    "table7",
                    "table8",
                    "table9",
                    "table10",
                    "figure2",
                    "crossovers",
                ]
                .map(String::from),
            );
        } else {
            experiments.push(id.clone());
        }
    }

    if let Some(n) = options.jobs {
        discsp_bench::trial::set_jobs(n);
    }
    println!(
        "reproducing {} experiment(s) at scale {} of the paper's protocol ({} worker(s))\n",
        experiments.len(),
        options.scale,
        discsp_bench::trial::jobs()
    );
    for id in &experiments {
        if let Err(msg) = run_experiment(id, options.scale, &options.out) {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
