//! `perfbench` — one benchmark instance per invocation, printed as one
//! JSON line. `run.py` (next to this package) builds it, runs
//! instances for the measured time, checks and aggregates them.
//!
//! ```text
//! perfbench steal  --seed S [--traced 1]
//! perfbench chase  --seed S [--traced 1]
//! perfbench live   --seed S --count N [--rate R | --burst 1] [--traced 1]
//! perfbench probes --proto fib|chase|serve [--table T] [--depth D] [--window W] [--reorder F]
//! ```

mod live;
mod probes;
mod sim;
mod util;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench steal|chase|live|probes [--flag value ...]");
        std::process::exit(2);
    };
    let args = match util::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match cmd.as_str() {
        "steal" => sim::steal(&args),
        "chase" => sim::chase(&args),
        "live" => live::step(&args),
        "probes" => probes::run(&args),
        other => {
            eprintln!("perfbench: unknown command `{other}`");
            std::process::exit(2);
        }
    };
    println!("{}", out.finish());
}
