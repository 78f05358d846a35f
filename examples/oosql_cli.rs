//! A one-shot OOSQL command line: run any query against the paper's
//! fixture database (or a generated one) and inspect every pipeline stage.
//!
//! ```sh
//! cargo run --example oosql_cli -- 'select s.sname from s in SUPPLIER
//!     where exists x in s.parts : exists p in PART : x = p.pid'
//! cargo run --release --example oosql_cli -- --scale 2000 \
//!     'select s.eid from s in SUPPLIER
//!      where exists x in s.parts : not (exists p in PART : x = p.pid)'
//! ```
//!
//! Flags: `--scale N` uses a generated database with ~N objects instead of
//! the §2 fixture; `--naive` also times the nested-loop execution.

use oodb::catalog::Database;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::Planner;
use oodb::Pipeline;
use std::io::{self, Write};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<usize> = None;
    let mut run_naive = false;
    let mut query: Option<String> = None;
    while let Some(a) = args.first().cloned() {
        match a.as_str() {
            "--scale" => {
                args.remove(0);
                let n = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                scale = Some(n);
                args.remove(0);
            }
            "--naive" => {
                run_naive = true;
                args.remove(0);
            }
            _ => {
                query = Some(args.join(" "));
                break;
            }
        }
    }
    let Some(src) = query else {
        die("usage: oosql_cli [--scale N] [--naive] '<oosql query>'")
    };

    let db = match scale {
        Some(n) => generate(&GenConfig {
            dangling_fraction: 0.02,
            empty_supplier_fraction: 0.05,
            ..GenConfig::scaled(n)
        }),
        None => oodb::catalog::fixtures::supplier_part_db(),
    };
    match report(&mut io::stdout().lock(), &db, &src, run_naive) {
        Ok(()) => {}
        // the reader went away (`… | head`): nothing left to say
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => die(&format!("error: {e}")),
    }
}

/// Runs `src` and writes every pipeline stage to `w`.
fn report(w: &mut impl Write, db: &Database, src: &str, run_naive: bool) -> io::Result<()> {
    writeln!(
        w,
        "database: {} suppliers, {} parts, {} deliveries",
        db.table("SUPPLIER").map(|t| t.len()).unwrap_or(0),
        db.table("PART").map(|t| t.len()).unwrap_or(0),
        db.table("DELIVERY").map(|t| t.len()).unwrap_or(0),
    )?;

    let pipeline = Pipeline::new(db);
    let t0 = Instant::now();
    let out = match pipeline.run(src) {
        Ok(out) => out,
        Err(e) => die(&format!("error: {e}")),
    };
    let elapsed = t0.elapsed();

    writeln!(w, "\nnested ADL:\n  {}", out.nested)?;
    if out.rewrite.trace.is_empty() {
        writeln!(w, "\n(no rewrite applied — already set-oriented)")?;
    } else {
        writeln!(w, "\nrewrite trace:\n{}", out.rewrite.trace)?;
    }
    writeln!(w, "optimized ADL:\n  {}", out.rewrite.expr)?;

    let planner = Planner::new(db);
    if let Ok(plan) = planner.plan(&out.rewrite.expr) {
        writeln!(w, "\nphysical plan:\n{}", plan.explain())?;
    }

    let rows = out.result.as_set().map(|s| s.len()).unwrap_or(1);
    writeln!(w, "result ({rows} rows, {elapsed:.2?}, {}):", out.stats)?;
    match out.result.as_set() {
        Ok(s) => {
            for (i, row) in s.iter().enumerate() {
                if i >= 20 {
                    writeln!(w, "  … ({} more)", s.len() - 20)?;
                    break;
                }
                writeln!(w, "  {row}")?;
            }
        }
        Err(_) => writeln!(w, "  {}", out.result)?,
    }

    if run_naive {
        let t1 = Instant::now();
        let naive = pipeline.run_naive(src).expect("naive evaluation");
        let naive_elapsed = t1.elapsed();
        assert_eq!(naive, out.result, "nested-loop execution disagrees!");
        writeln!(
            w,
            "\nnested-loop execution: {naive_elapsed:.2?} ({}× slower)",
            (naive_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)) as u64
        )?;
    }
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}
