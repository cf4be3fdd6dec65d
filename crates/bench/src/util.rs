//! Shared harness utilities: aligned table printing, TSV output, timing,
//! standard workload setups.

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;
use whyq_datagen::{dbpedia_graph, ldbc_graph, DbpediaConfig, LdbcConfig};
use whyq_graph::PropertyGraph;
use whyq_matcher::MatchOptions;
use whyq_query::PatternQuery;
use whyq_session::Database;

/// Output directory for TSV dumps (`repro` with `--tsv`).
pub const OUT_DIR: &str = "EXPERIMENTS-output";

/// The standard LDBC-like workload graph (fixed seed).
pub fn ldbc() -> PropertyGraph {
    ldbc_graph(LdbcConfig::default())
}

/// The standard DBpedia-like workload graph (fixed seed).
pub fn dbpedia() -> PropertyGraph {
    dbpedia_graph(DbpediaConfig::default())
}

/// The standard LDBC workload opened as a database (default config:
/// `"type"` index + plan cache).
pub fn ldbc_db() -> Database {
    Database::open(ldbc()).expect("open LDBC database")
}

/// The standard DBpedia workload opened as a database.
pub fn dbpedia_db() -> Database {
    Database::open(dbpedia()).expect("open DBpedia database")
}

/// Count through a throwaway session of `db` (harness convenience; real
/// workloads keep a session and prepared queries alive).
pub fn count(db: &Database, q: &PatternQuery, limit: Option<u64>) -> u64 {
    db.session()
        .count_opts(q, MatchOptions::counting(limit))
        .expect("harness queries are valid")
}

/// The cardinality factors of the thesis evaluation (§3.2.5):
/// `< 1` models too-many-answers, `> 1` too-few-answers.
pub const CARDINALITY_FACTORS: [f64; 4] = [0.2, 0.5, 2.0, 5.0];

/// Milliseconds elapsed running `f`, alongside its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// A simple aligned text table that can also dump itself as TSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (anything displayable).
    pub fn row(&mut self, cells: Vec<Box<dyn Display>>) {
        self.rows
            .push(cells.iter().map(std::string::ToString::to_string).collect());
    }

    /// Append a row of ready-made strings.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Print aligned to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as TSV under [`OUT_DIR`], named from the table title.
    pub fn write_tsv(&self) -> std::io::Result<PathBuf> {
        fs::create_dir_all(OUT_DIR)?;
        let name: String = self
            .title
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = PathBuf::from(OUT_DIR).join(format!("{name}.tsv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(path)
    }
}

/// Convenience macro building `Vec<Box<dyn Display>>` rows.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        vec![$(Box::new($x) as Box<dyn std::fmt::Display>),*]
    };
}

/// Summary statistics of a distance series (used by the Fig. 3.x plots,
/// which the thesis presents as ordered curves).
pub fn series_summary(values: &mut [f64]) -> (f64, f64, f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, 0.0);
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| values[(p * (values.len() - 1) as f64).round() as usize];
    (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
}
