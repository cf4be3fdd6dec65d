//! `repro` — regenerate the thesis evaluation.
//!
//! ```text
//! repro <experiment-id> [--tsv]
//! repro all [--tsv]
//! repro list
//! ```
//!
//! Experiment ids match the index in ARCHITECTURE.md § Reproduction,
//! which maps each id to its function and thesis section: `tabA.1`,
//! `tabA.2`, `fig3.7`, `fig3.8`, `fig3.9`, `fig3.10`, `fig4.disc.ldbc`,
//! `fig4.disc.dbp`, `fig4.opt`, `fig4.bnd`, `fig4.user`, `fig5.prio`,
//! `fig5.est`, `fig5.conv`, `fig5.icc`, `fig5.user`, `fig6.base`,
//! `fig6.topo`, `appB.1`, `appB.2`.

use whyq_bench::{appendix, fig3, fig4, fig5, fig6, tables, util};

const EXPERIMENTS: [&str; 20] = [
    "tabA.1",
    "tabA.2",
    "fig3.7",
    "fig3.8",
    "fig3.9",
    "fig3.10",
    "fig4.disc.ldbc",
    "fig4.disc.dbp",
    "fig4.opt",
    "fig4.bnd",
    "fig4.user",
    "fig5.prio",
    "fig5.est",
    "fig5.conv",
    "fig5.icc",
    "fig5.user",
    "fig6.base",
    "fig6.topo",
    "appB.1",
    "appB.2",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tsv = args.iter().any(|a| a == "--tsv");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    match ids.first() {
        None | Some(&"list") => {
            println!("usage: repro <experiment-id>... [--tsv] | repro all [--tsv]");
            println!("experiments:");
            for e in EXPERIMENTS {
                println!("  {e}");
            }
        }
        Some(&"all") => {
            let (ldbc, dbp) = (util::ldbc_db(), util::dbpedia_db());
            for id in EXPERIMENTS {
                run(id, &ldbc, &dbp, tsv);
            }
        }
        _ => {
            let (ldbc, dbp) = (util::ldbc_db(), util::dbpedia_db());
            for id in ids {
                run(id, &ldbc, &dbp, tsv);
            }
        }
    }
}

fn run(id: &str, ldbc: &whyq_session::Database, dbp: &whyq_session::Database, tsv: bool) {
    let (_, ms) = util::timed(|| match id {
        "tabA.1" => tables::tab_a1(ldbc, tsv),
        "tabA.2" => tables::tab_a2(dbp, tsv),
        "fig3.7" => fig3::fig3_7(ldbc, tsv),
        "fig3.8" => fig3::fig3_8(ldbc, tsv),
        "fig3.9" => fig3::fig3_9(ldbc, tsv),
        "fig3.10" => fig3::fig3_10(ldbc, tsv),
        "fig4.disc.ldbc" => fig4::disc_ldbc(ldbc, tsv),
        "fig4.disc.dbp" => fig4::disc_dbp(dbp, tsv),
        "fig4.opt" => fig4::optimizations(ldbc, tsv),
        "fig4.bnd" => fig4::bounded(ldbc, tsv),
        "fig4.user" => fig4::user_paths(ldbc, tsv),
        "fig5.prio" => fig5::priorities(ldbc, dbp, tsv),
        "fig5.est" => fig5::estimates(ldbc, dbp, tsv),
        "fig5.conv" => fig5::convergence(ldbc, tsv),
        "fig5.icc" => fig5::icc(ldbc, dbp, tsv),
        "fig5.user" => fig5::user(ldbc, tsv),
        "fig6.base" => fig6::baselines(ldbc, tsv),
        "fig6.topo" => fig6::topology(ldbc, tsv),
        "appB.1" => appendix::b1(ldbc, tsv),
        "appB.2" => appendix::b2(ldbc, tsv),
        other => eprintln!("unknown experiment id {other:?} — try `repro list`"),
    });
    println!("[{id} finished in {ms:.0} ms]\n");
}
