//! Extension ablation: sensitivity of the DSM versions to the page size.
//!
//! The paper's platform fixes 4 KB pages; this study varies the page size
//! (the classic software-DSM trade-off: larger pages amortize fault and
//! message overheads but amplify false sharing and transfer volume).
//!
//! Usage: `page_size [scale] [nprocs]` (defaults 0.1 and 8).

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

const APPS: [AppId; 2] = [AppId::Jacobi, AppId::IGrid];
const PAGE_WORDS: [usize; 5] = [128, 256, 512, 1024, 2048];

/// `app`'s hand-coded TreadMarks version with `page_words`-word pages.
fn spec(cli: &Cli, app: AppId, page_words: usize) -> RunSpec {
    let mut spec = cli.spec(app, Version::Tmk);
    spec.cfg.page_words = page_words;
    spec
}

pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    let pages = |app| PAGE_WORDS.map(|words| spec(cli, app, words));
    APPS.into_iter().flat_map(pages).collect()
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Page-size ablation, hand-coded TreadMarks (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec!["Program", "Page", "Speedup", "Messages", "Data KB"]);
    for app in APPS {
        for page_words in PAGE_WORDS {
            let spec = spec(cli, app, page_words);
            let r = cells.get(&spec);
            t.row(vec![
                app.name().to_string(),
                format!("{} B", page_words * 8),
                f2(cells.speedup(&spec)),
                r.messages.to_string(),
                r.kbytes.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&t));
}
