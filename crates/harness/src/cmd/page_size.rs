//! Extension ablation: sensitivity of the DSM versions to the page size.
//!
//! The paper's platform fixes 4 KB pages; this study varies the page size
//! (the classic software-DSM trade-off: larger pages amortize fault and
//! message overheads but amplify false sharing and transfer volume).
//!
//! Usage: `page_size [scale] [nprocs]` (defaults 0.1 and 8).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;
use apps::{AppId, Version};

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Page-size ablation, hand-coded TreadMarks (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec!["Program", "Page", "Speedup", "Messages", "Data KB"]);
    for app in [AppId::Jacobi, AppId::IGrid] {
        let seq = crate::oracle::run(&cli.spec(app, Version::Seq)).time_us;
        for page_words in [128usize, 256, 512, 1024, 2048] {
            let mut spec = cli.spec(app, Version::Tmk);
            spec.cfg.page_words = page_words;
            let r = crate::oracle::run(&spec);
            t.row(vec![
                app.name().to_string(),
                format!("{} B", page_words * 8),
                f2(r.speedup_vs(seq)),
                r.messages.to_string(),
                r.kbytes.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&t));
    Ok(())
}
