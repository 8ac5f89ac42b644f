//! Self-check: every headline claim of the paper, written once as a
//! predicate over the cells that the figures and tables print, and
//! reported PASS/FAIL. This is the one-command answer to "does the
//! reproduction still reproduce?" after any model change.
//!
//! A cell is a file, a row and a column: `fig1a.txt`, row `bytes=16`
//! (the header's first label, `=`, the row's label), column
//! `dev2dev-direct`. Each claim names every cell it read, as printed, so
//! a `[FAIL]` shows the numbers the reader reads.

use std::cmp::Ordering::{self, Equal, Greater, Less};
use std::fmt::Debug;
use std::ops::RangeBounds;

/// The experiments whose printed tables the claims read.
pub const READS: [&str; 8] = [
    "fig1a",
    "fig1b",
    "fig2",
    "fig4a",
    "fig4b",
    "fig5",
    "table1",
    "verbs-instr",
];

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where in the paper the claim comes from.
    pub source: &'static str,
    /// What is being checked.
    pub statement: &'static str,
    /// Whether the printed figures reproduce it.
    pub holds: bool,
    /// What the predicate computed and wanted, or the cell it could not
    /// read.
    pub verdict: String,
    /// Every cell the predicate read, as printed.
    pub cells: Vec<String>,
}

/// Whether a condition holds, and what it computed and wanted.
type Verdict = (bool, String);

/// A number read or computed, or what could not be read.
type Read<T> = Result<T, String>;

const HOST: &str = "dev2dev-hostControlled";
const ASSISTED: &str = "dev2dev-assisted";
const BLOCKS: &str = "dev2dev-blocks";
const GPU: &str = "dev2dev-bufOnGPU";
const SYS: &str = "sysmem(sim)";
const DEV: &str = "devmem(sim)";
const SYSMEM_READS: &str = "metric=sysmem reads (32B accesses)";
const L2_HITS: &str = "metric=l2 read hits";

/// Evaluate every claim over `printed`, the text each experiment of
/// [`READS`] printed, by id. A table, row or column that is missing
/// fails the claims that read it; their verdict names what is missing.
pub fn evaluate(printed: &[(&str, &str)]) -> Vec<Claim> {
    let mut c = Cells {
        printed,
        ..Cells::default()
    };
    c.source = "SV-A.1";
    c.claim("EXTOLL GPU-direct latency is ~2x host-controlled", |c| {
        let [direct, host] = c.read("fig1a", "bytes=16", ["dev2dev-direct", HOST])?;
        Ok(within("direct/host", direct / host, 1.5..3.5))
    });
    c.claim("pollOnGPU drops below host-assisted", |c| {
        let [poll, assisted] = c.read("fig1a", "bytes=16", ["dev2dev-pollOnGPU", ASSISTED])?;
        Ok(cmp("pollOnGPU", poll, Less, assisted))
    });
    c.claim("EXTOLL bandwidth drops past 1 MiB (PCIe P2P reads)", |c| {
        drops_past_1mib(c, "fig1b")
    });
    c.source = "SV-A.2";
    c.claim("EXTOLL rate ordering: host > assisted > GPU blocks", |c| {
        let [host, assisted, blocks] = c.read("fig2", "pairs=8", [HOST, ASSISTED, BLOCKS])?;
        Ok(all([
            cmp("host", host, Greater, assisted),
            cmp("assisted", assisted, Greater, blocks),
        ]))
    });
    c.claim("EXTOLL blocks and kernels post at similar rates", |c| {
        blocks_like_kernels(c, "fig2")
    });
    c.source = "Table I";
    c.claim(
        "devmem polling: L2 hits, no sysmem reads, ~3 WR/iter",
        |c| {
            let [reads] = c.read("table1", SYSMEM_READS, [DEV])?;
            let [writes] = c.read("table1", "metric=sysmem writes (32B accesses)", [DEV])?;
            let [hits] = c.read("table1", L2_HITS, [DEV])?;
            Ok(all([
                cmp("sysmem reads", reads, Equal, 0.0),
                within("sysmem writes", writes, 250.0..=450.0),
                cmp("L2 hits", hits, Greater, 1000.0),
            ]))
        },
    );
    c.claim("notification polling: sysmem reads, no L2 hits", |c| {
        let [reads] = c.read("table1", SYSMEM_READS, [SYS])?;
        let [hits] = c.read("table1", L2_HITS, [SYS])?;
        Ok(all([
            cmp("sysmem reads", reads, Greater, 500.0),
            cmp("L2 hits", hits, Equal, 0.0),
        ]))
    });
    c.claim("notification polling executes more instructions", |c| {
        let [sys, dev] = c.read("table1", "metric=instructions executed", [SYS, DEV])?;
        Ok(cmp("sysmem instructions", sys, Greater, dev))
    });
    c.source = "SV-B.1";
    c.claim("IB GPU latency far above host for small messages", |c| {
        let [gpu, host] = c.read("fig4a", "bytes=4", [GPU, HOST])?;
        let [gpu_big, host_big] = c.read("fig4a", "bytes=262144", [GPU, HOST])?;
        let (small, big) = (gpu / host, gpu_big / host_big);
        Ok(all([
            cmp("bufOnGPU/host at 4 B", small, Greater, 3.0),
            cmp("bufOnGPU/host at 256 KiB", big, Less, small / 2.0),
        ]))
    });
    c.claim("IB buffer placement makes only a small difference", |c| {
        let mut verdicts = Vec::new();
        for row in ["bytes=4", "bytes=1024"] {
            let [gpu, host] = c.read("fig4a", row, [GPU, "dev2dev-bufOnHost"])?;
            let what = format!("bufOnGPU/bufOnHost at {row}");
            verdicts.push(within(&what, gpu / host, 0.7..1.3));
        }
        Ok(all(verdicts))
    });
    c.claim("IB bandwidth drops past 1 MiB", |c| {
        drops_past_1mib(c, "fig4b")
    });
    c.source = "SV-B.2";
    c.claim("IB blocks and kernels post at similar rates", |c| {
        blocks_like_kernels(c, "fig5")
    });
    c.claim("GPU blocks trail the host at 1 QP, near it at 32", |c| {
        let [gpu1, host1] = c.read("fig5", "pairs=1", [BLOCKS, HOST])?;
        let [gpu32, host32] = c.read("fig5", "pairs=32", [BLOCKS, HOST])?;
        Ok(all([
            cmp("blocks at 1 pair", gpu1, Less, 0.3 * host1),
            within("blocks/host at 32 pairs", gpu32 / host32, 0.6..1.5),
        ]))
    });
    c.claim("assisted rate flat beyond 4 pairs (one proxy)", |c| {
        let [four] = c.read("fig5", "pairs=4", [ASSISTED])?;
        let [many] = c.read("fig5", "pairs=32", [ASSISTED])?;
        Ok(within("32 pairs / 4 pairs", many / four, 0.6..1.4))
    });
    c.source = "SV-B.3";
    c.claim("~442 instructions per post_send, ~283 per poll_cq", |c| {
        let post = "operation=ibv_post_send";
        let [post] = c.read("verbs-instr", post, ["simulated"])?;
        let poll = "operation=ibv_poll_cq (success)";
        let [poll] = c.read("verbs-instr", poll, ["simulated"])?;
        Ok(all([
            within("ibv_post_send", post, 400.0..=480.0),
            within("ibv_poll_cq", poll, 255.0..=315.0),
        ]))
    });
    c.claims
}

/// §V-A.1 / §V-B.1: host-controlled streaming bandwidth at 4 MiB is
/// below 80% of the 1 MiB figure (the PCIe peer-to-peer read issue).
fn drops_past_1mib(c: &mut Cells<'_>, file: &str) -> Read<Verdict> {
    let [at_1mib] = c.read(file, "bytes=1048576", [HOST])?;
    let [at_4mib] = c.read(file, "bytes=4194304", [HOST])?;
    Ok(cmp("4 MiB", at_4mib, Less, 0.8 * at_1mib))
}

/// §V-A.2: posting from several blocks performs like several kernels.
fn blocks_like_kernels(c: &mut Cells<'_>, file: &str) -> Read<Verdict> {
    let [blocks, kernels] = c.read(file, "pairs=8", [BLOCKS, "dev2dev-kernels"])?;
    Ok(within("blocks/kernels", blocks / kernels, 0.8..1.25))
}

/// A number as a verdict shows it: whole numbers bare, others to three
/// decimals like the figures.
fn show(x: f64) -> String {
    format!("{:.*}", if x.fract() == 0.0 { 0 } else { 3 }, x)
}

fn within(what: &str, x: f64, range: impl RangeBounds<f64> + Debug) -> Verdict {
    let holds = range.contains(&x);
    (holds, format!("{what} = {}, wanted in {range:?}", show(x)))
}

/// `x` is less than, greater than or equal to `limit`, as `want` says.
fn cmp(what: &str, x: f64, want: Ordering, limit: f64) -> Verdict {
    let op = ["<", "=", ">"][(want as i8 + 1) as usize];
    let text = format!("{what} = {}, wanted {op} {}", show(x), show(limit));
    (x.partial_cmp(&limit) == Some(want), text)
}

/// Every condition holds; the verdicts joined.
fn all(verdicts: impl IntoIterator<Item = Verdict>) -> Verdict {
    let (holds, texts): (Vec<bool>, Vec<String>) = verdicts.into_iter().unzip();
    (holds.iter().all(|&h| h), texts.join("; "))
}

/// The printed tables, the claims evaluated so far, the paper section of
/// the next ones and the cells the current claim has read.
#[derive(Default)]
struct Cells<'a> {
    printed: &'a [(&'a str, &'a str)],
    source: &'static str,
    read: Vec<String>,
    claims: Vec<Claim>,
}

impl Cells<'_> {
    /// Evaluate one claim; `Err` from its predicate names a cell it could
    /// not read, and fails it.
    fn claim(
        &mut self,
        statement: &'static str,
        predicate: impl FnOnce(&mut Self) -> Read<Verdict>,
    ) {
        let (holds, verdict) = predicate(self).unwrap_or_else(|missing| (false, missing));
        let cells = std::mem::take(&mut self.read);
        let source = self.source;
        self.claims.push(Claim {
            source,
            statement,
            holds,
            verdict,
            cells,
        });
    }

    /// The numbers in `file`'s row `row` and columns `cols`. A table is a
    /// `#` title, a header (the row key's name, then one label per
    /// column, then an optional `[unit]`) and rows whose last tokens are
    /// the columns' cells.
    fn read<const N: usize>(&mut self, file: &str, row: &str, cols: [&str; N]) -> Read<[f64; N]> {
        let (_, text) = (self.printed.iter().find(|(id, _)| *id == file))
            .ok_or_else(|| format!("{file}.txt was not printed"))?;
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let header = lines.next().unwrap_or("").split('[').next().unwrap_or("");
        let header: Vec<&str> = header.split_whitespace().collect();
        let (key, labels) = header.split_first().unwrap_or((&"", &[]));
        let cells = lines.find_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            let at = t.len().checked_sub(labels.len())?;
            (format!("{key}={}", t[..at].join(" ")) == row).then(|| t[at..].to_vec())
        });
        let cells = cells.ok_or_else(|| format!("{file}.txt has no row {row}"))?;
        let mut values = [0.0; N];
        for (value, col) in values.iter_mut().zip(cols) {
            let at = (labels.iter().position(|l| *l == col))
                .ok_or_else(|| format!("{file}.txt has no column {col}"))?;
            let name = format!("{file}.txt row {row}, column {col}");
            self.read.push(format!("{name}: {}", cells[at]));
            *value = (cells[at].parse())
                .map_err(|_| format!("{name} is {:?}, not a number", cells[at]))?;
        }
        Ok(values)
    }
}

/// The `check` report: one `[PASS]`/`[FAIL]` entry per claim with its
/// verdict and the cells it read, then the count that passed.
pub fn render(claims: &[Claim]) -> String {
    use std::fmt::Write;
    let mut out =
        String::from("# self-check: the paper's headline claims, read from the printed figures\n");
    for c in claims {
        let tag = if c.holds { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "[{tag}] {:8} {}", c.source, c.statement);
        let _ = writeln!(out, "         -> {}", c.verdict);
        for cell in &c.cells {
            let _ = writeln!(out, "            {cell}");
        }
    }
    let passed = claims.iter().filter(|c| c.holds).count();
    let _ = write!(out, "\n{passed}/{} claims reproduced.\n", claims.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(id: &str) -> String {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        std::fs::read_to_string(format!("{dir}/{id}.txt")).unwrap()
    }

    /// The report over the committed figures, where the row of `file`
    /// that starts with `x` is replaced by `edit` of its tokens.
    fn report(file: &str, x: &str, edit: fn(&[&str]) -> String) -> String {
        let edited = |id: &str| {
            let text = committed(id);
            let starts = |l: &&str| id == file && l.split_whitespace().next() == Some(x);
            let Some(row) = text.lines().find(starts) else {
                return text;
            };
            let tokens: Vec<&str> = row.split_whitespace().collect();
            text.replace(&format!("{row}\n"), &edit(&tokens))
        };
        let texts: Vec<String> = READS.iter().map(|id| edited(id)).collect();
        let printed: Vec<(&str, &str)> = READS
            .into_iter()
            .zip(texts.iter().map(|t| t.as_str()))
            .collect();
        render(&evaluate(&printed))
    }

    #[test]
    fn every_claim_passes_the_self_check() {
        // The committed figures reproduce every claim, and the committed
        // check.txt is exactly their report.
        let report = report("", "", |_| unreachable!());
        assert!(report.ends_with("\n15/15 claims reproduced.\n"), "{report}");
        assert_eq!(report, committed("check"));
    }

    #[test]
    fn a_doctored_figure_fails_its_claim_and_quotes_the_cells() {
        // Direct GPU control as fast as host control at 16 B.
        let edit = |t: &[&str]| format!("{} 5.000 {} {} 5.000\n", t[0], t[2], t[3]);
        let report = report("fig1a", "16", edit);
        let entry = "[FAIL] SV-A.1   EXTOLL GPU-direct latency is ~2x host-controlled\n         \
            -> direct/host = 1, wanted in 1.5..3.5\n            \
            fig1a.txt row bytes=16, column dev2dev-direct: 5.000\n            \
            fig1a.txt row bytes=16, column dev2dev-hostControlled: 5.000\n";
        assert!(report.contains(entry), "{report}");
        assert!(report.ends_with("\n14/15 claims reproduced.\n"), "{report}");
    }

    #[test]
    fn a_missing_row_fails_the_claims_that_read_it() {
        let report = report("fig1b", "4194304", |_| String::new());
        let entry = "[FAIL] SV-A.1   EXTOLL bandwidth drops past 1 MiB (PCIe P2P reads)\n         \
            -> fig1b.txt has no row bytes=4194304\n";
        assert!(report.contains(entry), "{report}");
        assert!(report.ends_with("\n14/15 claims reproduced.\n"), "{report}");
        // Nothing printed fails every claim, without a panic.
        let none = render(&evaluate(&[]));
        assert!(none.ends_with("\n0/15 claims reproduced.\n"), "{none}");
    }
}
