//! Golden digests: the committed record every op's output is compared
//! against, for the default seed and one held-out seed.
//!
//! Op digests are folded into blocks (50 simulation ops, or 1,000 serve
//! replies) and only block digests are committed, which keeps the files
//! small while still pinning every op a run can reach.

use crate::stats::Fnv;
use std::collections::BTreeMap;

/// Seeds with committed goldens: the default seed and a held-out one.
pub const SEEDS: [u64; 2] = [1, 1000];

/// The committed golden file of a workload.
fn golden_text(workload: &str) -> &'static str {
    match workload {
        "sparse-1k" => include_str!("../golden/sparse-1k.txt"),
        "sparse-crash" => include_str!("../golden/sparse-crash.txt"),
        "saturated-32" => include_str!("../golden/saturated-32.txt"),
        "channels-4" => include_str!("../golden/channels-4.txt"),
        "segments-4" => include_str!("../golden/segments-4.txt"),
        "serve-churn" => include_str!("../golden/serve-churn.txt"),
        _ => "",
    }
}

/// Block digests by `(seed, block)`.
pub type Blocks = BTreeMap<(u64, u64), u64>;

/// Parses a golden file: `seed block digest-hex` per line, `#` comments.
pub fn parse(text: &str) -> Result<Blocks, String> {
    let mut blocks = Blocks::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            [seed, block, digest] => seed
                .parse()
                .ok()
                .zip(block.parse().ok())
                .zip(u64::from_str_radix(digest, 16).ok()),
            _ => None,
        };
        let ((seed, block), digest) =
            parsed.ok_or_else(|| format!("golden line {}: cannot parse {line:?}", n + 1))?;
        blocks.insert((seed, block), digest);
    }
    Ok(blocks)
}

/// Renders block digests in the golden file format.
pub fn render(workload: &str, block_ops: usize, blocks: &Blocks) -> String {
    let mut out =
        format!("# {workload}: FNV-1a digest of each block of {block_ops} op digests, by seed\n");
    for ((seed, block), digest) in blocks {
        out.push_str(&format!("{seed} {block} {digest:016x}\n"));
    }
    out
}

/// Digests of every complete block of `block_ops` op digests.
pub fn block_digests(op_digests: &[u64], block_ops: usize) -> Vec<u64> {
    op_digests
        .chunks_exact(block_ops)
        .map(|block| {
            let mut h = Fnv::default();
            block.iter().for_each(|&d| h.u64(d));
            h.finish()
        })
        .collect()
}

/// The outcome of comparing a run against the goldens.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Blocks that had a golden to compare against.
    pub checked_blocks: usize,
    /// Op index ranges of blocks whose digest differed.
    pub mismatched: Vec<std::ops::Range<usize>>,
}

/// Compares a run's op digests against the committed goldens for `seed`.
pub fn check(
    workload: &str,
    seed: u64,
    op_digests: &[u64],
    block_ops: usize,
) -> Result<Verdict, String> {
    compare(&parse(golden_text(workload))?, seed, op_digests, block_ops)
}

fn compare(
    golden: &Blocks,
    seed: u64,
    op_digests: &[u64],
    block_ops: usize,
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    for (block, digest) in block_digests(op_digests, block_ops).into_iter().enumerate() {
        if let Some(&want) = golden.get(&(seed, block as u64)) {
            verdict.checked_blocks += 1;
            if want != digest {
                verdict
                    .mismatched
                    .push(block * block_ops..(block + 1) * block_ops);
            }
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_files_round_trip_and_compare() {
        let ops: Vec<u64> = (0..25).collect();
        let digests = block_digests(&ops, 10);
        assert_eq!(digests.len(), 2, "the partial last block is not digested");
        assert_eq!(
            digests,
            block_digests(&ops, 10),
            "block digests are deterministic"
        );
        let mut blocks = Blocks::new();
        for (i, d) in digests.iter().enumerate() {
            blocks.insert((1, i as u64), *d);
        }
        let text = render("w", 10, &blocks);
        assert_eq!(parse(&text).expect("parses"), blocks);

        let clean = compare(&blocks, 1, &ops, 10).expect("compares");
        assert_eq!(clean.checked_blocks, 2);
        assert!(clean.mismatched.is_empty());
        let mut broken = ops.clone();
        broken[13] ^= 1;
        let bad = compare(&blocks, 1, &broken, 10).expect("compares");
        assert_eq!(bad.mismatched, vec![10..20]);
        let other_seed = compare(&blocks, 2, &ops, 10).expect("compares");
        assert_eq!(other_seed.checked_blocks, 0, "other seeds are unchecked");
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn committed_goldens_parse() {
        for workload in crate::workload::workloads(false) {
            parse(golden_text(workload.name)).expect("committed golden parses");
        }
    }
}
