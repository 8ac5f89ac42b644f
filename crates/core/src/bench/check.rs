//! Self-check: re-evaluate every headline claim of the paper at runtime
//! and report PASS/FAIL. This is the one-command answer to "does the
//! reproduction still reproduce?" after any model change.

use super::bandwidth::extoll_bandwidth;
use super::counters::{table1, verbs_instruction_counts};
use super::msgrate::{extoll_msgrate, ib_msgrate};
use super::pingpong::{extoll_pingpong, ib_pingpong};
use super::{ExtollMode, IbMode, RateMode};

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where in the paper the claim comes from.
    pub source: &'static str,
    /// What is being checked.
    pub statement: &'static str,
    /// Whether the simulation reproduces it.
    pub holds: bool,
    /// The measured evidence, human-readable.
    pub evidence: String,
}

/// Number of independent probes. Each probe owns its simulations (fresh
/// clusters throughout) and yields one or more claims; concatenating the
/// probe results in index order reproduces [`evaluate`] exactly, so a job
/// pool can run the probes concurrently.
pub const PROBES: usize = 8;

/// Evaluate probe `i` (`0..PROBES`).
pub fn probe(i: usize, iters: u32) -> Vec<Claim> {
    match i {
        0 => probe_extoll_latency(iters),
        1 => probe_extoll_bandwidth(),
        2 => probe_extoll_rate(),
        3 => probe_table1(),
        4 => probe_ib_latency(iters),
        5 => probe_ib_rate_32qp(),
        6 => probe_ib_rate_assisted(),
        7 => probe_verbs_instructions(),
        other => panic!("claims probe {other} out of range (0..{PROBES})"),
    }
}

/// Evaluate every claim (about a minute of simulation at `iters` ping-pong
/// iterations). Serial; see [`probe`] for the parallel decomposition.
pub fn evaluate(iters: u32) -> Vec<Claim> {
    (0..PROBES).flat_map(|i| probe(i, iters)).collect()
}

fn probe_extoll_latency(iters: u32) -> Vec<Claim> {
    let mut claims = Vec::new();

    let direct = extoll_pingpong(ExtollMode::Dev2DevDirect, 16, iters, 2);
    let poll = extoll_pingpong(ExtollMode::Dev2DevPollOnGpu, 16, iters, 2);
    let assisted = extoll_pingpong(ExtollMode::Dev2DevAssisted, 16, iters, 2);
    let host = extoll_pingpong(ExtollMode::HostControlled, 16, iters, 2);
    let ratio = direct.half_rtt as f64 / host.half_rtt as f64;
    claims.push(Claim {
        source: "SV-A.1",
        statement: "EXTOLL GPU-direct latency is ~2x host-controlled",
        holds: (1.5..3.5).contains(&ratio),
        evidence: format!(
            "{:.2} us vs {:.2} us ({ratio:.2}x)",
            direct.latency_us(),
            host.latency_us()
        ),
    });
    claims.push(Claim {
        source: "SV-A.1",
        statement: "pollOnGPU drops below host-assisted",
        holds: poll.half_rtt < assisted.half_rtt,
        evidence: format!(
            "{:.2} us vs {:.2} us",
            poll.latency_us(),
            assisted.latency_us()
        ),
    });
    claims
}

fn probe_extoll_bandwidth() -> Vec<Claim> {
    let mut claims = Vec::new();
    let bw_1m = extoll_bandwidth(ExtollMode::HostControlled, 1 << 20, 10);
    let bw_4m = extoll_bandwidth(ExtollMode::HostControlled, 4 << 20, 8);
    claims.push(Claim {
        source: "SV-A.1",
        statement: "EXTOLL bandwidth drops past 1 MiB (PCIe P2P reads)",
        holds: bw_4m.mbytes_per_s() < 0.8 * bw_1m.mbytes_per_s(),
        evidence: format!(
            "{:.0} -> {:.0} MB/s",
            bw_1m.mbytes_per_s(),
            bw_4m.mbytes_per_s()
        ),
    });
    claims
}

fn probe_extoll_rate() -> Vec<Claim> {
    let mut claims = Vec::new();
    let r_host = extoll_msgrate(RateMode::HostControlled, 8, 50);
    let r_asst = extoll_msgrate(RateMode::Dev2DevAssisted, 8, 50);
    let r_gpu = extoll_msgrate(RateMode::Dev2DevBlocks, 8, 50);
    claims.push(Claim {
        source: "SV-A.2",
        statement: "EXTOLL rate ordering: host > assisted > GPU blocks",
        holds: r_host.msgs_per_s() > r_asst.msgs_per_s()
            && r_asst.msgs_per_s() > r_gpu.msgs_per_s(),
        evidence: format!(
            "{:.0} > {:.0} > {:.0} msg/s",
            r_host.msgs_per_s(),
            r_asst.msgs_per_s(),
            r_gpu.msgs_per_s()
        ),
    });
    claims
}

fn probe_table1() -> Vec<Claim> {
    let mut claims = Vec::new();
    let (sys, dev) = table1();
    claims.push(Claim {
        source: "Table I",
        statement: "devmem polling: zero sysmem reads, ~3 WR writes/iter, L2 hits",
        holds: dev.sysmem_reads == 0
            && (250..=450).contains(&dev.sysmem_writes)
            && dev.l2_read_hits > 1000
            && sys.l2_read_hits == 0,
        evidence: format!(
            "dev: {} reads / {} writes / {} L2 hits; sys: {} L2 hits",
            dev.sysmem_reads, dev.sysmem_writes, dev.l2_read_hits, sys.l2_read_hits
        ),
    });
    claims.push(Claim {
        source: "Table I",
        statement: "notification polling executes more instructions",
        holds: sys.instructions > dev.instructions,
        evidence: format!("{} vs {}", sys.instructions, dev.instructions),
    });
    claims
}

fn probe_ib_latency(iters: u32) -> Vec<Claim> {
    let mut claims = Vec::new();
    let ib_gpu = ib_pingpong(IbMode::Dev2DevBufOnGpu, 4, iters.min(15), 2);
    let ib_buf = ib_pingpong(IbMode::Dev2DevBufOnHost, 4, iters.min(15), 2);
    let ib_host = ib_pingpong(IbMode::HostControlled, 4, iters.min(15), 2);
    claims.push(Claim {
        source: "SV-B.1",
        statement: "IB GPU-initiated latency much higher than CPU-initiated",
        holds: ib_gpu.half_rtt > 3 * ib_host.half_rtt,
        evidence: format!(
            "{:.2} us vs {:.2} us ({:.1}x)",
            ib_gpu.latency_us(),
            ib_host.latency_us(),
            ib_gpu.half_rtt as f64 / ib_host.half_rtt as f64
        ),
    });
    let placement = ib_gpu.half_rtt as f64 / ib_buf.half_rtt as f64;
    claims.push(Claim {
        source: "SV-B.1",
        statement: "IB buffer placement makes only a small difference",
        holds: (0.7..1.3).contains(&placement),
        evidence: format!(
            "bufOnGPU/bufOnHost = {placement:.2} ({:.2} vs {:.2} us)",
            ib_gpu.latency_us(),
            ib_buf.latency_us()
        ),
    });
    claims
}

fn probe_ib_rate_32qp() -> Vec<Claim> {
    let mut claims = Vec::new();
    let ib32_gpu = ib_msgrate(RateMode::Dev2DevBlocks, 32, 40);
    let ib32_host = ib_msgrate(RateMode::HostControlled, 32, 40);
    let reach = ib32_gpu.msgs_per_s() / ib32_host.msgs_per_s();
    claims.push(Claim {
        source: "SV-B.2",
        statement: "at 32 QPs the GPU reaches almost the host message rate",
        holds: (0.6..1.5).contains(&reach),
        evidence: format!(
            "{:.0} vs {:.0} msg/s ({:.0}%)",
            ib32_gpu.msgs_per_s(),
            ib32_host.msgs_per_s(),
            100.0 * reach
        ),
    });
    claims
}

fn probe_ib_rate_assisted() -> Vec<Claim> {
    let mut claims = Vec::new();
    let asst4 = ib_msgrate(RateMode::Dev2DevAssisted, 4, 40);
    let asst32 = ib_msgrate(RateMode::Dev2DevAssisted, 32, 40);
    let flat = asst32.msgs_per_s() / asst4.msgs_per_s();
    claims.push(Claim {
        source: "SV-B.2",
        statement: "assisted rate flat beyond 4 pairs (single proxy thread)",
        holds: (0.6..1.4).contains(&flat),
        evidence: format!("x{flat:.2} from 4 to 32 pairs"),
    });
    claims
}

fn probe_verbs_instructions() -> Vec<Claim> {
    let mut claims = Vec::new();
    let (post, pollc) = verbs_instruction_counts();
    claims.push(Claim {
        source: "SV-B.3",
        statement: "442 instructions per ibv_post_send, 283 per ibv_poll_cq",
        holds: (400..=480).contains(&post) && (255..=315).contains(&pollc),
        evidence: format!("{post} and {pollc}"),
    });

    claims
}

/// Render claims gathered per [`probe`], in probe-index order. The second
/// return value is `true` when every claim passed.
pub fn render_claims(claims: &[Claim]) -> (String, bool) {
    let mut out = String::from("# self-check: the paper's headline claims, re-evaluated\n");
    let mut all = true;
    for c in claims {
        all &= c.holds;
        out.push_str(&format!(
            "[{}] {:8} {}\n         -> {}\n",
            if c.holds { "PASS" } else { "FAIL" },
            c.source,
            c.statement,
            c.evidence
        ));
    }
    out.push_str(&format!(
        "\n{}/{} claims reproduced.\n",
        claims.iter().filter(|c| c.holds).count(),
        claims.len()
    ));
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_passes_the_self_check() {
        let claims = evaluate(15);
        for c in &claims {
            assert!(c.holds, "[{}] {}: {}", c.source, c.statement, c.evidence);
        }
        assert!(claims.len() >= 10);
    }
}
