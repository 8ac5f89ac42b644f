//! The paper's headline claims — the *shape* results EXPERIMENTS.md
//! reports — asserted on the figures and tables `reproduce --quick`
//! prints. Each claim is written once, as a predicate in
//! `tc_putget::bench::check`; each test names the claims of one paper
//! statement (§V and Table I).

use std::sync::OnceLock;

use tc_repro::bench::pool::Pool;
use tc_repro::bench::{run_all, Scale, WorkloadKnobs};
use tc_repro::putget::bench::check::{evaluate, Claim, READS};

/// Every claim, evaluated once over the quick-scale figures.
fn claims() -> &'static [Claim] {
    static CLAIMS: OnceLock<Vec<Claim>> = OnceLock::new();
    CLAIMS.get_or_init(|| {
        let knobs = WorkloadKnobs::default();
        let (outputs, _) = run_all(&Pool::new(2), &READS, Scale::quick(), &knobs);
        let texts = outputs.iter().map(|o| o.text.as_str());
        evaluate(&READS.into_iter().zip(texts).collect::<Vec<_>>())
    })
}

/// Assert the claims with these statements.
fn holds(statements: &[&str]) {
    for s in statements {
        let c = claims().iter().find(|c| c.statement == *s);
        let c = c.unwrap_or_else(|| panic!("no claim {s:?}"));
        assert!(c.holds, "[{}] {}: {}", c.source, c.statement, c.verdict);
    }
}

/// One test per paper statement, asserting the claims that make it up.
macro_rules! statements {
    ($($test:ident: $($claim:literal),+;)+) => {$(
        #[test]
        fn $test() {
            holds(&[$($claim),+]);
        }
    )+};
}

statements! {
    extoll_gpu_direct_latency_is_about_twice_host: "EXTOLL GPU-direct latency is ~2x host-controlled";
    extoll_pollongpu_beats_assisted: "pollOnGPU drops below host-assisted";
    bandwidth_drops_past_one_mib_on_both_backends:
        "EXTOLL bandwidth drops past 1 MiB (PCIe P2P reads)", "IB bandwidth drops past 1 MiB";
    extoll_message_rate_ordering: "EXTOLL rate ordering: host > assisted > GPU blocks";
    blocks_equal_kernels_on_both_backends:
        "EXTOLL blocks and kernels post at similar rates",
        "IB blocks and kernels post at similar rates";
    ib_gpu_latency_much_higher_for_small_messages:
        "IB GPU latency far above host for small messages";
    ib_buffer_placement_small_difference: "IB buffer placement makes only a small difference";
    ib_assisted_rate_flat_beyond_four_pairs:
        "assisted rate flat beyond 4 pairs (one proxy)";
    ib_blocks_approach_host_rate_at_32_pairs:
        "GPU blocks trail the host at 1 QP, near it at 32";
    table1_polling_contrast_holds:
        "devmem polling: L2 hits, no sysmem reads, ~3 WR/iter",
        "notification polling: sysmem reads, no L2 hits",
        "notification polling executes more instructions";
    verbs_micro_instruction_counts: "~442 instructions per post_send, ~283 per poll_cq";
}
