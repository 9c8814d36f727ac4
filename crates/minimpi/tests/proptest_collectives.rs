//! Property-based tests of the message-passing substrate: collectives
//! agree with serial reductions for arbitrary inputs and rank counts, and
//! point-to-point delivery is order- and content-exact.

use gpusim::{DataMode, DeviceContext, DeviceSpec, Phase};
use minimpi::{NetPath, ReduceOp, World};
use proptest::prelude::*;

fn ctx(rank: usize) -> DeviceContext {
    let mut spec = DeviceSpec::a100_40gb();
    spec.jitter_sigma = 0.0;
    let mut c = DeviceContext::new(spec, DataMode::Manual, rank, 1);
    c.set_phase(Phase::Compute);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce(Sum/Min/Max) equals the serial fold over all ranks'
    /// contributions, bitwise (rank-ordered deterministic reduction).
    #[test]
    fn allreduce_matches_serial_fold(
        nranks in 1usize..6,
        vals in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 3), 6),
    ) {
        let vals = std::sync::Arc::new(vals);
        let results = {
            let vals = vals.clone();
            World::run(nranks, move |comm| {
                let mut c = ctx(comm.rank());
                let mut sum = vals[comm.rank()].clone();
                comm.allreduce(ReduceOp::Sum, &mut sum, &mut c);
                let mut mn = vals[comm.rank()].clone();
                comm.allreduce(ReduceOp::Min, &mut mn, &mut c);
                let mut mx = vals[comm.rank()].clone();
                comm.allreduce(ReduceOp::Max, &mut mx, &mut c);
                (sum, mn, mx)
            })
        };
        // Serial folds in rank order.
        let mut sum = vals[0].clone();
        let mut mn = vals[0].clone();
        let mut mx = vals[0].clone();
        for r in 1..nranks {
            for i in 0..3 {
                sum[i] += vals[r][i];
                mn[i] = mn[i].min(vals[r][i]);
                mx[i] = mx[i].max(vals[r][i]);
            }
        }
        for (got_sum, got_mn, got_mx) in results {
            prop_assert_eq!(&got_sum, &sum);
            prop_assert_eq!(&got_mn, &mn);
            prop_assert_eq!(&got_mx, &mx);
        }
    }

    /// Ring exchange delivers each rank's payload to its neighbour intact,
    /// for arbitrary payloads and ring sizes, on both transfer paths.
    #[test]
    fn ring_delivery_exact(
        nranks in 1usize..6,
        payload in prop::collection::vec(-1e9f64..1e9, 1..64),
        host_path: bool,
    ) {
        let payload = std::sync::Arc::new(payload);
        let path = if host_path { NetPath::Host } else { NetPath::DeviceP2P };
        let results = {
            let payload = payload.clone();
            World::run(nranks, move |comm| {
                let mut c = ctx(comm.rank());
                let (lo, hi) = comm.phi_neighbors();
                let mut mine = payload.to_vec();
                mine.push(comm.rank() as f64);
                comm.send(hi, 5, mine, path, &c);
                comm.recv(lo, 5, &mut c)
            })
        };
        for (rank, got) in results.iter().enumerate() {
            let from = (rank + nranks - 1) % nranks;
            prop_assert_eq!(&got[..payload.len()], &payload[..]);
            prop_assert_eq!(*got.last().unwrap(), from as f64);
        }
    }

    /// Clocks end synchronized after an allreduce regardless of how skewed
    /// the ranks were beforehand.
    #[test]
    fn allreduce_synchronizes_arbitrary_skew(
        nranks in 2usize..6,
        skews in prop::collection::vec(0.0f64..5000.0, 6),
    ) {
        let skews = std::sync::Arc::new(skews);
        let times = {
            let skews = skews.clone();
            World::run(nranks, move |comm| {
                let mut c = ctx(comm.rank());
                c.charge(skews[comm.rank()], gpusim::TimeCategory::Kernel, "skew");
                let mut v = [1.0];
                comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
                c.clock.now_us()
            })
        };
        for w in times.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-9, "clocks must agree: {times:?}");
        }
        let max_skew = skews[..nranks].iter().cloned().fold(0.0, f64::max);
        prop_assert!(times[0] >= max_skew, "end time at least the slowest rank");
    }
}
