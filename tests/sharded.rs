//! The sharded parameter store's correctness contract:
//!
//! 1. Routing — every boundary index (first and last entry of every shard,
//!    ragged tails included) routes to the shard whose range contains it,
//!    and the shard ranges are a contiguous partition of `0..d`.
//! 2. Store equivalence — a `ParamStore` with one shard or many lands
//!    disjoint deterministic update streams *bit-identically* to a plain
//!    serial `Vec<f64>` reference (`prev = x[j]; x[j] += delta`) at every
//!    thread count. The reference shares no code with `AtomicF64`.
//! 3. The cross-backend invariant (sequential ≡ simulated-serial ≡
//!    1-thread hogwild) holds with a 1-shard and a multi-shard store
//!    underneath the native backend, on the dense and the sparse path, and a
//!    1-thread run is bit-identical at 1 shard and at 4 (identical claim
//!    schedule).
//! 4. Property: for random dimensions and shard counts, a serial op stream
//!    through the store returns the reference's prior values and lands on
//!    its final state bit for bit, and the per-shard update counters
//!    account for exactly the ops routed into each range.

use asyncsgd::prelude::*;
use proptest::prelude::*;

#[test]
fn routing_covers_every_boundary_index() {
    // Exact chunks, ragged, prime, shards > d (clamped), single-shard, and
    // a count that chunk rounding realises as fewer shards.
    for (d, shards) in [
        (64, 4),
        (65, 4),
        (10, 3),
        (97, 8),
        (7, 16),
        (1, 1),
        (1024, 6),
    ] {
        let router = ShardRouter::new(d, shards);
        let n = router.shard_count();
        assert!(n >= 1 && n <= d.min(shards), "new({d},{shards}) -> {n}");
        // The ranges are a contiguous partition of 0..d.
        let mut at = 0;
        for s in 0..n {
            let range = router.range(s);
            assert_eq!(range.start, at, "d={d} shards={shards} shard {s}");
            assert!(!range.is_empty(), "empty shard {s} (d={d} shards={shards})");
            at = range.end;
            // First and last index of the shard route back to (s, offset).
            assert_eq!(router.route(range.start), (s, 0));
            assert_eq!(router.route(range.end - 1), (s, range.len() - 1));
            // The entry just past the boundary belongs to the next shard.
            if range.end < d {
                assert_eq!(router.route(range.end), (s + 1, 0));
            }
        }
        assert_eq!(at, d, "ranges must cover the full dimension");
    }
}

/// Applies a deterministic per-thread update stream (thread `t` owns the
/// indices `j ≡ t (mod threads)`) so each entry sees a fixed sequence of
/// `fetch&add`s regardless of interleaving — the final state is then a
/// function of the streams alone, and must be bitwise equal to the serial
/// reference. Every `fetch&add` must also return the entry's prior value in
/// that reference, since its owning thread is the entry's only writer.
fn run_disjoint_streams(store: &ParamStore, x0: &[f64], threads: usize) {
    let d = x0.len();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut writer = StoreWriter::new(store);
                let mut local = x0.to_vec();
                for step in 0..50 {
                    for j in (t..d).step_by(threads) {
                        let delta = stream_delta(j, step);
                        let prev = writer.fetch_add(j, delta);
                        assert_eq!(prev.to_bits(), local[j].to_bits(), "entry {j}");
                        local[j] += delta;
                    }
                }
            });
        }
    });
}

fn stream_delta(j: usize, step: usize) -> f64 {
    0.5 + (j as f64) * 0.125 + (step as f64) * 0.0625
}

#[test]
fn one_shard_and_many_shard_stores_match_flat_bit_for_bit_at_every_thread_count() {
    let d = 96;
    let x0: Vec<f64> = (0..d).map(|j| (j as f64) * 0.25 - 8.0).collect();
    // The plain serial reference: the flat array of the paper's machine.
    let mut reference = x0.clone();
    for step in 0..50 {
        for (j, x) in reference.iter_mut().enumerate() {
            *x += stream_delta(j, step);
        }
    }
    for threads in [1, 2, 4, 8] {
        let one = ParamStore::new(&x0, 1);
        let many = ParamStore::new(&x0, 6);
        run_disjoint_streams(&one, &x0, threads);
        run_disjoint_streams(&many, &x0, threads);
        for (name, store) in [("one-shard", &one), ("six-shard", &many)] {
            assert_eq!(store.snapshot().len(), d);
            for (j, (a, b)) in reference.iter().zip(store.snapshot()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads} {name}: entry {j}: reference {a} vs {b}"
                );
            }
        }
        assert_eq!(one.shard_count(), 1);
        assert_eq!(many.shard_count(), 6, "d = 96 chunks into 6 × 16");
        assert_eq!(one.total_updates(), 50 * d as u64);
        assert_eq!(many.total_updates(), 50 * d as u64);
    }
}

fn sharded_spec(sparse: SparsePathSpec, shards: ShardsSpec) -> RunSpec {
    RunSpec::new(
        OracleSpec::new("sparse-quadratic", 32).sigma(0.3),
        BackendKind::Hogwild,
    )
    .threads(1)
    .iterations(3_000)
    .learning_rate(0.01)
    .x0(vec![1.0; 32])
    .scheduler(SchedulerSpec::Serial)
    .seed(1234)
    .sparse(sparse)
    .shards(shards)
}

#[test]
fn cross_backend_invariant_holds_on_the_sharded_store() {
    // sequential ≡ simulated-serial ≡ 1-thread hogwild, bit for bit, with
    // the native backend routing through the default 1-shard store and a
    // multi-shard one — on both the dense and the sparse path. The
    // simulated and sequential backends have no arenas (their reports say
    // so); a 1-thread serial claim schedule makes the comparison exact.
    // Fixed(3) at d = 32 rounds the chunk ceil(32/3) = 11 up to 16, so the
    // report carries the realised 2.
    let cases = [
        (SparsePathSpec::Dense, ShardsSpec::default(), 1),
        (SparsePathSpec::Sparse, ShardsSpec::default(), 1),
        (SparsePathSpec::Dense, ShardsSpec::Fixed(3), 2),
        (SparsePathSpec::Sparse, ShardsSpec::Fixed(3), 2),
    ];
    for (path, shards, realized) in cases {
        let spec = sharded_spec(path, shards);
        let sequential = run_spec(&spec.clone().backend(BackendKind::Sequential)).unwrap();
        let simulated = run_spec(&spec.clone().backend(BackendKind::SimulatedLockFree)).unwrap();
        let hogwild = run_spec(&spec).unwrap();
        assert_eq!(sequential.shards, None, "no arenas under sequential");
        assert_eq!(simulated.shards, None, "no arenas under the simulator");
        assert_eq!(hogwild.shards, Some(realized), "the realized shard count");
        for (name, other) in [("simulated-serial", &simulated), ("hogwild-1", &hogwild)] {
            for (j, (a, b)) in sequential
                .final_model
                .iter()
                .zip(&other.final_model)
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{path:?}/{shards:?}/{name}: entry {j}: sequential {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn one_thread_sharded_run_is_bit_identical_to_flat() {
    // Same spec, same serial claim schedule — only the shard count differs.
    // The regression oracle: routing must never change which cell an index
    // denotes or the order its updates apply in.
    for path in [SparsePathSpec::Dense, SparsePathSpec::Sparse] {
        let flat = run_spec(&sharded_spec(path, ShardsSpec::default())).unwrap();
        let sharded = run_spec(&sharded_spec(path, ShardsSpec::Fixed(4))).unwrap();
        assert_eq!(flat.shards, Some(1), "a default native run reports 1 shard");
        assert_eq!(sharded.shards, Some(4));
        for (j, (a, b)) in flat
            .final_model
            .iter()
            .zip(&sharded.final_model)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{path:?}: entry {j}: flat {a} vs sharded {b}"
            );
        }
        assert_eq!(
            flat.final_dist_sq.to_bits(),
            sharded.final_dist_sq.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A serial op stream through the store — one shard and a random shard
    /// count — returns the serial reference's prior value at every op and
    /// lands bit for bit on its final state, with the per-shard counters
    /// accounting for exactly the ops routed into each range.
    #[test]
    fn sharded_stores_apply_op_streams_bit_identically_to_flat(
        d in 1_usize..300,
        shards in 1_usize..40,
        raw_ops in proptest::collection::vec((any::<u32>(), -1.0_f64..1.0), 0..64),
    ) {
        let x0: Vec<f64> = (0..d).map(|j| (j as f64) * 0.1 - 3.0).collect();
        let ops: Vec<(usize, f64)> = raw_ops
            .iter()
            .map(|&(raw, delta)| (raw as usize % d, delta))
            .collect();

        let mut reference = x0.clone();
        let one = ParamStore::new(&x0, 1);
        let chunked = ParamStore::new(&x0, shards);
        for &(j, delta) in &ops {
            let prev = reference[j];
            reference[j] += delta;
            for store in [&one, &chunked] {
                prop_assert_eq!(store.fetch_add(j, delta).to_bits(), prev.to_bits(), "prior value at {}", j);
            }
        }
        for store in [&one, &chunked] {
            for (j, (a, b)) in reference.iter().zip(store.snapshot()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "entry {}", j);
            }
            // Counter accounting: each shard's counter is the number of ops
            // whose index its range contains; quiescent double-collect
            // validates and returns the same vector.
            prop_assert_eq!(store.total_updates(), ops.len() as u64);
            let mut counts = Vec::new();
            prop_assert!(store.coherent_update_counts(&mut counts), "quiescent");
            for (s, &count) in counts.iter().enumerate() {
                let range = store.router().range(s);
                let expected = ops.iter().filter(|&&(j, _)| range.contains(&j)).count();
                prop_assert_eq!(count, expected as u64, "shard {}", s);
                prop_assert_eq!(store.shard_updates(s), expected as u64);
            }
        }
    }

    /// Routing is a bijection onto arena slots: every index of a random
    /// dimension routes into the range that claims it, at the offset the
    /// range implies.
    #[test]
    fn every_index_routes_into_its_claimed_range(
        d in 1_usize..2_000,
        shards in 1_usize..64,
    ) {
        let router = ShardRouter::new(d, shards);
        for j in 0..d {
            let (s, off) = router.route(j);
            let range = router.range(s);
            prop_assert!(range.contains(&j), "index {} vs shard {} range {:?}", j, s, range);
            prop_assert_eq!(off, j - range.start);
        }
    }
}
