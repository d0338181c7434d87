//! Property-based tests (proptest) on the core data structures and
//! algorithmic invariants, exercised across randomized inputs.

use proptest::prelude::*;

use paris_elsa::dnn::ModelKind;
use paris_elsa::gpu::{GpuLayout, COMPUTE_SLICES, MEM_SLICES};
use paris_elsa::paris::{ElsaState, PartitionSnapshot};
use paris_elsa::prelude::*;
use paris_elsa::server::ReportDetail;
use paris_elsa::workload::{EmpiricalBatchPmf, PoissonProcess};

fn profile_size_strategy() -> impl Strategy<Value = ProfileSize> {
    prop::sample::select(ProfileSize::ALL.to_vec())
}

fn resnet_table() -> ProfileTable {
    let model = ModelKind::ResNet50.build();
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
}

/// Runs `trace` (unpinned) through `cluster` under `plan` at full detail.
fn run_plan(cluster: &Cluster, trace: &[TaggedQuerySpec], plan: &FaultPlan) -> FaultReport {
    let spec = RunSpec::new(ReportDetail::Full).with_faults(plan.compile());
    let run = cluster.run_with(trace.iter().map(|&tq| (None, tq)), &spec);
    FaultReport::new(cluster, plan, run.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- MIG geometry ----------

    #[test]
    fn placements_never_overlap_and_respect_limits(
        profiles in prop::collection::vec(profile_size_strategy(), 0..8)
    ) {
        if let Ok(layout) = GpuLayout::place(&profiles) {
            // No memory-slice overlap.
            let mut occupied = [false; MEM_SLICES];
            for &(p, start) in layout.placements() {
                #[allow(clippy::needless_range_loop)] // `s` names the slice
                for s in start..start + p.mem_slices() {
                    prop_assert!(!occupied[s], "slice {s} double-booked");
                    occupied[s] = true;
                }
                prop_assert!(p.allowed_starts().contains(&start));
            }
            prop_assert!(layout.used_gpcs() <= COMPUTE_SLICES);
            prop_assert!(layout.used_mem_slices() <= MEM_SLICES);
            prop_assert_eq!(layout.instance_count(), profiles.len());
        }
    }

    #[test]
    fn placement_is_permutation_invariant(
        profiles in prop::collection::vec(profile_size_strategy(), 0..7),
        seed in 0u64..1000
    ) {
        let mut shuffled = profiles.clone();
        // Cheap deterministic shuffle.
        if shuffled.len() > 1 {
            let k = (seed as usize) % shuffled.len();
            shuffled.rotate_left(k);
        }
        prop_assert_eq!(GpuLayout::fits(&profiles), GpuLayout::fits(&shuffled));
    }

    // ---------- Workload distributions ----------

    #[test]
    fn lognormal_pmf_sums_to_one(max_batch in 1usize..=128, sigma in 0.05f64..3.0) {
        let d = BatchDistribution::log_normal(max_batch, sigma);
        let total: f64 = (1..=max_batch).map(|b| d.pmf(b)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sums to {total}");
        prop_assert!(d.mean() >= 1.0 && d.mean() <= max_batch as f64);
    }

    #[test]
    fn samples_stay_in_support(max_batch in 1usize..=64, seed in 0u64..500) {
        use rand::SeedableRng;
        let d = BatchDistribution::log_normal(max_batch, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let b = d.sample(&mut rng);
            prop_assert!((1..=max_batch).contains(&b));
        }
    }

    #[test]
    fn poisson_gaps_nonnegative(rate in 0.1f64..1e5, seed in 0u64..500) {
        use rand::SeedableRng;
        let p = PoissonProcess::new(rate);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let g = p.sample_interarrival_s(&mut rng);
            prop_assert!(g.is_finite() && g >= 0.0);
        }
    }

    #[test]
    fn empirical_histogram_counts_balance(
        batches in prop::collection::vec(1usize..=64, 1..200)
    ) {
        let mut hist = EmpiricalBatchPmf::new(32);
        for &b in &batches {
            hist.observe(b);
        }
        prop_assert_eq!(hist.observations(), batches.len() as u64);
        let total: u64 = (1..=32).map(|b| hist.count(b)).sum();
        prop_assert_eq!(total, batches.len() as u64);
        let d = hist.to_distribution().unwrap();
        let mass: f64 = (1..=32).map(|b| d.pmf(b)).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    // ---------- DES engine ----------

    #[test]
    fn events_pop_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = paris_elsa::des::Simulation::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), t);
        }
        let mut prev = 0u64;
        let mut popped = 0usize;
        while let Some((at, _)) = sim.next_event() {
            prop_assert!(at.as_nanos() >= prev, "time ran backwards");
            prev = at.as_nanos();
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Random interleavings of every `EventQueue` operation against a
    /// `BinaryHeap` oracle that mirrors the sequence-number contract
    /// (unkeyed pushes key by `next_seq`; `pop_push` consumes one sequence
    /// number; the `push_pop` passthrough consumes none; `clear` keeps the
    /// counter running). Pop results, lengths, and front stamps must agree
    /// at every step, and the final drain must be identical.
    #[test]
    fn event_queue_matches_binary_heap_oracle(
        ops in prop::collection::vec((0u8..100, 0u64..2_000, 0u64..8), 1..400)
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use paris_elsa::des::{pack_stamp, EventQueue};

        let time_of = |stamp: u128| SimTime::from_nanos((stamp >> 64) as u64);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u128, u64, u32)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut next_id: u32 = 0;
        for &(op, raw_t, k) in &ops {
            // A sprinkle of far-future times exercises calendar re-slides.
            let t = SimTime::from_nanos(if raw_t % 53 == 0 { raw_t * 1_000_000 } else { raw_t });
            match op {
                0..=29 => {
                    oracle.push(Reverse((pack_stamp(t, seq), seq, next_id)));
                    seq += 1;
                    q.push(t, next_id);
                    next_id += 1;
                }
                30..=49 => {
                    oracle.push(Reverse((pack_stamp(t, k), seq, next_id)));
                    seq += 1;
                    q.push_keyed(t, k, next_id);
                    next_id += 1;
                }
                50..=69 => {
                    let want = oracle.pop().map(|Reverse((s, _, id))| (time_of(s), id));
                    prop_assert_eq!(q.pop(), want);
                }
                70..=84 => {
                    let want = oracle.pop().map(|Reverse((s, _, id))| (time_of(s), id));
                    oracle.push(Reverse((pack_stamp(t, k), seq, next_id)));
                    seq += 1;
                    prop_assert_eq!(q.pop_push(t, k, next_id), want);
                    next_id += 1;
                }
                85..=96 => {
                    let stamp = pack_stamp(t, k);
                    let want = match oracle.peek() {
                        Some(&Reverse((s, _, _))) if stamp >= s => {
                            let Reverse((s, _, id)) = oracle.pop().expect("peeked nonempty");
                            oracle.push(Reverse((stamp, seq, next_id)));
                            seq += 1;
                            (time_of(s), id)
                        }
                        _ => (t, next_id),
                    };
                    prop_assert_eq!(q.push_pop(t, k, next_id), want);
                    next_id += 1;
                }
                _ => {
                    oracle.clear();
                    q.clear();
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
            prop_assert_eq!(q.peek_stamp(), oracle.peek().map(|&Reverse((s, _, _))| s));
        }
        while let Some(Reverse((s, _, id))) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some((time_of(s), id)));
        }
        prop_assert!(q.is_empty());
    }

    // ---------- Performance model ----------

    #[test]
    fn estimates_are_finite_positive_and_bounded(
        b in 1usize..=64,
        size in profile_size_strategy()
    ) {
        let perf = PerfModel::new(DeviceSpec::a100());
        let model = ModelKind::MobileNet.build();
        let est = perf.inference(&model, b, size);
        prop_assert!(est.latency_s.is_finite() && est.latency_s > 0.0);
        prop_assert!((0.0..=1.0).contains(&est.utilization));
        prop_assert!((0.0..=1.0).contains(&est.flop_efficiency));
    }

    #[test]
    fn bigger_partitions_never_slower(b in 1usize..=64) {
        let perf = PerfModel::new(DeviceSpec::a100());
        let model = ModelKind::ResNet50.build();
        let mut prev = f64::INFINITY;
        for size in ProfileSize::ALL {
            let lat = perf.inference(&model, b, size).latency_s;
            prop_assert!(lat <= prev + 1e-12, "{size} slower than smaller partition at b={b}");
            prev = lat;
        }
    }

    // ---------- PARIS ----------

    #[test]
    fn paris_respects_any_budget(total in 7usize..=56, sigma in 0.2f64..2.0) {
        let gpus = total.div_ceil(7);
        let table = resnet_table();
        let dist = BatchDistribution::log_normal(32, sigma);
        let plan = Paris::new(&table, &dist)
            .plan(GpcBudget::new(total, gpus))
            .unwrap();
        prop_assert!(plan.total_gpcs_used() <= total);
        prop_assert!(plan.instance_count() >= 1);
        // Layout accounting agrees with counts.
        let placed: usize = plan.layouts().iter().map(|l| l.used_gpcs()).sum();
        prop_assert_eq!(placed, plan.total_gpcs_used());
        // Segments tile the batch axis exactly once.
        for b in 1..=32usize {
            let covering = plan.segments().iter().filter(|s| s.contains(b)).count();
            prop_assert_eq!(covering, 1, "batch {} covered {} times", b, covering);
        }
    }

    #[test]
    fn random_plans_fit_their_budget(seed in 0u64..200) {
        let plan = random_plan(GpcBudget::new(42, 6), seed).unwrap();
        prop_assert!(plan.total_gpcs_used() <= 42);
        for layout in plan.layouts() {
            prop_assert!(layout.used_gpcs() <= COMPUTE_SLICES);
        }
    }

    // ---------- ELSA ----------

    #[test]
    fn elsa_decision_is_valid_index_and_consistent(
        queued in prop::collection::vec((0u64..200_000_000, 0u64..50_000_000), 1..12),
        batch in 1usize..=32
    ) {
        let table = resnet_table();
        let elsa = Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)));
        let snaps: Vec<PartitionSnapshot> = queued
            .iter()
            .enumerate()
            .map(|(i, &(q, r))| PartitionSnapshot {
                size: ProfileSize::ALL[i % 5],
                queued_work_ns: q,
                remaining_current_ns: r,
            })
            .collect();
        let d = elsa.place(batch, &table, &snaps);
        prop_assert!(d.partition() < snaps.len());
        // If the decision claims SLA feasibility, the slack really is positive.
        if d.is_within_sla() {
            let i = d.partition();
            let t_new = table.latency_ns(snaps[i].size, batch);
            prop_assert!(elsa.slack_ns(&snaps[i], t_new) > 0.0);
        }
    }

    #[test]
    fn slack_decreases_with_queue_depth(extra in 1u64..1_000_000_000) {
        let table = resnet_table();
        let elsa = Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)));
        let idle = PartitionSnapshot::idle(ProfileSize::G3);
        let busy = PartitionSnapshot {
            size: ProfileSize::G3,
            queued_work_ns: extra,
            remaining_current_ns: 0,
        };
        let t_new = table.latency_ns(ProfileSize::G3, 8);
        prop_assert!(elsa.slack_ns(&busy, t_new) < elsa.slack_ns(&idle, t_new));
    }

    // ---------- ELSA incremental placement state ----------

    #[test]
    fn elsa_incremental_state_matches_fresh_snapshots(
        partitions in prop::collection::vec(profile_size_strategy(), 1..6),
        ops in prop::collection::vec(
            (0u64..3, 0usize..8, 100_000u64..50_000_000),
            1..120
        ),
        batch in 1usize..=32
    ) {
        // Drives an arbitrary legal (work-conserving) sequence of
        // dispatch/complete events against the incremental ElsaState and a
        // plain per-partition mirror, checking after every step that (a)
        // the state's load accounting equals freshly-built snapshots and
        // (b) place_mut equals the pure reference place, tie-breaks
        // included.
        let table = resnet_table();
        let elsa = Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)));
        let n = partitions.len();
        let mut state = ElsaState::new(&partitions);
        // Mirror: (end_ns while executing, queued estimates).
        let mut current: Vec<Option<u64>> = vec![None; n];
        let mut queues: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut now = 0u64;

        for &(kind, target, est) in &ops {
            match kind {
                // A query with execution estimate `est` lands on `target`.
                0 | 1 => {
                    let p = target % n;
                    if current[p].is_none() {
                        current[p] = Some(now + est);
                        state.begin(p, now + est);
                    } else {
                        queues[p].push(est);
                        state.enqueue(p, est);
                    }
                }
                // The earliest-finishing partition completes.
                _ => {
                    let Some((p, end)) = current
                        .iter()
                        .enumerate()
                        .filter_map(|(p, c)| c.map(|end| (p, end)))
                        .min_by_key(|&(p, end)| (end, p))
                    else {
                        continue;
                    };
                    now = end;
                    current[p] = None;
                    state.finish(p);
                    if !queues[p].is_empty() {
                        let next_est = queues[p].remove(0);
                        state.dequeue(p, next_est);
                        current[p] = Some(now + next_est);
                        state.begin(p, now + next_est);
                    }
                }
            }

            // (a) Incremental load accounting == freshly-built snapshots.
            let fresh: Vec<PartitionSnapshot> = (0..n)
                .map(|p| PartitionSnapshot {
                    size: partitions[p],
                    queued_work_ns: queues[p].iter().sum(),
                    remaining_current_ns: current[p].map_or(0, |end| end - now),
                })
                .collect();
            prop_assert_eq!(&state.snapshots(now), &fresh);

            // (b) Fast placement == pure reference placement.
            let reference = elsa.place(batch, &table, &fresh);
            let fast = elsa.place_mut(batch, &table, &mut state, now);
            prop_assert_eq!(fast, reference);
        }
    }

    // ---------- Server fast path vs reference ----------

    #[test]
    fn server_fast_path_matches_reference(
        rate in 50f64..2_000.0,
        seed in 0u64..50,
        scheduler in 0u64..2
    ) {
        let table = resnet_table();
        let sla = table.sla_target_ns(1.5);
        let kind = if scheduler == 0 {
            SchedulerKind::Fifs
        } else {
            SchedulerKind::Elsa(ElsaConfig::new(sla))
        };
        let server = InferenceServer::new(
            vec![ProfileSize::G1, ProfileSize::G2, ProfileSize::G2, ProfileSize::G7],
            table,
            ServerConfig::new(kind),
        );
        let trace = TraceGenerator::new(rate, BatchDistribution::paper_default(), seed)
            .generate_for(0.2);
        let fast = server.run(&trace);
        let reference = server.run_reference(&trace);
        prop_assert_eq!(&fast.records, &reference.records);
        prop_assert_eq!(&fast.partition_utilization, &reference.partition_utilization);
        prop_assert_eq!(fast.makespan, reference.makespan);
        prop_assert!(
            fast.peak_pending_events <= server.partitions().len() + 2,
            "streamed queue must stay O(partitions), got {}",
            fast.peak_pending_events
        );
    }

    #[test]
    fn summary_reports_match_full_statistics(rate in 100f64..1_500.0, seed in 0u64..50) {
        let table = resnet_table();
        let sla = table.sla_target_ns(1.5);
        let server = InferenceServer::new(
            vec![ProfileSize::G2, ProfileSize::G3, ProfileSize::G7],
            table,
            ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))),
        );
        let trace = TraceGenerator::new(rate, BatchDistribution::paper_default(), seed)
            .generate_for(0.2);
        let full = server.run(&trace);
        let summary = server.run_stream_sla(trace.iter().copied(), ReportDetail::Summary, None);
        prop_assert!(summary.records.is_empty());
        prop_assert_eq!(summary.completed(), full.completed());
        prop_assert_eq!(summary.makespan, full.makespan);
        prop_assert_eq!(summary.achieved_qps, full.achieved_qps);
        prop_assert_eq!(&summary.partition_utilization, &full.partition_utilization);
        if full.completed() > 0 {
            let exact = full.p95_ms();
            let approx = summary.p95_ms();
            prop_assert!(
                (approx / exact - 1.0).abs() < 0.016,
                "histogram p95 {} vs exact {}", approx, exact
            );
            // Violation-rate error is confined to the histogram bucket the
            // SLA falls in (≤ 1.6 % wide): every sample outside that band
            // is classified exactly.
            let boundary_mass = full
                .latency
                .samples_ns()
                .iter()
                .filter(|&&v| (v as f64 / sla as f64 - 1.0).abs() <= 0.016)
                .count() as f64
                / full.completed() as f64;
            prop_assert!(
                (summary.sla_violation_rate(sla) - full.sla_violation_rate(sla)).abs()
                    <= boundary_mass + 1e-9,
                "violation-rate error exceeds the boundary-bucket mass {}", boundary_mass
            );
        }
    }

    // ---------- Multi-model serving ----------

    #[test]
    fn multi_model_with_single_model_degenerates_to_single_path(
        rate in 50f64..1_500.0,
        seed in 0u64..50,
        scheduler in 0u64..2,
        partitions in prop::collection::vec(profile_size_strategy(), 1..6)
    ) {
        // The degeneration contract: a MultiModelServer hosting exactly
        // one model (no replan policy) reproduces InferenceServer
        // bit-for-bit — same records, same latency samples, same
        // utilization. InferenceServer runs as that 1-model server, so
        // this checks its config-to-ModelSpec and report translation.
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::TaggedQuerySpec;

        let table = resnet_table();
        let sla = table.sla_target_ns(1.5);
        let kind = if scheduler == 0 {
            SchedulerKind::Fifs
        } else {
            SchedulerKind::Elsa(ElsaConfig::new(sla))
        };
        let single = InferenceServer::new(
            partitions.clone(),
            table.clone(),
            ServerConfig::new(kind.clone()).with_sla_target(sla),
        );
        let dist = BatchDistribution::paper_default();
        let multi = MultiModelServer::with_groups(
            vec![ModelSpec::new("only", table, dist.clone())
                .with_scheduler(kind)
                .with_sla_ns(sla)],
            vec![partitions],
            GpcBudget::new(56, 8),
            MultiModelConfig::new(),
        );

        let trace = TraceGenerator::new(rate, dist, seed).generate_for(0.2);
        let tagged: Vec<TaggedQuerySpec> = trace
            .iter()
            .map(|&spec| TaggedQuerySpec { model: 0, spec })
            .collect();
        let expected = single.run(&trace);
        let got = multi.run(&tagged);

        prop_assert_eq!(&got.records, &expected.records);
        prop_assert_eq!(&got.latency, &expected.latency);
        prop_assert_eq!(&got.partition_utilization, &expected.partition_utilization);
        prop_assert_eq!(got.makespan, expected.makespan);
        prop_assert_eq!(got.achieved_qps, expected.achieved_qps);
        prop_assert_eq!(got.per_model[0].sla_violations, expected.sla_violations);
        prop_assert!(got.reconfigs.is_empty());
        prop_assert!(got.record_models.iter().all(|&m| m == 0));
    }

    #[test]
    fn one_shard_cluster_degenerates_to_multi_model_server(
        rate in 50f64..1_200.0,
        seed in 0u64..40,
        scheduler in 0u64..2,
        router in 0u64..2,
        partitions in prop::collection::vec(profile_size_strategy(), 1..6)
    ) {
        // The cluster degeneration contract: a Cluster hosting exactly one
        // shard (no loan policy) must reproduce the shard's own
        // MultiModelServer run bit-for-bit — same records, same latency
        // samples, same utilization — for every router policy, pinning the
        // cluster layer to the server semantics (which the multi-model
        // degeneration test in turn pins to the single-model fast path).
        use paris_elsa::cluster::{Cluster, RouterPolicy};
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::TaggedQuerySpec;

        let table = resnet_table();
        let sla = table.sla_target_ns(1.5);
        let kind = if scheduler == 0 {
            SchedulerKind::Fifs
        } else {
            SchedulerKind::Elsa(ElsaConfig::new(sla))
        };
        let dist = BatchDistribution::paper_default();
        let server = MultiModelServer::with_groups(
            vec![ModelSpec::new("only", table, dist.clone())
                .with_scheduler(kind)
                .with_sla_ns(sla)],
            vec![partitions],
            GpcBudget::new(56, 8),
            MultiModelConfig::new(),
        );
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            _ => RouterPolicy::JoinShortestQueue,
        };
        let cluster = Cluster::new(vec![server.clone()], policy);

        let trace = TraceGenerator::new(rate, dist, seed).generate_for(0.2);
        let tagged: Vec<TaggedQuerySpec> = trace
            .iter()
            .map(|&spec| TaggedQuerySpec { model: 0, spec })
            .collect();
        let expected = server.run(&tagged);
        let arrivals = tagged.iter().map(|&tq| (None, tq));
        let got = cluster.run_with(arrivals, &RunSpec::new(ReportDetail::Full)).report;

        prop_assert_eq!(got.per_shard.len(), 1);
        prop_assert_eq!(&got.routed, &vec![tagged.len() as u64]);
        let shard = &got.per_shard[0];
        prop_assert_eq!(&shard.records, &expected.records);
        prop_assert_eq!(&shard.latency, &expected.latency);
        prop_assert_eq!(&shard.partition_utilization, &expected.partition_utilization);
        prop_assert_eq!(shard.makespan, expected.makespan);
        prop_assert_eq!(shard.achieved_qps, expected.achieved_qps);
        prop_assert_eq!(
            shard.per_model[0].sla_violations,
            expected.per_model[0].sla_violations
        );
        prop_assert_eq!(got.completed(), expected.completed());
        prop_assert!(got.loans.is_empty());
        prop_assert_eq!(got.loaned_gpu_seconds, 0.0);
    }

    #[test]
    fn multi_model_replanning_conserves_queries(
        seed in 0u64..20,
        window_s in 0.1f64..0.4
    ) {
        // A mid-run re-plan must never drop or double-serve a query, for
        // any drift-window phasing relative to the traffic.
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer, ReplanPolicy};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let spec = |kind: ModelKind| {
            let t = ProfileTable::profile(&kind.build(), &perf, &ProfileSize::ALL, 32);
            ModelSpec::new(format!("{kind}"), t, dist.clone())
        };
        let server = MultiModelServer::new(
            vec![spec(ModelKind::MobileNet), spec(ModelKind::ResNet50)],
            GpcBudget::new(48, 8),
            MultiModelConfig::new().with_replan(ReplanPolicy::new(window_s)),
        )
        .unwrap();

        let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
        let large = BatchDistribution::log_normal_with_median(32, 0.9, 12.0);
        let trace = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.0, vec![(400.0, small.clone()), (40.0, small.clone())]),
                PhaseSpec::new(1.0, vec![(40.0, small), (250.0, large)]),
            ],
            seed,
        )
        .generate();
        let report = server.run(&trace);
        prop_assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
        for r in &report.records {
            prop_assert!(r.arrival <= r.dispatched);
            prop_assert!(r.dispatched <= r.started);
            prop_assert!(r.started < r.completed);
        }
    }

    #[test]
    fn rolling_replanning_conserves_queries_at_every_step(
        seed in 0u64..20,
        window_s in 0.1f64..0.4
    ) {
        // The rolling-reconfiguration conservation contract: a re-plan
        // staged one GPU at a time must never drop or double-serve a
        // query at *any* step of the schedule, for any drift-window
        // phasing relative to the traffic — quiesced instances drain,
        // partially-rebuilt groups keep serving, stashed arrivals come
        // back once capacity returns.
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::paris::ReconfigMode;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer, ReplanPolicy};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let spec = |kind: ModelKind| {
            let t = ProfileTable::profile(&kind.build(), &perf, &ProfileSize::ALL, 32);
            ModelSpec::new(format!("{kind}"), t, dist.clone())
        };
        let server = MultiModelServer::new(
            vec![spec(ModelKind::MobileNet), spec(ModelKind::ResNet50)],
            GpcBudget::new(48, 8),
            MultiModelConfig::new()
                .with_replan(ReplanPolicy::new(window_s).with_mode(ReconfigMode::Rolling)),
        )
        .unwrap();

        let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
        let large = BatchDistribution::log_normal_with_median(32, 0.9, 12.0);
        let trace = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.0, vec![(400.0, small.clone()), (40.0, small.clone())]),
                PhaseSpec::new(1.0, vec![(40.0, small), (250.0, large)]),
            ],
            seed,
        )
        .generate();
        let report = server.run(&trace);
        prop_assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
        for r in &report.records {
            prop_assert!(r.arrival <= r.dispatched);
            prop_assert!(r.dispatched <= r.started);
            prop_assert!(r.started < r.completed);
        }
        for rc in &report.reconfigs {
            prop_assert!(rc.steps >= 1);
            prop_assert!(rc.completed_at >= rc.triggered_at + rc.reslice_delay);
        }
    }

    // ---------- Metrics ----------

    #[test]
    fn percentiles_are_order_statistics(samples in prop::collection::vec(0u64..10_000_000, 1..300)) {
        let rec: LatencyRecorder = samples.iter().copied().collect();
        let p50 = rec.percentile_ns(0.5);
        let p95 = rec.percentile_ns(0.95);
        let p100 = rec.percentile_ns(1.0);
        prop_assert!(p50 <= p95 && p95 <= p100);
        prop_assert_eq!(p100, *samples.iter().max().unwrap());
        prop_assert!(samples.contains(&p95), "percentile must be an observed sample");
    }

    // ---------- Fault injection ----------

    #[test]
    fn fault_plans_never_drop_or_double_serve(
        seed in 0u64..24,
        mttf_s in 0.8f64..2.0,
        mttr_s in 0.15f64..0.5,
        shard_fail_s in 0.2f64..0.7,
        degrade_factor in 1.0f64..4.0,
        degrade_at in 0.1f64..0.6,
        margin in 0.3f64..1.5
    ) {
        // The graceful-degradation conservation contract (ARCHITECTURE.md
        // invariants 9 and 10): for ANY fault plan — sampled GPU outages
        // layered over a whole shard drain and a slow-GPU window, at any
        // phasing against the traffic, with brownout shedding active —
        // every offered query is EXACTLY served-or-shed: fail → drain/
        // requeue → re-plan never strands or double-serves, shedding never
        // double-counts, and premium (class 0) is never shed.
        use paris_elsa::cluster::{Cluster, RouterPolicy, ShedPolicy};
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let shard = |gpus: usize| {
            MultiModelServer::new(
                vec![
                    ModelSpec::new("premium", table.clone(), dist.clone()),
                    ModelSpec::new("batch", table.clone(), dist.clone()),
                ],
                GpcBudget::new(gpus * 7, gpus),
                MultiModelConfig::new(),
            )
            .unwrap()
        };
        let cluster = Cluster::new(vec![shard(2), shard(2)], RouterPolicy::JoinShortestQueue)
            .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(margin));
        let rate = 0.3
            * cluster
                .shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace = MultiTraceGenerator::new(
            vec![PhaseSpec::new(1.2, vec![(rate, dist.clone()), (rate, dist)])],
            seed,
        )
        .generate();
        let plan = FaultPlan::sample_gpu_mttf(&[2, 2], mttf_s, mttr_s, 1.2, seed)
            .with_shard_outage(1, shard_fail_s, 0.9)
            .with_gpu_degrade(0, 0, degrade_factor, degrade_at, degrade_at + 0.4);
        let report = run_plan(&cluster, &trace, &plan);
        let completed: u64 = report
            .cluster
            .per_shard
            .iter()
            .map(|r| r.records.len() as u64)
            .sum();
        prop_assert_eq!(
            completed + report.shed_total,
            trace.len() as u64,
            "offered must be exactly served + shed"
        );
        prop_assert_eq!(
            report.shed_total,
            report.cluster.shed_per_model.iter().sum::<u64>(),
            "shed aggregates must agree"
        );
        prop_assert_eq!(
            report.shed_per_class.first().copied().unwrap_or(0),
            0u64,
            "premium is never shed"
        );
        for shard_report in &report.cluster.per_shard {
            let mut ids: Vec<u64> = shard_report.records.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), shard_report.records.len(), "double-served");
            for r in &shard_report.records {
                prop_assert!(r.arrival <= r.dispatched);
                prop_assert!(r.dispatched <= r.started);
                prop_assert!(r.started < r.completed);
            }
        }
        prop_assert!(report.base_availability <= 1.0);
        prop_assert!(report.effective_availability <= 1.0);
    }

    #[test]
    fn correlated_domain_outages_conserve_queries(
        seed in 0u64..20,
        mttf_s in 1.0f64..2.5,
        mttr_s in 0.2f64..0.5,
        gpus_per_rack in 1usize..=3
    ) {
        // Correlated (rack-level) failures are just simultaneous per-GPU
        // events: whatever windows the domain sampler draws, and however
        // many GPUs die together, conservation holds and availability
        // stays a valid fraction.
        use paris_elsa::cluster::{Cluster, RouterPolicy};
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::faults::FaultTopology;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let shard = |gpus: usize| {
            MultiModelServer::new(
                vec![ModelSpec::new("m", table.clone(), dist.clone())],
                GpcBudget::new(gpus * 7, gpus),
                MultiModelConfig::new(),
            )
            .unwrap()
        };
        let shard_gpus = [2usize, 2];
        let cluster = Cluster::new(vec![shard(2), shard(2)], RouterPolicy::JoinShortestQueue);
        let rate = 0.5
            * cluster
                .shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(1.2, vec![(rate, dist)])], seed)
                .generate();
        let topo = FaultTopology::racks(&shard_gpus, gpus_per_rack);
        let plan = FaultPlan::sample_domain_mttf(&topo, mttf_s, mttr_s, 1.2, seed);
        let report = run_plan(&cluster, &trace, &plan);
        let completed: usize = report
            .cluster
            .per_shard
            .iter()
            .map(|r| r.records.len())
            .sum();
        prop_assert_eq!(completed, trace.len(), "dropped or invented a query");
        for shard_report in &report.cluster.per_shard {
            let mut ids: Vec<u64> = shard_report.records.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), shard_report.records.len(), "double-served");
        }
        prop_assert!((0.0..=1.0).contains(&report.base_availability));
        prop_assert!((0.0..=1.0).contains(&report.effective_availability));
    }

    #[test]
    fn unit_factor_degrades_are_bit_for_bit_the_fault_free_run(
        seed in 0u64..20,
        degrade_at in 0.05f64..0.5,
        width in 0.1f64..0.6,
        gpu in 0usize..2
    ) {
        // The degenerate-degrade contract: a degrade/restore cycle with
        // factor exactly 1.0 — at any phasing, on any GPU — leaves no
        // trace beyond the fault log. Records, histograms, makespan and
        // reconfiguration history are bit-identical to the fault-free run.
        use paris_elsa::cluster::{Cluster, RouterPolicy};
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let server = MultiModelServer::new(
            vec![ModelSpec::new("m", table, dist.clone())],
            GpcBudget::new(14, 2),
            MultiModelConfig::new(),
        )
        .unwrap();
        let rate = 0.7 * server.capacity_hint_qps();
        let cluster = Cluster::new(vec![server], RouterPolicy::JoinShortestQueue);
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(1.0, vec![(rate, dist)])], seed)
                .generate();
        let plain = run_plan(&cluster, &trace, &FaultPlan::new());
        let unit = run_plan(
            &cluster,
            &trace,
            &FaultPlan::new().with_gpu_degrade(0, gpu, 1.0, degrade_at, degrade_at + width),
        );
        prop_assert_eq!(unit.cluster.faults.len(), 2, "degrade + restore logged");
        prop_assert_eq!(&unit.cluster.routed, &plain.cluster.routed);
        prop_assert_eq!(unit.cluster.makespan, plain.cluster.makespan);
        for (a, b) in unit.cluster.per_shard.iter().zip(&plain.cluster.per_shard) {
            prop_assert_eq!(&a.records, &b.records);
            prop_assert_eq!(&a.latency, &b.latency);
            prop_assert_eq!(a.makespan, b.makespan);
            prop_assert_eq!(&a.reconfigs, &b.reconfigs);
        }
    }

    // ---------- Shard-parallel determinism ----------

    #[test]
    fn parallel_cluster_is_bit_identical_to_sequential(
        seed in 0u64..12,
        router in 0u64..2,
        loan in 0u64..2,
        mode in 0u64..2,
        mttf_s in 0.9f64..2.0,
        mttr_s in 0.15f64..0.4,
        degrade_factor in 1.0f64..4.0
    ) {
        // The shard-parallel determinism contract (ARCHITECTURE.md
        // invariant 11): for ANY router policy, loan policy, sampled
        // fault plan and sync-window mode, running the cluster on 2, 3, 4
        // or 8 lane threads, or one more than it has shards (uneven
        // chunks, more threads than lanes), produces a report
        // byte-identical to the single-thread run — compared on the full
        // `Debug` rendering, so every record, histogram bucket, float,
        // loan ledger entry and fault-log line must agree, not just
        // aggregate counts.
        use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy, ShedPolicy, SyncWindow};
        use paris_elsa::dnn::ModelKind;
        use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer};
        use paris_elsa::workload::{MultiTraceGenerator, PhaseSpec};

        let perf = PerfModel::new(DeviceSpec::a100());
        let dist = BatchDistribution::paper_default();
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let shard = |gpus: usize| {
            MultiModelServer::new(
                vec![
                    ModelSpec::new("premium", table.clone(), dist.clone()),
                    ModelSpec::new("batch", table.clone(), dist.clone()),
                ],
                GpcBudget::new(gpus * 7, gpus),
                MultiModelConfig::new(),
            )
            .unwrap()
        };
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            _ => RouterPolicy::JoinShortestQueue,
        };
        let mut cluster = Cluster::new(vec![shard(2), shard(2), shard(2)], policy)
            .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.8));
        if loan > 0 {
            cluster = cluster.with_loan(LoanPolicy::new(2, 0.15));
        }
        let rate = 0.45
            * cluster
                .shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace = MultiTraceGenerator::new(
            vec![PhaseSpec::new(0.7, vec![(rate, dist.clone()), (rate, dist)])],
            seed,
        )
        .generate();
        let timeline = FaultPlan::sample_gpu_mttf(&[2, 2, 2], mttf_s, mttr_s, 0.7, seed)
            .with_gpu_degrade(1, 0, degrade_factor, 0.1, 0.45)
            .compile();
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };
        let run = |threads: usize| {
            let spec = RunSpec::new(ReportDetail::Full)
                .with_faults(timeline.clone())
                .with_window(window, threads);
            cluster.run_with(trace.iter().map(|&tq| (None, tq)), &spec).report
        };
        let reference = format!("{:?}", run(1));
        let mut counts = vec![2usize, 3, 4, 8, cluster.shards().len() + 1];
        counts.sort_unstable();
        counts.dedup();
        for threads in counts {
            let got = format!("{:?}", run(threads));
            prop_assert_eq!(
                &got,
                &reference,
                "report diverged at {} threads ({:?})",
                threads,
                window
            );
        }
    }

    // ---------- Server end-to-end ----------

    #[test]
    fn server_conserves_queries_and_orders_lifecycles(
        rate in 50f64..2_000.0,
        seed in 0u64..100
    ) {
        let table = resnet_table();
        let sla = table.sla_target_ns(1.5);
        let server = InferenceServer::new(
            vec![ProfileSize::G1, ProfileSize::G2, ProfileSize::G3, ProfileSize::G7],
            table,
            ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))),
        );
        let trace = TraceGenerator::new(rate, BatchDistribution::paper_default(), seed)
            .generate_for(0.2);
        let report = server.run(&trace);
        prop_assert_eq!(report.records.len(), trace.len());
        for r in &report.records {
            prop_assert!(r.arrival <= r.dispatched);
            prop_assert!(r.dispatched <= r.started);
            prop_assert!(r.started < r.completed);
        }
        for &u in &report.partition_utilization {
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }
}
