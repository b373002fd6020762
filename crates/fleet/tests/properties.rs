//! PR-7 fleet property tests.
//!
//! - **No starvation**: under sustained interactive saturation, a
//!   background tenant with any nonzero weight is dequeued within a
//!   bounded number of dispatches.
//! - **Hot reload keeps the zero-drop drain invariant**: every request
//!   admitted against the old version of a name is answered — by the old
//!   version — while the new version takes over new traffic, across
//!   worker counts and batch mixes.
//! - **Scheduling never changes results**: whatever tenants, priorities,
//!   and dequeue order the weighted-fair policy produces, served logits
//!   stay bit-identical to the model's single-request answer.

use fab_fleet::{
    ClassWeights, Fleet, FleetConfig, ModelSpec, ModelState, QosPolicy, TenantQuota, TenantTable,
};
use fab_nn::{Model, ModelConfig, ModelKind};
use fab_serve::policy::{BatchPolicy, Priority, QueuedRequest, RequestQos};
use fab_serve::{InferenceSession, ServeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model_for(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(&ModelConfig::tiny_for_tests(), ModelKind::FabNet, &mut rng)
}

fn mixed_batch(rng: &mut StdRng, n: usize, vocab: usize, max_len: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..vocab)).collect()
        })
        .collect()
}

fn spec(name: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        task: "text".to_string(),
        arch: "fabnet".to_string(),
        precision: "f32".to_string(),
    }
}

fn fleet_config(num_workers: usize) -> FleetConfig {
    FleetConfig {
        serve: ServeConfig {
            max_batch: 3,
            max_wait_us: 200,
            num_workers,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn qos_req(tenant: &str, priority: Priority) -> QueuedRequest {
    QueuedRequest::detached(
        vec![1, 2, 3],
        None,
        RequestQos { tenant: Some(tenant.to_string()), priority },
    )
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A background tenant with a nonzero weight, queued behind a
    // firehose of interactive traffic from several tenants, is dequeued
    // within a bounded number of dispatches. The bound follows from the
    // stride arithmetic: background owns `1/(16+4+1)` of dequeues at the
    // default class weights, so its head emerges within ~21 dispatches —
    // we assert a loose 64. Starvation (the pre-weighted-fair failure
    // mode) would blow past any bound as long as interactive stays
    // saturated.
    #[test]
    fn background_tenant_wait_is_bounded_under_saturation(
        bg_weight in 0.1f64..8.0,
        interactive_tenants in 1usize..5,
        seed in 0u64..1000,
    ) {
        let table = Arc::new(TenantTable::new(
            TenantQuota::default(),
            vec![("bg".to_string(), TenantQuota { weight: bg_weight, ..TenantQuota::default() })],
        ));
        let mut policy = QosPolicy::new(ClassWeights::default(), 0, table);
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> =
            (0..interactive_tenants).map(|i| format!("fg{i}")).collect();
        // Pre-fill interactive lanes, then the one background request.
        for _ in 0..8 {
            for name in &names {
                policy.admit(qos_req(name, Priority::Interactive)).unwrap();
            }
        }
        policy.admit(qos_req("bg", Priority::Background)).unwrap();
        let mut dispatches = 0usize;
        loop {
            // Keep interactive saturated: every dispatched slot is refilled.
            let request = policy.pop();
            prop_assert!(request.is_some(), "saturated policy must dispatch");
            let request = request.expect("checked above");
            dispatches += 1;
            if request.qos().tenant.as_deref() == Some("bg") {
                break;
            }
            let refill = &names[rng.gen_range(0..names.len())];
            policy.admit(qos_req(refill, Priority::Interactive)).unwrap();
            prop_assert!(
                dispatches <= 64,
                "background tenant (weight {bg_weight}) starved for {dispatches} dispatches"
            );
        }
    }

    // Hot reload under load: requests admitted against v1 are all
    // answered by v1 (logits match the v1 model bit-for-bit), requests
    // after the swap are answered by v2, nothing is dropped, and the
    // name's version bumps — across worker counts and batch mixes.
    #[test]
    fn hot_reload_preserves_the_zero_drop_drain_invariant(
        num_workers in 1usize..4,
        before in 1usize..24,
        after in 1usize..24,
        seed in 0u64..500,
    ) {
        let v1 = model_for(seed);
        let v2 = model_for(seed ^ 0xfeed);
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e1);
        let fleet = Fleet::new(fleet_config(num_workers));
        fleet.load(spec("m"), InferenceSession::exact(&v1)).expect("v1 loads");

        let batch_v1 = mixed_batch(&mut rng, before, config.vocab_size, config.max_seq);
        let pending_v1: Vec<_> = batch_v1
            .iter()
            .map(|t| {
                fleet
                    .submit("m", Some("alice"), Priority::Interactive, t.clone(), None)
                    .expect("admitted against v1")
            })
            .collect();

        // Swap in v2 while v1's requests are (mostly) still queued.
        let info = fleet.load(spec("m"), InferenceSession::exact(&v2)).expect("reload");
        prop_assert_eq!(info.version, 2);

        let batch_v2 = mixed_batch(&mut rng, after, config.vocab_size, config.max_seq);
        let pending_v2: Vec<_> = batch_v2
            .iter()
            .map(|t| {
                fleet
                    .submit("m", Some("bob"), Priority::Batch, t.clone(), None)
                    .expect("admitted against v2")
            })
            .collect();

        // Every admitted request is answered — by the version it was
        // admitted against.
        for (tokens, p) in batch_v1.iter().zip(pending_v1) {
            let served = p.wait().expect("v1 request answered across the reload");
            prop_assert_eq!(&served.logits, &v1.predict(tokens));
        }
        for (tokens, p) in batch_v2.iter().zip(pending_v2) {
            let served = p.wait().expect("v2 request answered");
            prop_assert_eq!(&served.logits, &v2.predict(tokens));
        }

        // With every handle dropped, v1 drains to `retired`.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let retired = fleet
                .models()
                .iter()
                .any(|m| m.version == 1 && m.state == ModelState::Retired);
            if retired {
                break;
            }
            prop_assert!(Instant::now() < deadline, "v1 never retired: {:?}", fleet.models());
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.shutdown();
    }

    // Weighted-fair scheduling across tenants and priority classes never
    // changes logits: every request's answer is bit-identical to the
    // model's direct single-request prediction.
    #[test]
    fn scheduling_order_never_changes_logits(
        n in 1usize..24,
        num_workers in 1usize..4,
        seed in 0u64..500,
    ) {
        let model = model_for(seed);
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let fleet = Fleet::new(fleet_config(num_workers));
        fleet.load(spec("m"), InferenceSession::exact(&model)).expect("loads");
        let tenants = ["alice", "bob", "carol"];
        let batch = mixed_batch(&mut rng, n, config.vocab_size, config.max_seq);
        let pending: Vec<_> = batch
            .iter()
            .map(|t| {
                let tenant = tenants[rng.gen_range(0..tenants.len())];
                let priority = Priority::ALL[rng.gen_range(0..3usize)];
                fleet
                    .submit("m", Some(tenant), priority, t.clone(), None)
                    .expect("admitted")
            })
            .collect();
        for (tokens, p) in batch.iter().zip(pending) {
            let served = p.wait().expect("answered");
            prop_assert_eq!(&served.logits, &model.predict(tokens));
        }
        fleet.shutdown();
    }
}

/// Unload answers what it admitted, then the name 404s; a later re-load
/// keeps counting versions up.
#[test]
fn unload_drains_and_versions_survive_reload_cycles() {
    let model = model_for(7);
    let fleet = Fleet::new(fleet_config(2));
    fleet.load(spec("m"), InferenceSession::exact(&model)).expect("v1");
    let p = fleet.submit("m", None, Priority::Interactive, vec![1, 2, 3], None).expect("admitted");
    let info = fleet.unload("m").expect("unload");
    assert_eq!(info.state, ModelState::Draining);
    p.wait().expect("request admitted before unload is answered");
    assert!(
        matches!(
            fleet.submit("m", None, Priority::Interactive, vec![1], None),
            Err(fab_fleet::FleetError::NoSuchModel(_))
        ),
        "unloaded name must 404"
    );
    let info = fleet.load(spec("m"), InferenceSession::exact(&model)).expect("v2");
    assert_eq!(info.version, 2, "versions survive an unload");
    fleet.shutdown();
}

/// Per-tenant counters and class latency record completed work.
#[test]
fn tenant_and_class_metrics_record_outcomes() {
    let model = model_for(9);
    let fleet = Fleet::new(fleet_config(2));
    fleet.load(spec("m"), InferenceSession::exact(&model)).expect("loads");
    for _ in 0..4 {
        fleet
            .submit("m", Some("alice"), Priority::Batch, vec![1, 2], None)
            .expect("admitted")
            .wait()
            .expect("answered");
    }
    let stats = fleet.tenant_stats();
    let alice = stats.iter().find(|t| t.tenant == "alice").expect("alice tracked");
    assert_eq!(alice.submitted, 4);
    assert_eq!(alice.completed, 4);
    assert_eq!(alice.latency.count, 4);
    let classes = fleet.class_latency();
    assert_eq!(classes[Priority::Batch.index()].1.count, 4);
    assert_eq!(classes[Priority::Interactive.index()].1.count, 0);
    fleet.shutdown();
}

// ---------------------------------------------------------------------------
// PR-9 overload-control properties.
// ---------------------------------------------------------------------------

use fab_fleet::{CircuitBreaker, CircuitDecision, CircuitState, DegradeController};
use fab_quant::{quantize_frozen, CalibrationConfig};

fn spec_p(name: &str, precision: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        task: "text".to_string(),
        arch: "fabnet".to_string(),
        precision: precision.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The degradation controller is hysteretic and monotone under any
    // event sequence: a pressure event never lowers the level and a calm
    // event never raises it, the level moves at most one step per event,
    // two level changes are never closer than the dwell, and a recovery
    // only ever happens after `recover_after` of uninterrupted calm.
    // Afterwards, sustained calm always brings the level back to 0.
    #[test]
    fn degradation_is_hysteretic_and_monotone(
        dwell_ms in 1u64..200,
        recover_ms in 1u64..500,
        seed in 0u64..10_000,
    ) {
        let base = Instant::now();
        let mut c = DegradeController::new(
            Duration::from_millis(dwell_ms),
            Duration::from_millis(recover_ms),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now_ms = 0u64;
        let mut last_change_ms: Option<u64> = None;
        let mut last_pressure_ms: Option<u64> = None;
        let mut prev_level = c.level();
        for _ in 0..300 {
            now_ms += rng.gen_range(0..100u64);
            let now = base + Duration::from_millis(now_ms);
            let pressure = rng.gen_bool(0.5);
            let changed = if pressure {
                last_pressure_ms = Some(now_ms);
                c.on_pressure(now)
            } else {
                c.on_calm(now)
            };
            let level = c.level();
            if pressure {
                prop_assert!(level >= prev_level, "pressure lowered the level");
                prop_assert!(level - prev_level <= 1, "pressure skipped a level");
            } else {
                prop_assert!(level <= prev_level, "calm raised the level");
                prop_assert!(prev_level - level <= 1, "calm skipped a level");
            }
            prop_assert_eq!(changed, level != prev_level);
            if changed {
                if let Some(last) = last_change_ms {
                    prop_assert!(
                        now_ms - last >= dwell_ms,
                        "changes at {last}ms and {now_ms}ms violate dwell {dwell_ms}ms"
                    );
                }
                if !pressure {
                    if let Some(lp) = last_pressure_ms {
                        prop_assert!(
                            now_ms - lp >= recover_ms,
                            "recovered {}ms after pressure (< {recover_ms}ms)",
                            now_ms - lp
                        );
                    }
                }
                last_change_ms = Some(now_ms);
            }
            prev_level = level;
        }
        // Pressure cleared: calm alone must walk the level back to 0,
        // one rung per recovery window.
        let mut steps = 0;
        let max_steps = c.level() + 2;
        while c.level() > 0 {
            now_ms += recover_ms.max(dwell_ms) + 1;
            c.on_calm(base + Duration::from_millis(now_ms));
            steps += 1;
            prop_assert!(steps < max_steps, "sustained calm never recovered to level 0");
        }
    }

    // The breaker's decisions always agree with its externally visible
    // state: Admit only while closed, Probe only while half-open, Reject
    // never while closed and always with a hint in (0, open_ms]; and a
    // closed breaker's failure streak never silently reaches the
    // threshold without the circuit opening.
    #[test]
    fn breaker_decisions_agree_with_its_state(
        threshold in 1u32..6,
        open_ms in 1u64..300,
        probes in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let base = Instant::now();
        let mut b = CircuitBreaker::new(threshold, Duration::from_millis(open_ms), probes);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now_ms = 0u64;
        for _ in 0..400 {
            now_ms += rng.gen_range(0..=open_ms);
            let now = base + Duration::from_millis(now_ms);
            match rng.gen_range(0..3u32) {
                0 => {
                    let before = b.state(now);
                    match b.admit(now) {
                        CircuitDecision::Admit => {
                            prop_assert_eq!(before, CircuitState::Closed);
                        }
                        CircuitDecision::Probe => {
                            prop_assert_eq!(before, CircuitState::HalfOpen);
                        }
                        CircuitDecision::Reject { retry_after_ms } => {
                            prop_assert!(before != CircuitState::Closed, "reject while closed");
                            prop_assert!(
                                retry_after_ms >= 1 && retry_after_ms <= open_ms.max(1),
                                "reject hint {retry_after_ms}ms outside (0, {open_ms}]"
                            );
                        }
                    }
                }
                1 => b.on_failure(now),
                _ => b.on_success(now),
            }
            if b.state(base + Duration::from_millis(now_ms)) == CircuitState::Closed {
                prop_assert!(
                    b.consecutive_failures() < threshold,
                    "streak reached the threshold without opening"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Forced degradation reroutes to the expected rung of the precision
    // ladder and never invents numerics: the degraded answer is
    // bit-identical to the rung's own directly-served logits, and
    // releasing the pin restores the requested precision exactly.
    #[test]
    fn forced_degradation_reroutes_and_logits_bit_match_the_rung(
        n in 1usize..6,
        num_workers in 1usize..3,
        seed in 0u64..200,
    ) {
        let config = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
        let model = model_for(seed);
        let frozen = model.freeze().with_fast_math(true);
        let calib: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..8).map(|j| (i * 5 + j * 3 + 1) % config.vocab_size).collect())
            .collect();
        let quant = quantize_frozen(&frozen, &calib, &CalibrationConfig::default());
        let fleet = Fleet::new(fleet_config(num_workers));
        fleet.load(spec_p("m-f32", "f32"), InferenceSession::exact(&model)).expect("f32");
        fleet.load(spec_p("m-fast", "fastmath"), InferenceSession::new(&model)).expect("fast");
        fleet.load(spec_p("m-int8", "int8"), InferenceSession::from_frozen(quant)).expect("int8");
        prop_assert_eq!(
            fleet.ladder("m-f32").unwrap(),
            vec!["m-fast".to_string(), "m-int8".to_string()]
        );

        let batch = mixed_batch(&mut rng, n, config.vocab_size, config.max_seq);
        for (level, rung) in [(1usize, "m-fast"), (2, "m-int8")] {
            prop_assert_eq!(fleet.force_degrade("m-f32", Some(level)).unwrap(), level);
            for tokens in &batch {
                let pending = fleet
                    .submit("m-f32", None, Priority::Interactive, tokens.clone(), None)
                    .expect("admitted while degraded");
                prop_assert!(pending.degraded());
                prop_assert_eq!(pending.served_by(), rung);
                let degraded = pending.wait().expect("degraded request answered");
                let direct = fleet
                    .submit(rung, None, Priority::Interactive, tokens.clone(), None)
                    .expect("direct submit")
                    .wait()
                    .expect("direct request answered");
                prop_assert!(
                    degraded.logits == direct.logits,
                    "level {level} logits diverge from {rung}'s own"
                );
            }
        }
        prop_assert_eq!(fleet.force_degrade("m-f32", None).unwrap(), 0);
        let p = fleet
            .submit("m-f32", None, Priority::Interactive, vec![1, 2, 3], None)
            .expect("admitted after the pin is released");
        prop_assert!(!p.degraded());
        prop_assert_eq!(p.served_by(), "m-f32");
        prop_assert_eq!(&p.wait().expect("answered").logits, &model.predict(&[1, 2, 3]));
        fleet.shutdown();
    }
}
