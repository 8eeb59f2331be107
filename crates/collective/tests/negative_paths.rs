//! Negative-path coverage for the collectives: malformed calls must
//! surface as typed [`CollectiveError`]s or as panics on every rank, never
//! as hangs or out-of-bounds reads, including the degenerate world of 1.

use ets_collective::{
    create_collective, retry_collective, Backend, Collective, CollectiveError, FaultPlan,
    FaultyCollective, RetryPolicy,
};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn world(size: usize) -> Vec<Box<dyn Collective>> {
    create_collective(Backend::default(), size)
}

#[test]
fn zero_length_all_reduce_is_a_typed_error() {
    for size in [1usize, 2, 4] {
        let joins: Vec<_> = world(size)
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let mut empty: Vec<f32> = Vec::new();
                    c.try_all_reduce_sum(&mut empty)
                })
            })
            .collect();
        for j in joins {
            let err = j.join().expect("no panic").unwrap_err();
            assert!(
                matches!(err, CollectiveError::EmptyPayload { op } if op == "all_reduce_sum"),
                "world {size}: got {err}"
            );
            assert!(!err.is_transient(), "empty payload is permanent");
        }
    }
}

#[test]
fn mismatched_all_reduce_lengths_panic_on_every_rank() {
    // One rank's buffer is one element short: every rank must see the
    // mismatch after the first barrier and panic before reading any
    // peer's buffer, so no rank hangs at the second barrier.
    for size in [2usize, 3] {
        let joins: Vec<_> = world(size)
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let n = if c.rank() == size - 1 { 63 } else { 64 };
                    let mut buf = vec![1.0f32; n];
                    c.all_reduce_sum(&mut buf);
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !joins.iter().all(|j| j.is_finished()) {
            assert!(Instant::now() < deadline, "world {size}: a rank hung");
            thread::sleep(Duration::from_millis(5));
        }
        for j in joins {
            let err = j.join().expect_err("every rank must panic");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "mismatched all-reduce lengths", "world {size}");
        }
    }
}

#[test]
fn overlapping_all_reduce_calls_on_one_handle_panic() {
    // Two threads share rank 0's handle. Neither call can return before
    // rank 1 joins, so the second to enter must panic before it reaches
    // the barrier, and the first must still reduce correctly.
    let mut comms = world(2);
    let rank1 = comms.pop().unwrap();
    let rank0 = Arc::new(comms.pop().unwrap());
    let calls: Vec<_> = (0..2)
        .map(|_| {
            let c = Arc::clone(&rank0);
            thread::spawn(move || {
                let mut buf = vec![1.0f32; 8];
                c.all_reduce_sum(&mut buf);
                buf
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !calls.iter().any(|j| j.is_finished()) {
        assert!(Instant::now() < deadline, "neither call was rejected");
        thread::sleep(Duration::from_millis(5));
    }
    let mut buf = vec![2.0f32; 8];
    rank1.all_reduce_sum(&mut buf);
    assert_eq!(buf, vec![3.0; 8]);
    let (ok, err): (Vec<_>, Vec<_>) = calls.into_iter().map(|j| j.join()).partition(Result::is_ok);
    assert_eq!(ok.len(), 1, "exactly one call must be rejected");
    assert_eq!(ok[0].as_ref().unwrap(), &vec![3.0; 8]);
    let msg = err[0]
        .as_ref()
        .unwrap_err()
        .downcast_ref::<String>()
        .cloned();
    assert!(msg
        .unwrap_or_default()
        .contains("overlapping all_reduce_sum calls"));
}

#[test]
fn zero_length_broadcast_and_gather_are_typed_errors() {
    let joins: Vec<_> = world(2)
        .into_iter()
        .map(|c| {
            thread::spawn(move || {
                let mut empty: Vec<f32> = Vec::new();
                let b = c.try_broadcast(&mut empty, 0);
                let mut out = Vec::new();
                let g = c.try_all_gather(&[], &mut out);
                (b, g)
            })
        })
        .collect();
    for j in joins {
        let (b, g) = j.join().expect("no panic");
        assert!(matches!(
            b.unwrap_err(),
            CollectiveError::EmptyPayload { op: "broadcast" }
        ));
        assert!(matches!(
            g.unwrap_err(),
            CollectiveError::EmptyPayload { op: "all_gather" }
        ));
    }
}

#[test]
fn out_of_range_broadcast_root_is_a_typed_error() {
    let joins: Vec<_> = world(2)
        .into_iter()
        .map(|c| {
            thread::spawn(move || {
                let mut buf = vec![1.0f32];
                c.try_broadcast(&mut buf, 7)
            })
        })
        .collect();
    for j in joins {
        let err = j.join().expect("no panic").unwrap_err();
        assert_eq!(err, CollectiveError::InvalidRoot { root: 7, size: 2 });
    }
}

#[test]
fn world_of_one_succeeds_on_well_formed_calls() {
    // Size-1 worlds are the identity collective: every well-formed try_*
    // call must succeed without blocking.
    let c = world(1).pop().unwrap();
    let mut buf = vec![3.0f32, -1.0];
    c.try_all_reduce_sum(&mut buf).unwrap();
    assert_eq!(buf, vec![3.0, -1.0], "identity sum");
    c.try_broadcast(&mut buf, 0).unwrap();
    let mut out = Vec::new();
    c.try_all_gather(&[5.0], &mut out).unwrap();
    assert_eq!(out, vec![5.0]);
}

#[test]
fn exhausted_retries_surface_as_retries_exhausted_not_panic() {
    // Plan more failures at step 0 than the policy has attempts: the
    // retry loop must give back a typed RetriesExhausted preserving the
    // last transient error, symmetrically on every rank.
    let mut plan = FaultPlan::none();
    plan.events.push(ets_collective::FaultEvent {
        at_s: 0.0,
        duration_s: 0.0,
        kind: ets_collective::FaultKind::TransientCollective { failures: 10 },
    });
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_s: 0.01,
        multiplier: 2.0,
    };
    let schedule = Arc::new(plan.compile(4));
    let joins: Vec<_> = world(2)
        .into_iter()
        .map(|inner| {
            let schedule = Arc::clone(&schedule);
            thread::spawn(move || {
                let faulty = FaultyCollective::new(inner, schedule);
                faulty.set_step(0);
                let mut buf = vec![1.0f32, 2.0];
                let before = buf.clone();
                let res = retry_collective(&policy, || faulty.try_all_reduce_sum(&mut buf));
                // Failed attempts must not have touched the payload.
                assert_eq!(buf, before, "payload corrupted by failed attempts");
                (res.unwrap_err(), faulty.injected_failures())
            })
        })
        .collect();
    for j in joins {
        let (err, injected) = j.join().expect("no panic");
        match err {
            CollectiveError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.is_transient(), "last error {last}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert_eq!(injected, 3, "one injection per attempt");
    }
}

#[test]
fn transient_errors_clear_when_the_step_advances() {
    // The same FaultyCollective that exhausts step 0 must succeed at
    // step 1 — injections are keyed by trainer step, not call count.
    let mut plan = FaultPlan::none();
    plan.events.push(ets_collective::FaultEvent {
        at_s: 0.0,
        duration_s: 0.0,
        kind: ets_collective::FaultKind::TransientCollective { failures: 1 },
    });
    let schedule = Arc::new(plan.compile(4));
    let joins: Vec<_> = world(2)
        .into_iter()
        .map(|inner| {
            let schedule = Arc::clone(&schedule);
            thread::spawn(move || {
                let faulty = FaultyCollective::new(inner, schedule);
                faulty.set_step(0);
                let mut buf = vec![1.0f32];
                assert!(faulty.try_all_reduce_sum(&mut buf).is_err(), "planned fail");
                faulty.set_step(1);
                let mut buf = vec![1.0f32];
                faulty.try_all_reduce_sum(&mut buf).unwrap();
                buf[0]
            })
        })
        .collect();
    for j in joins {
        assert_eq!(j.join().unwrap(), 2.0, "sum over 2 ranks after recovery");
    }
}
