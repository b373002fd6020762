//! The one load generator: closed loop (each caller sends its next request
//! when the previous one is answered) and open loop (requests are due on a
//! schedule whether or not the system keeps up).
//!
//! Both drive a [`Transport`] — whatever carries a request into the stack
//! at some rung — from at most a handful of sender threads. In the open
//! loop every request is timed **from its due time**: a stalled sender
//! makes the requests queued behind it late, and that wait is charged to
//! them rather than silently dropped (coordinated omission).

use crate::mix::Request;
use crate::stats::Sample;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Carries one request into the system and says whether the answer was
/// there and correct. `index` is the request's position in the pool, for
/// looking up the expected answer.
pub trait Transport: Send {
    fn send(&mut self, index: usize, request: &Request) -> bool;
}

/// What happened to one request; times are seconds from the phase origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Pool index of the request.
    pub index: usize,
    /// When it was due (open loop) or started (closed loop).
    pub at_s: f64,
    /// When the sender actually handed it to the transport.
    pub sent_s: f64,
    /// When the answer was back.
    pub done_s: f64,
    pub ok: bool,
    pub sequences: usize,
}

impl Outcome {
    /// Latency as the user sees it: from the due time.
    pub fn sample(&self) -> Sample {
        Sample { at_s: self.at_s, latency_s: self.done_s - self.at_s }
    }

    /// How late the generator handed the request over.
    pub fn lateness_s(&self) -> f64 {
        self.sent_s - self.at_s
    }
}

/// Closed loop for `duration`: caller `t` starts at pool offset
/// `first_index + t * stride` and walks the pool cyclically. Returns every
/// caller's transport and the outcomes ordered by start time.
pub fn closed_loop<T: Transport>(
    transports: Vec<T>,
    pool: &[Request],
    first_index: usize,
    origin: Instant,
    duration: Duration,
) -> (Vec<T>, Vec<Outcome>) {
    let stride = pool.len() / transports.len().max(1);
    let deadline = Instant::now() + duration;
    let results: Vec<(T, Vec<Outcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(t, mut transport)| {
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut i = first_index + t * stride;
                    loop {
                        let started = Instant::now();
                        if started >= deadline {
                            return (transport, outcomes);
                        }
                        let index = i % pool.len();
                        let ok = transport.send(index, &pool[index]);
                        let at_s = (started - origin).as_secs_f64();
                        outcomes.push(Outcome {
                            index,
                            at_s,
                            sent_s: at_s,
                            done_s: origin.elapsed().as_secs_f64(),
                            ok,
                            sequences: pool[index].sequences.len(),
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop caller")).collect()
    });
    collect(results)
}

/// Open loop: request `k` of the phase is `pool[(first_index + k) % len]`
/// and is due `due_s[k]` seconds after `start`. Senders share the
/// schedule: whichever is free takes the next due request, sleeps until it
/// is due, and sends it. Returns when every scheduled request is answered.
pub fn open_loop<T: Transport>(
    transports: Vec<T>,
    pool: &[Request],
    first_index: usize,
    origin: Instant,
    start: Instant,
    due_s: &[f64],
) -> (Vec<T>, Vec<Outcome>) {
    let next = AtomicUsize::new(0);
    let start_s = (start - origin).as_secs_f64();
    let results: Vec<(T, Vec<Outcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .map(|mut transport| {
                let next = &next;
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_s.get(k) else { return (transport, outcomes) };
                        let due_at = start + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let index = (first_index + k) % pool.len();
                        let sent_s = origin.elapsed().as_secs_f64();
                        let ok = transport.send(index, &pool[index]);
                        outcomes.push(Outcome {
                            index,
                            at_s: start_s + due,
                            sent_s,
                            done_s: origin.elapsed().as_secs_f64(),
                            ok,
                            sequences: pool[index].sequences.len(),
                        });
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop sender")).collect()
    });
    collect(results)
}

fn collect<T>(results: Vec<(T, Vec<Outcome>)>) -> (Vec<T>, Vec<Outcome>) {
    let mut transports = Vec::new();
    let mut outcomes = Vec::new();
    for (t, o) in results {
        transports.push(t);
        outcomes.extend(o);
    }
    outcomes.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).unwrap_or(std::cmp::Ordering::Equal));
    (transports, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{request_mix, MixSpec};

    const SPEC: MixSpec = MixSpec {
        models: 1,
        sequences_per_request: 1,
        min_len: 4,
        max_len: 4,
        vocab: 10,
        alternate_priority: false,
    };

    /// Answers in `service`, except that request `stall_at` takes `stall`.
    struct Fake {
        service: Duration,
        stall_at: Option<usize>,
        stall: Duration,
    }

    impl Transport for Fake {
        fn send(&mut self, index: usize, _request: &Request) -> bool {
            let d = if Some(index) == self.stall_at { self.stall } else { self.service };
            std::thread::sleep(d);
            index % 7 != 3
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let pool = request_mix(&SPEC, 1, 32);
        // One sender, a request every 10 ms, 2 ms service; request 5 stalls
        // for 100 ms, so requests 6.. are handed over late.
        let due: Vec<f64> = (0..20).map(|k| 0.010 * (k + 1) as f64).collect();
        let fake = Fake {
            service: Duration::from_millis(2),
            stall_at: Some(5),
            stall: Duration::from_millis(100),
        };
        let origin = Instant::now();
        let (_, outcomes) = open_loop(vec![fake], &pool, 0, origin, origin, &due);
        assert_eq!(outcomes.len(), 20);
        for (k, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, k);
            assert!((o.at_s - due[k]).abs() < 1e-9, "timed from the due time");
            assert!(o.lateness_s() >= 0.0);
            assert_eq!(o.ok, k % 7 != 3);
        }
        // Before the stall: on time, latency ~ service.
        assert!(outcomes[2].lateness_s() < 0.008);
        assert!(outcomes[2].sample().latency_s < 0.010);
        // The stalled request itself.
        assert!(outcomes[5].sample().latency_s >= 0.100);
        // Request 6 was due 10 ms after request 5 but could only be sent once
        // the stall ended ~100 ms later: >= 85 ms late, and its latency from
        // the due time includes that wait although its service took 2 ms.
        assert!(outcomes[6].lateness_s() >= 0.085, "lateness {}", outcomes[6].lateness_s());
        assert!(outcomes[6].sample().latency_s >= 0.087);
        assert!(outcomes[6].done_s - outcomes[6].sent_s < 0.020, "service itself stayed short");
        // The backlog drains at 2 ms per request against 10 ms arrivals.
        assert!(outcomes[19].lateness_s() < 0.008);
    }

    #[test]
    fn open_loop_shares_the_schedule_between_senders() {
        let pool = request_mix(&SPEC, 1, 8);
        // 30 ms service against 20 ms arrivals needs both senders.
        let due: Vec<f64> = (0..10).map(|k| 0.020 * (k + 1) as f64).collect();
        let fakes: Vec<Fake> = (0..2)
            .map(|_| Fake {
                service: Duration::from_millis(30),
                stall_at: None,
                stall: Duration::ZERO,
            })
            .collect();
        let origin = Instant::now();
        let (transports, outcomes) = open_loop(fakes, &pool, 3, origin, origin, &due);
        assert_eq!(transports.len(), 2);
        assert_eq!(outcomes.len(), 10);
        assert_eq!(outcomes[0].index, 3);
        assert_eq!(outcomes[9].index, (3 + 9) % 8);
        assert!(outcomes.iter().all(|o| o.lateness_s() < 0.015), "two senders keep up");
    }

    #[test]
    fn closed_loop_walks_the_pool_per_caller_until_the_deadline() {
        let pool = request_mix(&SPEC, 1, 16);
        let fakes: Vec<Fake> = (0..2)
            .map(|_| Fake {
                service: Duration::from_millis(5),
                stall_at: None,
                stall: Duration::ZERO,
            })
            .collect();
        let origin = Instant::now();
        let (_, outcomes) = closed_loop(fakes, &pool, 0, origin, Duration::from_millis(100));
        // ~20 per caller; generous bounds for a busy host.
        assert!((10..=44).contains(&outcomes.len()), "{} outcomes", outcomes.len());
        assert!(outcomes.iter().any(|o| o.index == 0) && outcomes.iter().any(|o| o.index == 8));
        assert!(outcomes.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(outcomes.iter().all(|o| o.lateness_s() == 0.0 && o.done_s >= o.sent_s));
    }
}
