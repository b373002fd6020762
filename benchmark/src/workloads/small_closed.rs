//! `small-closed`: the daemon's default tiny profiles over loopback HTTP,
//! two closed-loop callers with one keep-alive connection each, single
//! `predict`, lengths 8..=32, models round-robin.

use super::{count, set_latency, set_throughput};
use crate::host::peak_rss_mb;
use crate::loadgen::closed_loop;
use crate::report::{Opts, RunOutput};
use crate::serving::{small_config, small_mix_spec, Rig};
use crate::spec;
use fabd::Json;
use std::time::{Duration, Instant};

pub fn run(opts: &Opts) -> RunOutput {
    let config = small_config();
    let rig = Rig::new(
        &config,
        &small_mix_spec(&config),
        opts.seed,
        opts.pool(spec::SMALL_POOL),
        opts.setups(spec::SMALL_SETUPS),
    );
    let mut out = RunOutput::default();
    let origin = Instant::now();

    let (transports, _) = closed_loop(
        rig.http(false),
        &rig.pool,
        0,
        origin,
        Duration::from_secs_f64(opts.warmup_s()),
    );
    let from = origin.elapsed().as_secs_f64();
    let (transports, outcomes) = closed_loop(
        transports,
        &rig.pool,
        rig.pool.len() / 3,
        origin,
        Duration::from_secs_f64(opts.seconds),
    );
    count(&mut out, &outcomes);

    // Rounds are whole segments: the latencies of the requests started in
    // one, the sequences answered correctly in one.
    let segment_s = spec::SMALL_SEGMENT_S.min(opts.seconds / 4.0);
    let whole = (opts.seconds / segment_s).floor() as usize;
    let mut latency_ms = vec![Vec::new(); whole];
    let mut answered = vec![(0.0, segment_s); whole];
    for o in &outcomes {
        if let Some(round) = latency_ms.get_mut(((o.at_s - from) / segment_s) as usize) {
            round.push((o.done_s - o.at_s) * 1e3);
        }
        if let Some(round) = answered.get_mut(((o.done_s - from) / segment_s) as usize) {
            round.0 += if o.ok { o.sequences as f64 } else { 0.0 };
        }
    }
    latency_ms.retain(|r| !r.is_empty());
    set_latency(&mut out, &latency_ms);
    set_throughput(&mut out, &answered);
    out.set("setup_s", &rig.setup_s);
    out.set_one("peak_rss_mb", peak_rss_mb());
    out.note("mix_hash", Json::Str(rig.mix_hash.hex()));
    out.note(
        "throughput_is",
        Json::Str("sequences answered correctly per second, closed loop".into()),
    );
    drop(transports);
    rig.daemon.shutdown();
    out
}
