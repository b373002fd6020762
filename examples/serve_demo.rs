//! Serving demo: train a tiny FABNet on an LRA-proxy task, freeze it into a
//! tape-free inference session, and serve concurrent traffic through the
//! dynamic micro-batcher.
//!
//! Run with: `cargo run --release --example serve_demo`

use fabnet::prelude::*;
use std::time::Instant;

fn main() {
    // 1. Train a small FABNet on the byte-level Text proxy task.
    let config = ModelConfig {
        hidden: 32,
        ffn_ratio: 2,
        num_layers: 2,
        num_abfly: 1,
        num_heads: 2,
        vocab_size: 64,
        max_seq: 64,
        num_classes: 2,
    };
    println!("== Training a tiny FABNet on the LRA Text proxy ==");
    let pipeline = TrainingPipeline::new(LraTask::Text, 48, 7).with_examples(48, 16).with_epochs(2);
    let trained = pipeline.run(&config, ModelKind::FabNet);
    // The pipeline overrides vocabulary/classes to match the task.
    let vocab = trained.config.vocab_size;
    println!(
        "  blocks {}  vocab {}  test accuracy {:.2}",
        trained.model.architecture_summary(),
        vocab,
        trained.report.test_accuracy
    );

    // 2. Freeze the trained weights and start the dynamic-batching server.
    let serve_config = ServeConfig {
        max_batch: 16,
        max_wait_us: 400,
        queue_capacity: 4096,
        ..ServeConfig::default()
    };
    let server = trained.serve(serve_config);
    println!("\n== Server up ==");
    println!(
        "  workers {}  max_batch {}  max_wait {}us",
        server.config().num_workers,
        server.config().max_batch,
        server.config().max_wait_us
    );

    // 3. Fire mixed-length traffic from several client threads.
    let clients = 4;
    let per_client = 250;
    println!("\n== Load: {clients} clients x {per_client} requests, mixed lengths ==");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = server.handle();
            scope.spawn(move || {
                for i in 0..per_client {
                    let len = 12 + (c * 7 + i * 3) % 36;
                    let tokens: Vec<usize> = (0..len).map(|t| (t * 5 + c + i) % vocab).collect();
                    match handle.infer(tokens) {
                        Ok(p) => {
                            if i == 0 && c == 0 {
                                println!(
                                    "  first response: class {} (batch of {}, waited {}us)",
                                    p.class, p.batch_size, p.queue_wait_us
                                );
                            }
                        }
                        Err(e) => println!("  request rejected: {e}"),
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    // 4. Read the aggregate serving metrics.
    let stats = server.stats();
    println!("\n== ServerStats ==\n{stats}");
    println!(
        "\n  => {:.0} predictions/s wall-clock over the load phase",
        (clients * per_client) as f64 / wall
    );
    server.shutdown();
}
