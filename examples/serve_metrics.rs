//! Live observation of a training run: start the embedded metrics
//! endpoint, train, and scrape the four routes the way Prometheus (or
//! plain `curl`) would. No hook and no telemetry sink is needed:
//! `/progress` reads the progress gauges the trainer always publishes.
//!
//! ```sh
//! cargo run --release --example serve_metrics
//! # in another terminal, while it trains:
//! #   curl http://127.0.0.1:9095/progress
//! #   curl http://127.0.0.1:9095/metrics
//! ```
//!
//! This example binds port 0 (a free port) so it can run unattended and
//! scrapes itself at the end to show the responses.

use qpinn::core::trainer::Trainer;
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::obs::MetricsServer;
use qpinn::optim::LrSchedule;
use rand::{rngs::StdRng, SeedableRng};
use std::io::{Read, Write};

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: example\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or(buf)
}

fn main() {
    // 1. Start the endpoint. Use "127.0.0.1:9095" for a fixed port.
    let server = MetricsServer::start("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    println!("bound port {} (picked by the OS via port 0)", addr.port());
    println!("metrics endpoint: http://{addr}/metrics");
    println!("progress:         http://{addr}/progress\n");

    // 2. A small training run, with no progress hook: every `log_every`
    //    epochs the trainer sets the `train.progress.*` gauges that
    //    /progress serves.
    let cfg = ZooTaskConfig {
        n_collocation: 256,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mut task = ZooTask::from_key("tdse-free", &cfg, &mut params, &mut rng).unwrap();

    let trainer = Trainer::new(TrainConfig {
        epochs: 200,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        log_every: 25,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    });
    let log = trainer.train(&mut task, &mut params);
    println!("trained to loss {:.3e} in {:.1}s\n", log.final_loss, log.wall_s);

    // 3. Scrape ourselves, as a monitoring system would.
    println!("GET /healthz  → {}", get(addr, "/healthz"));
    println!("GET /progress → {}", get(addr, "/progress"));
    let metrics = get(addr, "/metrics");
    println!("GET /metrics  → {} lines, e.g.:", metrics.lines().count());
    for line in metrics.lines().filter(|l| l.contains("train_progress_")).take(4) {
        println!("  {line}");
    }
    server.stop();
}
