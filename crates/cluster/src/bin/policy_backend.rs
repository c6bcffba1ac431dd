//! The cluster backend executable: a stock sharded `PolicyServer`
//! behind a minimal CLI, spawned and monitored by
//! `econcast_cluster::Supervisor`.
//!
//! ```text
//! policy_backend [--addr 127.0.0.1:0] [--shards N] [--workers W]
//!                [--max-batch B] [--crash-after-ms T]
//! ```
//!
//! `--crash-after-ms T` makes the process abort (exit code 1) `T`
//! milliseconds after readiness — a deliberately crash-looping
//! backend for exercising the supervisor policy loop's damping and
//! quarantine paths. Never set it in a real deployment.
//!
//! Prints `LISTENING <addr>` on stdout once bound (the supervisor's
//! readiness signal), then serves until killed **or until stdin hits
//! EOF** — the supervisor holds the write end of stdin, so a dying
//! supervisor takes its backends with it instead of leaking
//! processes.

use econcast_service::{PolicyServer, RouterConfig, ServerConfig, ServiceConfig};
use std::io::{Read, Write};

fn usage(err: &str) -> ! {
    eprintln!("policy_backend: {err}");
    eprintln!(
        "usage: policy_backend [--addr HOST:PORT] [--shards N] [--workers W] \
         [--max-batch B] [--crash-after-ms T]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 2usize;
    let mut workers: Option<usize> = None;
    let mut max_batch = 1024usize;
    let mut crash_after_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--shards" => {
                shards = value("--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("--shards must be a positive integer"));
            }
            "--workers" => {
                workers = Some(
                    value("--workers")
                        .parse()
                        .unwrap_or_else(|_| usage("--workers must be a positive integer")),
                );
            }
            "--max-batch" => {
                max_batch = value("--max-batch")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-batch must be a positive integer"));
            }
            "--crash-after-ms" => {
                crash_after_ms = Some(
                    value("--crash-after-ms")
                        .parse()
                        .unwrap_or_else(|_| usage("--crash-after-ms must be an integer")),
                );
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let server = PolicyServer::bind(
        addr.as_str(),
        ServerConfig {
            router: RouterConfig {
                shards,
                service: ServiceConfig {
                    workers,
                    ..ServiceConfig::default()
                },
                ..RouterConfig::default()
            },
            max_batch,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| usage(&format!("cannot bind {addr}: {e}")));

    // Readiness signal: the supervisor parses this line.
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().expect("flush readiness line");

    // Fault-harness crash timer: die hard (no shutdown, no drain) so
    // the policy loop sees a genuine process death.
    if let Some(ms) = crash_after_ms {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            std::process::exit(1);
        });
    }

    let handle = server.spawn();

    // Serve until the supervisor goes away: stdin EOF is the parent's
    // death (or an explicit close). Under a plain terminal this blocks
    // on the user's ctrl-d, which is also the right semantics.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
}
