//! Query-serving example: start the sharded result server in-process, fan a
//! batch of design-point queries at it from concurrent client threads, and
//! watch the shards fill up.
//!
//! Run with:
//!
//! ```text
//! cargo run --example serve_query
//! ```
//!
//! The same workload arrives twice: the first pass evaluates every miss
//! (exactly once, even though four clients race for the same points), the
//! second pass is answered entirely from the shard files.  In production the
//! server side of this example is `srra serve --cache-dir <dir>` and the
//! client side is `srra query --addr <host:port> ...`.

use srra_serve::{Connection, QueryPoint, Server, ServerConfig};

fn workload() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat", "pat"] {
        for algo in ["fr", "cpa"] {
            for budget in [16, 32, 64] {
                points.push(QueryPoint::new(kernel, algo, budget));
            }
        }
    }
    points
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache_dir = std::env::temp_dir().join("srra-serve-example");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let server = Server::bind(&ServerConfig::ephemeral(&cache_dir))?;
    let addr = server.local_addr().to_string();
    println!(
        "serving the explore cache on {addr} ({})\n",
        cache_dir.display()
    );
    let handle = std::thread::spawn(move || server.run());

    let points = workload();
    for pass in ["cold", "warm"] {
        let (hits, evaluated) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let addr = addr.clone();
                    let points = points.clone();
                    scope.spawn(move || {
                        let reply = Connection::connect(&addr)
                            .expect("connects")
                            .explore(&points)
                            .expect("explore succeeds");
                        (reply.hits, reply.evaluated)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .fold((0, 0), |(h, e), (hits, evaluated)| {
                    (h + hits, e + evaluated)
                })
        });
        println!(
            "{pass} pass: 4 clients x {} points -> {hits} served from shards, {evaluated} evaluated",
            points.len()
        );
    }

    // Third pass, the hot-path shape: ONE keep-alive connection, the whole
    // workload batched into a single `mget` line — no per-request connection
    // setup, one syscall each way.
    let canonicals: Vec<String> = points
        .iter()
        .map(|point| srra_serve::canonical_for(point).expect("workload resolves"))
        .collect();
    let mut connection = Connection::connect(&addr)?;
    let got = connection.mget(&canonicals)?;
    println!(
        "keep-alive pass: one mget line answered {}/{} points from the shards",
        got.iter().filter(|record| record.is_some()).count(),
        points.len()
    );

    let stats = connection.stats()?;
    println!(
        "\nserver stats: {} requests, {} hits, {} evaluated; shard records {:?}",
        stats.requests, stats.hits, stats.evaluated, stats.shard_records
    );
    for op in ["explore", "mget"] {
        let entry = stats.op(op).expect("per-op stats are reported");
        println!(
            "  op {:<8} count {:>3}  p50 {:>4} us  p99 {:>4} us",
            entry.op, entry.count, entry.p50_us, entry.p99_us
        );
    }
    assert_eq!(
        stats.evaluated as usize,
        points.len(),
        "each distinct point is evaluated exactly once across all clients and passes"
    );

    connection.shutdown()?;
    handle.join().expect("server thread")?;
    println!("server shut down cleanly");
    Ok(())
}
