//! Integration coverage for the keep-alive/pipelining client and the batched
//! `mget` / `mexplore` wire ops: a connection that writes many request lines
//! before reading any reply gets order-preserving, byte-identical answers;
//! batched ops round-trip; malformed batches answer with errors while the
//! connection stays open.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use srra_serve::{
    canonical_for, Connection, PointOutcome, QueryPoint, Request, Response, Server, ServerConfig,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-serve-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &PathBuf) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig::ephemeral(dir)).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        server.run().expect("server runs");
    });
    (addr, handle)
}

/// The mixed workload: distinct warm points plus repeats.
fn points() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat"] {
        for budget in [16, 32, 64] {
            points.push(QueryPoint::new(kernel, "cpa", budget));
        }
    }
    points
}

#[test]
fn pipelined_replies_preserve_order_and_match_one_shot_bytes() {
    let dir = scratch_dir("order");
    let (addr, handle) = start_server(&dir);

    // Warm the shards through one-shot requests and capture the ground-truth
    // reply line of every request we are about to pipeline.
    let mut one_shot = Connection::connect(&addr).expect("connects");
    one_shot.explore(&points()).expect("warm-up explore");

    // An interleaved request schedule: get / single-point explore / stats
    // shapes, repeated — 36 requests on one connection, written before any
    // reply is read.
    let mut requests = Vec::new();
    for round in 0..3 {
        for (index, point) in points().iter().enumerate() {
            if (round + index) % 2 == 0 {
                requests.push(Request::Get {
                    canonical: canonical_for(point).expect("grid resolves"),
                });
            } else {
                requests.push(Request::Explore {
                    points: vec![point.clone()],
                });
            }
        }
    }
    let expected: Vec<String> = requests
        .iter()
        .map(|request| {
            one_shot
                .roundtrip(request)
                .expect("one-shot roundtrip")
                .render()
        })
        .collect();

    // Write ALL the request lines raw on one socket before reading anything,
    // so the test exercises real pipelining rather than the client helper's
    // framing.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    let mut wire = String::new();
    for request in &requests {
        request.render_into(&mut wire);
        wire.push('\n');
    }
    stream.write_all(wire.as_bytes()).expect("bulk write");
    let mut reader = BufReader::new(stream);
    for (index, expected_line) in expected.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        assert_eq!(
            line.trim_end(),
            expected_line,
            "pipelined reply {index} must be byte-identical to its one-shot twin"
        );
    }

    // The Connection helper produces the same replies through its API.
    let mut connection = Connection::connect(&addr).expect("connects");
    let responses = connection.pipeline(&requests).expect("pipeline");
    assert_eq!(responses.len(), requests.len());
    for (response, expected_line) in responses.iter().zip(&expected) {
        assert_eq!(&response.render(), expected_line);
    }

    connection.shutdown().expect("shutdown");
    // Drop every live socket before joining: the server drains open
    // connections to completion, so a still-open keep-alive stream would
    // deadlock the join.
    drop(connection);
    drop(reader);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mget_and_mexplore_round_trip_over_the_wire() {
    let dir = scratch_dir("batched");
    let (addr, handle) = start_server(&dir);
    let mut connection = Connection::connect(&addr).expect("connects");

    let workload = points();
    let canonicals: Vec<String> = workload
        .iter()
        .map(|point| canonical_for(point).expect("grid resolves"))
        .collect();

    // Cold mget: all misses, as nulls, in request order.
    let cold = connection.mget(&canonicals).expect("cold mget");
    assert_eq!(cold.len(), canonicals.len());
    assert!(cold.iter().all(Option::is_none));

    // mexplore evaluates every point (per-point outcomes), then a warm mget
    // returns records byte-identical to the evaluated ones.
    let explored = connection.mexplore(&workload).expect("mexplore");
    assert_eq!(explored.outcomes.len(), workload.len());
    assert_eq!(explored.evaluated, workload.len() as u64);
    assert_eq!(explored.hits, 0);
    let warm = connection.mget(&canonicals).expect("warm mget");
    for (outcome, got) in explored.outcomes.iter().zip(&warm) {
        let PointOutcome::Answered { record, hit } = outcome else {
            panic!("grid point failed: {outcome:?}");
        };
        assert!(!hit);
        let got = got.as_ref().expect("warm mget hits");
        assert_eq!(got.to_json_line(), record.to_json_line());
    }

    // A second mexplore is all hits.
    let rerun = connection.mexplore(&workload).expect("warm mexplore");
    assert_eq!(rerun.hits, workload.len() as u64);
    assert_eq!(rerun.evaluated, 0);

    // Unknown kernels/algorithms fail per point, not per batch; the good
    // point still answers.
    let mixed = vec![
        QueryPoint::new("fir", "cpa", 32),
        QueryPoint::new("nope", "cpa", 32),
        QueryPoint::new("fir", "zzz", 32),
    ];
    let reply = connection.mexplore(&mixed).expect("mixed mexplore");
    assert!(matches!(
        &reply.outcomes[0],
        PointOutcome::Answered { hit: true, .. }
    ));
    let PointOutcome::Failed { error } = &reply.outcomes[1] else {
        panic!("expected per-point failure, got {:?}", reply.outcomes[1]);
    };
    assert!(error.contains("unknown kernel"), "{error}");
    let PointOutcome::Failed { error } = &reply.outcomes[2] else {
        panic!("expected per-point failure, got {:?}", reply.outcomes[2]);
    };
    assert!(error.contains("unknown algorithm"), "{error}");

    // Per-op stats counted the batched ops.
    let stats = connection.stats().expect("stats");
    assert_eq!(stats.op("mget").expect("mget accounted").count, 2);
    assert_eq!(stats.op("mexplore").expect("mexplore accounted").count, 3);

    connection.shutdown().expect("shutdown");
    drop(connection);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn blank_lines_behind_pipelined_requests_do_not_strand_replies() {
    let dir = scratch_dir("blank");
    let (addr, handle) = start_server(&dir);

    // One write carrying a request followed by blank lines, then another
    // request + blank line.  Blank lines produce no response, so the server
    // must not defer its flushes on their account — the regression here was
    // a reply stranded in the server's write buffer while it blocked
    // reading.  A read timeout turns that hang into a test failure.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout set");
    stream
        .write_all(b"{\"op\":\"stats\"}\n\n\n{\"op\":\"stats\"}\n\n")
        .expect("bulk write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply before timeout");
        assert!(
            matches!(Response::parse(line.trim_end()), Ok(Response::Stats(_))),
            "expected stats, got {line}"
        );
    }

    let mut connection = Connection::connect(&addr).expect("connects");
    connection.shutdown().expect("shutdown");
    drop(connection);
    drop(reader);
    drop(stream);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_batches_answer_errors_and_keep_the_connection_open() {
    let dir = scratch_dir("malformed");
    let (addr, handle) = start_server(&dir);
    let mut connection = Connection::connect(&addr).expect("connects");

    // Every malformed line gets an error reply on the same connection; they
    // are pipelined back-to-back to prove the stream stays in sync.
    let bad_lines = [
        r#"{"op":"mget"}"#,
        r#"{"op":"mget","canonicals":[]}"#,
        r#"{"op":"mget","canonicals":[7]}"#,
        r#"{"op":"mexplore","points":[]}"#,
        r#"{"op":"mexplore","points":[{"algo":"cpa","budget":1}]}"#,
        "not json at all",
    ];
    let mut stream = TcpStream::connect(&addr).expect("connects");
    let wire: String = bad_lines.iter().map(|line| format!("{line}\n")).collect();
    stream.write_all(wire.as_bytes()).expect("bulk write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for bad in bad_lines {
        let mut line = String::new();
        reader.read_line(&mut line).expect("error reply");
        let Response::Error { message } = Response::parse(line.trim_end()).expect("parses") else {
            panic!("expected an error reply to `{bad}`, got {line}");
        };
        assert!(!message.is_empty());
    }
    // The same raw connection still serves a valid request afterwards.
    stream
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("stats after errors");
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    let Response::Stats(stats) = Response::parse(line.trim_end()).expect("parses") else {
        panic!("expected stats, got {line}");
    };
    // The malformed lines were accounted as `invalid` with latencies.
    assert_eq!(
        stats.op("invalid").expect("invalid accounted").count,
        bad_lines.len() as u64
    );

    connection.shutdown().expect("shutdown");
    drop(connection);
    drop(reader);
    drop(stream);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
