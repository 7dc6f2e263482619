//! One server, two codecs: JSON-line and binary-frame clients share the same
//! listener (the server sniffs the first byte of every frame), interleave on
//! keep-alive connections, and receive byte-identical records.  Malformed
//! binary frames come back as protocol errors without desyncing the stream,
//! and the per-codec counters account for every request.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use srra_serve::{
    decode_payload, read_frame, Connection, FrameError, QueryPoint, Request, Response, Server,
    ServerConfig, BINARY_MAGIC, MAX_FRAME_LEN,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-mixed-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat"] {
        for budget in [16, 32, 64] {
            points.push(QueryPoint::new(kernel, "cpa", budget));
        }
    }
    points
}

#[test]
fn json_and_binary_clients_interleave_on_one_server_with_identical_results() {
    let dir = scratch_dir("interleave");
    let server = Server::bind(&ServerConfig {
        workers: 2,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let points = workload();

    // Two keep-alive connections to the same server, one per codec.
    let mut json = Connection::connect(&addr).expect("json connect");
    let mut binary = Connection::connect_binary(&addr).expect("binary connect");
    assert!(!json.is_binary());
    assert!(binary.is_binary());

    // Warm the store over the binary codec, then interleave: a pipelined
    // binary batch (one explore per point, all frames written before any
    // reply is read) against JSON one-shots for the same points.
    let seed = binary.explore(&points).expect("binary explore");
    assert_eq!(seed.records.len(), points.len());
    assert_eq!(seed.evaluated as usize, points.len());

    let batch: Vec<Request> = points
        .iter()
        .map(|point| Request::Explore {
            points: vec![point.clone()],
        })
        .collect();
    let pipelined = binary.pipeline(&batch).expect("binary pipeline");
    assert_eq!(pipelined.len(), points.len());
    for (point, response) in points.iter().zip(&pipelined) {
        let json_reply = json
            .explore(std::slice::from_ref(point))
            .expect("json explore");
        let Response::Explored { records, hits, .. } = response else {
            panic!("unexpected pipeline reply: {}", response.render());
        };
        assert_eq!(*hits, 1, "warm store answers from the shards");
        assert_eq!(
            records[0].to_json_line(),
            json_reply.records[0].to_json_line(),
            "binary and JSON clients must see byte-identical records"
        );
    }

    // mget over both codecs agrees too (including the miss slot).
    let mut canonicals: Vec<String> = points
        .iter()
        .map(|point| srra_serve::canonical_for(point).unwrap())
        .collect();
    canonicals.push("kernel=nope;algo=CPA-RA;budget=1;latency=2;device=XCV1000".into());
    let from_binary = binary.mget(&canonicals).expect("binary mget");
    let from_json = json.mget(&canonicals).expect("json mget");
    assert_eq!(from_binary.len(), from_json.len());
    for (a, b) in from_binary.iter().zip(&from_json) {
        assert_eq!(
            a.as_ref().map(|r| r.to_json_line()),
            b.as_ref().map(|r| r.to_json_line())
        );
        assert_eq!(a.is_none(), b.is_none());
    }
    assert!(from_binary.last().unwrap().is_none());

    // Per-op stats count both codecs' traffic in one ledger: the explores
    // above were 1 (seed) + N (pipeline) + N (json one-shots), the mgets 2.
    let stats = binary.stats().expect("binary stats");
    let op_count = |name: &str| {
        stats
            .ops
            .iter()
            .find(|op| op.op == name)
            .map_or(0, |op| op.count)
    };
    assert_eq!(op_count("explore"), 1 + 2 * points.len() as u64);
    assert_eq!(op_count("mget"), 2);
    assert_eq!(stats.evaluated as usize, points.len());

    // The codec counters saw both sides.
    let metrics = json.metrics().expect("json metrics");
    let binary_frames = metrics.counter("serve_codec_binary_total").unwrap_or(0);
    let json_lines = metrics.counter("serve_codec_json_total").unwrap_or(0);
    assert!(
        binary_frames >= (2 + points.len()) as u64,
        "binary frames: {binary_frames}"
    );
    assert!(
        json_lines >= points.len() as u64,
        "json lines: {json_lines}"
    );

    binary.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads one binary reply frame off a raw socket.
fn read_reply(reader: &mut BufReader<&TcpStream>) -> Result<Response, FrameError> {
    let mut payload = Vec::new();
    read_frame(reader, &mut payload)?;
    let (response, _trace) = decode_payload::<Response>(&payload)
        .map_err(|err| FrameError::Io(std::io::Error::other(err.to_string())))?;
    Ok(response)
}

#[test]
fn malformed_binary_frames_error_without_desyncing_the_stream() {
    let dir = scratch_dir("malformed");
    let server = Server::bind(&ServerConfig::ephemeral(dir.clone())).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    // A full frame whose payload is garbage: the server must answer with an
    // error *and keep the connection usable* — the length prefix told it
    // exactly how many bytes to discard.
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        let garbage = [0xFFu8, 0xEE, 0xDD];
        let mut frame = vec![BINARY_MAGIC];
        frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        frame.extend_from_slice(&garbage);
        writer.write_all(&frame).expect("write garbage frame");
        writer.flush().unwrap();
        let reply = read_reply(&mut reader).expect("error reply");
        assert!(
            matches!(&reply, Response::Error { .. }),
            "{}",
            reply.render()
        );

        // Same connection, valid request: no desync, a real answer comes back.
        let mut ping = Vec::new();
        srra_serve::encode_request_frame(&mut ping, None, &Request::Ping).unwrap();
        writer.write_all(&ping).expect("write ping");
        writer.flush().unwrap();
        let reply = read_reply(&mut reader).expect("pong");
        assert!(matches!(reply, Response::Pong), "{}", reply.render());
    }

    // An oversized length prefix: answered with an error frame, then the
    // server closes (it cannot know where the next frame would start).
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        let mut frame = vec![BINARY_MAGIC];
        frame.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        writer.write_all(&frame).expect("write oversized header");
        writer.flush().unwrap();
        let reply = read_reply(&mut reader).expect("error reply");
        assert!(
            matches!(&reply, Response::Error { .. }),
            "{}",
            reply.render()
        );
        let mut rest = Vec::new();
        let closed = reader.read_to_end(&mut rest);
        assert!(closed.is_ok() && rest.is_empty(), "server closed cleanly");
    }

    // A truncated frame (header promises more bytes than ever arrive): the
    // client vanishing mid-frame just closes the connection server-side; the
    // server stays healthy for the next client.
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = &stream;
        let mut frame = vec![BINARY_MAGIC];
        frame.extend_from_slice(&64u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        writer.write_all(&frame).expect("write truncated frame");
        writer.flush().unwrap();
        drop(stream);
    }
    let mut client = Connection::connect_binary(&addr).expect("connects");
    client.ping().expect("server survived the truncated frame");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
