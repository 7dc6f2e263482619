//! Golden bytes and a corruption sweep for both wire codecs.
//!
//! Every request and reply variant, one traced frame, one stamped JSON line
//! and one record are encoded in both codecs and pinned exactly: a literal
//! for short encodings, the length plus the FNV-1a hash for long ones.  The
//! sweep then cuts every binary payload and JSON line at each byte and flips
//! one bit per byte: every decode must return `Ok` or `Err` without
//! panicking, and an `Ok` value must re-encode to bytes that decode and
//! re-encode to themselves.

use srra_explore::codec::{from_bytes, to_bytes};
use srra_explore::{fnv1a_64, PointRecord};
use srra_obs::{MetricsSnapshot, Registry};
use srra_serve::{
    decode_payload, encode_request_frame, encode_response_frame, read_frame, stamp_trace, OpStats,
    PointOutcome, QueryPoint, Request, Response, SeriesSample, ServerStats, ShardDigest,
    SnapshotDelta, Span, BINARY_MAGIC,
};

fn sample_record() -> PointRecord {
    PointRecord {
        key: 0x1234_5678_9abc_def0,
        canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
        kernel: "fir".to_owned(),
        algorithm: "CPA-RA".to_owned(),
        version: "v3".to_owned(),
        budget: 32,
        ram_latency: 2,
        device: "XCV1000-BG560".to_owned(),
        feasible: true,
        fits: true,
        registers_used: 17,
        total_cycles: 4242,
        compute_cycles: 4000,
        memory_cycles: 200,
        transfer_cycles: 42,
        clock_period_ns: 10.573,
        execution_time_us: 1_305.312_048,
        slices: 471,
        block_rams: 3,
        distribution: "a:16 \"b\":1".to_owned(),
    }
}

fn sample_stats() -> ServerStats {
    ServerStats {
        uptime_ms: 1234,
        uptime_secs: 1,
        version: "0.1.0".to_owned(),
        connections: 5,
        requests: 17,
        hits: 10,
        misses: 7,
        evaluated: 7,
        shard_records: vec![3, 0, 4, 1],
        ops: vec![OpStats {
            op: "get".to_owned(),
            count: 9,
            p50_us: 63,
            p99_us: 255,
        }],
    }
}

fn sample_snapshot() -> MetricsSnapshot {
    let registry = Registry::new();
    registry.counter("serve_requests_total").add(7);
    registry.gauge("serve_open_connections").set(-1);
    let latency = registry.histogram("serve_op_get_latency_us");
    latency.record_micros(40);
    latency.record_micros(5_000);
    latency.record_traced(std::time::Duration::from_micros(90), "sweep-7.a");
    registry.snapshot()
}

fn every_request() -> Vec<Request> {
    vec![
        Request::Get {
            canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
        },
        Request::Get {
            canonical: "nasty \"quoted\" \\ \n canonical — ünïcødé".to_owned(),
        },
        Request::MultiGet {
            canonicals: vec!["a".to_owned(), String::new(), "c".to_owned()],
        },
        Request::Explore {
            points: vec![
                QueryPoint::new("fir", "cpa", 32),
                QueryPoint {
                    kernel: "mat".to_owned(),
                    algorithm: "FR-RA".to_owned(),
                    budget: u64::MAX,
                    ram_latency: 0,
                    device: "xcv300".to_owned(),
                },
            ],
        },
        Request::MultiExplore {
            points: vec![QueryPoint::new("mat", "fr", 16)],
        },
        Request::Put {
            records: vec![sample_record(), sample_record()],
        },
        Request::Ping,
        Request::Stats,
        Request::Metrics { prometheus: false },
        Request::Metrics { prometheus: true },
        Request::Trace {
            id: "sweep-7.a".to_owned(),
        },
        Request::Series {
            last: 16,
            window_us: 0,
        },
        Request::Series {
            last: 0,
            window_us: 60_000_000,
        },
        Request::Digest,
        Request::Scan {
            shard: 3,
            offset: 128,
            limit: 64,
        },
        Request::Shutdown,
    ]
}

fn every_response() -> Vec<Response> {
    let record = sample_record();
    let mut extreme = sample_record();
    extreme.clock_period_ns = f64::NAN;
    extreme.execution_time_us = f64::INFINITY;
    vec![
        Response::Found {
            record: record.clone(),
        },
        Response::Found { record: extreme },
        Response::NotFound,
        Response::MultiGot {
            records: vec![Some(record.clone()), None, Some(record.clone())],
        },
        Response::MultiGot {
            records: vec![None],
        },
        Response::Explored {
            records: vec![record.clone(), record.clone()],
            hits: 1,
            evaluated: 1,
        },
        Response::MultiExplored {
            outcomes: vec![
                PointOutcome::Answered {
                    record: record.clone(),
                    hit: true,
                },
                PointOutcome::Failed {
                    error: "unknown kernel `nope`".to_owned(),
                },
                PointOutcome::Answered { record, hit: false },
            ],
            hits: 1,
            evaluated: 1,
        },
        Response::Stored { stored: 2 },
        Response::Pong,
        Response::Stats(sample_stats()),
        Response::Metrics(sample_snapshot()),
        Response::MetricsText {
            text: "# TYPE serve_requests_total counter\nserve_requests_total 7\n".to_owned(),
        },
        Response::Traced {
            spans: vec![
                Span {
                    trace_id: "sweep-7.a".to_owned(),
                    span_id: 11,
                    parent_id: 0,
                    name: "explore".to_owned(),
                    start_us: 100,
                    dur_us: 900,
                    annotations: vec![("points".to_owned(), "4".to_owned())],
                },
                Span {
                    trace_id: "sweep-7.a".to_owned(),
                    span_id: 12,
                    parent_id: 11,
                    name: "engine.cost_model".to_owned(),
                    start_us: 400,
                    dur_us: 300,
                    annotations: Vec::new(),
                },
            ],
        },
        Response::Traced { spans: Vec::new() },
        Response::Series {
            samples: vec![
                SeriesSample {
                    at_us: 1_000_000,
                    metrics: sample_snapshot(),
                },
                SeriesSample {
                    at_us: 2_000_000,
                    metrics: sample_snapshot(),
                },
            ],
        },
        Response::Series {
            samples: Vec::new(),
        },
        Response::SeriesDelta {
            delta: SnapshotDelta {
                from_us: 1_000_000,
                to_us: 2_000_000,
                diff: sample_snapshot(),
            },
        },
        Response::Digests {
            digests: vec![
                ShardDigest {
                    records: 3,
                    fold: 0x1234_5678_9abc_def0,
                },
                ShardDigest {
                    records: 0,
                    fold: 0,
                },
            ],
        },
        Response::Scanned {
            canonicals: vec!["kernel=fir;algo=CPA-RA;budget=32".to_owned()],
            done: false,
        },
        Response::Scanned {
            canonicals: Vec::new(),
            done: true,
        },
        Response::ShuttingDown,
        Response::Error {
            message: "unknown kernel `nope`".to_owned(),
        },
    ]
}

const TRACE: &str = "t-1.a";

fn request_frame(trace: Option<&str>, request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_request_frame(&mut frame, trace, request).expect("request encodes");
    frame
}

fn response_frame(trace: Option<&str>, response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response_frame(&mut frame, trace, response).expect("response encodes");
    frame
}

fn stamped(mut line: String, trace: Option<&str>) -> String {
    if let Some(id) = trace {
        stamp_trace(&mut line, id);
    }
    line
}

/// One pinned encoding: a label and its bytes.
struct Encoding {
    label: String,
    bytes: Vec<u8>,
}

/// Every encoding the file pins, in a fixed order.
fn corpus() -> Vec<Encoding> {
    let mut corpus = Vec::new();
    let mut push = |label: String, bytes: Vec<u8>| corpus.push(Encoding { label, bytes });
    for (index, request) in every_request().iter().enumerate() {
        push(
            format!("request {index} json"),
            request.render().into_bytes(),
        );
        push(
            format!("request {index} frame"),
            request_frame(None, request),
        );
    }
    for (index, response) in every_response().iter().enumerate() {
        push(
            format!("response {index} json"),
            response.render().into_bytes(),
        );
        push(
            format!("response {index} frame"),
            response_frame(None, response),
        );
    }
    let get = &every_request()[0];
    push(
        "traced get frame".to_owned(),
        request_frame(Some(TRACE), get),
    );
    push(
        "stamped stats line".to_owned(),
        stamped(Request::Stats.render(), Some(TRACE)).into_bytes(),
    );
    push(
        "record jsonl".to_owned(),
        sample_record().to_json_line().into_bytes(),
    );
    push(
        "record payload".to_owned(),
        to_bytes(&sample_record()).expect("record encodes"),
    );
    corpus
}

/// A literal for short encodings (the text of a JSON line, the hex of a
/// binary one), the length and FNV-1a hash for long ones.
fn fingerprint(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) if bytes.first() != Some(&BINARY_MAGIC) && text.len() <= 160 => text.to_owned(),
        _ if bytes.len() <= 48 => bytes.iter().map(|b| format!("{b:02x}")).collect(),
        _ => format!("{} bytes, fnv {:016x}", bytes.len(), fnv1a_64(bytes)),
    }
}

/// The golden fingerprints, in [`corpus`] order.
const GOLDEN: &[&str] = &[
    "{\"op\":\"get\",\"canonical\":\"kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560\"}",
    "74 bytes, fnv b1cf7d37ac549ab0",
    "{\"op\":\"get\",\"canonical\":\"nasty \\\"quoted\\\" \\\\ \\n canonical — ünïcødé\"}",
    "55 bytes, fnv 3539385a0839977f",
    "{\"op\":\"mget\",\"canonicals\":[\"a\",\"\",\"c\"]}",
    "b1140000000002030000000100000061000000000100000063",
    "192 bytes, fnv acae7952d4cda8c5",
    "94 bytes, fnv 0cbace4b6d1a6274",
    "{\"op\":\"mexplore\",\"points\":[{\"kernel\":\"mat\",\"algo\":\"fr\",\"budget\":16,\"latency\":2,\"device\":\"xcv1000\"}]}",
    "51 bytes, fnv ead9e497f5f8c4bb",
    "938 bytes, fnv 3168fadb0dc9000f",
    "449 bytes, fnv be676fb81f7f2f48",
    "{\"op\":\"ping\"}",
    "b1020000000006",
    "{\"op\":\"stats\"}",
    "b1020000000007",
    "{\"op\":\"metrics\"}",
    "b103000000000800",
    "{\"op\":\"metrics\",\"format\":\"prometheus\"}",
    "b103000000000801",
    "{\"op\":\"trace\",\"id\":\"sweep-7.a\"}",
    "b10f000000000a0900000073776565702d372e61",
    "{\"op\":\"series\",\"last\":16}",
    "b112000000000d10000000000000000000000000000000",
    "{\"op\":\"series\",\"window_us\":60000000}",
    "b112000000000d00000000000000000087930300000000",
    "{\"op\":\"digest\"}",
    "b102000000000b",
    "{\"op\":\"scan\",\"shard\":3,\"offset\":128,\"limit\":64}",
    "b11a000000000c030000000000000080000000000000004000000000000000",
    "{\"op\":\"shutdown\"}",
    "b1020000000009",
    "490 bytes, fnv 2404ded41430de6a",
    "226 bytes, fnv d1a582b30f3c9e8d",
    "479 bytes, fnv 57431ff87578a53b",
    "226 bytes, fnv d089c36192bcf839",
    "{\"ok\":true,\"found\":false}",
    "b1020000000002",
    "938 bytes, fnv 872cb5386e408e62",
    "452 bytes, fnv 6941fcc8dfb954c2",
    "{\"ok\":true,\"got\":[null]}",
    "b10700000000030100000000",
    "960 bytes, fnv e5ea6db62bd5086c",
    "465 bytes, fnv b19f5526264860c7",
    "1040 bytes, fnv c598038fc4c46427",
    "495 bytes, fnv 673f9793b0e5f3b9",
    "{\"ok\":true,\"stored\":2}",
    "b10a00000000060200000000000000",
    "{\"ok\":true,\"pong\":true}",
    "b1020000000007",
    "235 bytes, fnv 492b5f6981e5c23f",
    "143 bytes, fnv ee6b5d793edc4dc6",
    "252 bytes, fnv d78107e19f915a6a",
    "342 bytes, fnv 678850f37d6680e0",
    "{\"ok\":true,\"exposition\":\"# TYPE serve_requests_total counter\\nserve_requests_total 7\\n\"}",
    "70 bytes, fnv bcc9642fe5f22d68",
    "237 bytes, fnv 1878efb834725fb3",
    "156 bytes, fnv 47dcc02330be8b36",
    "{\"ok\":true,\"spans\":[]}",
    "b106000000000d00000000",
    "540 bytes, fnv 71e2ae7a1a41a441",
    "697 bytes, fnv 5a013e7c3e4d1059",
    "{\"ok\":true,\"series\":[]}",
    "b106000000001000000000",
    "296 bytes, fnv 6e615f0936d82b14",
    "358 bytes, fnv 8c7521923ffab2c9",
    "{\"ok\":true,\"digests\":[{\"records\":3,\"fold\":1311768467463790320},{\"records\":0,\"fold\":0}]}",
    "b126000000000e020000000300000000000000f0debc9a7856341200000000000000000000000000000000",
    "{\"ok\":true,\"canonicals\":[\"kernel=fir;algo=CPA-RA;budget=32\"],\"done\":false}",
    "b12b000000000f01000000200000006b65726e656c3d6669723b616c676f3d4350412d52413b6275646765743d333200",
    "{\"ok\":true,\"canonicals\":[],\"done\":true}",
    "b107000000000f0000000001",
    "{\"ok\":true,\"shutting_down\":true}",
    "b102000000000b",
    "{\"ok\":false,\"error\":\"unknown kernel `nope`\"}",
    "b11b000000000c15000000756e6b6e6f776e206b65726e656c20606e6f706560",
    "79 bytes, fnv 5535fbc85112f5ef",
    "{\"op\":\"stats\",\"trace\":\"t-1.a\"}",
    "456 bytes, fnv 496a05959764bff5",
    "219 bytes, fnv f297c28221cfdae8",
];

#[test]
fn every_encoding_matches_its_golden_bytes() {
    let corpus = corpus();
    let actual: Vec<String> = corpus.iter().map(|e| fingerprint(&e.bytes)).collect();
    let listing: String = actual
        .iter()
        .map(|fingerprint| format!("    {fingerprint:?},\n"))
        .collect();
    assert_eq!(
        corpus.len(),
        GOLDEN.len(),
        "corpus size changed; the encodings are now:\n{listing}"
    );
    for ((encoding, actual), golden) in corpus.iter().zip(&actual).zip(GOLDEN) {
        assert_eq!(actual, golden, "{} changed", encoding.label);
    }
}

fn frame_payload(frame: &[u8]) -> Vec<u8> {
    let mut reader = frame;
    let mut payload = Vec::new();
    read_frame(&mut reader, &mut payload).expect("frame reads");
    assert!(reader.is_empty(), "frame consumed exactly");
    payload
}

#[test]
fn every_request_variant_round_trips() {
    for request in every_request() {
        let frame = request_frame(None, &request);
        let (back, trace) = decode_payload::<Request>(&frame_payload(&frame)).expect("decodes");
        assert_eq!(back, request);
        assert_eq!(trace, None);
        let frame = request_frame(Some(TRACE), &request);
        let (back, trace) = decode_payload::<Request>(&frame_payload(&frame)).expect("decodes");
        assert_eq!(back, request);
        assert_eq!(trace.as_deref(), Some(TRACE));

        let line = stamped(request.render(), Some(TRACE));
        let (back, trace) = Request::parse_with_trace(&line).expect("line decodes");
        assert_eq!(back, request, "{line}");
        assert_eq!(trace.as_deref(), Some(TRACE));
    }
}

#[test]
fn every_response_variant_round_trips() {
    for response in every_response() {
        let frame = response_frame(Some("x"), &response);
        let (back, trace) = decode_payload::<Response>(&frame_payload(&frame)).expect("decodes");
        assert_eq!(trace.as_deref(), Some("x"));
        // NaN != NaN under PartialEq: compare via the JSON rendering, which
        // is bit-faithful for floats.
        assert_eq!(back.render(), response.render());
    }
}

#[test]
fn magic_byte_can_never_open_a_json_request() {
    assert_ne!(BINARY_MAGIC, b'{');
    assert!(!BINARY_MAGIC.is_ascii_whitespace());
    for request in every_request() {
        let line = request.render();
        assert_ne!(line.as_bytes()[0], BINARY_MAGIC, "{line}");
    }
}

/// Every input the sweep feeds a decoder: each cut of `bytes`, and `bytes`
/// with one bit flipped per byte (the bit rotates with the byte index).
fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len()).map(|index| {
        let mut flipped = bytes.to_vec();
        flipped[index] ^= 1 << (index % 8);
        flipped
    });
    cuts.chain(flips)
}

/// Decodes every damaged copy of `bytes`; an `Ok` value must re-encode to
/// bytes that decode and re-encode to themselves.  Returns the decode count.
fn sweep<T>(
    label: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    let mut decodes = 0;
    for input in damaged(bytes) {
        decodes += 1;
        let Some(value) = decode(&input) else {
            continue;
        };
        let once = encode(&value);
        let again = decode(&once).unwrap_or_else(|| {
            panic!(
                "{label}: a decoded value re-encodes to undecodable bytes {:?}",
                String::from_utf8_lossy(&once)
            )
        });
        assert_eq!(
            encode(&again),
            once,
            "{label}: re-encoding is not a fixed point"
        );
    }
    decodes
}

fn json_request(bytes: &[u8]) -> Option<(Request, Option<String>)> {
    Request::parse_with_trace(std::str::from_utf8(bytes).ok()?).ok()
}

fn json_response(bytes: &[u8]) -> Option<Response> {
    Response::parse(std::str::from_utf8(bytes).ok()?).ok()
}

fn payload_request(bytes: &[u8]) -> Option<(Request, Option<String>)> {
    decode_payload::<Request>(bytes).ok()
}

fn payload_response(bytes: &[u8]) -> Option<(Response, Option<String>)> {
    decode_payload::<Response>(bytes).ok()
}

#[test]
fn corruption_sweep_never_panics_and_decodes_to_a_fixed_point() {
    let mut decodes = 0;
    let mut requests: Vec<(Request, Option<&str>)> =
        every_request().into_iter().map(|r| (r, None)).collect();
    requests.push((Request::Stats, Some(TRACE)));
    requests.push((every_request().swap_remove(0), Some(TRACE)));
    for (index, (request, trace)) in requests.iter().enumerate() {
        let label = format!("request {index}");
        decodes += sweep(
            &label,
            stamped(request.render(), *trace).as_bytes(),
            json_request,
            |(request, trace)| stamped(request.render(), trace.as_deref()).into_bytes(),
        );
        decodes += sweep(
            &label,
            &request_frame(*trace, request)[5..],
            payload_request,
            |(request, trace)| request_frame(trace.as_deref(), request)[5..].to_vec(),
        );
    }
    for (index, response) in every_response().iter().enumerate() {
        let label = format!("response {index}");
        decodes += sweep(&label, response.render().as_bytes(), json_response, |r| {
            r.render().into_bytes()
        });
        decodes += sweep(
            &label,
            &response_frame(Some(TRACE), response)[5..],
            payload_response,
            |(response, trace)| response_frame(trace.as_deref(), response)[5..].to_vec(),
        );
    }
    let record = sample_record();
    decodes += sweep(
        "record jsonl",
        record.to_json_line().as_bytes(),
        |bytes| PointRecord::from_json_line(std::str::from_utf8(bytes).ok()?).ok(),
        |record| record.to_json_line().into_bytes(),
    );
    decodes += sweep(
        "record payload",
        &to_bytes(&record).expect("record encodes"),
        |bytes| from_bytes::<PointRecord>(bytes).ok(),
        |record| to_bytes(record).expect("record encodes"),
    );
    assert!(decodes > 10_000, "the sweep ran {decodes} decodes");
}
