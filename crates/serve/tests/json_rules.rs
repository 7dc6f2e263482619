//! The JSON reader's decoding rules, pinned on the lines the workspace
//! actually reads: a cache record, an `mget` request and an `mexplore`
//! reply.  Members may come in any order, whitespace may surround every
//! token, unknown members are ignored, member names may be escaped, `trace`
//! may sit anywhere, and a duplicated member reads as its first occurrence.
//! `JsonValue::parse` and the record decoder accept the same number forms.

use srra_explore::PointRecord;
use srra_serve::{stamp_trace, JsonValue, PointOutcome, Request, Response};

fn record() -> PointRecord {
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
        fits: false,
        registers_used: 32,
        total_cycles: 123_456,
        compute_cycles: 100_000,
        memory_cycles: 20_000,
        transfer_cycles: 3_456,
        clock_period_ns: 10.573,
        execution_time_us: 1_305.312_048,
        slices: 471,
        block_rams: 3,
        distribution: "x:15 \"c\":1 h:0".to_owned(),
    }
}

/// `text` as a JSON string whose last character is a `\u` escape, the way
/// `"key"` names `key`.
fn escaped_name(text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let last = chars.pop().expect("a non-empty name");
    let head: String = chars.into_iter().collect();
    format!("\"{head}\\u{:04x}\"", u32::from(last))
}

/// Writes `value` with every object's members reversed, whitespace around
/// every token, each member name's last character escaped, and an unknown
/// member after the others.
fn scrambled(value: &JsonValue, out: &mut String) {
    const SPACE: &str = " \t \r\n ";
    out.push_str(SPACE);
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(flag) => out.push_str(if *flag { "true" } else { "false" }),
        JsonValue::Number(raw) => out.push_str(raw),
        JsonValue::Text(text) => {
            let mut quoted = String::new();
            for ch in text.chars() {
                match ch {
                    '"' => quoted.push_str("\\\""),
                    '\\' => quoted.push_str("\\\\"),
                    c if u32::from(c) < 0x20 => {
                        quoted.push_str(&format!("\\u{:04x}", u32::from(c)))
                    }
                    c => quoted.push(c),
                }
            }
            out.push('"');
            out.push_str(&quoted);
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push_str(SPACE);
                    out.push(',');
                }
                scrambled(item, out);
            }
            out.push_str(SPACE);
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (name, member) in members.iter().rev() {
                out.push_str(SPACE);
                out.push_str(&escaped_name(name));
                out.push_str(SPACE);
                out.push(':');
                scrambled(member, out);
                out.push_str(SPACE);
                out.push(',');
            }
            out.push_str(SPACE);
            out.push_str(
                r#""x-unknown" : { "a" : [ 1 , -2.5e3 , { "b" : null } ] , "c" : "d\"}" }"#,
            );
            out.push_str(SPACE);
            out.push('}');
        }
    }
    out.push_str(SPACE);
}

/// The canonical `line` stamped with a trace id, and its scrambled twin,
/// in which the reversal puts `trace` first.
fn canonical_and_scrambled(mut line: String) -> (String, String) {
    stamp_trace(&mut line, "rules.trace-1");
    let mut twin = String::new();
    scrambled(
        &JsonValue::parse(&line).expect("a canonical line parses"),
        &mut twin,
    );
    assert!(
        twin.trim_start().starts_with("{ \t \r\n \"trac\\u0065\""),
        "{twin}"
    );
    (line, twin)
}

#[test]
fn a_scrambled_record_line_decodes_to_the_canonical_record() {
    let (line, twin) = canonical_and_scrambled(record().to_json_line());
    assert!(twin.contains(r#""ke\u0079""#), "{twin}");
    let canonical = PointRecord::from_json_line(&line).expect("the canonical line decodes");
    assert_eq!(canonical, record());
    assert_eq!(PointRecord::from_json_line(&twin), Ok(canonical));
}

#[test]
fn a_scrambled_mget_request_decodes_to_the_canonical_request() {
    let request = Request::MultiGet {
        canonicals: vec![record().canonical, "kernel=nope".to_owned()],
    };
    let (line, twin) = canonical_and_scrambled(request.render());
    let canonical = Request::parse_with_trace(&line).expect("the canonical line decodes");
    assert_eq!(
        canonical,
        (request, Some("rules.trace-1".to_owned())),
        "{line}"
    );
    assert_eq!(Request::parse_with_trace(&twin), Ok(canonical));
}

#[test]
fn a_scrambled_mexplore_reply_decodes_to_the_canonical_reply() {
    let reply = Response::MultiExplored {
        outcomes: vec![
            PointOutcome::Answered {
                record: record(),
                hit: true,
            },
            PointOutcome::Failed {
                error: "unknown kernel `nope`".to_owned(),
            },
        ],
        hits: 1,
        evaluated: 0,
    };
    let (line, twin) = canonical_and_scrambled(reply.render());
    let canonical = Response::parse_with_trace(&line).expect("the canonical line decodes");
    assert_eq!(
        canonical,
        (reply, Some("rules.trace-1".to_owned())),
        "{line}"
    );
    assert_eq!(Response::parse_with_trace(&twin), Ok(canonical));
}

#[test]
fn a_duplicated_member_reads_as_its_first_occurrence() {
    let line = record().to_json_line();
    let body = &line[1..];

    // The first of two `budget`s, either way round, in `JsonValue::get`
    // and in the record decoder.
    for (text, budget) in [
        (format!("{{\"budget\":16,{body}"), 16),
        (format!("{}, \"budget\":16}}", &line[..line.len() - 1]), 32),
    ] {
        let value = JsonValue::parse(&text).expect("parses");
        assert_eq!(
            value.get("budget").and_then(JsonValue::as_u64),
            Some(budget)
        );
        let decoded = PointRecord::from_json_line(&text).expect("decodes");
        assert_eq!(decoded.budget, budget, "{text}");
    }

    // A duplicate after the member, and one before it, of a string field
    // the decoder reads after others.
    let later = format!(
        "{},\"canonical\":\"second\",\"distribution\":\"second\"}}",
        &line[..line.len() - 1]
    );
    let decoded = PointRecord::from_json_line(&later).expect("decodes");
    assert_eq!(decoded, record());
    let earlier = format!("{{\"distribution\":\"first\",\"kernel\":\"first\",{body}");
    let decoded = PointRecord::from_json_line(&earlier).expect("decodes");
    assert_eq!(decoded.distribution, "first");
    assert_eq!(decoded.kernel, "first");
    assert_eq!(decoded.canonical, record().canonical);

    // Requests and replies: the op, a field and the trace id.
    let (request, trace) = Request::parse_with_trace(
        r#"{"trace":"t-first","op":"mget","canonicals":["a"],"op":"ping","canonicals":["b"],"trace":"t-second"}"#,
    )
    .expect("decodes");
    assert_eq!(
        request,
        Request::MultiGet {
            canonicals: vec!["a".to_owned()]
        }
    );
    assert_eq!(trace.as_deref(), Some("t-first"));
    let reply =
        Response::parse(r#"{"ok":true,"found":false,"found":true,"ok":false}"#).expect("decodes");
    assert_eq!(reply, Response::NotFound);
}

#[test]
fn the_tree_parser_and_the_record_decoder_accept_the_same_number_forms() {
    let line = record().to_json_line();
    let field = "\"clock_period_ns\":10.573";
    assert!(line.contains(field), "{line}");
    for (form, accepted) in [
        ("1.", true),
        ("-.5", true),
        ("01", true),
        ("1.e5", true),
        ("-0", true),
        ("1E-2", true),
        ("1e", false),
        ("1e+", false),
        ("-", false),
        ("-.", false),
        (".5", false),
        ("+1", false),
        ("1.5.3", false),
        ("0x10", false),
    ] {
        let tree = JsonValue::parse(form);
        let decoded = PointRecord::from_json_line(
            &line.replace(field, &format!("\"clock_period_ns\":{form}")),
        );
        assert_eq!(
            tree.is_ok(),
            accepted,
            "JsonValue::parse(`{form}`): {tree:?}"
        );
        assert_eq!(
            decoded.is_ok(),
            accepted,
            "record with `{form}`: {decoded:?}"
        );
        if let Ok(record) = decoded {
            let want: f64 = form.parse().expect("an accepted form is an f64");
            assert_eq!(record.clock_period_ns.to_bits(), want.to_bits(), "`{form}`");
            assert_eq!(tree, Ok(JsonValue::Number(form.to_owned())));
        }
    }
}
