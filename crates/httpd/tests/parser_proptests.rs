//! Property tests pinning the HTTP/1.1 parser the event loop calls
//! incrementally:
//!
//! * a request chopped across arbitrary read boundaries parses
//!   identically to the same bytes arriving in one piece;
//! * arbitrary bytes never panic it;
//! * a malformed head with its terminator present is rejected
//!   immediately — never `Incomplete`, so a connection feeding garbage
//!   can never hang waiting for "more".

use httpd::http::{try_parse, ParseStatus, Request, DEFAULT_MAX_BODY_BYTES};
use proptest::prelude::*;

fn assert_same_request(a: &Request, b: &Request) {
    assert_eq!(a.method, b.method);
    assert_eq!(a.path, b.path);
    assert_eq!(a.query, b.query);
    assert_eq!(a.headers, b.headers);
    assert_eq!(a.body, b.body);
    assert_eq!(a.http1_0, b.http1_0);
}

/// Wire bytes for a syntactically valid request plus the pieces needed
/// to predict the parse.
fn arb_valid_request() -> impl Strategy<Value = Vec<u8>> {
    (
        (
            prop_oneof![
                Just("GET"),
                Just("POST"),
                Just("put"),
                Just("dElEtE"),
                Just("PATCH")
            ],
            "/[a-zA-Z0-9/_.-]{0,24}",
            proptest::option::of("[a-z0-9=&+%]{1,16}"),
        ),
        (
            proptest::collection::vec(("[a-zA-Z-]{1,12}", "[ -~]{0,24}"), 0..5),
            proptest::collection::vec(any::<u8>(), 0..96),
            any::<bool>(),
            prop_oneof![Just("HTTP/1.1"), Just("HTTP/1.0")],
        ),
    )
        .prop_map(|((method, path, query), (headers, body, crlf, version))| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let target = match &query {
                Some(q) => format!("{path}?{q}"),
                None => path,
            };
            let mut raw = format!("{method} {target} {version}{eol}").into_bytes();
            for (name, value) in &headers {
                raw.extend_from_slice(format!("{name}: {value}{eol}").as_bytes());
            }
            raw.extend_from_slice(
                format!("Content-Length: {}{eol}{eol}", body.len()).as_bytes(),
            );
            raw.extend_from_slice(&body);
            raw
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_byte_split_parses_like_one_shot(raw in arb_valid_request()) {
        // Incremental: every proper prefix must ask for more; the full
        // buffer must yield exactly one request consuming every byte.
        for i in 0..raw.len() {
            prop_assert!(
                matches!(try_parse(&raw[..i], DEFAULT_MAX_BODY_BYTES), ParseStatus::Incomplete),
                "prefix of {} bytes was not Incomplete", i
            );
        }
        let ParseStatus::Complete { used, .. } = try_parse(&raw, DEFAULT_MAX_BODY_BYTES) else {
            return Err(TestCaseError::fail("full buffer did not parse"));
        };
        prop_assert_eq!(used, raw.len());
    }

    #[test]
    fn pipelined_requests_split_cleanly(
        first in arb_valid_request(),
        second in arb_valid_request(),
    ) {
        let mut wire = first.clone();
        wire.extend_from_slice(&second);
        let ParseStatus::Complete { request: a, used } =
            try_parse(&wire, DEFAULT_MAX_BODY_BYTES)
        else {
            return Err(TestCaseError::fail("first request did not parse"));
        };
        prop_assert_eq!(used, first.len(), "first request consumed the wrong bytes");
        let ParseStatus::Complete { request: b, used: used2 } =
            try_parse(&wire[used..], DEFAULT_MAX_BODY_BYTES)
        else {
            return Err(TestCaseError::fail("second request did not parse"));
        };
        prop_assert_eq!(used + used2, wire.len());
        let ParseStatus::Complete { request: a_alone, .. } =
            try_parse(&first, DEFAULT_MAX_BODY_BYTES)
        else {
            return Err(TestCaseError::fail("first alone did not parse"));
        };
        let ParseStatus::Complete { request: b_alone, .. } =
            try_parse(&second, DEFAULT_MAX_BODY_BYTES)
        else {
            return Err(TestCaseError::fail("second alone did not parse"));
        };
        assert_same_request(&a, &a_alone);
        assert_same_request(&b, &b_alone);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // No verdict is asserted — only that the parser terminates
        // without panicking on every prefix.
        for i in 0..=bytes.len() {
            let _ = try_parse(&bytes[..i], DEFAULT_MAX_BODY_BYTES);
        }
    }

    #[test]
    fn malformed_heads_reject_immediately_never_hang(
        garbage in "[a-z0-9 ]{0,48}",
        crlf in any::<bool>(),
    ) {
        // A lowercase "request line" can never carry a valid
        // `HTTP/1.x` version token, so once the head terminator is on
        // the wire the parser must reject — an `Incomplete` here would
        // strand the connection waiting forever.
        let eol = if crlf { "\r\n" } else { "\n" };
        let wire = format!("{garbage}{eol}{eol}");
        prop_assert!(
            matches!(
                try_parse(wire.as_bytes(), DEFAULT_MAX_BODY_BYTES),
                ParseStatus::Malformed(_)
            ),
            "garbage head {:?} was not rejected", wire
        );
    }
}
