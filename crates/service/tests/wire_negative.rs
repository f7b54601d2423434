//! Negative-path wire-codec tests: hostile or broken request frames must
//! come back as typed [`ErrorCode`]s from the closed set — assertions
//! dispatch on the code, never on message text — and must never wedge the
//! daemon or leak a handler thread.

use ixtune_service::proto::{read_line, write_line};
use ixtune_service::{Daemon, ErrorCode, Request, Response, ServiceConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;

fn test_config(tag: &str) -> ServiceConfig {
    let data_dir = std::env::temp_dir().join(format!("ixtuned-wire-neg-{tag}"));
    let _ = std::fs::remove_dir_all(&data_dir);
    ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 4,
        data_dir,
        ..ServiceConfig::default()
    }
}

/// Send raw bytes on a fresh connection; return the first response line
/// (None when the daemon closed without answering).
fn raw_exchange(addr: &str, payload: &[u8]) -> Option<Result<Response, String>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send raw frame");
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    read_line::<Response>(&mut reader).expect("read response")
}

fn expect_code(resp: Option<Result<Response, String>>, want: ErrorCode) {
    match resp {
        Some(Ok(Response::Error(e))) => assert_eq!(e.code, want, "got {e:?}"),
        other => panic!("expected Error({want:?}), got {other:?}"),
    }
}

#[test]
fn hostile_frames_answer_with_typed_codes() {
    let daemon = Daemon::start(test_config("frames"), "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();

    // Unknown verb: syntactically valid JSON that is no Request variant.
    expect_code(
        raw_exchange(&addr, b"{\"Bogus\":1}\n"),
        ErrorCode::BadRequest,
    );
    // Structurally broken JSON.
    expect_code(raw_exchange(&addr, b"{nope\n"), ErrorCode::BadRequest);
    // An empty request line.
    expect_code(raw_exchange(&addr, b"\n"), ErrorCode::BadRequest);
    // Bytes that are not UTF-8 at all.
    expect_code(
        raw_exchange(&addr, &[0xff, 0xfe, 0x80, b'\n']),
        ErrorCode::BadRequest,
    );
    // A frame past the hard size cap (the daemon answers before the
    // buffer can grow unboundedly, then closes).
    let mut huge = vec![b'x'; (1 << 20) + 64];
    huge.push(b'\n');
    expect_code(raw_exchange(&addr, &huge), ErrorCode::BadRequest);

    // None of that wedged the daemon: a well-formed request still works.
    let mut line = serde_json::to_string(&Request::Ping).unwrap();
    line.push('\n');
    match raw_exchange(&addr, line.as_bytes()) {
        Some(Ok(Response::Pong)) => {}
        other => panic!("daemon should still answer Ping, got {other:?}"),
    }

    daemon.initiate_shutdown();
    daemon.join();
}

/// A parse error is recoverable: the same connection can carry a valid
/// request afterwards (the stream is still line-synchronized). Non-UTF8
/// garbage is not, and the daemon closes after the typed answer.
#[test]
fn parse_errors_keep_the_connection_alive() {
    let daemon = Daemon::start(test_config("resync"), "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer.write_all(b"{\"Bogus\":1}\n").unwrap();
    match read_line::<Response>(&mut reader).expect("first response") {
        Some(Ok(Response::Error(e))) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    write_line(&mut writer, &Request::Ping).unwrap();
    match read_line::<Response>(&mut reader).expect("second response") {
        Some(Ok(Response::Pong)) => {}
        other => panic!("same connection should answer Ping, got {other:?}"),
    }

    daemon.initiate_shutdown();
    daemon.join();
}
