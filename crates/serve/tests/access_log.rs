//! Wide-event access-log coverage against the real event loop: every
//! request — including byte-at-a-time frames, parse failures, and
//! deadline misses — lands as exactly one well-formed NDJSON line, and
//! a wedged log sink is absorbed by the drop counter rather than
//! stalling the event loop or shutdown.
#![cfg(unix)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xlda_serve::json::Json;
use xlda_serve::{AccessLog, Server, ServerConfig};

/// A sink that appends to a shared buffer the test inspects after the
/// server (and with it the log's writer thread) has shut down.
struct Collect(Arc<Mutex<Vec<u8>>>);

impl Write for Collect {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn spawn_with_log(config: ServerConfig, log: AccessLog) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_parts(config, None, Some(log));
    let handle = std::thread::spawn(move || {
        server.run_tcp(listener).expect("transport exits cleanly");
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    assert!(!line.is_empty(), "connection closed before response");
    Json::parse(line.trim_end()).expect("well-formed response")
}

#[test]
fn every_request_becomes_one_well_formed_ndjson_line() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let log = AccessLog::with_writer(Box::new(Collect(Arc::clone(&buf))), 1024);
    let (addr, handle) = spawn_with_log(ServerConfig::default(), log);
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());

    // 1. A byte-at-a-time frame: the log line must describe the whole
    // request, not the dribbled reads.
    for b in b"{\"id\":\"trickle\",\"kind\":\"hdc\"}\n" {
        c.write_all(&[*b]).unwrap();
        c.flush().unwrap();
    }
    let v = read_response(&mut reader);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    // 2. A parse failure: still exactly one log line, outcome bad_request.
    c.write_all(b"this is not json\n").unwrap();
    let v = read_response(&mut reader);
    assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"));

    // 3. A deadline miss: traced like any eval, outcome deadline.
    c.write_all(b"{\"id\":\"late\",\"kind\":\"hdc\",\"deadline_ms\":0}\n")
        .unwrap();
    let v = read_response(&mut reader);
    assert_eq!(v.get("code").and_then(Json::as_str), Some("deadline"));

    c.write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
        .unwrap();
    let v = read_response(&mut reader);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop((c, reader));
    handle.join().expect("server thread");

    // The server (and the AccessLog inside it) has dropped, so the
    // writer thread has flushed everything including the meta footer.
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON {e:?}: {l}")))
        .collect();
    // 4 requests + 1 footer, one line each.
    assert_eq!(lines.len(), 5, "one line per request plus footer:\n{text}");

    let find = |id: &str| {
        lines
            .iter()
            .find(|l| l.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no log line for {id}:\n{text}"))
    };
    let trickle = find("trickle");
    assert_eq!(trickle.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(trickle.get("kind").and_then(Json::as_str), Some("hdc"));
    assert!(trickle.get("stages_ns").is_some(), "wide event has stages");
    assert!(trickle.get("total_ns").and_then(Json::as_f64).unwrap() > 0.0);

    let late = find("late");
    assert_eq!(late.get("outcome").and_then(Json::as_str), Some("deadline"));
    assert_eq!(late.get("ok").and_then(Json::as_bool), Some(false));

    let bad = lines
        .iter()
        .find(|l| l.get("outcome").and_then(Json::as_str) == Some("bad_request"))
        .expect("parse failure logged");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    let footer = lines.last().unwrap();
    assert_eq!(
        footer.get("type").and_then(Json::as_str),
        Some("access_log_meta")
    );
    assert_eq!(footer.get("written").and_then(Json::as_f64), Some(4.0));
    assert_eq!(footer.get("dropped").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn wait_behind_a_slow_request_is_queue_time_not_batch_time() {
    // One worker. A slow request (a `cam_yield_mc` population of well
    // over 100 ms) holds it while three more Monte-Carlo requests of a
    // few ms each queue up; fresh seeds keep every one a real
    // evaluation. Each worker pops and starts one job at a time, so all
    // of a request's wait is `queue` and its `batch` stage is ≈0.
    let buf = Arc::new(Mutex::new(Vec::new()));
    let log = AccessLog::with_writer(Box::new(Collect(Arc::clone(&buf))), 1024);
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = spawn_with_log(config, log);
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    let mut burst =
        r#"{"id":"slow","kind":"cam_yield_mc","scenario":{"cells":2048,"seed":201}}"#.to_string();
    for i in 0..3 {
        burst.push_str(&format!(
            "\n{{\"id\":\"f{i}\",\"kind\":\"cam_yield_mc\",\"scenario\":{{\"cells\":256,\"seed\":{}}}}}",
            210 + i
        ));
    }
    burst.push('\n');
    c.write_all(burst.as_bytes()).unwrap();
    for _ in 0..4 {
        let v = read_response(&mut reader);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }
    c.write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
        .unwrap();
    read_response(&mut reader);
    drop((c, reader));
    handle.join().expect("server thread");

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let stage = |id: &str, name: &str| -> f64 {
        text.lines()
            .map(|l| Json::parse(l).expect("NDJSON line"))
            .find(|l| l.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no log line for {id}:\n{text}"))
            .get("stages_ns")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{id} has no {name} stage"))
    };
    for id in ["slow", "f0", "f1", "f2"] {
        let batch_ms = stage(id, "batch") / 1e6;
        assert!(batch_ms < 1.0, "{id}: batch {batch_ms} ms, want ≈0");
    }
    // The followers waited out the slow request, and that wait is theirs
    // in `queue`.
    for id in ["f0", "f1", "f2"] {
        let queue_ms = stage(id, "queue") / 1e6;
        assert!(
            queue_ms >= 20.0,
            "{id}: queue {queue_ms} ms behind a slow request"
        );
    }
}

#[test]
fn wedged_log_sink_is_absorbed_by_the_drop_counter_not_a_stall() {
    struct Wedged;
    impl Write for Wedged {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_secs(3600));
            unreachable!("test process exits first")
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let log = AccessLog::with_writer(Box::new(Wedged), 1);
    // Wedge the writer thread: one line, then wait past the flush
    // interval so the writer takes it and blocks inside the sink.
    log.log("{\"id\":\"wedge\"}".to_string());
    std::thread::sleep(Duration::from_millis(250));

    let (addr, handle) = spawn_with_log(ServerConfig::default(), log);
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());

    let start = Instant::now();
    for i in 0..10 {
        c.write_all(format!("{{\"id\":\"w{i}\",\"kind\":\"hdc\"}}\n").as_bytes())
            .unwrap();
        let v = read_response(&mut reader);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "requests must not stall behind the wedged log"
    );

    // The stats response accounts for the loss explicitly.
    c.write_all(b"{\"id\":\"s\",\"kind\":\"stats\"}\n").unwrap();
    let v = read_response(&mut reader);
    let al = v.get("access_log").expect("access_log block");
    assert_eq!(al.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(
        al.get("dropped").and_then(Json::as_f64).unwrap() >= 9.0,
        "cap-1 queue behind a wedged writer must drop: {v:?}"
    );

    c.write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
        .unwrap();
    let v = read_response(&mut reader);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop((c, reader));
    let shutdown_start = Instant::now();
    handle.join().expect("server thread");
    // AccessLog::drop waits a bounded grace then abandons the wedged
    // writer; server shutdown must not hang on it.
    assert!(
        shutdown_start.elapsed() < Duration::from_secs(10),
        "shutdown must abandon the wedged writer thread"
    );
}
