//! Integration tests for Prometheus exposition: render → strict validate
//! round-trips, validator rejections, and the live scrape endpoint.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use asa_obs::{expose, Obs};

fn populated_obs() -> Obs {
    let obs = Obs::new_enabled();
    obs.counter("e.requests").add(41);
    obs.gauge("e.queue.depth").set(7);
    let h = obs.hist("e.latency_us");
    for v in [1u64, 5, 30, 31, 32, 100, 5000] {
        h.record(v);
    }
    obs
}

#[test]
fn rendered_exposition_passes_strict_validation() {
    let obs = populated_obs();
    let text = expose::render(&obs);
    let summary = expose::validate(&text).unwrap_or_else(|e| panic!("invalid: {e:#?}"));
    assert!(summary.families >= 4, "families: {summary:?}");
    assert!(summary.histograms >= 1);
    // Counters carry the _total suffix, histograms have cumulative buckets.
    assert!(text.contains("# TYPE e_requests_total counter"));
    assert!(text.contains("e_requests_total 41"));
    assert!(text.contains("# TYPE e_latency_us histogram"));
    assert!(text.contains("e_latency_us_bucket{le=\"+Inf\"} 7"));
    assert!(text.contains("e_latency_us_count 7"));
    // Gauges expose both the level and the high-water mark.
    assert!(text.contains("e_queue_depth 7"));
    assert!(text.contains("e_queue_depth_max 7"));
    assert!(text.contains("# TYPE e_queue_depth gauge"));
}

#[test]
fn process_families_render_on_linux() {
    let obs = Obs::new_enabled();
    let text = expose::render(&obs);
    expose::validate(&text).unwrap();
    if asa_obs::resource::sample().is_some() {
        assert!(text.contains("# TYPE process_resident_memory_bytes gauge"));
        assert!(text.contains("# TYPE process_peak_resident_memory_bytes gauge"));
        assert!(text.contains("# TYPE process_cpu_seconds_total counter"));
    }
}

#[test]
fn validator_rejects_duplicate_families() {
    let bad = "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n";
    let errs = expose::validate(bad).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("duplicate family: x")),
        "{errs:?}"
    );
}

#[test]
fn validator_rejects_non_cumulative_or_unterminated_buckets() {
    let not_cumulative = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
    let errs = expose::validate(not_cumulative).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("not cumulative")),
        "{errs:?}"
    );

    let unterminated = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_sum 9
h_count 5
";
    let errs = expose::validate(unterminated).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
}

#[test]
fn validator_rejects_undeclared_samples_and_interleaving() {
    let undeclared = "orphan 3\n";
    let errs = expose::validate(undeclared).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("without a # TYPE")),
        "{errs:?}"
    );

    let interleaved = "\
# TYPE a counter
a_total 1
# TYPE b counter
b_total 1
a_total 2
";
    // a_total appears under family `a`? No — `a` declared, sample name is
    // a_total which is not declared; counters must match exact names.
    let errs = expose::validate(interleaved).unwrap_err();
    assert!(!errs.is_empty());

    let interleaved2 = "\
# TYPE a counter
a 1
# TYPE b counter
b 1
a 2
";
    let errs = expose::validate(interleaved2).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("interleaved")), "{errs:?}");
}

#[test]
fn exemplar_bearing_scrape_renders_and_validates() {
    let obs = populated_obs();
    obs.attach_recorder(64);
    let id = obs.mint_trace_id();
    {
        let _scope = obs.trace_scope(id);
        obs.hist("e.latency_us").record(30);
    }
    let text = expose::render(&obs);
    // The bucket that retained the trace id renders the exemplar suffix…
    let needle = format!("# {{trace_id=\"{}\"}} 30", id.0);
    assert!(text.contains(&needle), "{text}");
    // …and the strict validator accepts the exemplar-bearing exposition.
    expose::validate(&text).unwrap_or_else(|e| panic!("invalid: {e:#?}"));
}

#[test]
fn validator_rejects_missing_or_non_finite_sum() {
    let missing_sum = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_count 5
";
    let errs = expose::validate(missing_sum).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("missing _sum")), "{errs:?}");

    let inf_sum = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum +Inf
h_count 5
";
    let errs = expose::validate(inf_sum).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("_sum is non-finite")),
        "{errs:?}"
    );
}

#[test]
fn validator_checks_exemplar_shape_and_placement() {
    let good = "\
# TYPE h histogram
h_bucket{le=\"1\"} 2 # {trace_id=\"17\"} 1
h_bucket{le=\"+Inf\"} 2
h_sum 2
h_count 2
";
    expose::validate(good).unwrap_or_else(|e| panic!("invalid: {e:#?}"));

    let on_counter = "\
# TYPE c counter
c 2 # {trace_id=\"17\"} 1
";
    let errs = expose::validate(on_counter).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("exemplar on non-bucket")),
        "{errs:?}"
    );

    let no_value = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 2 # {trace_id=\"17\"}
h_sum 2
h_count 2
";
    let errs = expose::validate(no_value).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("exemplar without a value")),
        "{errs:?}"
    );

    let bad_label = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 2 # {trace id} 1
h_sum 2
h_count 2
";
    assert!(expose::validate(bad_label).is_err());
}

#[test]
fn count_mismatch_with_inf_bucket_is_an_error() {
    let bad = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 6
";
    let errs = expose::validate(bad).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
}

#[test]
fn write_to_file_round_trips() {
    let obs = populated_obs();
    let dir = std::env::temp_dir().join(format!("asa-expose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.prom");
    expose::write_to_file(&obs, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    expose::validate(&text).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_endpoint_serves_live_exposition() {
    let obs = populated_obs();
    let server = expose::serve("127.0.0.1:0", obs.clone()).unwrap();
    let addr = server.local_addr();

    let scrape = |path: &str| -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("http header split");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        body.to_string()
    };

    let body = scrape("/metrics");
    expose::validate(&body).unwrap_or_else(|e| panic!("invalid scrape: {e:#?}"));
    assert!(body.contains("e_requests_total 41"));

    // The endpoint re-renders per request: a later scrape sees new values.
    obs.counter("e.requests").add(1);
    let body2 = scrape("/metrics");
    assert!(body2.contains("e_requests_total 42"), "{body2}");

    server.stop();
    // A post-stop connect either refuses or hangs w/o response; just make
    // sure stop() returned (thread joined) — reaching here is the assert.
}

#[test]
fn tcp_endpoint_routes_diagnostics_paths() {
    let obs = populated_obs();
    obs.attach_recorder(64);
    {
        let _s = obs.span("diag.work");
        std::thread::sleep(Duration::from_millis(2));
    }
    let server = expose::serve("127.0.0.1:0", obs.clone()).unwrap();
    let addr = server.local_addr();

    let fetch = |path: &str| -> (String, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(conn, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("http header split");
        (head.to_string(), body.to_string())
    };

    let (head, body) = fetch("/flame.svg");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("image/svg+xml"), "{head}");
    assert!(body.starts_with("<svg"), "{body}");
    assert!(body.contains("diag.work"), "{body}");

    // The window holds only what closed inside it: the spans a worker
    // keeps closing while the endpoint waits, not the earlier one.
    let stop = Arc::new(AtomicBool::new(false));
    let (running, started) = std::sync::mpsc::channel();
    let worker = {
        let (obs, stop) = (obs.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _s = obs.span("diag.window");
                std::thread::sleep(Duration::from_millis(2));
                let _ = running.send(());
            }
        })
    };
    started.recv().unwrap();
    let (head, body) = fetch("/profile?seconds=0.2");
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    let lines: Vec<(&str, u64)> = body
        .lines()
        .map(|line| {
            let (stack, us) = line.rsplit_once(' ').expect("folded line");
            (stack, us.parse::<u64>().expect("integer self time"))
        })
        .collect();
    assert_eq!(lines.len(), 1, "{body}");
    assert_eq!(lines[0].0, "diag.window");
    assert!(lines[0].1 > 0, "{body}");

    let (head, body) = fetch("/debug");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(body.contains("uptime_us:"), "{body}");
    assert!(body.contains("span profile:"), "{body}");
    assert!(body.contains(" us diag.work"), "{body}");

    let (head, _) = fetch("/nope");
    assert!(head.starts_with("HTTP/1.0 404"), "{head}");

    server.stop();
}

#[test]
fn late_request_gets_its_own_page() {
    let obs = populated_obs();
    let server = expose::serve("127.0.0.1:0", obs).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The request arrives well after the connection: the endpoint must
    // wait for it rather than answer an empty read as `/`.
    std::thread::sleep(Duration::from_millis(400));
    write!(conn, "GET /debug HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 200 OK"), "{raw}");
    assert!(raw.contains("uptime_us:"), "{raw}");
    server.stop();
}

#[test]
fn connection_without_request_line_gets_no_answer() {
    let obs = populated_obs();
    let server = expose::serve("127.0.0.1:0", obs).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    let _ = conn.read_to_string(&mut raw);
    assert!(raw.is_empty(), "{raw}");
    // The endpoint keeps serving after the empty connection.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("e_requests_total 41"), "{raw}");
    server.stop();
}
