//! The line-oriented session loop: one transport function shared by
//! every surface.
//!
//! [`serve`] drives a [`Catalog`] over any `BufRead`/`Write` pair —
//! stdin/stdout for `rpctl serve`, a `TcpStream` for each connection of
//! [`crate::server::Server`]. Single-release serving is a catalog with one
//! release ([`Catalog::single`]), so there is exactly one loop and one
//! per-line entry ([`CatalogSession::handle_line`]): a given request stream
//! produces byte-identical response bytes on either transport and in
//! either mode (the root integration suite proves both).
//!
//! A session opens with the versioned `HELLO` banner, then answers one
//! request per line until `quit` or end of input:
//!
//! ```text
//! HELLO rp/5 sa=Disease records=6000 groups=6 p=0.5
//! > info
//! publication sa=Disease records=6000 groups=6 p=0.5 lambda=0.3 delta=0.3 seed=7
//! > count Job=engineer Disease=asthma
//! est=412.331 support=2000 observed=309 f=0.2061655 ci95=0.162,0.249
//! > garbage
//! error code=unknown-command unknown command `garbage`; try count/batch/info/stats/ping/quit
//! > quit
//! bye
//! ```
//!
//! The loop reads each line with `read_until` into one reused byte
//! buffer, encodes each response into one reused text buffer
//! ([`crate::protocol::Response::encode_into`]), so a session allocates
//! for neither once its longest line has been seen, and writes it with
//! one `write_all`, then flushes. Protocol-level failures answer a structured `error code=...`
//! line and the loop keeps serving — a bad request must never take a
//! session down. That includes a line that is not valid UTF-8: it answers
//! `error code=parse request line is not valid UTF-8`, counts as an error
//! request, and the next line is read as usual. Only transport I/O errors
//! abort the session. That includes the
//! per-connection read/write deadlines [`crate::server::Server`] may arm:
//! when a socket read times out, the blocking read surfaces
//! `WouldBlock`/`TimedOut`, the server treats the session as idle and
//! reaps it cleanly (the connection slot is released; nothing is logged
//! as a failure). Degraded backends still serve — writes answer
//! `error code=degraded` while reads keep flowing (see
//! [`crate::service::QueryService`]).

use std::io::{self, BufRead, Write};

use crate::catalog::{Catalog, CatalogSession};
use crate::service::SessionStats;

/// Runs one serve session over `catalog`: the `HELLO` banner of its
/// default release, then request/response lines from `input` to `output`
/// until `quit` or end of input. Un-qualified verbs hit the default
/// release, which is also charged the session start. Returns the session
/// counters (aggregate counters accumulate on each release's service).
///
/// If the default release is not open, the banner position carries the
/// routing error and the session ends immediately.
///
/// # Errors
///
/// Returns only I/O errors on the transport; protocol-level problems are
/// reported to the client as `error code=...` lines.
pub fn serve<R: BufRead, W: Write>(
    catalog: &Catalog,
    mut input: R,
    mut output: W,
) -> io::Result<SessionStats> {
    let obs = crate::obs::global();
    let session_start = obs.now_ns();
    obs.inc(&obs.counters.serve_sessions_opened);
    obs.trace("session.open");
    let mut routing = CatalogSession::new(catalog);
    let mut session = SessionStats::default();
    let banner = routing.hello();
    writeln!(output, "{}", banner.encode())?;
    output.flush()?;
    let mut line = Vec::new();
    let mut text = String::new();
    while !banner.is_error() {
        line.clear();
        if input.read_until(b'\n', &mut line)? == 0 {
            break; // end of input
        }
        // Always-on per-request latency (parse through write+flush):
        // records into `serve.request` when the guard drops at the end
        // of this iteration — including the `bye` break path.
        let _request_span = obs.span(&obs.histograms.serve_request);
        let bytes = line.strip_suffix(b"\n").unwrap_or(&line);
        let Some(response) = routing.handle_bytes(bytes, &mut session) else {
            continue; // blank line
        };
        let encode = &obs.histograms.serve_encode;
        let t0 = obs.sampled_start(encode);
        text.clear();
        response.encode_into(&mut text);
        if let Some(t0) = t0 {
            encode.record(obs.now_ns().saturating_sub(t0));
        }
        text.push('\n');
        output.write_all(text.as_bytes())?;
        output.flush()?;
        if matches!(response, crate::protocol::Response::Bye) {
            break;
        }
    }
    obs.inc(&obs.counters.serve_sessions_closed);
    obs.trace("session.close");
    let session_ns = obs.now_ns().saturating_sub(session_start);
    obs.record(&obs.histograms.serve_session, session_ns);
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Response, PROTOCOL_VERSION};
    use crate::publisher::Publisher;
    use crate::service::{QueryService, ServiceConfig};
    use rp_table::{Attribute, Schema, TableBuilder};
    use std::sync::Arc;

    fn fixture_service() -> QueryService {
        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        // Balanced SA frequencies keep both 200-record groups under their
        // Equation-10 threshold, so SPS degenerates to UP and the
        // published record counts stay exact — the tests rely on that.
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        let publication = Publisher::new(b.build()).sa(1).seed(3).publish().unwrap();
        QueryService::from_publication(&publication, ServiceConfig::default())
    }

    fn run(input: &str) -> (String, SessionStats) {
        let catalog = Catalog::single(Arc::new(fixture_service()));
        let mut out = Vec::new();
        let stats = serve(&catalog, input.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), stats)
    }

    #[test]
    fn session_opens_with_versioned_hello() {
        let (out, stats) = run("quit\n");
        let banner = out.lines().next().unwrap();
        let parsed = Response::parse(banner).unwrap();
        assert!(
            matches!(parsed, Response::Hello { version, .. } if version == PROTOCOL_VERSION),
            "{banner}"
        );
        assert!(out.ends_with("bye\n"), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn answers_count_lines() {
        let (out, stats) = run("count Job=eng Disease=flu\nquit\n");
        let answer = out.lines().nth(1).unwrap();
        assert!(answer.starts_with("est="), "{answer}");
        assert!(answer.contains("support=200"), "{answer}");
        assert!(answer.contains("ci95="), "{answer}");
        assert_eq!(stats.answered, 2); // the query + quit's bye
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn verb_is_optional_and_blank_lines_skipped() {
        let (out, stats) = run("\n\nJob=doc Disease=none\n");
        assert!(out.lines().nth(1).unwrap().starts_with("est="), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn info_reports_parameters() {
        let (out, _) = run("info\nquit\n");
        let info = out.lines().nth(1).unwrap();
        assert!(info.contains("sa=Disease"), "{info}");
        assert!(info.contains("records=400"), "{info}");
        assert!(info.contains("p=0.5"), "{info}");
        assert!(info.contains("lambda=0.3"), "{info}");
        assert!(info.contains("seed=3"), "{info}");
    }

    #[test]
    fn errors_do_not_stop_the_loop() {
        let (out, stats) = run("garbage\nJob=eng\ncount Job=eng Disease=flu\n");
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert!(lines[0].starts_with("error code=unknown-command"), "{out}");
        assert!(lines[1].starts_with("error code=bad-query"), "{out}");
        assert!(lines[2].starts_with("est="), "{out}");
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn batch_answers_on_one_line() {
        let (out, stats) = run("batch Job=eng Disease=flu; Job=doc Disease=none\nquit\n");
        let line = out.lines().nth(1).unwrap();
        let parsed = Response::parse(line).unwrap();
        let Response::Batch(answers) = parsed else {
            panic!("expected batch response: {line}");
        };
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.answered, 2);
    }

    #[test]
    fn a_non_utf8_line_is_a_parse_error_and_the_session_goes_on() {
        let catalog = Catalog::single(Arc::new(fixture_service()));
        let mut out = Vec::new();
        let input = &b"ping\n\xff\nping\nquit\n"[..];
        let stats = serve(&catalog, input, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(
            lines,
            [
                "pong",
                "error code=parse request line is not valid UTF-8",
                "pong",
                "bye"
            ]
        );
        assert_eq!((stats.requests, stats.errors, stats.answered), (4, 1, 3));
    }

    #[test]
    fn input_end_without_quit_is_a_clean_session() {
        let (out, stats) = run("ping\n");
        assert!(out.ends_with("pong\n"), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn engine_without_publication_serves_too() {
        use crate::engine::QueryEngine;

        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        let publication = Publisher::new(b.build()).sa(1).seed(3).publish().unwrap();
        let service = QueryService::new(
            Arc::new(QueryEngine::new(&publication)),
            None,
            ServiceConfig::default(),
        );
        let catalog = Catalog::single(Arc::new(service));
        let mut out = Vec::new();
        let stats = serve(&catalog, &b"info\n"[..], &mut out).unwrap();
        assert_eq!(stats.answered, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records=400"), "{text}");
        assert!(!text.contains("seed="), "{text}");
    }
}
