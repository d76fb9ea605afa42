//! Line-oriented serving loops over any `BufRead`/`Write` pair, plus the
//! TCP front-end. The daemon binary wires these to stdin/stdout and an
//! optional listener; tests drive [`serve`] over in-memory buffers — same
//! code path, no sockets — and the reference benchmark's `query_hit` /
//! `query_churn` workloads drive [`serve_tcp`] over loopback.
//!
//! BATCH mode is not a separate verb: requests are read line-by-line and
//! answered strictly in order, each response `END`-framed, so a client may
//! pipe any number of queries and split replies on `END` lines. Piping a
//! file of N queries *is* the batch mode.

use crate::engine::QueryEngine;
use crate::protocol::{Request, RequestError, MAX_REQUEST_LINE};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;

/// Read one newline-terminated line, buffering at most
/// `MAX_REQUEST_LINE + 1` bytes of it — the tail of an oversized line is
/// consumed and discarded, so a hostile gigabyte line costs bounded
/// memory, not a buffered copy. Returns the (possibly truncated) text and
/// the line's true byte length; `None` at EOF with nothing read. Invalid
/// UTF-8 is replaced rather than erroring — junk input must answer a
/// typed `ERR`, never kill the connection loop.
fn read_line_capped<R: BufRead>(input: &mut R) -> io::Result<Option<(String, usize)>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0usize;
    let mut saw_any = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        if let Some(p) = chunk.iter().position(|&b| b == b'\n') {
            let keep = (MAX_REQUEST_LINE + 1).saturating_sub(buf.len()).min(p);
            buf.extend_from_slice(&chunk[..keep]);
            total += p;
            input.consume(p + 1);
            break;
        }
        let n = chunk.len();
        let keep = (MAX_REQUEST_LINE + 1).saturating_sub(buf.len()).min(n);
        buf.extend_from_slice(&chunk[..keep]);
        total += n;
        input.consume(n);
    }
    Ok(Some((String::from_utf8_lossy(&buf).into_owned(), total)))
}

/// Serve one connection: write the banner, then answer each request line
/// until `QUIT` or EOF (both say `BYE`). Blank lines and `#` comments are
/// skipped so recorded transcripts can annotate themselves. Lines longer
/// than [`MAX_REQUEST_LINE`] bytes answer `ERR code=too-large` and the
/// session keeps serving.
pub fn serve<R: BufRead, W: Write>(
    engine: &QueryEngine,
    mut input: R,
    mut out: W,
) -> io::Result<()> {
    out.write_all(engine.banner().as_bytes())?;
    out.flush()?;
    while let Some((line, len)) = read_line_capped(&mut input)? {
        if len > MAX_REQUEST_LINE {
            let e = RequestError::TooLarge {
                what: "request line",
                actual: len,
                limit: MAX_REQUEST_LINE,
            };
            out.write_all(e.to_response().to_string().as_bytes())?;
            out.flush()?;
            continue;
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let response = match line.parse::<Request>() {
            Ok(Request::Quit) => {
                out.write_all(engine.execute(&Request::Quit).to_string().as_bytes())?;
                out.flush()?;
                return Ok(());
            }
            Ok(req) => engine.execute(&req),
            Err(e) => e.to_response(),
        };
        out.write_all(response.to_string().as_bytes())?;
        out.flush()?;
    }
    out.write_all(engine.execute(&Request::Quit).to_string().as_bytes())?;
    out.flush()
}

/// Accept connections sequentially and [`serve`] each one. Per-connection
/// I/O errors (client hung up mid-reply) drop that connection and keep the
/// listener alive; only accept errors propagate.
pub fn serve_tcp(engine: &QueryEngine, listener: &TcpListener) -> io::Result<()> {
    loop {
        let (stream, _addr) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        let _ = serve(engine, reader, &stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QuerydConfig;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_workload::{destination_candidates, Protocol, RunParams};

    fn engine(seed: u64) -> QueryEngine {
        let g = generate(&GenConfig::small(seed)).unwrap();
        let dests = destination_candidates(&g).into_iter().take(1).collect();
        let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Stamp], dests);
        cfg.params = RunParams::fast();
        cfg.seed = seed;
        QueryEngine::new(g, cfg).unwrap()
    }

    fn transcript(e: &QueryEngine, input: &str) -> String {
        let mut out = Vec::new();
        serve(e, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn banner_then_framed_responses_then_bye() {
        let e = engine(51);
        let out = transcript(&e, "# a comment\n\nSHOW CACHE\nQUIT\nSHOW CACHE\n");
        assert!(out.starts_with("READY "));
        assert!(out.contains("\nCACHE "));
        assert!(out.ends_with("BYE\nEND\n"));
        // QUIT stops the loop: only one CACHE frame.
        assert_eq!(out.matches("\nCACHE ").count(), 1);
    }

    #[test]
    fn eof_and_quit_produce_identical_farewell() {
        let e = engine(53);
        assert_eq!(
            transcript(&e, "SHOW CACHE\n"),
            transcript(&e, "SHOW CACHE\nQUIT\n")
        );
    }

    #[test]
    fn parse_failures_answer_err_and_keep_serving() {
        let e = engine(55);
        let out = transcript(&e, "FROBNICATE\nSHOW CACHE\n");
        assert!(out.contains("ERR code=parse "));
        assert!(out.contains("\nCACHE "));
    }

    #[test]
    fn oversized_lines_answer_too_large_and_keep_serving() {
        let e = engine(59);
        // A line far beyond the cap: typed refusal, bounded buffering,
        // and the session keeps answering afterwards.
        let mut input = "A".repeat(MAX_REQUEST_LINE * 4);
        input.push_str("\nSHOW CACHE\n");
        let out = transcript(&e, &input);
        assert!(out.contains("ERR code=too-large "), "{out}");
        assert!(out.contains("\nCACHE "), "{out}");
        // An oversized *final* line without a newline still answers.
        let out = transcript(&e, &"B".repeat(MAX_REQUEST_LINE + 1));
        assert!(out.contains("ERR code=too-large "), "{out}");
        assert!(out.ends_with("BYE\nEND\n"), "{out}");
        // Exactly at the cap is not oversized (it is merely unknown).
        let out = transcript(&e, &format!("{}\n", "C".repeat(MAX_REQUEST_LINE)));
        assert!(out.contains("ERR code=parse "), "{out}");
    }

    #[test]
    fn invalid_utf8_answers_a_typed_error_not_an_io_error() {
        let e = engine(61);
        let mut input: Vec<u8> = vec![0xff, 0xfe, b'\n'];
        input.extend_from_slice(b"SHOW CACHE\n");
        let mut out = Vec::new();
        serve(&e, &input[..], &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("ERR code=parse "), "{out}");
        assert!(out.contains("\nCACHE "), "{out}");
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        use std::sync::Arc;

        let e = Arc::new(engine(57));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(&e);
        std::thread::spawn(move || {
            let _ = serve_tcp(&server, &listener);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"SHOW DISJOINTNESS 0\nQUIT\n").unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(stream.try_clone().unwrap()).lines() {
            lines.push(line.unwrap());
        }
        assert!(lines[0].starts_with("READY "));
        assert!(lines.iter().any(|l| l.starts_with("DISJOINTNESS dest=0 ")));
        assert_eq!(lines.last().map(String::as_str), Some("END"));
        assert!(lines.contains(&"BYE".to_string()));
    }
}
