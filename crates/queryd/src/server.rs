//! Line-oriented serving loops over any `BufRead`/`Write` pair, plus the
//! TCP front-end and the daemon's command line ([`DaemonArgs`]). The
//! daemon binary wires these to stdin/stdout and an optional listener;
//! tests drive [`serve`] over in-memory buffers — same code path, no
//! sockets — and the reference benchmark's `query_hit` / `query_churn`
//! workloads drive [`serve_tcp`] over loopback.
//!
//! BATCH mode is not a separate verb: requests are read line-by-line and
//! answered strictly in order, each response `END`-framed, so a client may
//! pipe any number of queries and split replies on `END` lines. Piping a
//! file of N queries *is* the batch mode.

use crate::engine::{QueryEngine, QuerydConfig};
use crate::protocol::{Request, RequestError, MAX_REQUEST_LINE};
use stamp_eventsim::textfmt::Args;
use stamp_workload::{grid_axes, Protocol, RunParams, GRID_SEED};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

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
            buf.extend(chunk.iter().take(keep));
            total += p;
            input.consume(p + 1);
            break;
        }
        let n = chunk.len();
        let keep = (MAX_REQUEST_LINE + 1).saturating_sub(buf.len()).min(n);
        buf.extend(chunk.iter().take(keep));
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
        if let Err(e) = RequestError::bound("request line", len, MAX_REQUEST_LINE) {
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

/// How long one read or one write on an accepted connection may block.
/// A constant, not a knob: clients that keep a connection for a whole
/// benchmark pass may compute for seconds between requests, and nothing
/// legitimate idles for half a minute — while without a bound, one idle
/// or stalled client would hold the single serving loop forever.
const IO_DEADLINE: Duration = Duration::from_secs(30);

/// Accept connections sequentially and [`serve`] each one, every read and
/// write under [`IO_DEADLINE`]. Per-connection I/O errors — the client
/// hung up mid-reply, sent nothing for a deadline, stopped reading — drop
/// that connection and keep the listener alive; only accept errors
/// propagate.
pub fn serve_tcp(engine: &QueryEngine, listener: &TcpListener) -> io::Result<()> {
    serve_tcp_with_deadline(engine, listener, IO_DEADLINE)
}

pub(crate) fn serve_tcp_with_deadline(
    engine: &QueryEngine,
    listener: &TcpListener,
    deadline: Duration,
) -> io::Result<()> {
    loop {
        let (stream, _addr) = listener.accept()?;
        let _ = stream
            .set_read_timeout(Some(deadline))
            .and_then(|()| stream.set_write_timeout(Some(deadline)))
            .and_then(|()| stream.try_clone())
            .and_then(|reader| serve(engine, BufReader::new(reader), &stream));
    }
}

/// `stamp_queryd`'s usage text.
pub const USAGE: &str = "stamp_queryd [--smoke] [--fast] [--ases N] [--seed N] [--dests N] \
     [--protocols LIST] [--cache-cap N] [--port P]\n\
     Resident what-if query service: converges every (protocol, destination)\n\
     baseline at startup, then answers WHATIF/SHOW queries line-by-line on\n\
     stdin (and on 127.0.0.1:P with --port) by forking from the resident\n\
     checkpoints. EOF or QUIT shuts down.\n\
     --smoke: the CI configuration — 200-AS smoke topology, fast parameters,\n\
     2 destinations (identical to the smoke campaign's grid axes).\n\
     --fast: fast engine parameters on the default topology.\n\
     --protocols LIST: comma-separated (bgp, rbgp-norci, rbgp, stamp;\n\
     default bgp,rbgp,stamp).\n\
     --cache-cap N: bound the baseline cache (default unbounded).";

/// What `stamp_queryd`'s command line asks for ([`USAGE`]).
pub struct DaemonArgs {
    smoke: bool,
    fast: bool,
    ases: Option<usize>,
    seed: u64,
    dests: Option<usize>,
    protocols: Vec<Protocol>,
    cache_cap: Option<usize>,
    /// `--port P`: serve 127.0.0.1:P as well as stdin.
    pub port: Option<u16>,
}

impl DaemonArgs {
    /// Read the daemon's flags from its argv, space-joined. An unknown
    /// flag or a bad value is an `Err` naming it; `--help` is an empty one.
    pub fn parse(line: &str) -> Result<DaemonArgs, String> {
        let mut flags = Args::new(line);
        if flags.flag("--help") || flags.flag("-h") {
            return Err(String::new());
        }
        let protocols = flags.list("--protocols")?;
        let args = DaemonArgs {
            smoke: flags.flag("--smoke"),
            fast: flags.flag("--fast"),
            ases: flags.value("--ases")?,
            seed: flags.value("--seed")?.unwrap_or(GRID_SEED),
            dests: flags.value("--dests")?,
            protocols: protocols.unwrap_or(vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp]),
            cache_cap: flags.value("--cache-cap")?,
            port: flags.value("--port")?,
        };
        flags.done().map(|()| args)
    }

    /// Converge the engine these flags describe. Its topology and
    /// destinations are the `campaign` binary's grid axes for the same seed
    /// ([`grid_axes`]), so the resident baselines are the cells the batch
    /// grids measure. The daemon and its transcript test
    /// (`tests/queryd.rs`) both build through here.
    pub fn engine(&self) -> Result<QueryEngine, String> {
        let (n_ases, n_dests) = if self.smoke {
            (200, self.dests.unwrap_or(2))
        } else {
            (self.ases.unwrap_or(500), self.dests.unwrap_or(4))
        };
        let (g, dests, _) = grid_axes(self.seed, n_ases, n_dests)?;
        let mut cfg = QuerydConfig::new(self.protocols.clone(), dests);
        cfg.seed = self.seed;
        if self.smoke || self.fast {
            cfg.params = RunParams::fast();
        }
        cfg.cache_capacity = self.cache_cap;
        QueryEngine::new(g, cfg).map_err(|e| format!("baseline convergence failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_workload::destination_candidates;
    use std::net::TcpStream;

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
        // So do timelines that parse but cannot be played: an offset that
        // would wrap `epoch + at` (it did: a panic in debug builds, the
        // answer for `at 0s` in release builds), and an adversarial event
        // naming an AS only the full resolve notices is missing (it reached
        // the cell runner's `expect`).
        let out = transcript(
            &e,
            "WHATIF SCN scenario x; at 18446744073709551615us fail-node 0\n\
             WHATIF SCN scenario x; at 0s hijack 99999\nSHOW CACHE\n",
        );
        assert!(out.contains("ERR code=offset-too-large "), "{out}");
        assert!(out.contains("ERR code=no-such-node "), "{out}");
        assert!(out.contains("\nCACHE "), "{out}");
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

    /// A daemon on a loopback port whose connections time out after
    /// `deadline` (the serving thread is detached, as the daemon's is).
    fn listen(seed: u64, deadline: Duration) -> std::net::SocketAddr {
        let e = engine(seed);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = serve_tcp_with_deadline(&e, &listener, deadline);
        });
        addr
    }

    /// One whole conversation: connect, send `requests`, read to EOF. The
    /// client-side timeout turns a starved client into a failed test
    /// instead of a hung one.
    fn converse(addr: std::net::SocketAddr, requests: &str) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let timeout = Some(Duration::from_secs(20));
        stream.set_read_timeout(timeout).unwrap();
        stream.write_all(requests.as_bytes()).unwrap();
        let lines = BufReader::new(stream).lines();
        lines
            .map(|l| l.expect("served before the timeout"))
            .collect()
    }

    fn assert_served(addr: std::net::SocketAddr) {
        let lines = converse(addr, "SHOW CACHE\nQUIT\n");
        assert!(lines[0].starts_with("READY "), "{lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("CACHE ")), "{lines:?}");
    }

    #[test]
    fn tcp_round_trip() {
        let lines = converse(listen(57, IO_DEADLINE), "SHOW DISJOINTNESS 0\nQUIT\n");
        assert!(lines[0].starts_with("READY "));
        assert!(lines.iter().any(|l| l.starts_with("DISJOINTNESS dest=0 ")));
        assert_eq!(lines.last().map(String::as_str), Some("END"));
        assert!(lines.contains(&"BYE".to_string()));
    }

    /// One connection at a time, so each of these used to starve every
    /// later client forever; now each costs one deadline.
    #[test]
    fn hostile_clients_cost_a_deadline_not_the_listener() {
        let addr = listen(67, Duration::from_millis(50));
        // Idle: connects first, says nothing, stays connected.
        let _idle = TcpStream::connect(addr).unwrap();
        assert_served(addr);
        // Torn: half a line, then gone.
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(b"SHOW CA").unwrap();
        drop(torn);
        assert_served(addr);
        // Stalled: never reads its replies. ~30 reply bytes per request
        // byte, tens of megabytes in all — far more than the socket buffers
        // between the two ends hold, so the daemon's write blocks. (The
        // requests may stop fitting too; after the drop the write fails.)
        let mut stalled = TcpStream::connect(addr).unwrap();
        let timeout = Some(Duration::from_secs(20));
        stalled.set_write_timeout(timeout).unwrap();
        let _ = stalled.write_all("SHOW POLICIES\n".repeat(100_000).as_bytes());
        assert_served(addr);
        drop(stalled);
    }
}
