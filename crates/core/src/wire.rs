//! Line-delimited wire protocol for [`crate::server::CampaignServer`].
//!
//! Every message is one JSON line written by the crate's JSON codec
//! (`crate::json`: fixed field order, shortest-round-trip floats), so equal
//! messages are equal bytes — the same codec the journal uses. Result rows
//! are streamed as raw [`crate::store::encode_row`] lines; a client that
//! feeds them through [`crate::campaign::report_from_rows`] reconstructs a
//! report bit-identical to the server's own (and to a direct
//! `run_campaign` of the same spec).
//!
//! Requests (client → server), one per line:
//!
//! ```text
//! {"msg":"submit","tenant":"team-a","weight":2,"spec":{...campaign spec...}}
//! {"msg":"status","job":3}
//! {"msg":"results","job":3,"wait":true}
//! {"msg":"watch"}
//! ```
//!
//! Replies (server → client): `accepted`, `status`, a `results` header
//! followed by raw journal-row lines and an `end` marker, or a typed
//! `error` line carrying the [`ServerError::code`]. `watch` turns the
//! connection into a one-way stream of the server's progress events.
//!
//! Transport is any `BufRead`/`Write` pair; [`serve`] binds the protocol
//! to TCP with one thread per connection, and tests drive
//! [`serve_connection`] over in-memory buffers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::campaign::{report_from_rows, CampaignReport};
use crate::json::{self, Json};
use crate::server::{CampaignServer, CampaignSpec, JobPhase, JobStatus, ServerError};
use crate::store::{decode_row, encode_row, JournalRow};

/// Longest request line [`serve_connection`] reads, newline excluded. A
/// longer line is discarded up to its newline and answered with a `wire`
/// error; the connection stays usable.
const MAX_LINE_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit a campaign for `tenant`. Unknown tenants are registered on
    /// first contact with `weight` (default 1); the weight of an already
    /// registered tenant is never changed by a submit.
    Submit {
        /// Submitting tenant id.
        tenant: String,
        /// Fair-share weight used only if the tenant is new.
        weight: u64,
        /// The campaign to run.
        spec: CampaignSpec,
    },
    /// Fetch a job's status snapshot.
    Status {
        /// Job id from an `accepted` reply.
        job: u64,
    },
    /// Stream a finished job's rows. With `wait`, block until the job
    /// finishes instead of failing with `job-not-finished`.
    Results {
        /// Job id from an `accepted` reply.
        job: u64,
        /// Block until the job completes.
        wait: bool,
    },
    /// Subscribe to the server's progress events (one-way stream).
    Watch,
}

impl ClientMsg {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        json::object(|o| match self {
            ClientMsg::Submit { tenant, weight, spec } => {
                o.field("msg", "submit").field("tenant", tenant).field("weight", weight);
                o.object("spec", |o| spec.write_json(o));
            }
            ClientMsg::Status { job } => {
                o.field("msg", "status").field("job", job);
            }
            ClientMsg::Results { job, wait } => {
                o.field("msg", "results").field("job", job).field("wait", wait);
            }
            ClientMsg::Watch => {
                o.field("msg", "watch");
            }
        })
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed field.
    pub fn decode(line: &str) -> Result<ClientMsg, String> {
        let j = json::parse(line)?;
        match j.req("msg")? {
            "submit" => Ok(ClientMsg::Submit {
                tenant: j.req("tenant")?,
                weight: j.opt("weight")?.unwrap_or(1),
                spec: CampaignSpec::from_json(j.req("spec")?)?,
            }),
            "status" => Ok(ClientMsg::Status { job: j.req("job")? }),
            "results" => {
                Ok(ClientMsg::Results { job: j.req("job")?, wait: j.opt("wait")?.unwrap_or(false) })
            }
            "watch" => Ok(ClientMsg::Watch),
            other => Err(format!("unknown message {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

fn encode_error(e: &ServerError) -> String {
    json::object(|o| {
        o.field("msg", "error").field("code", e.code()).field("error", e.to_string());
    })
}

fn encode_accepted(job: u64, status: &JobStatus) -> String {
    json::object(|o| {
        o.field("msg", "accepted").field("job", job).field("total", status.total);
        o.field("done", status.done).field("fingerprint", &status.fingerprint);
    })
}

fn encode_status(s: &JobStatus) -> String {
    json::object(|o| {
        o.field("msg", "status").field("job", s.job).field("tenant", &s.tenant);
        o.field("phase", s.phase.name()).field("done", s.done).field("total", s.total);
        o.field("fingerprint", &s.fingerprint).opt("ordinal", s.completed_ordinal);
        o.opt("error", s.error.as_ref());
    })
}

fn decode_status(j: &Json) -> Result<JobStatus, String> {
    let phase: &str = j.req("phase")?;
    Ok(JobStatus {
        job: j.req("job")?,
        tenant: j.req("tenant")?,
        phase: JobPhase::parse(phase).ok_or_else(|| format!("bad phase {phase:?}"))?,
        done: j.req("done")?,
        total: j.req("total")?,
        fingerprint: j.req("fingerprint")?,
        completed_ordinal: j.opt("ordinal")?,
        error: j.opt("error")?,
    })
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Writes `line` and its newline in one `write_all`, so an unbuffered
/// transport sends each protocol line as one segment.
fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// Reads one request line (newline excluded) through the
/// [`MAX_LINE_BYTES`] bound; `None` at end of input. A line that is too
/// long (consumed up to its newline, never buffered whole) or not UTF-8
/// reads as the wire error to reply with.
fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    if (&mut *reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))));
    }
    Ok(Some(String::from_utf8(line).map_err(|_| "request line is not UTF-8".to_string())))
}

/// Serves one connection: reads request lines from `reader`, writes reply
/// lines to `writer`, returns at EOF. Malformed requests, lines that are
/// not UTF-8 and lines longer than 1 MiB produce a typed `error` line
/// (code `wire`) and the connection stays open; a `watch` request turns
/// the connection into a one-way event stream until the client
/// disconnects or the server shuts down.
///
/// # Errors
///
/// Only transport-level I/O errors; protocol errors are replied, not
/// returned.
pub fn serve_connection(
    server: &CampaignServer,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    while let Some(request) = read_request(&mut reader)? {
        let decoded = match request {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => ClientMsg::decode(&line),
            Err(e) => Err(e),
        };
        let msg = match decoded {
            Ok(msg) => msg,
            Err(e) => {
                write_line(&mut writer, &encode_error(&ServerError::Wire(e)))?;
                continue;
            }
        };
        match msg {
            ClientMsg::Submit { tenant, weight, spec } => {
                let submitted = server.submit(&tenant, &spec).or_else(|e| {
                    if matches!(e, ServerError::UnknownTenant(_)) {
                        // First contact: register, then retry once.
                        server.register_tenant(&tenant, weight)?;
                        server.submit(&tenant, &spec)
                    } else {
                        Err(e)
                    }
                });
                match submitted {
                    Ok(job) => match server.status(job) {
                        Ok(status) => write_line(&mut writer, &encode_accepted(job, &status))?,
                        Err(e) => write_line(&mut writer, &encode_error(&e))?,
                    },
                    Err(e) => write_line(&mut writer, &encode_error(&e))?,
                }
            }
            ClientMsg::Status { job } => match server.status(job) {
                Ok(status) => write_line(&mut writer, &encode_status(&status))?,
                Err(e) => write_line(&mut writer, &encode_error(&e))?,
            },
            ClientMsg::Results { job, wait } => {
                let rows = if wait {
                    server.wait(job).and_then(|_| server.rows(job))
                } else {
                    server.rows(job)
                };
                match rows {
                    Ok(rows) => {
                        let header = json::object(|o| {
                            o.field("msg", "results").field("job", job).field("rows", rows.len());
                        });
                        write_line(&mut writer, &header)?;
                        for row in &rows {
                            // encode_row is already newline-terminated.
                            writer.write_all(encode_row(row).as_bytes())?;
                        }
                        writer.flush()?;
                        let end = json::object(|o| {
                            o.field("msg", "end").field("job", job);
                        });
                        write_line(&mut writer, &end)?;
                    }
                    Err(e) => write_line(&mut writer, &encode_error(&e))?,
                }
            }
            ClientMsg::Watch => {
                let events = server.subscribe();
                let watching = json::object(|o| {
                    o.field("msg", "watching");
                });
                write_line(&mut writer, &watching)?;
                // Stream until the subscriber is dropped (server shutdown)
                // or the client hangs up (write error ends the connection).
                for event in events.iter() {
                    write_line(&mut writer, &event)?;
                }
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Accepts connections on `listener` and serves each on its own thread
/// until the server shuts down. Returns the acceptor's join handle; note
/// the acceptor only notices shutdown on its next accepted connection (the
/// CLI closes the process instead of joining).
pub fn serve(server: CampaignServer, listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if server.is_shutdown() {
                return;
            }
            let Ok(stream) = stream else { continue };
            let server = server.clone();
            std::thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(read_half) => BufReader::new(read_half),
                    Err(_) => return,
                };
                let _ = serve_connection(&server, reader, stream);
            });
        }
    })
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A client-side wire failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Transport I/O failed (rendered).
    Io(String),
    /// The peer sent a line this client cannot interpret.
    Protocol(String),
    /// The server replied with a typed error line.
    Server {
        /// The [`ServerError::code`] of the failure.
        code: String,
        /// The rendered server-side error.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Protocol(e) => write!(f, "wire protocol error: {e}"),
            WireError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// An accepted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Accepted {
    /// The job id to poll.
    pub job: u64,
    /// The campaign fingerprint the server computed.
    pub fingerprint: String,
    /// Total missions in the campaign grid.
    pub total: usize,
    /// Rows already present from resumed shard journals.
    pub done: usize,
}

/// A blocking wire client over any `BufRead`/`Write` transport pair
/// (`TcpStream` via [`Client::over_tcp`]; tests use in-memory buffers).
pub struct Client<R, W> {
    reader: R,
    writer: W,
}

impl Client<BufReader<TcpStream>, TcpStream> {
    /// Wraps a connected TCP stream.
    ///
    /// # Errors
    ///
    /// When the stream cannot be cloned into a read half.
    pub fn over_tcp(stream: TcpStream) -> io::Result<Self> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client over an arbitrary transport pair.
    pub fn new(reader: R, writer: W) -> Self {
        Client { reader, writer }
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), WireError> {
        write_line(&mut self.writer, &msg.encode())?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, WireError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(WireError::Protocol("connection closed".into()));
        }
        Ok(line)
    }

    /// Reads one reply, which must be an `expect` message, and decodes it;
    /// a typed `error` line becomes [`WireError::Server`].
    fn read_reply<T>(
        &mut self,
        expect: &str,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, WireError> {
        let line = self.read_line()?;
        let reply = || {
            let j = json::parse(line.trim_end())?;
            match j.req("msg")? {
                "error" => {
                    Ok(Err(WireError::Server { code: j.req("code")?, message: j.req("error")? }))
                }
                msg if msg == expect => decode(&j).map(Ok),
                msg => Err(format!("expected {expect} reply, got {msg:?}")),
            }
        };
        reply().map_err(WireError::Protocol)?
    }

    /// Submits a campaign; unknown tenants are registered with `weight`.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] with code `queue-full` under back-pressure,
    /// plus transport/protocol failures.
    pub fn submit(
        &mut self,
        tenant: &str,
        weight: u64,
        spec: &CampaignSpec,
    ) -> Result<Accepted, WireError> {
        self.send(&ClientMsg::Submit { tenant: tenant.to_string(), weight, spec: spec.clone() })?;
        self.read_reply("accepted", |j| {
            Ok(Accepted {
                job: j.req("job")?,
                fingerprint: j.req("fingerprint")?,
                total: j.req("total")?,
                done: j.req("done")?,
            })
        })
    }

    /// Fetches a job's status snapshot.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] (e.g. `unknown-job`) or transport failures.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, WireError> {
        self.send(&ClientMsg::Status { job })?;
        self.read_reply("status", decode_status)
    }

    /// Streams a finished job's rows and returns them in server order.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] (`job-not-finished` without `wait`,
    /// `job-failed`, `unknown-job`) or transport failures.
    pub fn results_rows(&mut self, job: u64, wait: bool) -> Result<Vec<JournalRow>, WireError> {
        self.send(&ClientMsg::Results { job, wait })?;
        let count: usize = self.read_reply("results", |j| j.req("rows"))?;
        let mut rows = Vec::new();
        for _ in 0..count {
            let line = self.read_line()?;
            rows.push(decode_row(line.trim_end()).map_err(WireError::Protocol)?);
        }
        self.read_reply("end", |_| Ok(()))?;
        Ok(rows)
    }

    /// [`Client::results_rows`] assembled into a report — bit-identical to
    /// the server's own [`CampaignServer::wait`] result and to a direct
    /// `run_campaign` of the same spec ([`report_from_rows`] is
    /// order-independent).
    ///
    /// # Errors
    ///
    /// As [`Client::results_rows`].
    pub fn results(&mut self, job: u64, wait: bool) -> Result<CampaignReport, WireError> {
        Ok(report_from_rows(self.results_rows(job, wait)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::server::FuzzerVariant;
    use swarm_sim::spoof::WaveformSet;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(CampaignConfig::paper_grid(2, 7))
    }

    /// A transport that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_line_is_one_write() {
        let mut out = CountingWriter::default();
        let msgs = [ClientMsg::Status { job: 5 }, ClientMsg::Watch];
        let mut client = Client::new(io::empty(), &mut out);
        for msg in &msgs {
            client.send(msg).expect("in-memory write");
        }
        let expected: String = msgs.iter().map(|m| m.encode() + "\n").collect();
        assert_eq!(out.writes, msgs.len());
        assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
    }

    fn test_server() -> CampaignServer {
        use crate::server::{in_process_factory, ExecutorOptions, ServerConfig};
        use crate::Telemetry;
        use swarm_control::{VasarhelyiController, VasarhelyiParams};

        let telemetry = Telemetry::off();
        let controller = VasarhelyiController::new(VasarhelyiParams::default());
        CampaignServer::start(
            ServerConfig { workers: 1, queue_depth: 1, journal_dir: None },
            in_process_factory(controller, ExecutorOptions::default(), telemetry.clone()),
            telemetry,
        )
    }

    /// Serves `requests` on a spawned thread (the default 2 MiB stack, as
    /// [`serve`] gives each connection) and returns the reply codes in
    /// order, `msg` for non-error replies.
    fn reply_codes(requests: Vec<u8>) -> Vec<String> {
        let server = test_server();
        let connection = server.clone();
        let out = std::thread::spawn(move || {
            let mut out = Vec::new();
            // A small buffer makes long lines arrive in many chunks.
            let reader = BufReader::with_capacity(64, requests.as_slice());
            serve_connection(&connection, reader, &mut out).expect("in-memory transport");
            out
        })
        .join()
        .expect("connection thread must not die");
        server.shutdown();
        String::from_utf8(out)
            .expect("replies are UTF-8")
            .lines()
            .map(|line| {
                let j = json::parse(line).expect("reply parses");
                j.req::<String>("code").or_else(|_| j.req("msg")).expect("reply kind")
            })
            .collect()
    }

    #[test]
    fn hundred_thousand_brackets_are_an_error_not_a_stack_overflow() {
        let line = "[".repeat(100_000);
        let decoded = std::thread::spawn(move || ClientMsg::decode(&line).map(|_| ()))
            .join()
            .expect("decoding must not overflow the stack");
        assert!(decoded.unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn deep_nesting_gets_a_wire_error_and_the_connection_survives() {
        let mut requests = "[".repeat(100_000).into_bytes();
        requests.extend_from_slice(b"\n{\"msg\":\"status\",\"job\":99}\n");
        assert_eq!(reply_codes(requests), ["wire", "unknown-job"]);
    }

    #[test]
    fn over_long_lines_get_one_wire_error_and_the_connection_survives() {
        let mut requests = vec![b'x'; MAX_LINE_BYTES + 1];
        requests.extend_from_slice(b"\n{\"msg\":\"status\",\"job\":99}\n");
        requests.extend_from_slice(&[b' '; MAX_LINE_BYTES]);
        requests.extend_from_slice(b"\n\xff\xfe\n");
        requests.extend_from_slice(&vec![b'y'; MAX_LINE_BYTES + 7]);
        assert_eq!(
            reply_codes(requests),
            ["wire", "unknown-job", "wire", "wire"],
            "a blank line at the cap is skipped; bad UTF-8 and an unterminated \
             over-long tail are errors"
        );
    }

    #[test]
    fn megabyte_string_fields_decode_in_linear_time() {
        let tenant = "tenant \"λ\" ".repeat((1 << 20) / 12);
        let msg = ClientMsg::Submit { tenant: tenant.clone(), weight: 1, spec: spec() };
        let started = std::time::Instant::now();
        let decoded = ClientMsg::decode(&msg.encode()).expect("decodes");
        assert!(started.elapsed() < std::time::Duration::from_secs(2), "{:?}", started.elapsed());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn each_reply_line_is_one_write() {
        let server = test_server();
        let requests = "not json\n{\"msg\":\"status\",\"job\":99}\n";
        let mut out = CountingWriter::default();
        serve_connection(&server, requests.as_bytes(), &mut out).expect("in-memory transport");
        server.shutdown();
        let replies = String::from_utf8(out.bytes).unwrap();
        assert_eq!(replies.lines().count(), 2, "{replies}");
        assert_eq!(out.writes, 2, "one write per reply line");
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Submit { tenant: "team-a".into(), weight: 3, spec: spec() },
            ClientMsg::Status { job: 5 },
            ClientMsg::Results { job: 5, wait: true },
            ClientMsg::Watch,
        ];
        for msg in msgs {
            let line = msg.encode();
            assert_eq!(ClientMsg::decode(&line).expect("round trip"), msg);
            assert_eq!(ClientMsg::decode(&line).expect("stable").encode(), line);
        }
    }

    #[test]
    fn submit_weight_defaults_to_one() {
        let line =
            "{\"msg\":\"submit\",\"tenant\":\"t\",\"spec\":".to_string() + &spec().encode() + "}";
        match ClientMsg::decode(&line).expect("decodes") {
            ClientMsg::Submit { weight, .. } => assert_eq!(weight, 1),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn spec_variants_survive_the_submit_envelope() {
        let mut s = spec();
        s.variant = FuzzerVariant::GFuzz;
        s.attacks = WaveformSet::all();
        s.eval_budget = Some(9);
        let msg = ClientMsg::Submit { tenant: "t".into(), weight: 1, spec: s.clone() };
        match ClientMsg::decode(&msg.encode()).expect("decodes") {
            ClientMsg::Submit { spec, .. } => assert_eq!(spec, s),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn error_lines_carry_typed_codes() {
        let e = ServerError::QueueFull { tenant: "t".into(), queued: 4, depth: 4 };
        let line = encode_error(&e);
        let j = json::parse(&line).expect("valid json");
        assert_eq!(j.req("code"), Ok("queue-full"));
        assert!(j.req::<&str>("error").expect("message").contains("4/4"));
    }

    #[test]
    fn status_reply_round_trips() {
        let status = JobStatus {
            job: 9,
            tenant: "team-b".into(),
            phase: JobPhase::Done,
            done: 12,
            total: 12,
            fingerprint: "abc".into(),
            completed_ordinal: Some(3),
            error: None,
        };
        let decoded = decode_status(&json::parse(&encode_status(&status)).expect("valid json"))
            .expect("decodes");
        assert_eq!(decoded, status);
    }

    #[test]
    fn malformed_requests_get_wire_errors_not_disconnects() {
        let mut msg = String::new();
        msg.push_str("not json\n");
        msg.push_str("{\"msg\":\"nope\"}\n");
        // Decode-level check only: full connection tests live in
        // tests/executor_equivalence.rs against a live server.
        assert!(ClientMsg::decode("not json").is_err());
        assert!(ClientMsg::decode("{\"msg\":\"nope\"}").is_err());
        assert!(!msg.is_empty());
    }
}
