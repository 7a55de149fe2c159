//! The TCP front end: one listener, one thread per connection, and an
//! accept loop that polls a stop flag so a signal (or a `drain` frame)
//! can end the daemon gracefully.
//!
//! The loop is generic over a [`LineHandler`] so the compile daemon
//! (`mcc serve`) and the shard router (`mcc route`) share one accept
//! loop, one containment discipline, and one idle reaper. A handler has
//! exactly one request method, [`LineHandler::submit`]: a bare JSON body
//! plus the peer's optional exactly-once identity `(cid, rid)`.
//!
//! The first inbound byte of a connection picks its dialect, and each
//! dialect is decoded once, here at the edge:
//!
//! * **v1 lines** — one line in, one line out, in order. The `@mcc1`
//!   envelope is a v1-only wire encoding of `(cid, rid)`: the line loop
//!   is the only code that unwraps it, and it wraps the response back
//!   for the peer. A corrupt envelope gets a bare `400` and is never
//!   executed.
//! * **v2 frames** — the burst loop: decode every complete frame a read
//!   delivers, submit them all, collect the outcomes in arrival order
//!   and answer with one write. The frame header's `(cid, rid)` goes
//!   straight to the handler. A v2 connection spawns no thread besides
//!   its own.
//!
//! Containment discipline: intake runs behind `catch_unwind`, so neither
//! a malformed frame nor a pipeline bug can take down a connection, and
//! no connection failure can take down the daemon — a dropped socket
//! mid-frame just ends that connection's thread. Responses go out
//! through [`write_frame`], which loops over partial writes and retries
//! `EINTR` so a short `write` can never truncate a frame.
//!
//! Idle reaper: a connected client that never sends a request must not
//! pin a connection thread forever. With an idle timeout set, the read
//! side times out, the connection is closed, and the handler's
//! [`LineHandler::on_idle_reap`] bumps its `idle_reaped` counter.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{self, Envelope, Response};
use crate::proto2::{self, Caps, FrameFault, FrameType};
use crate::{Server, Submitted};

/// How often the accept loop polls the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// One endpoint of the wire protocol. Implemented by the compile daemon
/// ([`Server`]) and by the router (`mcc_route::Router`).
pub trait LineHandler: Send + Sync + 'static {
    /// Handles one request body (bare JSON, never an envelope). `ident`
    /// is the peer's exactly-once identity `(cid, rid)` when it sent
    /// one. A handler that can separate admission from completion
    /// returns [`WireSubmission::Pending`], so a pipelined burst is
    /// admitted whole before any outcome is collected.
    fn submit(&self, body: &str, ident: Option<(&str, u64)>, client: &str) -> WireSubmission;

    /// Called when the idle reaper closes a connection.
    fn on_idle_reap(&self) {}

    /// Called when a connection is closed for exceeding
    /// [`crate::proto::MAX_FRAME_BYTES`] on one inbound frame.
    fn on_oversized(&self) {}

    /// Called once when a connection negotiates up to protocol v2.
    fn on_v2_connection(&self) {}

    /// Called per decoded v2 frame.
    fn on_v2_frame(&self) {}

    /// Called when a frame is structurally corrupt: a v1 envelope that
    /// fails validation, or a v2 stream that cannot be decoded.
    fn on_corrupt_frame(&self) {}

    /// The idle timeout for connections served on behalf of this
    /// handler (`None` = never reap).
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }
}

/// The result of [`LineHandler::submit`].
pub enum WireSubmission {
    /// Resolved immediately; the bare line is newline-terminated.
    Done(String),
    /// Admitted; the single response arrives on this channel.
    Pending(std::sync::mpsc::Receiver<Response>),
}

impl WireSubmission {
    /// Blocks until the response line is ready.
    pub fn wait(self) -> String {
        match self {
            WireSubmission::Done(line) => line,
            WireSubmission::Pending(rx) => Submitted::Pending(rx).wait().to_line(),
        }
    }
}

impl LineHandler for Server {
    fn submit(&self, body: &str, ident: Option<(&str, u64)>, client: &str) -> WireSubmission {
        match ident {
            Some((cid, rid)) => WireSubmission::Done(self.handle_once(body, cid, rid)),
            None => match self.submit_contained(body, client) {
                Submitted::Done(r) => WireSubmission::Done(r.to_line()),
                Submitted::Pending(rx) => WireSubmission::Pending(rx),
            },
        }
    }

    fn on_idle_reap(&self) {
        let c = self.counters();
        c.bump(&c.idle_reaped);
    }

    fn on_oversized(&self) {
        let c = self.counters();
        c.bump(&c.oversized_frames);
    }

    fn on_v2_connection(&self) {
        let c = self.counters();
        c.bump(&c.v2_connections);
    }

    fn on_v2_frame(&self) {
        let c = self.counters();
        c.bump(&c.v2_frames);
    }

    fn on_corrupt_frame(&self) {
        let c = self.counters();
        c.bump(&c.corrupt_frames);
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.config_idle_timeout()
    }
}

/// The outcome of [`read_frame_buf`]: the frame's bytes (including the
/// newline) are left in the caller's buffer, so a connection loop can
/// reuse one buffer for its whole lifetime.
#[derive(Debug)]
pub enum FrameBufRead {
    /// One complete newline-terminated frame's bytes are in the buffer.
    Frame,
    /// Clean end of stream (a partial trailing frame is discarded — a torn
    /// frame is never processed as if it were complete).
    Eof,
    /// The line exceeded the cap and the buffer has been cleared. The
    /// caller must answer with a structured `400` and close the
    /// connection — there is no bounded way to resync.
    Oversized,
    /// The read timed out (`WouldBlock`/`TimedOut` from a socket
    /// deadline); partial bytes stay in the buffer.
    TimedOut,
}

/// Reads one capped frame into `buf`, leaving the bytes there (see
/// [`FrameBufRead`]). Partial-frame state persists in `buf` across
/// [`FrameBufRead::TimedOut`] returns so a caller that polls with a
/// short read timeout never loses bytes; a caller that treats a timeout
/// as fatal simply drops the buffer. `EINTR` is retried, matching the
/// [`write_frame`] write-all discipline.
///
/// # Errors
///
/// Any I/O error other than `EINTR` and the timeout kinds.
pub fn read_frame_buf(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<FrameBufRead> {
    loop {
        let (take, done) = {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FrameBufRead::TimedOut)
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(FrameBufRead::Eof);
            }
            match chunk.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&chunk[..=i]);
                    (i + 1, true)
                }
                None => {
                    buf.extend_from_slice(chunk);
                    (chunk.len(), false)
                }
            }
        };
        r.consume(take);
        if buf.len() > max {
            buf.clear();
            return Ok(FrameBufRead::Oversized);
        }
        if done {
            return Ok(FrameBufRead::Frame);
        }
    }
}

/// Writes one whole response frame: loops until every byte is accepted,
/// retrying `EINTR` (`ErrorKind::Interrupted`) on both the writes and
/// the flush — a short write must never truncate a frame mid-line, or
/// the client would misparse every subsequent pipelined response.
///
/// # Errors
///
/// Any non-`EINTR` I/O error, and `WriteZero` if the peer stops
/// accepting bytes entirely.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let mut rest = frame;
    while !rest.is_empty() {
        match w.write(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    loop {
        match w.flush() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Serves connections until `stop` goes true (a signal handler or a
/// `drain` frame sets it), then returns — the caller runs the drain.
/// Connection threads are detached: they answer `503 draining` to
/// anything submitted after the drain begins, and die with their
/// sockets.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection I/O errors
/// only end that connection.
pub fn serve_lines(
    handler: Arc<dyn LineHandler>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, addr)) => {
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                let client = addr.to_string();
                std::thread::spawn(move || {
                    let _ = connection(&*handler, stream, &client, &stop);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection. The first inbound byte picks the protocol: the v2
/// magic (`0xB5`) routes to the frame loop, anything else (a `{` or `@`
/// from a v1 peer) to the line loop — so v1-only clients get correct
/// service from a v2 server with zero configuration. An idle timeout on
/// the read side feeds the reaper.
fn connection(
    handler: &dyn LineHandler,
    stream: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(handler.idle_timeout())?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // closed before the first byte.
            Ok(chunk) if chunk[0] == proto2::MAGIC[0] => {
                return v2_connection(handler, reader, writer, client, stop);
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                handler.on_idle_reap();
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    }
    v1_connection(handler, reader, writer, client, stop)
}

/// True for a `drain` request, which stops the accept loop as well as
/// draining the handler.
fn is_drain(body: &str) -> bool {
    matches!(proto::parse_request(body), Ok(crate::Request::Drain))
}

/// The v1 loop: read lines, answer each with exactly one line. One
/// reusable buffer carries every request; the line is borrowed from it
/// (`Cow`), so the steady state allocates nothing on the read side.
fn v1_connection(
    handler: &dyn LineHandler,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_frame_buf(&mut reader, &mut buf, proto::MAX_FRAME_BYTES)? {
            FrameBufRead::Frame => {}
            FrameBufRead::Eof => return Ok(()), // client closed cleanly.
            // The read timed out with nothing (or only a partial frame)
            // buffered: reap the connection. A stalled half-frame is
            // reaped too — the client was mid-line for the whole window.
            FrameBufRead::TimedOut => {
                handler.on_idle_reap();
                return Ok(());
            }
            // One endless line must not OOM the daemon: structured 400,
            // count it, close — resyncing on the rest is unbounded too.
            FrameBufRead::Oversized => {
                handler.on_oversized();
                let resp = Response::error(
                    "",
                    400,
                    &format!("oversized frame: longer than {} bytes", proto::MAX_FRAME_BYTES),
                );
                let _ = write_frame(&mut writer, resp.to_line().as_bytes());
                return Ok(());
            }
        }
        let line = String::from_utf8_lossy(&buf);
        if !line.trim().is_empty() {
            write_frame(&mut writer, v1_answer(handler, &line, client, stop).as_bytes())?;
        }
        crate::buf::shrink_reusable(&mut buf);
    }
}

/// Answers one v1 line. This is the only place an `@mcc1` envelope is
/// unwrapped: the handler sees the bare body and its `(cid, rid)`, and
/// the response is wrapped back with the same identity for the peer. A
/// corrupt envelope gets a bare `400` — its identity fields cannot be
/// trusted enough to echo — and is never executed.
fn v1_answer(handler: &dyn LineHandler, line: &str, client: &str, stop: &AtomicBool) -> String {
    let answer = |body: &str, ident: Option<(&str, u64)>| {
        let resp = handler.submit(body, ident, client).wait();
        if is_drain(body) {
            stop.store(true, Ordering::SeqCst);
        }
        resp
    };
    match proto::unwrap_envelope(line) {
        Envelope::Bare => answer(line, None),
        Envelope::Enveloped { cid, rid, body } => {
            proto::wrap_envelope(&cid, rid, &answer(&body, Some((&cid, rid))))
        }
        Envelope::Corrupt(reason) => {
            handler.on_corrupt_frame();
            Response::error("", 400, &reason).to_line()
        }
    }
}

/// The v2 burst loop: decode every complete frame a read delivers,
/// submit each, then collect the outcomes in arrival order and answer
/// with one write before the next read. Submitting the whole burst
/// before collecting any outcome is the pipelining — the worker pool
/// drains the burst's backlog without a round trip per request — and
/// the connection costs one read and one write syscall per burst, on
/// this thread alone.
fn v2_connection(
    handler: &dyn LineHandler,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    handler.on_v2_connection();
    writer.set_write_timeout(handler.idle_timeout()).ok();

    // A structural fault is answered with one error frame, then closes.
    let error = |reason: &str| {
        let line = Response::error("", 400, reason).to_line();
        (FrameType::Error, String::new(), 0, WireSubmission::Done(line))
    };
    let mut caps = Caps { compress: false, window: proto2::DEFAULT_WINDOW };
    let mut acc: Vec<u8> = Vec::new();
    let mut seg = crate::buf::SegBuf::new();
    let mut scratch: Vec<u8> = Vec::new();
    // The frames owed to the peer for this burst, in arrival order.
    let mut outs: Vec<(FrameType, String, u64, WireSubmission)> = Vec::new();
    loop {
        let mut fatal = false;
        loop {
            let bait = acc.iter().take_while(|b| **b == b'\n').count();
            acc.drain(..bait);
            let total = match proto2::frame_len(&acc) {
                Ok(Some(t)) if acc.len() >= t => t,
                Ok(_) => break, // need more bytes.
                Err(fault) => {
                    match &fault {
                        FrameFault::Oversized(_) => handler.on_oversized(),
                        FrameFault::Corrupt(_) => handler.on_corrupt_frame(),
                    }
                    outs.push(error(fault.reason()));
                    fatal = true;
                    break;
                }
            };
            let frame = match proto2::decode_frame(&acc) {
                Ok((f, _)) => f,
                Err(proto2::DecodeErr::Corrupt(reason)) => {
                    handler.on_corrupt_frame();
                    outs.push(error(&reason));
                    fatal = true;
                    break;
                }
                Err(proto2::DecodeErr::Incomplete) => unreachable!("length was checked"),
            };
            acc.drain(..total);
            handler.on_v2_frame();
            match frame.ftype {
                // Repeated hellos are acked idempotently — a chaos
                // Duplicate fault can double one, and the client just
                // discards extra acks.
                FrameType::Hello => {
                    if let Some(want) = proto2::parse_hello(&frame.body) {
                        caps = proto2::negotiate(&want);
                    }
                    let ack = WireSubmission::Done(proto2::hello_body(&caps));
                    outs.push((FrameType::HelloAck, String::new(), 0, ack));
                }
                FrameType::Request => {
                    if is_drain(&frame.body) {
                        stop.store(true, Ordering::SeqCst);
                    }
                    let ident = (!frame.cid.is_empty()).then_some((frame.cid.as_str(), frame.rid));
                    let sub = handler.submit(&frame.body, ident, client);
                    outs.push((FrameType::Response, frame.cid, frame.rid, sub));
                }
                // A client has no business sending these; close loudly.
                FrameType::HelloAck | FrameType::Response | FrameType::Error => {
                    handler.on_corrupt_frame();
                    outs.push(error("unexpected frame type from a client"));
                    fatal = true;
                    break;
                }
            }
        }
        let min = caps.compress.then_some(proto2::COMPRESS_MIN_BYTES);
        for (ftype, cid, rid, sub) in outs.drain(..) {
            crate::buf::shrink_reusable(&mut scratch);
            let body = sub.wait();
            proto2::encode_frame(&mut scratch, ftype, &cid, rid, body.trim_end_matches('\n'), min);
            seg.extend(&scratch);
        }
        if (!seg.is_empty() && seg.write_out(&mut writer).is_err()) || fatal {
            return Ok(());
        }
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean close; a torn tail is dropped.
            Ok(chunk) => {
                let n = chunk.len();
                acc.extend_from_slice(chunk);
                reader.consume(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Nothing is ever in flight between bursts.
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                handler.on_idle_reap();
                return Ok(());
            }
            Err(_) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use crate::ServeConfig;
    use std::io::BufRead;

    fn start_tcp(cfg: ServeConfig) -> (Arc<Server>, std::net::SocketAddr, Arc<AtomicBool>) {
        let server = Arc::new(Server::start(cfg));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&server);
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || serve_lines(s2, listener, stop2).unwrap());
        (server, addr, stop)
    }

    /// A writer that accepts at most one byte per call and injects an
    /// `EINTR` before every real write — the worst short-write peer.
    struct TrickleWriter {
        written: Vec<u8>,
        interrupt_next: bool,
        flushes: usize,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            self.written.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            if self.flushes == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_writes_and_eintr() {
        let mut w = TrickleWriter {
            written: Vec::new(),
            interrupt_next: true,
            flushes: 0,
        };
        let frame = b"{\"id\":\"x\",\"code\":200}\n";
        write_frame(&mut w, frame).expect("trickle writer still gets the whole frame");
        assert_eq!(w.written, frame, "no byte lost to a short write");
        assert!(w.flushes >= 2, "flush retried through EINTR");
    }

    #[test]
    fn write_frame_reports_write_zero() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Dead, b"x\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// A reader that yields at most one byte per call and injects an
    /// `EINTR` before every real read — the worst slow-loris peer.
    struct TrickleReader {
        data: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl io::Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_frame_survives_trickle_and_eintr() {
        let data = b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n".to_vec();
        let mut r = BufReader::new(TrickleReader {
            data,
            pos: 0,
            interrupt_next: true,
        });
        let mut buf = Vec::new();
        for want in ["{\"op\":\"ping\"}\n", "{\"op\":\"stats\"}\n"] {
            match read_frame_buf(&mut r, &mut buf, 1024).unwrap() {
                FrameBufRead::Frame => assert_eq!(buf, want.as_bytes()),
                other => panic!("wrong read: {other:?}"),
            }
            buf.clear();
        }
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Eof));
    }

    #[test]
    fn read_frame_caps_line_length() {
        let mut data = vec![b'a'; 100];
        data.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let mut r = BufReader::new(io::Cursor::new(data));
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame_buf(&mut r, &mut buf, 64).unwrap(),
            FrameBufRead::Oversized
        ));
        assert!(buf.is_empty(), "the oversized prefix is not kept");
    }

    #[test]
    fn read_frame_discards_torn_trailing_frame() {
        let mut r = BufReader::new(io::Cursor::new(b"{\"op\":\"ping\"}\n{\"op\":\"st".to_vec()));
        let mut buf = Vec::new();
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Frame));
        buf.clear();
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Eof));
    }

    #[test]
    fn oversized_tcp_frame_gets_structured_400_and_is_counted() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One endless line, comfortably past the cap. The server may close
        // the write side once it gives up, so write errors are fine.
        let chunk = vec![b'a'; 64 * 1024];
        for _ in 0..20 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(400), "got {line}");
        assert!(line.contains("oversized"), "diagnostic names the cause: {line}");

        // The connection is closed after the 400 — either a clean EOF or a
        // reset, depending on how much of our flood was still in flight.
        line.clear();
        // An Err is an RST because unread bytes were discarded: also closed.
        if let Ok(n) = reader.read_line(&mut line) {
            assert_eq!(n, 0, "no second response");
        }

        // ...and stats on a fresh connection counts it.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w2 = stream.try_clone().unwrap();
        let mut r2 = BufReader::new(stream);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        line.clear();
        r2.read_line(&mut line).unwrap();
        assert_eq!(
            Response::field_num(&line, "oversized_frames"),
            Some(1),
            "stats counts the oversized frame: {line}"
        );

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn tcp_round_trip_compile_ping_and_garbage() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut line = String::new();
        writer
            .write_all(
                proto::compile_line("t1", "hm1", "yalll", "reg a = R0\nconst a, 3\nexit a\n")
                    .as_bytes(),
            )
            .unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200), "got {line}");

        line.clear();
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        assert!(line.contains("pong"));
        assert!(
            Response::field_num(&line, "queue_depth").is_some(),
            "pong carries queue pressure for router probes: {line}"
        );
        assert_eq!(
            Response::field_str(&line, "draining").as_deref(),
            Some("false"),
            "pong carries the drain flag for router probes: {line}"
        );

        // Garbage gets a structured 400 and the connection survives.
        line.clear();
        writer.write_all(b"this is not json\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(400));

        line.clear();
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "bad_requests"), Some(1));

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn dropped_connection_does_not_kill_the_daemon() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        {
            // Write half a frame and slam the socket shut.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"{\"op\":\"compile\",\"id\":\"torn").unwrap();
        }
        // A fresh connection still gets served.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn idle_connection_is_reaped_and_counted() {
        let cfg = ServeConfig {
            idle_timeout: Some(Duration::from_millis(60)),
            ..ServeConfig::default()
        };
        let (server, addr, stop) = start_tcp(cfg);

        // A client that connects and never sends a frame: the reaper
        // must close it (read returns 0) within a few timeout windows.
        let idler = TcpStream::connect(addr).unwrap();
        idler
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut idle_reader = BufReader::new(idler);
        let mut line = String::new();
        let n = idle_reader.read_line(&mut line).expect("reaped, not hung");
        assert_eq!(n, 0, "the server closed the idle connection");

        // An active client on the same server is untouched, and the
        // stats op reports the reap.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            Response::field_num(&line, "idle_reaped"),
            Some(1),
            "stats counts the reaped connection: {line}"
        );

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_handshake_negotiates_and_pipelines_out_of_order_safely() {
        use crate::proto2::{Caps, Client, FrameType, Handshake};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let want = Caps { compress: true, window: 8 };
        let mut c = match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap()
        {
            Handshake::V2(c) => c,
            Handshake::V1Peer => panic!("a v2 server must ack the hello"),
        };
        assert!(c.caps.compress, "compression negotiated on");
        assert_eq!(c.caps.window, 8, "window clamped to the client ask");
        // Pipeline several requests before reading anything.
        for rid in 0..4u64 {
            let body = proto::compile_line(
                &format!("p{rid}"),
                "hm1",
                "yalll",
                &format!("reg a = R0\nconst a, {rid}\nexit a\n"),
            );
            c.send(FrameType::Request, "t", rid, &body).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        while seen.len() < 4 {
            let f = c.recv().unwrap();
            assert_eq!(f.ftype, FrameType::Response);
            assert_eq!(f.cid, "t");
            seen.insert(f.rid, f.body);
        }
        for rid in 0..4u64 {
            let body = &seen[&rid];
            assert_eq!(Response::field_num(body, "code"), Some(200), "rid {rid}: {body}");
            assert_eq!(
                Response::field_str(body, "id").as_deref(),
                Some(format!("p{rid}").as_str()),
                "responses matched by rid, not arrival order"
            );
        }
        // A v1 client on the same server still gets line service.
        let v1 = TcpStream::connect(addr).unwrap();
        let mut w1 = v1.try_clone().unwrap();
        let mut r1 = BufReader::new(v1);
        w1.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        r1.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        // And stats counts the v2 traffic: 1 connection, 5 frames
        // (hello + 4 requests).
        line.clear();
        w1.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        r1.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "v2_connections"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "v2_frames"), Some(5), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(c);
        drop(w1);
        drop(r1);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_replay_is_deduped_across_reconnects() {
        use crate::proto2::{Caps, Client, Handshake};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let want = Caps { compress: false, window: 4 };
        let mut bodies = Vec::new();
        for _ in 0..2 {
            let stream = TcpStream::connect(addr).unwrap();
            let mut c =
                match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap() {
                    Handshake::V2(c) => c,
                    Handshake::V1Peer => panic!("v2 expected"),
                };
            let body = proto::compile_line("dup", "hm1", "yalll", "reg a = R0\nexit a\n");
            bodies.push(c.call("replayer", 42, &body).unwrap());
        }
        assert_eq!(bodies[0], bodies[1], "the replay is byte-identical");
        // The dedup window recorded exactly one execution.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        w.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "replayed"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "accepted"), Some(1), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w);
        drop(r);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn one_key_executes_once_across_dialects() {
        use crate::proto2::{Caps, Client, Handshake};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        // Each call on a fresh connection, as a reconnecting client would.
        let v2_call = |rid: u64, body: &str| {
            let stream = TcpStream::connect(addr).unwrap();
            let want = Caps { compress: false, window: 4 };
            match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap() {
                Handshake::V2(mut c) => c.call("xd", rid, body).unwrap(),
                Handshake::V1Peer => panic!("v2 expected"),
            }
        };
        let v1_call = |line: &str| {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            w.write_all(line.as_bytes()).unwrap();
            let mut resp = String::new();
            BufReader::new(stream).read_line(&mut resp).unwrap();
            resp
        };
        let counts = || {
            let stats = v1_call("{\"op\":\"stats\"}\n");
            (
                Response::field_num(&stats, "accepted"),
                Response::field_num(&stats, "replayed"),
            )
        };
        let body = |n: u64| {
            proto::compile_line(&format!("x{n}"), "hm1", "yalll", &format!("; x{n}\nreg a = R0\nexit a\n"))
        };
        // v2 first, then the same key as a v1 envelope.
        let v2_first = v2_call(1, &body(1));
        let v1_replay = v1_call(&proto::wrap_envelope("xd", 1, &body(1)));
        assert_eq!(Response::field_num(&v2_first, "code"), Some(200), "{v2_first}");
        assert_eq!(v1_replay, proto::wrap_envelope("xd", 1, &v2_first));
        assert_eq!(counts(), (Some(1), Some(1)));
        // v1 first, then the same key as a v2 frame.
        let v1_first = v1_call(&proto::wrap_envelope("xd", 2, &body(2)));
        let v2_replay = v2_call(2, &body(2));
        assert_eq!(v1_first, proto::wrap_envelope("xd", 2, &v2_replay));
        assert_eq!(counts(), (Some(2), Some(2)));
        stop.store(true, Ordering::SeqCst);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_corrupt_stream_gets_an_error_frame_and_close() {
        use crate::proto2::{self, FrameType};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut w = stream.try_clone().unwrap();
        // A frame whose checksum is wrong: flip one payload byte.
        let mut bytes = Vec::new();
        proto2::encode_frame(&mut bytes, FrameType::Request, "x", 1, "{\"op\":\"ping\"}", None);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();
        // The server answers with an error frame, then closes.
        let mut r = BufReader::new(stream);
        let mut acc = Vec::new();
        let err = loop {
            match read_frame_buf(&mut r, &mut acc, 1 << 20) {
                Ok(FrameBufRead::Frame) | Ok(FrameBufRead::Eof) => break acc.clone(),
                Ok(FrameBufRead::TimedOut) => continue,
                other => panic!("unexpected read: {other:?}"),
            }
        };
        let (f, _) = proto2::decode_frame(&err).expect("a well-formed error frame");
        assert_eq!(f.ftype, FrameType::Error);
        assert!(
            f.body.contains("checksum") || f.body.contains("magic"),
            "diagnostic names the fault: {}",
            f.body
        );
        // Corruption is counted, and nothing was executed.
        let s2 = TcpStream::connect(addr).unwrap();
        let mut w2 = s2.try_clone().unwrap();
        let mut r2 = BufReader::new(s2);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "corrupt_frames"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "accepted"), Some(0), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w2);
        drop(r2);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_oversized_declaration_is_refused_from_the_header_alone() {
        use crate::proto2::{self, FrameType};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut w = stream.try_clone().unwrap();
        // Header declaring a 2 MiB payload; never send the payload.
        let mut header = vec![proto2::MAGIC[0], proto2::MAGIC[1], proto2::VERSION, 3, 0];
        proto2::write_varint(&mut header, 0);
        proto2::write_varint(&mut header, 1);
        proto2::write_varint(&mut header, 2 * 1024 * 1024);
        proto2::write_varint(&mut header, 2 * 1024 * 1024);
        w.write_all(&header).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream);
        let mut acc = Vec::new();
        let err = loop {
            match read_frame_buf(&mut r, &mut acc, 1 << 20) {
                Ok(FrameBufRead::Frame) | Ok(FrameBufRead::Eof) => break acc.clone(),
                Ok(FrameBufRead::TimedOut) => continue,
                other => panic!("unexpected read: {other:?}"),
            }
        };
        let (f, _) = proto2::decode_frame(&err).expect("a well-formed error frame");
        assert_eq!(f.ftype, FrameType::Error);
        assert!(f.body.contains("exceeds"), "names the cap: {}", f.body);
        let s2 = TcpStream::connect(addr).unwrap();
        let mut w2 = s2.try_clone().unwrap();
        let mut r2 = BufReader::new(s2);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "oversized_frames"), Some(1), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w2);
        drop(r2);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn drain_frame_stops_the_accept_loop() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"drain\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        // The flag flips, which is what ends the accept loop.
        for _ in 0..200 {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(stop.load(Ordering::SeqCst), "drain frame must set the stop flag");
        // And new compiles are refused.
        writer
            .write_all(
                proto::compile_line("late", "hm1", "yalll", "reg a = R0\nexit a\n").as_bytes(),
            )
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(503));
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }
}
