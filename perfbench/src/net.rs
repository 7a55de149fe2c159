//! The load generator: one thread, at most two connections (one v1,
//! one v2), driven by `ppoll(2)`.
//!
//! Open loop: every request has a due instant on a fixed schedule. The
//! generator sends it at that instant (or as soon after as the
//! connection's window allows) and times it from the due instant, so a
//! stall in the server delays the measured latency of every request
//! queued behind it. Between sends it drains replies with a poll
//! timeout that ends at the next due instant: it never sleeps past one.
//! How late each send was is reported as the lag.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mcc_serve::proto2::{self, Caps, FrameType};

use crate::sys::{poll_fds, tighten_timer_slack};
use crate::trace::Tracer;

/// Which wire dialect a connection speaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dialect {
    /// Newline-delimited JSON; answers come back in request order.
    V1,
    /// Length-prefixed binary frames, matched by request id.
    V2,
}

/// One reply: the request tag it answers, its JSON body, and when the
/// generator read it.
pub struct Reply {
    /// The tag given to [`Driver::send`].
    pub tag: u64,
    /// The response body (one flat JSON object, no newline).
    pub body: String,
    /// When the reply was read off the socket.
    pub at: Instant,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    dialect: Dialect,
    caps: Caps,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// v1 answers arrive in order: the tags awaiting them.
    fifo: VecDeque<u64>,
    outstanding: usize,
}

/// Connect timeout and the blocking handshake's read timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

impl Conn {
    /// Opens a v1 connection.
    ///
    /// # Errors
    ///
    /// Connection failures, stringified.
    pub fn v1(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Conn::new(
            stream,
            Dialect::V1,
            Caps {
                compress: false,
                window: 64,
            },
        )
    }

    /// Opens a v2 connection and negotiates `want` with a hello.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures, stringified.
    pub fn v2(addr: SocketAddr, want: Caps) -> Result<Conn, String> {
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(CONNECT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut hello = Vec::new();
        proto2::encode_frame(
            &mut hello,
            FrameType::Hello,
            "",
            0,
            &proto2::hello_body(&want),
            None,
        );
        hello.push(b'\n');
        stream
            .write_all(&hello)
            .map_err(|e| format!("hello: {e}"))?;
        let mut acc = Vec::new();
        let mut chunk = [0u8; 4096];
        let ack = loop {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("hello-ack: {e}"))?;
            if n == 0 {
                return Err("peer closed during the v2 handshake".into());
            }
            acc.extend_from_slice(&chunk[..n]);
            match proto2::decode_frame(&acc) {
                Ok((f, used)) => {
                    acc.drain(..used);
                    break f;
                }
                Err(proto2::DecodeErr::Incomplete) => {}
                Err(proto2::DecodeErr::Corrupt(e)) => return Err(format!("hello-ack: {e}")),
            }
        };
        let granted = proto2::parse_hello(&ack.body)
            .filter(|_| ack.ftype == FrameType::HelloAck)
            .ok_or("peer answered the hello with something else")?;
        let caps = Caps {
            compress: want.compress && granted.compress,
            window: granted.window.max(1),
        };
        let mut c = Conn::new(stream, Dialect::V2, caps)?;
        c.rbuf = acc;
        Ok(c)
    }

    fn new(stream: TcpStream, dialect: Dialect, caps: Caps) -> Result<Conn, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            dialect,
            caps,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(1 << 16),
            fifo: VecDeque::new(),
            outstanding: 0,
        })
    }

    /// Whether another request may be sent without exceeding the window.
    pub fn has_room(&self) -> bool {
        self.outstanding < self.caps.window as usize
    }

    /// Requests sent and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn queue(&mut self, tag: u64, body: &str) {
        match self.dialect {
            Dialect::V1 => {
                self.wbuf.extend_from_slice(body.as_bytes());
                self.wbuf.push(b'\n');
                self.fifo.push_back(tag);
            }
            Dialect::V2 => {
                let min = self.caps.compress.then_some(proto2::COMPRESS_MIN_BYTES);
                proto2::encode_frame(&mut self.wbuf, FrameType::Request, "pb", tag, body, min);
            }
        }
        self.outstanding += 1;
    }

    /// Writes as much of the send buffer as the socket takes now.
    fn flush(&mut self) -> Result<(), String> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err("peer closed".into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads everything available and appends complete replies to `out`.
    fn read_replies(
        &mut self,
        out: &mut Vec<Reply>,
        tr: &mut Option<Tracer>,
    ) -> Result<(), String> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("peer closed the connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let at = Instant::now();
        match self.dialect {
            Dialect::V1 => {
                let mut start = 0;
                while let Some(nl) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&self.rbuf[start..start + nl]).into_owned();
                    start += nl + 1;
                    let tag = self.fifo.pop_front().ok_or("v1 reply without a request")?;
                    self.outstanding -= 1;
                    out.push(Reply {
                        tag,
                        body: line,
                        at,
                    });
                }
                self.rbuf.drain(..start);
            }
            Dialect::V2 => loop {
                let skip = self.rbuf.iter().take_while(|&&b| b == b'\n').count();
                self.rbuf.drain(..skip);
                let span = tr.as_mut().map(|t| t.begin("loadgen.decode", 0, None));
                let decoded = proto2::decode_frame(&self.rbuf);
                if let (Some(t), Some(id)) = (tr.as_mut(), span) {
                    t.end(id);
                }
                match decoded {
                    Ok((f, used)) => {
                        self.rbuf.drain(..used);
                        match f.ftype {
                            FrameType::Response => {
                                self.outstanding -= 1;
                                out.push(Reply {
                                    tag: f.rid,
                                    body: f.body,
                                    at,
                                });
                            }
                            FrameType::HelloAck => {}
                            _ => return Err(format!("unexpected v2 frame: {}", f.body)),
                        }
                    }
                    Err(proto2::DecodeErr::Incomplete) => break,
                    Err(proto2::DecodeErr::Corrupt(e)) => {
                        return Err(format!("corrupt v2 reply: {e}"))
                    }
                }
            },
        }
        Ok(())
    }
}

/// The generator's connections plus an optional span log.
pub struct Driver {
    /// Connections, indexed by the `conn` argument of [`Driver::send`].
    pub conns: Vec<Conn>,
    /// Spans around the generator's codec calls, in the traced run.
    pub tracer: Option<Tracer>,
}

impl Driver {
    /// A driver over `conns`.
    pub fn new(conns: Vec<Conn>) -> Driver {
        tighten_timer_slack();
        Driver {
            conns,
            tracer: None,
        }
    }

    /// Queues one request on connection `conn` and tries to write it.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, conn: usize, tag: u64, body: &str) -> Result<(), String> {
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.begin("loadgen.encode", tag, None));
        self.conns[conn].queue(tag, body);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
        self.conns[conn].flush()
    }

    /// Flushes pending writes, waits until a reply is readable or
    /// `until` passes (`None`: wait for a reply), and returns every
    /// complete reply read.
    ///
    /// # Errors
    ///
    /// Socket failures or a corrupt reply stream.
    pub fn pump(&mut self, until: Option<Instant>) -> Result<Vec<Reply>, String> {
        for c in &mut self.conns {
            c.flush()?;
        }
        let fds: Vec<(i32, bool)> = self
            .conns
            .iter()
            .map(|c| (c.stream.as_raw_fd(), !c.wbuf.is_empty()))
            .collect();
        let timeout = until.map(|u| u.saturating_duration_since(Instant::now()));
        let ready = poll_fds(&fds, timeout);
        let mut out = Vec::new();
        for (c, r) in self.conns.iter_mut().zip(ready) {
            if r {
                c.read_replies(&mut out, &mut self.tracer)?;
            }
        }
        Ok(out)
    }

    /// Sends one request and waits (up to `limit`) for its reply,
    /// collecting any other replies that arrive meanwhile into `others`.
    ///
    /// # Errors
    ///
    /// Socket failures, or no reply within `limit`.
    pub fn call(
        &mut self,
        conn: usize,
        tag: u64,
        body: &str,
        limit: Duration,
        others: &mut Vec<Reply>,
    ) -> Result<Reply, String> {
        self.send(conn, tag, body)?;
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            for r in self.pump(Some(deadline))? {
                if r.tag == tag {
                    return Ok(r);
                }
                others.push(r);
            }
        }
        Err(format!("no reply to request {tag} within {limit:?}"))
    }

    /// Requests outstanding over all connections.
    pub fn outstanding(&self) -> usize {
        self.conns.iter().map(Conn::outstanding).sum()
    }
}

/// One scheduled request of an open loop.
pub struct Planned {
    /// Offset of the due instant from the start of the phase.
    pub due: Duration,
    /// Connection index.
    pub conn: usize,
    /// Unique tag (the v2 request id; the v1 `id` field).
    pub tag: u64,
    /// The request body.
    pub body: Rc<str>,
}

/// What an open-loop phase measured.
pub struct OpenLoop {
    /// Latency of every answered request from its due instant, in µs.
    pub latency_us: Vec<f64>,
    /// Due instant of each `latency_us` entry, seconds into the phase.
    pub due_s: Vec<f64>,
    /// Connection of each `latency_us` entry.
    pub conn: Vec<usize>,
    /// How late each request was sent, in µs.
    pub lag_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests never answered before the drain limit.
    pub unanswered: u64,
}

/// How long an open loop waits for stragglers after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(15);

/// Tags with this bit set are in-band probes (`stats` requests in the
/// traced run): scheduled like any request, but left out of the
/// latency and lag samples.
pub const PROBE_TAG: u64 = 1 << 63;

/// Runs `plan` open loop, handing every reply to `on_reply`. Latency is
/// recorded for every answered request, correct or not; the caller
/// checks the replies and counts wrong ones as failures.
///
/// # Errors
///
/// Socket failures.
pub fn open_loop(
    d: &mut Driver,
    plan: &[Planned],
    mut on_reply: impl FnMut(&Reply),
) -> Result<OpenLoop, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut out = OpenLoop {
        latency_us: Vec::new(),
        due_s: Vec::new(),
        conn: Vec::new(),
        lag_us: Vec::new(),
        sent: 0,
        unanswered: 0,
    };
    let mut due_of = std::collections::HashMap::with_capacity(plan.len());
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        while next < plan.len() {
            let p = &plan[next];
            let due = start + p.due;
            if due > now || !d.conns[p.conn].has_room() {
                break;
            }
            let sent_at = Instant::now();
            d.send(p.conn, p.tag, &p.body)?;
            if p.tag & PROBE_TAG == 0 {
                out.lag_us
                    .push(sent_at.duration_since(due).as_secs_f64() * 1e6);
                out.sent += 1;
            }
            due_of.insert(p.tag, (due, p.conn));
            next += 1;
        }
        if next == plan.len() {
            if d.outstanding() == 0 {
                break;
            }
            let dl = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
            if Instant::now() >= dl {
                out.unanswered = d.outstanding() as u64;
                break;
            }
        }
        // Wake at the next due instant, unless its connection's window
        // is full: then only a reply can make progress.
        let wake = match plan.get(next) {
            Some(p) if d.conns[p.conn].has_room() => Some(start + p.due),
            Some(_) => None,
            None => drain_deadline,
        };
        for r in d.pump(wake)? {
            if let Some((due, conn)) = due_of.remove(&r.tag) {
                if r.tag & PROBE_TAG == 0 {
                    out.latency_us
                        .push(r.at.duration_since(due).as_secs_f64() * 1e6);
                    out.due_s.push(due.duration_since(start).as_secs_f64());
                    out.conn.push(conn);
                }
                on_reply(&r);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    //! Self-test of the generator against a stub v2 responder that
    //! answers every request after a fixed delay: the measured p50 must
    //! track that delay at any rate (a generator that reads replies only
    //! between paced sends would report the pacing gap instead), and a
    //! stall of the responder must show in p99 and in the send lag.

    use super::*;
    use crate::stats::{p50_p99, quantile, sort};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Serves one v2 connection: hello-ack with `window`, then every
    /// request answered `delay` after it was read; after `stall_after`
    /// requests the responder stops answering for `stall`.
    fn stub(window: u32, delay: Duration, stall_after: u64, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).ok();
            let mut w = s.try_clone().expect("clone");
            let (tx, rx) = mpsc::channel::<(Instant, u64)>();
            let writer = std::thread::spawn(move || {
                let mut answered = 0;
                while let Ok((read_at, rid)) = rx.recv() {
                    if answered == stall_after {
                        std::thread::sleep(stall);
                    }
                    let due = read_at + delay;
                    if let Some(d) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(d);
                    }
                    let mut out = Vec::new();
                    proto2::encode_frame(
                        &mut out,
                        FrameType::Response,
                        "pb",
                        rid,
                        "{\"code\":200}",
                        None,
                    );
                    if w.write_all(&out).is_err() {
                        return;
                    }
                    answered += 1;
                }
            });
            let mut acc = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let n = match s.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                let at = Instant::now();
                acc.extend_from_slice(&chunk[..n]);
                loop {
                    let skip = acc.iter().take_while(|&&b| b == b'\n').count();
                    acc.drain(..skip);
                    match proto2::decode_frame(&acc) {
                        Ok((f, used)) => {
                            acc.drain(..used);
                            if f.ftype == FrameType::Hello {
                                let mut out = Vec::new();
                                let caps = Caps {
                                    compress: false,
                                    window,
                                };
                                proto2::encode_frame(
                                    &mut out,
                                    FrameType::HelloAck,
                                    "",
                                    0,
                                    &proto2::hello_body(&caps),
                                    None,
                                );
                                s.write_all(&out).expect("ack");
                            } else {
                                tx.send((at, f.rid)).ok();
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            drop(tx);
            writer.join().ok();
        });
        addr
    }

    fn run_at(rps: f64, n: u64, stall_after: u64, stall: Duration) -> OpenLoop {
        let addr = stub(8, Duration::from_millis(2), stall_after, stall);
        let conn = Conn::v2(
            addr,
            Caps {
                compress: false,
                window: 8,
            },
        )
        .expect("connect");
        let mut d = Driver::new(vec![conn]);
        let plan: Vec<Planned> = (0..n)
            .map(|i| Planned {
                due: Duration::from_secs_f64(i as f64 / rps),
                conn: 0,
                tag: i + 1,
                body: Rc::from("{\"op\":\"ping\"}"),
            })
            .collect();
        let out = open_loop(&mut d, &plan, |_| {}).expect("open loop");
        assert_eq!(out.latency_us.len() as u64, n, "every request answered");
        out
    }

    #[test]
    fn p50_tracks_the_responder_delay_not_the_send_rate() {
        let mut slow = run_at(100.0, 150, u64::MAX, Duration::ZERO);
        let mut fast = run_at(1000.0, 1000, u64::MAX, Duration::ZERO);
        let (slow50, _) = p50_p99(&mut slow.latency_us);
        let (fast50, _) = p50_p99(&mut fast.latency_us);
        for p50 in [slow50, fast50] {
            assert!(
                (2000.0..3500.0).contains(&p50),
                "p50 {p50} µs, delay is 2000 µs"
            );
        }
        // The pacing gap differs tenfold (10 ms vs 1 ms); p50 must not.
        assert!((slow50 - fast50).abs() < 1000.0, "p50 {slow50} vs {fast50}");
    }

    #[test]
    fn a_stalled_responder_shows_in_p99_and_in_the_lag() {
        let mut out = run_at(1000.0, 1000, 500, Duration::from_millis(200));
        let (p50, p99) = p50_p99(&mut out.latency_us);
        assert!(p50 < 5000.0, "p50 {p50}");
        assert!(p99 > 100_000.0, "stall hidden from p99: {p99}");
        sort(&mut out.lag_us);
        let lag99 = quantile(&out.lag_us, 0.99);
        assert!(lag99 > 100_000.0, "stall hidden from the lag: {lag99}");
    }
}
