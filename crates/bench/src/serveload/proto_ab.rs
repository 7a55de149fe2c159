//! The `--proto` A/B mode: the same seeded burst fired at one real TCP
//! server over wire protocol v1 (newline-delimited lockstep lines) and
//! v2 (length-prefixed binary frames, pipelined), producing both series
//! from one process in one report.
//!
//! The determinism split matches the rest of `bench-serve`:
//!
//! * **stdout** is a pure function of `(seed, rps, duration, proto)`:
//!   the header, the scheduled mix per corpus entry with its canonical
//!   checksum, and one `proto=… responses=… dropped=… conformance=…`
//!   verdict line per series. Byte-identical across `--clients` and
//!   `--jobs`.
//! * **stderr and the JSON report** carry the timing: per-series p50/
//!   p95/p99 and throughput, under `v1_`/`v2_`-prefixed keys so one
//!   `--proto both` run yields both series side by side.
//!
//! Latency is **coordinated-omission corrected**: every request has a
//! scheduled due instant (`k / rps`), and its latency is measured from
//! that instant, not from when a backed-up client finally got around to
//! sending it. Under an oversaturating pace a lockstep client pushes
//! its backlog into visible latency, while a pipelined client keeps the
//! server's workers fed — which is exactly the difference the A/B is
//! meant to expose at a fixed `--clients`.
//!
//! Request sources are padded with comment ballast past the v2
//! compression threshold, so the v2 series exercises the compressed
//! path; comments never reach the parser, so the artifact — and hence
//! the checksum canon — is unchanged.
//!
//! With `--net-delay-us N` both series run through an in-process delay
//! relay that holds every byte burst for `N` µs each way — netem-style
//! constant link delay. Loopback is the one place a lockstep protocol
//! is nearly free (a synchronous ping-pong round trip costs only two
//! context switches); a real wire charges the full RTT per lockstep
//! request, which is the cost v2's pipeline amortizes. The relay puts
//! that term back so the A/B reflects the deployment the protocol
//! exists for, while `0` keeps the raw-loopback microbenchmark.

use super::*;
use mcc_serve::proto2;
use mcc_serve::tcp::LineHandler;
use std::collections::HashMap;
use std::io::BufRead as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Condvar, Mutex};

/// Pad request sources to at least this many bytes — comfortably past
/// `proto2::COMPRESS_MIN_BYTES`, so every v2 request body compresses.
const PAD_TARGET: usize = 2048;

/// Generous clean-wire deadline: nothing in this mode injects faults,
/// so a timeout is a genuine failure, not an event to ride out.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The nonced, padded source for nonce `k`: corpus source, the nonce
/// comment, then comment ballast up to [`PAD_TARGET`]. Each series uses
/// one nonce for its whole burst — the A/B measures the wire, so the
/// server side should be a steady-state cache-hit workload, not a
/// compile benchmark.
fn ab_src(e: &Entry, k: usize) -> String {
    let mut s = format!("{}; nonce {k}\n", e.src);
    while s.len() < PAD_TARGET {
        s.push_str("; pad pad pad pad pad pad pad pad pad pad pad pad pad pad pad\n");
    }
    s
}

/// The wire line for request `k` of a corpus entry (bare, un-enveloped:
/// both series measure the protocol, not the idempotency layer).
fn ab_line(e: &Entry, k: usize, id_prefix: &str) -> String {
    mcc_serve::proto::compile_line(
        &format!("{id_prefix}-{k}"),
        e.machine,
        "yalll",
        &ab_src(e, k),
    )
}

/// One request's outcome in one series.
struct ABSample {
    entry: usize,
    code: u64,
    tier: u64,
    checksum: String,
    /// Completion time minus the scheduled due instant, in microseconds.
    micros: u64,
}

/// The per-client in-flight window for the v2 series: enough to keep
/// the workers fed, never enough to push the admission queue into
/// shedding (total in flight stays under `workers + queue_bound`).
fn v2_window(cfg: &LoadConfig) -> u32 {
    if let Ok(v) = std::env::var("MCC_AB_WINDOW") {
        if let Ok(n) = v.parse::<u32>() {
            return n.clamp(1, proto2::SERVER_WINDOW);
        }
    }
    let budget = (cfg.workers + cfg.queue_bound) / cfg.clients.max(1) / 2;
    budget.clamp(1, proto2::SERVER_WINDOW as usize) as u32
}

/// One direction of the delay relay: read a burst, hold it for the
/// link delay, pass it on. While one burst is in the hold, later bytes
/// queue in the kernel socket buffer and ride the next read — constant
/// per-burst delay with serialization, the netem model. Exits when
/// either side closes.
fn relay(mut from: TcpStream, mut to: TcpStream, delay: Duration) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match std::io::Read::read(&mut from, &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                std::thread::sleep(delay);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
    let _ = from.shutdown(std::net::Shutdown::Read);
}

/// Starts the emulated-WAN proxy in front of `target`: every accepted
/// connection gets a backend connection and a relay thread per
/// direction, each adding the one-way delay. Returns the address
/// clients should dial. The accept loop polls the stop flag, so
/// teardown is bounded; relay threads die with their sockets.
fn start_delay_proxy(
    target: String,
    delay: Duration,
    stop: Arc<AtomicBool>,
) -> Result<(String, std::thread::JoinHandle<()>), String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("proto-ab: proxy bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((client, _)) => {
                    let Ok(backend) = TcpStream::connect(&target) else { continue };
                    client.set_nodelay(true).ok();
                    backend.set_nodelay(true).ok();
                    let (Ok(c2), Ok(b2)) = (client.try_clone(), backend.try_clone()) else {
                        continue;
                    };
                    std::thread::spawn(move || relay(client, backend, delay));
                    std::thread::spawn(move || relay(b2, c2, delay));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    });
    Ok((addr, handle))
}

pub(super) fn run(cfg: &LoadConfig, choice: ProtoChoice) -> Result<(), String> {
    let entries = Arc::new(corpus());
    let total = usize::try_from(cfg.rps * cfg.duration_ms / 1000).unwrap_or(usize::MAX).max(1);
    let series = choice.series();
    // One nonce per series (so the two series never share a cache line
    // beyond the corpus itself); the canon range sits past all of them.
    let stride = total + entries.len() + 1;
    let canon_base = series.len() * stride;

    let server = Arc::new(Server::start(ServeConfig {
        workers: cfg.workers,
        queue_bound: cfg.queue_bound,
        ..ServeConfig::default()
    }));

    // Canonical tier-0 checksums, compiled in-process (off the wire).
    let mut canonical: Vec<String> = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let r = server.handle_line(&ab_line(e, canon_base + i, "warm"), "warmup");
        if r.code != 200 {
            return Err(format!(
                "proto-ab warm-up compile failed for {}/{}: {}",
                e.kernel,
                e.machine,
                r.to_line().trim_end()
            ));
        }
        canonical.push(Response::field_str(&r.to_line(), "checksum").unwrap_or_default());
    }

    // The server behind a real TCP hop — the protocol under test needs
    // an actual wire, not an in-process call.
    let stop = Arc::new(AtomicBool::new(false));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("proto-ab: bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let serve_thread = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || {
            let _ = mcc_serve::tcp::serve_lines(server as Arc<dyn LineHandler>, listener, stop);
        })
    };
    // The emulated WAN, when asked for: clients dial the relay instead
    // of the server, and both series pay the same link delay.
    let (dial_addr, proxy_thread) = if cfg.net_delay_us > 0 {
        let (a, h) = start_delay_proxy(
            addr.clone(),
            Duration::from_micros(cfg.net_delay_us),
            Arc::clone(&stop),
        )?;
        (a, Some(h))
    } else {
        (addr.clone(), None)
    };

    // ---- seed-pure stdout: header and the scheduled mix ----
    println!(
        "bench-serve proto-ab seed={} rps={} duration_ms={} net_delay_us={} requests={} corpus={} series={}",
        cfg.seed,
        cfg.rps,
        cfg.duration_ms,
        cfg.net_delay_us,
        total,
        entries.len(),
        series.join(",")
    );
    let mut scheduled = vec![0u64; entries.len()];
    for k in 0..total {
        scheduled[pick(cfg.seed, k, entries.len())] += 1;
    }
    let rows: Vec<Vec<String>> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            vec![
                e.kernel.to_string(),
                e.machine.to_string(),
                scheduled[i].to_string(),
                canonical[i].clone(),
            ]
        })
        .collect();
    crate::print_table(&["kernel", "machine", "scheduled", "checksum"], &rows);

    // ---- the series ----
    let window = v2_window(cfg);
    let mut json_fields: Vec<String> = Vec::new();
    for (si, proto) in series.iter().enumerate() {
        let nonce_base = si * stride;
        let start = Instant::now();
        let samples = run_series(proto, &dial_addr, &entries, cfg, total, nonce_base, window)?;
        let elapsed_ms = (start.elapsed().as_millis() as u64).max(1);

        let responses = samples.len();
        let dropped = total - responses;
        let mut conforms = true;
        let mut tiered: HashMap<(usize, u64), &str> = HashMap::new();
        for s in samples.iter().filter(|s| s.code == 200) {
            let expect = if s.tier == 0 {
                canonical[s.entry].as_str()
            } else {
                tiered.entry((s.entry, s.tier)).or_insert(s.checksum.as_str())
            };
            if s.checksum != expect {
                conforms = false;
            }
        }
        println!(
            "proto={proto} responses={responses} dropped={dropped} conformance={}",
            if conforms { "ok" } else { "VIOLATED" }
        );

        let ok = samples.iter().filter(|s| s.code == 200).count() as u64;
        let mut lat: Vec<u64> = samples.iter().map(|s| s.micros).collect();
        lat.sort_unstable();
        let pct =
            |p: usize| lat.get(lat.len().saturating_sub(1) * p / 100).copied().unwrap_or(0);
        let (p50, p95, p99) = (pct(50), pct(95), pct(99));
        let throughput = responses as u64 * 1000 / elapsed_ms;
        eprintln!(
            "proto-ab timing proto={proto}: clients={} workers={} window={} elapsed_ms={elapsed_ms} \
             ok={ok} p50us={p50} p95us={p95} p99us={p99} throughput_rps={throughput}",
            cfg.clients,
            cfg.workers,
            if *proto == "v2" { window } else { 1 }
        );
        json_fields.push(format!(
            "\"{proto}_responses\":{responses},\"{proto}_ok\":{ok},\"{proto}_p50_us\":{p50},\
             \"{proto}_p95_us\":{p95},\"{proto}_p99_us\":{p99},\
             \"{proto}_throughput_rps\":{throughput},\"{proto}_elapsed_ms\":{elapsed_ms},\
             \"{proto}_conformance\":\"{}\"",
            if conforms { "ok" } else { "violated" }
        ));

        if dropped != 0 {
            return Err(format!("proto-ab {proto}: {dropped} requests got no response"));
        }
        if !conforms {
            return Err(format!("proto-ab {proto}: checksum conformance violated"));
        }
    }

    // ---- teardown, then the report ----
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = proxy_thread {
        let _ = h.join();
    }
    let _ = serve_thread.join();
    server.drain();

    if !cfg.json_path.is_empty() {
        let json = format!(
            "{{\"bench\":\"serve\",\"mode\":\"proto-ab\",\"seed\":{},\"rps\":{},\
             \"duration_ms\":{},\"clients\":{},\"workers\":{},\"queue_bound\":{},\
             \"net_delay_us\":{},\"requests\":{},\"window\":{window},{}}}\n",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            cfg.workers,
            cfg.queue_bound,
            cfg.net_delay_us,
            total,
            json_fields.join(",")
        );
        debug_assert!(mcc_harness::json::parse_object(json.trim_end()).is_some());
        std::fs::File::create(&cfg.json_path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", cfg.json_path))?;
    }
    Ok(())
}

/// Runs one series: `clients` threads share the paced schedule, each
/// owning the request indices congruent to its slot. Returns every
/// sample or the first client's transport error — the wire is clean
/// here, so an error is a finding, not an event.
fn run_series(
    proto: &str,
    addr: &str,
    entries: &Arc<Vec<Entry>>,
    cfg: &LoadConfig,
    total: usize,
    nonce_base: usize,
    window: u32,
) -> Result<Vec<ABSample>, String> {
    let clients = cfg.clients.max(1);
    // Every request line is built before the clock starts: rendering
    // 2 KiB of comment ballast per request is expensive enough that
    // doing it inside the paced loop makes the *client* the bottleneck,
    // and the series would measure request generation, not the wire.
    let mut batches: Vec<Vec<(usize, usize, String)>> =
        (0..clients).map(|_| Vec::new()).collect();
    for k in 0..total {
        let entry = pick(cfg.seed, k, entries.len());
        batches[k % clients].push((k, entry, ab_line(&entries[entry], nonce_base, "ab")));
    }
    let start = Instant::now();
    let mut handles = Vec::new();
    for batch in batches {
        let addr = addr.to_string();
        let rps = cfg.rps;
        let v2 = proto == "v2";
        handles.push(std::thread::spawn(move || -> Result<Vec<ABSample>, String> {
            if v2 {
                run_client_v2(&addr, &batch, rps, window, start)
            } else {
                run_client_v1(&addr, &batch, rps, start)
            }
        }));
    }
    let mut samples = Vec::with_capacity(total);
    for h in handles {
        samples.extend(h.join().expect("client thread")?);
    }
    Ok(samples)
}

/// Request `k`'s scheduled due offset from the series start.
fn due_offset(k: usize, rps: u64) -> Duration {
    Duration::from_micros(k as u64 * 1_000_000 / rps.max(1))
}

/// Sleeps until `k`'s due instant (no-op if already past it).
fn pace(start: Instant, k: usize, rps: u64) {
    if let Some(wait) = due_offset(k, rps).checked_sub(start.elapsed()) {
        std::thread::sleep(wait);
    }
}

/// Latency from the due instant to now, in microseconds.
fn due_lat(start: Instant, k: usize, rps: u64) -> u64 {
    start
        .elapsed()
        .saturating_sub(due_offset(k, rps))
        .as_micros() as u64
}

/// Parses one response body into a sample.
fn sample_of(entry: usize, body: &str, micros: u64) -> ABSample {
    ABSample {
        entry,
        code: Response::field_num(body, "code").unwrap_or(0),
        tier: Response::field_num(body, "tier").unwrap_or(0),
        checksum: Response::field_str(body, "checksum").unwrap_or_default(),
        micros,
    }
}

/// The v1 client: one connection, strict lockstep — write a line, read
/// a line. Its concurrency is exactly the client count.
fn run_client_v1(
    addr: &str,
    batch: &[(usize, usize, String)],
    rps: u64,
    start: Instant,
) -> Result<Vec<ABSample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("v1 connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    let mut r = std::io::BufReader::new(stream);
    let mut samples = Vec::with_capacity(batch.len());
    let mut line = String::new();
    for (k, entry, frame) in batch {
        pace(start, *k, rps);
        mcc_serve::tcp::write_frame(&mut w, frame.as_bytes())
            .map_err(|e| format!("v1 write: {e}"))?;
        line.clear();
        let n = r.read_line(&mut line).map_err(|e| format!("v1 read: {e}"))?;
        if n == 0 {
            return Err("v1: server closed mid-series".to_string());
        }
        samples.push(sample_of(*entry, line.trim_end(), due_lat(start, *k, rps)));
    }
    Ok(samples)
}

/// Absorbs one server frame into the client's bookkeeping: a response
/// is matched back to its request by rid and timestamped against that
/// request's due instant.
fn v2_absorb(
    f: &proto2::Frame,
    pending: &mut HashMap<u64, (usize, usize)>,
    samples: &mut Vec<ABSample>,
    start: Instant,
    rps: u64,
) -> Result<(), String> {
    match f.ftype {
        proto2::FrameType::Response => {
            if let Some((entry, k)) = pending.remove(&f.rid) {
                samples.push(sample_of(entry, &f.body, due_lat(start, k, rps)));
            }
            Ok(())
        }
        // A redundant hello-ack is harmless; anything else is not.
        proto2::FrameType::HelloAck => Ok(()),
        proto2::FrameType::Error => Err(format!("v2 error frame: {}", f.body)),
        other => Err(format!("v2: unexpected frame type {other:?} from the server")),
    }
}

/// The v2 client: one negotiated connection, up to `window` requests in
/// flight, responses matched back to their request by rid. Same paced
/// schedule as v1 — the pipeline depth is the only variable. This thread
/// paces and sends; a reader thread blocks on the socket and timestamps
/// each response the moment it arrives. A single thread that reads only
/// between sends would charge every response the wait until the next
/// send, and socket read timeouts are too coarse (kernel ticks) to wake
/// it on time for sub-millisecond gaps.
fn run_client_v2(
    addr: &str,
    batch: &[(usize, usize, String)],
    rps: u64,
    window: u32,
    start: Instant,
) -> Result<Vec<ABSample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("v2 connect: {e}"))?;
    let want = proto2::Caps { compress: true, window };
    let c = match proto2::Client::handshake(stream, Some(READ_TIMEOUT), &want)
        .map_err(|e| format!("v2 handshake: {e}"))?
    {
        proto2::Handshake::V2(c) => c,
        proto2::Handshake::V1Peer => {
            return Err("v2 series: the server answered as a v1 peer".to_string())
        }
    };
    let (mut tx, mut rx) = c.split();
    let window = tx.caps.window.max(1) as usize;
    // How many backlogged requests may share one write syscall.
    let max_queue = window.min(8);
    // rid -> (entry, k) for every request in flight; the reader removes
    // each on arrival and wakes a sender waiting for a window slot.
    let inflight = (Mutex::new(HashMap::with_capacity(window)), Condvar::new());
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> Result<Vec<ABSample>, String> {
            let mut samples = Vec::with_capacity(batch.len());
            while samples.len() < batch.len() {
                let f = rx.recv().map_err(|e| format!("v2 recv: {e}"))?;
                let (m, cv) = &inflight;
                v2_absorb(&f, &mut m.lock().unwrap(), &mut samples, start, rps)?;
                cv.notify_one();
            }
            Ok(samples)
        });
        let mut queued = 0usize;
        for (i, (k, entry, frame)) in batch.iter().enumerate() {
            pace(start, *k, rps);
            let (m, cv) = &inflight;
            if m.lock().unwrap().len() >= window {
                // Window full: put the queue on the wire — never under
                // the lock, which the reader needs to make room — then
                // wait for a slot (or for the reader to fail).
                tx.flush().map_err(|e| format!("v2 send: {e}"))?;
                queued = 0;
            }
            let mut pending = m.lock().unwrap();
            while pending.len() >= window && !reader.is_finished() {
                pending = cv.wait_timeout(pending, Duration::from_millis(50)).unwrap().0;
            }
            pending.insert(*k as u64, (*entry, *k));
            drop(pending);
            if reader.is_finished() {
                break; // the reader's error is the series' result.
            }
            tx.queue(proto2::FrameType::Request, "", *k as u64, frame.trim_end());
            queued += 1;
            // Keep queueing while the next request is already due — a
            // backlogged burst becomes one write. On schedule, every
            // request flushes individually, just like v1.
            let next_is_due = batch
                .get(i + 1)
                .is_some_and(|(nk, _, _)| due_offset(*nk, rps) <= start.elapsed());
            if queued < max_queue && next_is_due {
                continue;
            }
            tx.flush().map_err(|e| format!("v2 send: {e}"))?;
            queued = 0;
        }
        tx.flush().map_err(|e| format!("v2 send: {e}"))?;
        reader.join().expect("v2 reader thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_source_exceeds_the_compression_threshold_and_keeps_the_artifact() {
        let entries = corpus();
        let e = &entries[0];
        let src = ab_src(e, 3);
        assert!(src.len() >= PAD_TARGET);
        assert!(src.len() >= proto2::COMPRESS_MIN_BYTES);
        let m = mcc_machine::machines::by_name(e.machine).unwrap();
        let c = mcc_core::Compiler::new(m);
        let a = c.compile_contained(mcc_core::SourceLang::Yalll, &e.src).unwrap();
        let b = c.compile_contained(mcc_core::SourceLang::Yalll, &src).unwrap();
        assert_eq!(
            mcc_cache::serialize_artifact(&a),
            mcc_cache::serialize_artifact(&b),
            "padding and nonce must be invisible to the artifact"
        );
    }

    #[test]
    fn window_is_clamped_to_the_admission_budget() {
        let tight = LoadConfig { clients: 8, workers: 2, queue_bound: 4, ..LoadConfig::default() };
        assert_eq!(v2_window(&tight), 1);
        let wide = LoadConfig { clients: 2, workers: 8, queue_bound: 64, ..LoadConfig::default() };
        assert_eq!(v2_window(&wide), 18);
    }

    /// A v2 peer that answers every request exactly `delay` after it
    /// arrives, however many are in flight. Returns its address.
    fn delayed_responder(delay: Duration) -> String {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let Ok((s, _)) = listener.accept() else { return };
            s.set_nodelay(true).unwrap();
            // Due times are arrival + a constant, so a FIFO writer that
            // sleeps until each one is due answers every frame on time.
            let (due_tx, due_rx) = std::sync::mpsc::channel::<(Instant, proto2::Frame)>();
            let mut w = s.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for (due, f) in due_rx {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    out.clear();
                    proto2::encode_frame(&mut out, f.ftype, &f.cid, f.rid, &f.body, None);
                    if w.write_all(&out).is_err() {
                        return;
                    }
                }
            });
            let mut r = std::io::BufReader::new(s);
            let mut acc: Vec<u8> = Vec::new();
            loop {
                let bait = acc.iter().take_while(|b| **b == b'\n').count();
                acc.drain(..bait);
                if let Ok(Some(total)) = proto2::frame_len(&acc) {
                    if acc.len() >= total {
                        let (mut f, _) = proto2::decode_frame(&acc).unwrap();
                        acc.drain(..total);
                        let now = Instant::now();
                        let due = if f.ftype == proto2::FrameType::Hello {
                            let want = proto2::parse_hello(&f.body).unwrap();
                            f.ftype = proto2::FrameType::HelloAck;
                            f.body = proto2::hello_body(&proto2::negotiate(&want));
                            now
                        } else {
                            f.ftype = proto2::FrameType::Response;
                            f.body = "{\"id\":\"d\",\"code\":200}".to_string();
                            now + delay
                        };
                        if due_tx.send((due, f)).is_err() {
                            return;
                        }
                        continue;
                    }
                }
                match r.fill_buf() {
                    Ok([]) | Err(_) => return,
                    Ok(chunk) => {
                        let n = chunk.len();
                        acc.extend_from_slice(chunk);
                        r.consume(n);
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn v2_latency_tracks_the_server_not_the_send_gap() {
        // At 300 rps the send gap (3.3 ms) is over 4x the server's delay;
        // a client that reads only after its next send reports the gap.
        let delay = Duration::from_micros(800);
        let d_us = delay.as_micros() as u64;
        for rps in [300u64, 3000] {
            let addr = delayed_responder(delay);
            let batch: Vec<(usize, usize, String)> = (0..(rps / 5) as usize)
                .map(|k| (k, 0, "{\"op\":\"ping\"}".to_string()))
                .collect();
            let samples = run_client_v2(&addr, &batch, rps, 8, Instant::now()).unwrap();
            assert_eq!(samples.len(), batch.len(), "every request answered");
            let mut lat: Vec<u64> = samples.iter().map(|s| s.micros).collect();
            lat.sort_unstable();
            let p50 = lat[lat.len() / 2];
            assert!(
                (d_us..=3 * d_us).contains(&p50),
                "{rps} rps: v2 p50 {p50} us outside [{d_us}, {}] us",
                3 * d_us
            );
        }
    }

    #[test]
    fn tiny_ab_run_is_clean_on_both_series() {
        let cfg = LoadConfig {
            clients: 2,
            rps: 400,
            duration_ms: 200,
            seed: 9,
            workers: 4,
            queue_bound: 16,
            json_path: String::new(),
            proto: Some(ProtoChoice::Both),
            ..LoadConfig::default()
        };
        run(&cfg, ProtoChoice::Both).expect("tiny A/B run upholds its invariants");
    }
}
