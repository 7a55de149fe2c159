//! The counter registry end to end: after mixed traffic, `stats` and
//! `metrics` of the daemon and of a two-shard router agree on every
//! declared counter and gauge, expose no undeclared number, validate as
//! Prometheus text, and keep every name they ever exposed (pinned in
//! `tests/fixtures/metric_names.txt`).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mcc::harness::json::{parse_object, Val};
use mcc::route::{Backend, InProcBackend, RouteConfig, Router};
use mcc::serve::metrics::{self, Spec};
use mcc::serve::proto::{self, compile_line_qos, Response};
use mcc::serve::proto2::{Caps, Client, Handshake};
use mcc::serve::tcp::{serve_lines, LineHandler};
use mcc::serve::{ServeConfig, Server, Submitted};

/// `cache_hits`/`cache_misses` read the process-global cache counters:
/// the tests here run one at a time so no other test's traffic moves
/// them between two scrapes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A kernel that always compiles; `nonce` makes the cache key unique to
/// this process so the first compile of it is cold.
fn src(nonce: &str) -> String {
    format!(
        "; {nonce} pid {}\nreg a = R0\nconst a, 7\nadd a, a, 1\nexit a\n",
        std::process::id()
    )
}

fn compile(id: &str, nonce: &str, class: &str) -> String {
    compile_line_qos(id, "hm1", "yalll", &src(nonce), Some("acme"), Some(class))
}

/// Serves `handler` on a fresh localhost listener.
fn listen(handler: Arc<dyn LineHandler>) -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    std::thread::spawn(move || serve_lines(handler, listener, stop2).unwrap());
    (addr, stop)
}

/// Mixed wire traffic: 200s at all three classes plus a warm repeat, a
/// malformed frame and a bad class (400s), an enveloped request sent
/// twice (the second is a replay), a corrupt envelope, and one compile
/// over a binary v2 connection.
fn drive(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    let mut call = |line: &str| {
        w.write_all(line.as_bytes()).unwrap();
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        resp
    };
    let code = |resp: &str| Response::field_num(resp, "code");
    for (i, class) in ["interactive", "batch", "background"].iter().enumerate() {
        let resp = call(&compile(&format!("c{i}"), &format!("c{i}"), class));
        assert_eq!(code(&resp), Some(200), "{resp}");
    }
    let resp = call(&compile("warm", "c0", "interactive"));
    assert_eq!(code(&resp), Some(200), "{resp}");
    assert_eq!(code(&call("not json\n")), Some(400));
    assert_eq!(code(&call(&compile("warp", "w", "warp"))), Some(400));
    let env = proto::wrap_envelope("drift", 1, &compile("e1", "e1", "interactive"));
    let first = call(&env);
    assert_eq!(
        call(&env),
        first,
        "the duplicate replays the recorded response"
    );
    // Flip one hex digit of the envelope's checksum.
    let sum_at = env.find(" 1 ").unwrap() + 3;
    let mut corrupt = env.into_bytes();
    corrupt[sum_at] = if corrupt[sum_at] == b'0' { b'1' } else { b'0' };
    let resp = call(std::str::from_utf8(&corrupt).unwrap());
    assert_eq!(code(&resp), Some(400), "{resp}");

    let stream = TcpStream::connect(addr).unwrap();
    let want = Caps {
        compress: false,
        window: 4,
    };
    match Client::handshake(stream, Some(Duration::from_secs(60)), &want).unwrap() {
        Handshake::V2(mut c) => {
            let resp = c
                .call("v2", 1, &compile("v2", "v2", "interactive"))
                .unwrap();
            assert_eq!(code(&resp), Some(200), "{resp}");
        }
        Handshake::V1Peer => panic!("v2 expected"),
    }
}

/// A one-worker, bound-one daemon after [`drive`] plus one shed: a slow
/// exact-search compile holds the only queue slot while a second
/// request arrives.
fn served() -> Arc<Server> {
    let server = Arc::new(Server::start(ServeConfig {
        workers: 1,
        queue_bound: 1,
        ..ServeConfig::default()
    }));
    let (addr, stop) = listen(Arc::clone(&server) as Arc<dyn LineHandler>);
    drive(addr);
    stop.store(true, Ordering::SeqCst);

    // Unique per call: a cached copy would resolve before the shed.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let mut slow = format!("; slow {call} pid {}\n", std::process::id());
    for r in 0..8 {
        slow.push_str(&format!("reg x{r} = R{r}\nconst x{r}, {r}\n"));
    }
    for i in 0..10 {
        for r in 0..8 {
            slow.push_str(&format!("add x{r}, x{r}, {}\n", i + 1));
        }
    }
    slow.push_str("exit x0\n");
    let slow = format!(
        "{{\"op\":\"compile\",\"id\":\"slow\",\"machine\":\"hm1\",\"lang\":\"yalll\",\"algo\":\"optimal\",\"tenant\":\"acme\",\"src\":\"{}\"}}",
        mcc::harness::json::esc(&slow)
    );
    let Submitted::Pending(rx) = server.submit_line(&slow, "t") else {
        panic!("the slow compile is admitted");
    };
    let shed = server.handle_line(&compile("shed", "shed", "interactive"), "t");
    assert_eq!(shed.code, 503, "{}", shed.to_line());
    assert_eq!(rx.recv_timeout(Duration::from_secs(60)).unwrap().code, 200);
    server
}

/// A router over two in-process shards after [`drive`].
fn routed() -> Arc<Router> {
    let backends: Vec<Arc<dyn Backend>> = (0..2)
        .map(|i| {
            let shard = Arc::new(Server::start(ServeConfig::default()));
            Arc::new(InProcBackend::new(&format!("b{i}"), shard)) as Arc<dyn Backend>
        })
        .collect();
    let router = Arc::new(Router::new(
        backends,
        RouteConfig {
            hedge_after: None,
            ..RouteConfig::default()
        },
    ));
    let (addr, stop) = listen(Arc::clone(&router) as Arc<dyn LineHandler>);
    drive(addr);
    stop.store(true, Ordering::SeqCst);
    router
}

fn scrape(handle: impl Fn(&str) -> String) -> (String, String) {
    let stats = handle("{\"op\":\"stats\",\"id\":\"s\"}\n");
    let m = handle("{\"op\":\"metrics\",\"id\":\"m\"}\n");
    let text = Response::field_str(&m, "text").expect("metrics text");
    (stats, text)
}

/// `<daemon> stats <key>` for every stats field and `<daemon> metrics
/// <family>` for every `# TYPE` line.
fn names(daemon: &str, stats: &str, text: &str, out: &mut BTreeSet<String>) {
    let fields = parse_object(stats.trim_end()).expect("stats is a flat object");
    for key in fields
        .keys()
        .filter(|k| !matches!(k.as_str(), "id" | "code"))
    {
        out.insert(format!("{daemon} stats {key}"));
    }
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            out.insert(format!(
                "{daemon} metrics {}",
                rest.split(' ').next().unwrap()
            ));
        }
    }
}

#[test]
fn no_stats_key_or_metric_family_is_renamed_or_lost() {
    let _serial = serial();
    let mut seen = BTreeSet::new();
    let server = served();
    let (stats, text) = scrape(|l| server.handle_line(l, "t").to_line());
    names("serve", &stats, &text, &mut seen);
    let router = routed();
    let (stats, text) = scrape(|l| router.handle_line(l, "t"));
    names("route", &stats, &text, &mut seen);

    let pinned = include_str!("fixtures/metric_names.txt");
    let missing: Vec<&str> = pinned.lines().filter(|n| !seen.contains(*n)).collect();
    assert!(missing.is_empty(), "names lost: {missing:?}");
}

/// Numeric `stats` keys that are not declared series: the per-tenant
/// `200` counts, which `metrics` carries as
/// `mcc_serve_requests_total{tenant=…,code="200"}` (and the router sums
/// over its shards).
const DERIVED_PREFIXES: &[&str] = &["tenant_served_"];

/// Declared gauges that move between two scrapes: presence only.
const TIME_VARYING: &[&str] = &["uptime_ms"];

/// Every sample line, `name{labels}` → value.
fn samples(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, v) = l.rsplit_once(' ').unwrap();
            (series.to_string(), v.parse().unwrap())
        })
        .collect()
}

/// Asserts that `stats` and `metrics` render every declared series with
/// the same values and that no numeric `stats` key is undeclared.
/// Returns the numeric stats fields.
fn assert_agree<'a>(
    layer: &str,
    specs: impl Iterator<Item = &'a Spec>,
    stats: &str,
    text: &str,
) -> BTreeMap<String, u64> {
    let nums: BTreeMap<String, u64> = parse_object(stats.trim_end())
        .unwrap()
        .into_iter()
        .filter(|(k, _)| k != "code")
        .filter_map(|(k, v)| match v {
            Val::Num(n) => Some((k, n)),
            _ => None,
        })
        .collect();
    let samples = samples(text);
    let mut declared = BTreeSet::new();
    for spec in specs {
        let family = spec.family(layer);
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "{family} has no header:\n{text}"
        );
        let Some(stat) = spec.stat else { continue };
        if spec.label.is_empty() {
            let m = samples
                .get(&family)
                .unwrap_or_else(|| panic!("no sample {family}"));
            let s = nums
                .get(stat)
                .unwrap_or_else(|| panic!("no stats key {stat}"));
            if !TIME_VARYING.contains(&stat) {
                assert_eq!(s, m, "{stat} vs {family}");
            }
            declared.insert(stat.to_string());
            continue;
        }
        let (pre, post) = stat.split_once("{}").unwrap();
        let head = format!("{family}{{{}=\"", spec.label);
        let from_metrics: BTreeMap<String, u64> = samples
            .iter()
            .filter_map(|(k, v)| {
                let member = k.strip_prefix(&head)?.strip_suffix("\"}")?;
                Some((format!("{pre}{member}{post}"), *v))
            })
            .collect();
        let from_stats: BTreeMap<String, u64> = nums
            .iter()
            .filter(|(k, _)| k.len() > pre.len() + post.len())
            .filter(|(k, _)| k.starts_with(pre) && k.ends_with(post))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert!(!from_stats.is_empty(), "family {family} has no members");
        assert_eq!(from_stats, from_metrics, "{stat} vs {family}");
        declared.extend(from_stats.into_keys());
    }
    for key in nums.keys() {
        assert!(
            declared.contains(key) || DERIVED_PREFIXES.iter().any(|p| key.starts_with(p)),
            "numeric stats key `{key}` is neither declared nor derived"
        );
    }
    metrics::validate(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    nums
}

#[test]
fn stats_and_metrics_agree_on_every_declared_series() {
    let _serial = serial();
    let server = served();
    let (stats, text) = scrape(|l| server.handle_line(l, "t").to_line());
    let nums = assert_agree("serve", Server::metric_specs(), &stats, &text);
    for key in [
        "shed",
        "replayed",
        "v2_connections",
        "corrupt_frames",
        "degraded_t1",
    ] {
        assert!(nums[key] >= 1, "the traffic exercises `{key}`: {stats}");
    }
    assert!(nums["bad_requests"] >= 2, "{stats}");
    for class in ["interactive", "batch", "background"] {
        assert!(nums[&format!("class_served_{class}")] >= 1, "{stats}");
    }

    let router = routed();
    let (stats, text) = scrape(|l| router.handle_line(l, "t"));
    let nums = assert_agree("route", Router::metric_specs(), &stats, &text);
    for key in ["routed", "v2_connections", "corrupt_frames", "bad_requests"] {
        assert!(nums[key] >= 1, "the traffic exercises `{key}`: {stats}");
    }
    assert_eq!(
        nums["served_b0"] + nums["served_b1"],
        nums["routed"],
        "{stats}"
    );
    for shard in ["b0", "b1"] {
        assert!(
            text.contains(&format!("mcc_serve_completed_total{{shard=\"{shard}\"}}")),
            "both shards merge in: {text}"
        );
    }
}
