//! In-process timings of the serve-path layers on a workload's own
//! requests: wire codecs, cache key derivation, the cache tiers, server
//! intake and the weighted-fair queue. Each call into a layer's public
//! function runs inside a span of the traced run's [`Tracer`].

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mcc_cache::{Cache, Persist};
use mcc_core::{Compiler, SourceLang};
use mcc_serve::proto::{parse_request, Request, Response};
use mcc_serve::proto2::{self, FrameType};
use mcc_serve::{Class, ServeConfig, WfqQueue};

use crate::corpus::{with_nonce, Corpus};
use crate::stats::{median, Report};
use crate::trace::Tracer;

/// Span name → per-layer metric name and the divisor from µs to its unit.
const SPAN_METRICS: [(&str, &str, f64, &str); 19] = [
    ("lang.parse", "lang.parse_us", 1.0, "us"),
    ("mir.legalize", "mir.legalize_us", 1.0, "us"),
    ("regalloc.allocate", "regalloc.allocate_us", 1.0, "us"),
    ("mir.select", "mir.select_us", 1.0, "us"),
    ("compact.emit", "compact.emit_us", 1.0, "us"),
    ("core.passes", "core.passes_us", 1.0, "us"),
    ("machine.encode", "machine.encode_us", 1.0, "us"),
    ("sim.run", "sim.run_us", 1.0, "us"),
    ("proto.v1_parse", "proto.v1_parse_us", 1.0, "us"),
    ("proto.v1_render", "proto.v1_render_us", 1.0, "us"),
    ("proto2.encode", "proto2.encode_us", 1.0, "us"),
    ("proto2.decode", "proto2.decode_us", 1.0, "us"),
    ("proto2.inflate", "proto2.inflate_us", 1.0, "us"),
    ("cache.key", "cache.key_us", 1.0, "us"),
    ("cache.memory_hit", "cache.memory_hit_us", 1.0, "us"),
    ("cache.disk_hit", "cache.disk_hit_us", 1.0, "us"),
    ("cache.disk_open", "cache.disk_open_ms", 1000.0, "ms"),
    ("serve.intake", "serve.intake_us", 1.0, "us"),
    ("qos.push_pop", "qos.push_pop_us", 1.0, "us"),
];

/// Puts the median self time of every span-timed layer into `r`
/// (0 for a layer the run never reached).
pub fn report_spans(tr: &Tracer, r: &mut Report) {
    let per = tr.self_us_per_request();
    for (span, metric, div, unit) in SPAN_METRICS {
        let mut v = per.get(span).cloned().unwrap_or_default();
        let m = if v.is_empty() {
            0.0
        } else {
            median(&mut v) / div
        };
        r.put(metric, m, unit);
    }
}

/// What the layer replays measure besides span self times.
pub struct Extras {
    /// Encoded v2 request bytes over raw body bytes.
    pub compress_ratio: f64,
    /// Median µs of a `compile_keyed` miss with disk attached, minus a
    /// plain compile of the same source.
    pub store_us: f64,
    /// Median in-process intake time, µs.
    pub intake_p50_us: f64,
}

impl Extras {
    /// Puts the compression ratio and the store time into `r`.
    pub fn report(&self, r: &mut Report) {
        r.put("proto2.compress_ratio", self.compress_ratio, "ratio");
        r.put("cache.store_us", self.store_us, "us");
    }
}

/// One request of the replay: program, language, machine and source.
struct Item {
    lang: SourceLang,
    compiler: Compiler,
    src: String,
    tenant: String,
    class: Class,
    body: String,
}

fn items(corpus: &Corpus, bodies: &[String]) -> Result<Vec<Item>, String> {
    let mut compilers: BTreeMap<String, Compiler> = BTreeMap::new();
    for p in &corpus.programs {
        compilers
            .entry(p.machine_name.to_string())
            .or_insert_with(|| Compiler::new(p.machine.clone()));
    }
    bodies
        .iter()
        .map(|b| match parse_request(b) {
            Ok(Request::Compile(c)) => Ok(Item {
                lang: SourceLang::from_name(&c.lang).ok_or("unknown language")?,
                compiler: compilers.get(&c.machine).ok_or("unknown machine")?.clone(),
                src: c.src,
                tenant: c.tenant.unwrap_or_default(),
                class: Class::parse(c.class.as_deref())?,
                body: b.clone(),
            }),
            _ => Err(format!("not a compile request: {b}")),
        })
        .collect()
}

/// Most requests one layer replay records, so the span log stays small.
const MAX_REQUESTS: u64 = 20_000;

/// Runs `f` over `items` round-robin until `slice` has passed or
/// [`MAX_REQUESTS`] ran (at least one full pass), with a running
/// request number.
fn for_slice<T>(
    items: &[T],
    slice: Duration,
    mut f: impl FnMut(u64, &T) -> Result<(), String>,
) -> Result<(), String> {
    let until = Instant::now() + slice;
    let mut req = 0u64;
    loop {
        for it in items {
            req += 1;
            f(req, it)?;
        }
        if Instant::now() >= until || req >= MAX_REQUESTS {
            return Ok(());
        }
    }
}

/// Times every serve-path layer on `bodies` within `budget`. The intake
/// replay first primes the server so that timed requests take the
/// memory-hit fast path, as on `serve-hit`.
pub fn measure(
    corpus: &Corpus,
    bodies: &[String],
    budget: Duration,
    work_dir: &Path,
    tr: &mut Tracer,
) -> Result<Extras, String> {
    let all = items(corpus, bodies)?;
    let slice = |share: f64| budget.mul_f64(share);

    // Wire codecs: v1 parse and render, v2 encode, decode and inflate.
    let (mut wire, mut raw) = (0u64, 0u64);
    let mut resp = Response::new("1", 200);
    resp.push_num("instrs", 20);
    resp.push_num("ops", 24);
    resp.push_num("spills", 0);
    resp.push_str("algorithm", "critpath");
    resp.push_str("cached", "memory");
    resp.push_str("checksum", "0123456789abcdef");
    resp.push_num("tier", 0);
    for_slice(&all, slice(0.2), |req, it| {
        let parsed = tr.span("proto.v1_parse", req, None, || parse_request(&it.body));
        if !matches!(parsed, Ok(Request::Compile(_))) {
            return Err("v1 parse changed the request".into());
        }
        std::hint::black_box(tr.span("proto.v1_render", req, None, || resp.to_line()));
        let mut frame = Vec::new();
        tr.span("proto2.encode", req, None, || {
            proto2::encode_frame(
                &mut frame,
                FrameType::Request,
                "pb",
                req,
                &it.body,
                Some(proto2::COMPRESS_MIN_BYTES),
            )
        });
        wire += frame.len() as u64;
        raw += it.body.len() as u64;
        match tr.span("proto2.decode", req, None, || proto2::decode_frame(&frame)) {
            Ok((f, _)) if f.body == it.body => {}
            _ => return Err("v2 round trip changed the request".into()),
        }
        if it.body.len() >= proto2::COMPRESS_MIN_BYTES {
            let packed = proto2::mlz_compress(it.body.as_bytes());
            let out = tr.span("proto2.inflate", req, None, || {
                proto2::mlz_decompress(&packed, it.body.len())
            });
            if out.as_deref() != Ok(it.body.as_bytes()) {
                return Err("inflate changed the request".into());
            }
        }
        Ok(())
    })?;

    // Key derivation, as the cache does it for a fresh compiler.
    for_slice(&all, slice(0.1), |req, it| {
        let c = &it.compiler;
        std::hint::black_box(tr.span("cache.key", req, None, || {
            mcc_cache::key_from_prefix(
                mcc_cache::key_prefix(c.machine(), it.lang, c.options()),
                &it.src,
            )
        }));
        Ok(())
    })?;

    // Distinct sources, bounded so priming and prefilling stay cheap.
    let key = |it: &Item| {
        mcc_cache::key_of(
            it.compiler.machine(),
            it.lang,
            it.compiler.options(),
            &it.src,
        )
    };
    let mut distinct: Vec<(&Item, mcc_cache::CacheKey)> = Vec::new();
    for it in &all {
        if distinct.len() < 64 && !distinct.iter().any(|(d, _)| d.src == it.src) {
            distinct.push((it, key(it)));
        }
    }

    // Memory tier: every timed lookup hits a resident key.
    let mem = Cache::new();
    for (it, k) in &distinct {
        mem.compile_keyed(*k, &it.compiler, it.lang, &it.src, Persist::Memory)
            .map_err(|e| e.to_string())?;
    }
    for_slice(&distinct, slice(0.1), |req, (it, k)| {
        let a = tr.span("cache.memory_hit", req, None, || {
            mem.compile_keyed(*k, &it.compiler, it.lang, &it.src, Persist::Memory)
        });
        match a {
            Ok(a) if a.stats.cached == Some("memory") => Ok(()),
            _ => Err("memory tier missed a resident key".into()),
        }
    })?;

    // Disk tier: open a pre-filled store, then hit every key once.
    let dir = work_dir.join(format!("layers-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let filled = Cache::new();
    filled
        .attach_disk(&dir)
        .map_err(|e| format!("attach: {e}"))?;
    for (it, k) in &distinct {
        filled
            .compile_keyed(*k, &it.compiler, it.lang, &it.src, Persist::Disk)
            .map_err(|e| e.to_string())?;
    }
    drop(filled);
    let until = Instant::now() + slice(0.2);
    let mut req = 0u64;
    while req == 0 || (Instant::now() < until && req < MAX_REQUESTS) {
        let cache = Cache::new();
        req += 1;
        tr.span("cache.disk_open", req, None, || cache.attach_disk(&dir))
            .map_err(|e| format!("attach: {e}"))?;
        for (it, k) in &distinct {
            req += 1;
            let a = tr.span("cache.disk_hit", req, None, || {
                cache.compile_keyed(*k, &it.compiler, it.lang, &it.src, Persist::Disk)
            });
            if !matches!(a, Ok(ref a) if a.stats.cached == Some("disk")) {
                return Err("disk tier missed a stored key".into());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Store: a miss with disk attached, minus a plain compile of the
    // same (fresh) source; bounded, since every store is fsynced.
    let store_dir = work_dir.join(format!("layers-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Cache::new();
    store
        .attach_disk(&store_dir)
        .map_err(|e| format!("attach: {e}"))?;
    let until = Instant::now() + slice(0.1);
    let mut diffs = Vec::new();
    for (n, it) in all.iter().cycle().enumerate() {
        if diffs.len() >= 400 || (!diffs.is_empty() && Instant::now() >= until) {
            break;
        }
        let src = with_nonce(it.lang, &it.src, 0x5707e000 + n as u64);
        let req = n as u64 + 1;
        let t = Instant::now();
        tr.span("cache.compile", req, None, || {
            it.compiler.compile_contained(it.lang, &src)
        })
        .map_err(|e| e.to_string())?;
        let compile = t.elapsed();
        let k = mcc_cache::key_of(it.compiler.machine(), it.lang, it.compiler.options(), &src);
        let t = Instant::now();
        tr.span("cache.miss", req, None, || {
            store.compile_keyed(k, &it.compiler, it.lang, &src, Persist::Disk)
        })
        .map_err(|e| e.to_string())?;
        let miss = t.elapsed();
        diffs.push((miss.as_secs_f64() - compile.as_secs_f64()) * 1e6);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Intake: `Server::handle_line` in process, no TCP.
    let server = mcc_serve::Server::start(ServeConfig {
        workers: 2,
        queue_bound: 64,
        ..ServeConfig::default()
    });
    let mut intake = Vec::new();
    let intake_one = |req: u64, it: &Item| {
        let t = Instant::now();
        let r = tr.span("serve.intake", req, None, || {
            server.handle_line(&it.body, "pb")
        });
        intake.push(t.elapsed().as_secs_f64() * 1e6);
        if r.code == 200 {
            Ok(())
        } else {
            Err(format!(
                "in-process intake answered {}",
                r.to_line().trim_end()
            ))
        }
    };
    // Prime every key (a pooled compile), then time the fast path.
    for it in &all {
        server.handle_line(&it.body, "pb");
    }
    for_slice(&all, slice(0.15), intake_one)?;
    server.shutdown();

    // WFQ: push a burst of eight, then pop them; one request's span
    // pair (its push and its pop) is one push + pop.
    let mut q: WfqQueue<()> = WfqQueue::new(1, &[]);
    let bursts: Vec<&[Item]> = all.chunks(8).collect();
    let mut token = 0u64;
    for_slice(&bursts, slice(0.1), |_, burst| {
        for it in burst.iter() {
            token += 1;
            let t = token;
            tr.span("qos.push_pop", t, None, || {
                q.push(&it.tenant, it.class, t, ())
            });
        }
        for _ in 0..burst.len() {
            let s = tr.begin("qos.push_pop", 0, None);
            let popped = q.pop();
            tr.end(s);
            tr.set_req(s, popped.ok_or("WFQ lost a queued item")?.0);
        }
        Ok(())
    })?;

    Ok(Extras {
        compress_ratio: wire as f64 / raw.max(1) as f64,
        store_us: median(&mut diffs),
        intake_p50_us: median(&mut intake),
    })
}
