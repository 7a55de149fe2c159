//! Prometheus-style metrics for the serve path: the counter
//! declarations `stats` and `metrics` both render from ([`Decl`]: one
//! per counter or gauge, so the two views cannot drift), per-tenant/class
//! request counters, log-bucketed latency histograms, per-class tier
//! counters, and the text exposition behind the `metrics` op.
//!
//! ## Naming
//!
//! Everything is prefixed `mcc_serve_` (`mcc_route_` for the router) and
//! follows the Prometheus conventions: counters end in `_total`,
//! histograms expose `_bucket{le=…}` / `_sum` / `_count`, gauges are
//! bare. Latency buckets are powers of two in microseconds (`le="1"`,
//! `"2"`, … `"16777216"`, `"+Inf"`) — log-bucketed so one fixed array
//! spans sub-microsecond cache hits to multi-second deadline-bound
//! compiles with bounded error.
//!
//! ## Label cardinality
//!
//! Tenant ids arrive off the wire, so the registry caps distinct tenant
//! labels at [`MAX_TENANT_LABELS`]; overflow tenants are folded into the
//! reserved label `"other"`. That keeps an id-churn attack from growing
//! the metrics surface without bound while still accounting every
//! request somewhere.
//!
//! ## Exposition
//!
//! [`Exposition`] keeps every family's lines in one group however many
//! shards contribute to it ([`Exposition::merge`]); [`validate`] is the
//! shape check CI and the diurnal bench gate on.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Mutex;

use crate::proto::Response;
use crate::qos::Class;

/// Cap on distinct tenant label values; the rest fold into `"other"`.
pub const MAX_TENANT_LABELS: usize = 64;

/// The reserved overflow tenant label.
pub const OVERFLOW_TENANT: &str = "other";

/// Histogram bucket upper bounds: `2^0 .. 2^24` microseconds.
const BUCKETS: usize = 25;

/// One log-bucketed latency histogram (microseconds).
#[derive(Clone, Default)]
pub struct Hist {
    counts: [u64; BUCKETS],
    inf: u64,
    sum: u64,
    count: u64,
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, us: u64) {
        let mut slot = None;
        for (i, bound) in (0..BUCKETS).map(|i| (i, 1u64 << i)) {
            if us <= bound {
                slot = Some(i);
                break;
            }
        }
        match slot {
            Some(i) => self.counts[i] += 1,
            None => self.inf += 1,
        }
        self.sum = self.sum.saturating_add(us);
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Renders the cumulative `_bucket`/`_sum`/`_count` triplet lines.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{}\"}} {cum}\n",
                1u64 << i
            ));
        }
        cum += self.inf;
        out.push_str(&format!("{name}_bucket{{{labels}le=\"+Inf\"}} {cum}\n"));
        // `labels` carries a trailing comma for the `le` concatenation;
        // the scalar series drop it.
        let bare = labels.trim_end_matches(',');
        out.push_str(&format!("{name}_sum{{{bare}}} {}\n", self.sum));
        out.push_str(&format!("{name}_count{{{bare}}} {}\n", self.count));
    }
}

/// One tenant's slice of the registry.
#[derive(Default)]
struct TenantMetrics {
    /// Responses by `(class, code)`.
    by_code: BTreeMap<(u8, u16), u64>,
    /// Latency per class, admitted requests only.
    latency: [Hist; 3],
}

struct Reg {
    tenants: BTreeMap<String, TenantMetrics>,
    /// Requests served at `(class, tier)`.
    tier: [[u64; 4]; 3],
}

/// The serve-path metrics registry. One per server, shared by the
/// intake fast path and the supervisor behind a mutex (both record on
/// the order of once per request, far off the per-byte hot path).
pub struct QosMetrics {
    inner: Mutex<Reg>,
}

impl Default for QosMetrics {
    fn default() -> Self {
        QosMetrics {
            inner: Mutex::new(Reg {
                tenants: BTreeMap::new(),
                tier: [[0; 4]; 3],
            }),
        }
    }
}

impl QosMetrics {
    /// Records one resolved request: its response code, and (when it was
    /// admitted and served) its latency.
    pub fn record(&self, tenant: &str, class: Class, code: u16, latency_us: Option<u64>) {
        let mut reg = self.inner.lock().unwrap();
        let key = Self::intern(&mut reg, tenant);
        let t = reg.tenants.entry(key).or_default();
        *t.by_code.entry((class.idx() as u8, code)).or_insert(0) += 1;
        if let Some(us) = latency_us {
            t.latency[class.idx()].observe(us);
        }
    }

    /// Records the pressure tier a request was served at.
    pub fn record_tier(&self, class: Class, tier: u8) {
        let mut reg = self.inner.lock().unwrap();
        reg.tier[class.idx()][usize::from(tier.min(3))] += 1;
    }

    /// The label a tenant folds to under the cardinality cap.
    fn intern(reg: &mut Reg, tenant: &str) -> String {
        let name = sanitize_label(tenant);
        if reg.tenants.contains_key(&name) || reg.tenants.len() < MAX_TENANT_LABELS {
            name
        } else {
            OVERFLOW_TENANT.to_string()
        }
    }

    /// Per-tenant `200` counts (all classes), for the stats fields and
    /// the route/fleet aggregation: sorted by tenant name.
    pub fn served_by_tenant(&self) -> Vec<(String, u64)> {
        let reg = self.inner.lock().unwrap();
        reg.tenants
            .iter()
            .map(|(name, t)| {
                let served = t
                    .by_code
                    .iter()
                    .filter(|((_, code), _)| *code == 200)
                    .map(|(_, n)| *n)
                    .sum();
                (name.clone(), served)
            })
            .collect()
    }

    /// Requests answered `200` per class (the sum of each class's tier
    /// row), indexed by [`Class::idx`].
    pub fn served_by_class(&self) -> [u64; 3] {
        let reg = self.inner.lock().unwrap();
        reg.tier.map(|row| row.iter().sum())
    }

    /// Renders the tenant, latency and tier families into `out`.
    pub fn render(&self, out: &mut Exposition) {
        let reg = self.inner.lock().unwrap();
        let help = "Responses by tenant, class and code.";
        let s = out.family("mcc_serve_requests_total", help, "counter");
        for (tenant, t) in &reg.tenants {
            for ((class, code), n) in &t.by_code {
                let class = Class::ALL[usize::from(*class)].name();
                s.push_str(&format!(
                    "mcc_serve_requests_total{{tenant=\"{tenant}\",class=\"{class}\",code=\"{code}\"}} {n}\n"
                ));
            }
        }

        let help = "Request latency in microseconds, admitted requests.";
        let s = out.family("mcc_serve_latency_us", help, "histogram");
        for (tenant, t) in &reg.tenants {
            for class in Class::ALL {
                let h = &t.latency[class.idx()];
                if h.count == 0 {
                    continue;
                }
                let labels = format!("tenant=\"{tenant}\",class=\"{}\",", class.name());
                h.render(s, "mcc_serve_latency_us", &labels);
            }
        }

        let help = "Requests served at each pressure tier.";
        let s = out.family("mcc_serve_tier_total", help, "counter");
        for class in Class::ALL {
            for (tier, n) in reg.tier[class.idx()].iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                s.push_str(&format!(
                    "mcc_serve_tier_total{{class=\"{}\",tier=\"{tier}\"}} {n}\n",
                    class.name()
                ));
            }
        }
    }
}

/// The kind of a declared series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only grows; the family name ends in `_total`.
    Counter,
    /// Moves both ways; the family name is bare.
    Gauge,
}

/// The names of one declared series.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The `stats` key, `{}` standing for the label value in a labelled
    /// family; `None` when the `stats` form is a string info field.
    pub stat: Option<&'static str>,
    /// The family name between `mcc_<layer>_` and a counter's `_total`.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The label of a labelled family; empty for a scalar.
    pub label: &'static str,
}

impl Spec {
    /// The Prometheus family name under `layer` (`serve`, `route`).
    pub fn family(&self, layer: &str) -> String {
        let total = if self.kind == Kind::Counter { "_total" } else { "" };
        format!("mcc_{layer}_{}{total}", self.name)
    }
}

/// One declared counter or gauge of the daemon `C`: the single source
/// `stats` and `metrics` both render from.
pub struct Decl<C> {
    /// Its names.
    pub spec: Spec,
    read: Read<C>,
}

/// A scalar's value, or one `(label value, value)` per family member.
enum Read<C> {
    One(fn(&C) -> u64),
    Each(fn(&C) -> Vec<(String, u64)>),
}

impl<C> Decl<C> {
    /// A scalar counter: stats `stat`, family `mcc_<layer>_<stat>_total`.
    pub const fn counter(stat: &'static str, help: &'static str, read: fn(&C) -> u64) -> Self {
        let spec = Spec { stat: Some(stat), name: stat, help, kind: Kind::Counter, label: "" };
        Decl { spec, read: Read::One(read) }
    }

    /// A scalar gauge: stats `stat`, family `mcc_<layer>_<stat>`.
    pub const fn gauge(stat: &'static str, help: &'static str, read: fn(&C) -> u64) -> Self {
        let spec = Spec { stat: Some(stat), name: stat, help, kind: Kind::Gauge, label: "" };
        Decl { spec, read: Read::One(read) }
    }

    /// A family `name` labelled `label`, one stats key per member from
    /// the pattern `stat`.
    pub const fn family(
        kind: Kind,
        stat: &'static str,
        name: &'static str,
        label: &'static str,
        help: &'static str,
        read: fn(&C) -> Vec<(String, u64)>,
    ) -> Self {
        let spec = Spec { stat: Some(stat), name, help, kind, label };
        Decl { spec, read: Read::Each(read) }
    }

    /// Drops the `stats` key: the series is rendered to `metrics` only.
    pub const fn metrics_only(mut self) -> Self {
        self.spec.stat = None;
        self
    }

    /// Visits every sample as `(label value, value)`; a scalar has no
    /// label value.
    fn each(&self, ctx: &C, mut f: impl FnMut(Option<&str>, u64)) {
        match self.read {
            Read::One(read) => f(None, read(ctx)),
            Read::Each(read) => read(ctx).iter().for_each(|(v, n)| f(Some(v), *n)),
        }
    }
}

/// Declares a counter read from the daemon's `counters` field of the
/// same name: `counter!(accepted, "Compile requests admitted.")`.
#[macro_export]
macro_rules! counter {
    ($field:ident, $help:literal) => {
        $crate::metrics::Decl::counter(stringify!($field), $help, |d| {
            d.counters.$field.load(::std::sync::atomic::Ordering::Relaxed)
        })
    };
}

/// Appends every declared series that has a stats key to `r`.
pub fn render_stats<C>(decls: &[Decl<C>], ctx: &C, r: &mut Response) {
    for d in decls {
        let Some(stat) = d.spec.stat else { continue };
        d.each(ctx, |v, n| r.push_num(&v.map_or(stat.to_string(), |v| stat.replace("{}", v)), n));
    }
}

/// Appends every declared series to `out`, as families under `layer`.
pub fn render_metrics<C>(layer: &str, decls: &[Decl<C>], ctx: &C, out: &mut Exposition) {
    for d in decls {
        let name = d.spec.family(layer);
        let kind = if d.spec.kind == Kind::Counter { "counter" } else { "gauge" };
        let s = out.family(&name, d.spec.help, kind);
        d.each(ctx, |v, n| match v {
            None => s.push_str(&format!("{name} {n}\n")),
            Some(v) => {
                let label = format!("{}=\"{}\"", d.spec.label, sanitize_label(v));
                s.push_str(&format!("{name}{{{label}}} {n}\n"));
            }
        });
    }
}

/// The `metrics` op's answer: the exposition in a `text` field
/// (JSON-escaped; clients unescape via [`Response::field_str`]).
pub fn response(id: &str, text: &str) -> Response {
    let mut r = Response::new(id, 200);
    r.push_str("format", "prometheus-text");
    r.push_str("text", text);
    r
}

/// Appends per-tenant served counts to a `stats` response: the
/// `tenants` csv and one `tenant_served_<t>` per tenant.
pub fn push_tenants(r: &mut Response, served: &[(String, u64)]) {
    let names: Vec<&str> = served.iter().map(|(t, _)| t.as_str()).collect();
    r.push_str("tenants", &names.join(","));
    for (t, n) in served {
        r.push_num(&format!("tenant_served_{t}"), *n);
    }
}

/// A Prometheus text exposition held by family: each family's lines
/// (header first) stay one group, families in first-seen order.
/// Render with `to_string()`.
#[derive(Default)]
pub struct Exposition {
    /// `(family name, its lines)`.
    families: Vec<(String, String)>,
}

impl Exposition {
    /// The lines of family `name`, created on first use with its
    /// `# HELP`/`# TYPE` header.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) -> &mut String {
        let fresh = self.families.len();
        let i = self.index(name);
        if i == fresh {
            self.families[i].1 = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
        }
        &mut self.families[i].1
    }

    fn index(&mut self, name: &str) -> usize {
        self.families.iter().position(|f| f.0 == name).unwrap_or_else(|| {
            self.families.push((name.to_string(), String::new()));
            self.families.len() - 1
        })
    }

    /// Folds another exposition in: every sample gains `key="value"` as
    /// its first label and joins its family's group. A family's header
    /// comes from the first exposition that has it.
    pub fn merge(&mut self, text: &str, key: &str, value: &str) {
        let tag = format!("{key}=\"{}\"", sanitize_label(value));
        let fresh = self.families.len();
        // The family the last header named, and its index.
        let mut current: Option<(String, usize)> = None;
        for line in text.lines() {
            if line.starts_with('#') {
                let Some(name) = line.split(' ').nth(2) else { continue };
                let i = self.index(name);
                if i >= fresh {
                    self.families[i].1.push_str(&format!("{line}\n"));
                }
                current = Some((name.to_string(), i));
            } else if let Some((series, val)) = line.rsplit_once(' ') {
                let (name, rest) = series.split_once('{').unwrap_or((series, "}"));
                let sep = if rest == "}" { "" } else { "," };
                let i = match &current {
                    Some((family, i)) if in_family(name, family) => *i,
                    _ => self.index(name),
                };
                self.families[i].1.push_str(&format!("{name}{{{tag}{sep}{rest} {val}\n"));
            }
        }
    }
}

impl fmt::Display for Exposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.families.iter().try_for_each(|(_, lines)| f.write_str(lines))
    }
}

/// Whether a sample named `sample` belongs to family `family`: the
/// same name, or one of a histogram's `_bucket`/`_sum`/`_count` series.
fn in_family(sample: &str, family: &str) -> bool {
    sample
        .strip_prefix(family)
        .is_some_and(|rest| matches!(rest, "" | "_bucket" | "_sum" | "_count"))
}

/// Escapes a wire-supplied string for use as a Prometheus label value.
pub fn sanitize_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Validates the shape of a Prometheus text exposition: every non-empty
/// line is a well-formed comment or `name[{labels}] value`, histogram
/// `_bucket` series are cumulative in `le`, every `TYPE` names one of
/// the types this layer emits, and all lines of one family form one
/// group (a family that reappears after another one began is an
/// error). Returns the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let mut bucket_last: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut groups: HashSet<&str> = HashSet::new();
    let mut current = "";
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            match kind {
                "HELP" => {
                    if name.is_empty() || parts.next().is_none() {
                        return Err(format!("line {ln}: HELP without name/text"));
                    }
                }
                "TYPE" => {
                    let ty = parts.next().unwrap_or_default();
                    if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {ln}: unknown TYPE `{ty}`"));
                    }
                }
                _ => return Err(format!("line {ln}: unknown comment `{kind}`")),
            }
            if name != current && !groups.insert(name) {
                return Err(format!("line {ln}: family `{name}` appears in two groups"));
            }
            current = name;
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: no value"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: non-numeric value `{value}`"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (series, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {ln}: bad metric name `{name}`"));
        }
        if !in_family(name, current) && !groups.insert(name) {
            return Err(format!("line {ln}: family `{name}` appears in two groups"));
        }
        current = if in_family(name, current) { current } else { name };
        if let Some(labels) = labels {
            for pair in split_labels(labels) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("line {ln}: bad label `{pair}`"));
                };
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {ln}: bad label `{pair}`"));
                }
            }
            // Histogram buckets must be cumulative in `le` per series.
            if let Some(base) = name.strip_suffix("_bucket") {
                let le = split_labels(labels)
                    .into_iter()
                    .find_map(|p| p.strip_prefix("le=\"").map(|v| v.trim_end_matches('"').to_string()));
                if let Some(le) = le {
                    let le_val = if le == "+Inf" { f64::INFINITY } else { le.parse().map_err(|_| format!("line {ln}: bad le `{le}`"))? };
                    let others: Vec<String> = split_labels(labels)
                        .into_iter()
                        .filter(|p| !p.starts_with("le="))
                        .collect();
                    let key = format!("{base}{{{}}}", others.join(","));
                    let count: u64 = value
                        .parse()
                        .map_err(|_| format!("line {ln}: non-integer bucket count"))?;
                    if let Some((prev_le, prev_count)) = bucket_last.get(&key) {
                        if le_val < *prev_le && *prev_count > count {
                            return Err(format!("line {ln}: bucket counts not cumulative"));
                        }
                        if le_val > *prev_le && count < *prev_count {
                            return Err(format!("line {ln}: bucket counts not cumulative"));
                        }
                    }
                    bucket_last.insert(key, (le_val, count));
                }
            }
        }
    }
    Ok(())
}

/// Splits a label body on commas that are outside quoted values.
fn split_labels(labels: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for ch in labels.chars() {
        if escaped {
            cur.push(ch);
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_quotes => {
                cur.push(ch);
                escaped = true;
            }
            '"' => {
                cur.push(ch);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let mut h = Hist::default();
        for us in [0, 1, 2, 3, 900, 1_000_000, u64::MAX] {
            h.observe(us);
        }
        assert_eq!(h.count(), 7);
        let mut out = String::new();
        h.render(&mut out, "m", "");
        assert!(out.contains("m_bucket{le=\"1\"} 2\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"2\"} 3\n"));
        assert!(out.contains("m_bucket{le=\"4\"} 4\n"));
        assert!(out.contains("m_bucket{le=\"+Inf\"} 7\n"));
        assert!(out.contains("m_count{} 7\n"));
        validate(&out).unwrap();
    }

    #[test]
    fn registry_renders_valid_prometheus_text() {
        let m = QosMetrics::default();
        m.record("acme", Class::Interactive, 200, Some(120));
        m.record("acme", Class::Interactive, 200, Some(90_000));
        m.record("acme", Class::Batch, 503, None);
        m.record("evil\"corp\n", Class::Background, 200, Some(7));
        m.record_tier(Class::Interactive, 0);
        m.record_tier(Class::Background, 3);
        static DEPTH: &[Decl<u64>] =
            &[Decl::gauge("queue_depth", "Admitted-but-unresolved requests.", |d| *d)];
        let mut out = Exposition::default();
        m.render(&mut out);
        render_metrics("serve", DEPTH, &3, &mut out);
        let text = out.to_string();
        validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains(
            "mcc_serve_requests_total{tenant=\"acme\",class=\"interactive\",code=\"200\"} 2"
        ));
        assert!(text.contains("mcc_serve_requests_total{tenant=\"acme\",class=\"batch\",code=\"503\"} 1"));
        assert!(text.contains("tenant=\"evil\\\"corp\\n\""), "labels are escaped: {text}");
        assert!(text.contains("mcc_serve_tier_total{class=\"background\",tier=\"3\"} 1"));
        assert!(text.contains("mcc_serve_queue_depth 3"));
        assert_eq!(
            m.served_by_tenant().iter().find(|(t, _)| t == "acme").unwrap().1,
            2
        );
    }

    #[test]
    fn tenant_labels_fold_into_other_past_the_cap() {
        let m = QosMetrics::default();
        for i in 0..(MAX_TENANT_LABELS + 40) {
            m.record(&format!("t{i:03}"), Class::Batch, 200, None);
        }
        let by_tenant = m.served_by_tenant();
        assert!(by_tenant.len() <= MAX_TENANT_LABELS + 1);
        let other = by_tenant.iter().find(|(t, _)| t == OVERFLOW_TENANT);
        assert_eq!(other.map(|(_, n)| *n), Some(40), "overflow is accounted");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for bad in [
            "no_value\n",
            "1bad_name 3\n",
            "m{x=y} 3\n",
            "m{x=\"y\"} notanumber\n",
            "# TYPE m flavour\n",
            "# NOPE m\n",
            "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\n",
            "# TYPE m counter\nm 1\nn 2\nm 3\n",
            "# TYPE m counter\nm 1\n# TYPE n gauge\nn 2\n# HELP m Again.\n",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad:?}");
        }
        validate("").unwrap();
    }

    #[test]
    fn a_declaration_renders_the_same_values_to_stats_and_metrics() {
        static DECLS: &[Decl<[u64; 2]>] = &[
            Decl::counter("hits", "Hits.", |v| v[0]),
            Decl::family(Kind::Gauge, "depth_{}", "depth", "class", "Depth.", |v| {
                vec![("a".to_string(), v[0]), ("b".to_string(), v[1])]
            }),
            Decl::gauge("up", "Up.", |_| 1).metrics_only(),
        ];
        let mut r = Response::new("s", 200);
        render_stats(DECLS, &[4, 9], &mut r);
        let line = r.to_line();
        assert_eq!(Response::field_num(&line, "hits"), Some(4));
        assert_eq!(Response::field_num(&line, "depth_b"), Some(9));
        assert_eq!(Response::field_num(&line, "up"), None);
        let mut out = Exposition::default();
        render_metrics("x", DECLS, &[4, 9], &mut out);
        let text = out.to_string();
        validate(&text).unwrap();
        assert!(text.contains("# TYPE mcc_x_hits_total counter\nmcc_x_hits_total 4\n"), "{text}");
        assert!(text.contains("mcc_x_depth{class=\"b\"} 9\n"), "{text}");
        assert!(text.contains("# TYPE mcc_x_up gauge\nmcc_x_up 1\n"), "{text}");
    }

    #[test]
    fn merge_adds_the_shard_label_everywhere() {
        let shard = "# HELP m Help.\n# TYPE m counter\nm{a=\"1\"} 2\nplain 7\n";
        let mut merged = Exposition::default();
        merged.merge(shard, "shard", "b0");
        merged.merge(shard, "shard", "b1");
        let out = merged.to_string();
        assert_eq!(out.matches("# HELP m Help.").count(), 1, "headers dedup: {out}");
        assert!(out.contains("m{shard=\"b0\",a=\"1\"} 2"));
        assert!(out.contains("plain{shard=\"b1\"} 7"));
        validate(&out).unwrap();
    }
}
