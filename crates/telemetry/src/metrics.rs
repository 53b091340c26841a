//! Lock-free metrics: counters, gauges and one latency histogram behind a
//! [`Registry`], and the one function that knows the Prometheus text
//! exposition format ([`Registry::render_prometheus`]).
//!
//! Two kinds of registry exist. The process-global [`registry()`] holds
//! what library crates record (search, routing, pool, controller); each
//! `klotski-service` daemon additionally owns a private `Registry` for its
//! request counters, so several daemons in one process count
//! independently. `/metrics` is the two renders concatenated.
//!
//! Instrumented hot paths fetch their `Arc` handles once at construction
//! (`registry().counter("...")`) and afterwards pay one relaxed atomic op
//! per record — the registry's mutexed map is only touched at setup and at
//! render time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Sub-bucket resolution of [`LogLinearHistogram`]: 2^7 = 128 linear
/// sub-buckets per power-of-two octave, bounding relative quantile error
/// at 1/128 ≈ 0.78% — the HDR-histogram layout, so p999 is meaningful.
const LL_SUB_BITS: u32 = 7;
const LL_SUBS: usize = 1 << LL_SUB_BITS;
/// First sub-bucketed octave: values below 2^7 µs get exact (1 µs) buckets.
const LL_MIN_OCTAVE: u32 = LL_SUB_BITS;
/// Last octave: 2^40 µs ≈ 12.7 days; slower samples overflow.
const LL_MAX_OCTAVE: u32 = 39;
const LL_BUCKETS: usize = LL_SUBS + (LL_MAX_OCTAVE - LL_MIN_OCTAVE + 1) as usize * LL_SUBS;

/// Bucket index for a sample of `us` microseconds; `None` → overflow.
fn ll_index(us: u64) -> Option<usize> {
    if us < LL_SUBS as u64 {
        return Some(us as usize);
    }
    let octave = 63 - us.leading_zeros();
    if octave > LL_MAX_OCTAVE {
        return None;
    }
    let sub = ((us - (1u64 << octave)) >> (octave - LL_SUB_BITS)) as usize;
    Some(LL_SUBS + (octave - LL_MIN_OCTAVE) as usize * LL_SUBS + sub)
}

/// Inclusive upper bound of bucket `i`, microseconds.
fn ll_bound_us(i: usize) -> u64 {
    if i < LL_SUBS {
        return i as u64;
    }
    let octave = LL_MIN_OCTAVE + ((i - LL_SUBS) / LL_SUBS) as u32;
    let sub = ((i - LL_SUBS) % LL_SUBS) as u64;
    (1u64 << octave) + (sub + 1) * (1u64 << (octave - LL_SUB_BITS)) - 1
}

/// A lock-free log-linear (HDR-style) latency histogram: ~0.78% relative
/// error from 1 µs to 2^40 µs across 4352 buckets. The only histogram in
/// the workspace: service latency, search wall time, replan latency and
/// audit wall time all record into one.
#[derive(Debug)]
pub struct LogLinearHistogram {
    buckets: Box<[AtomicU64]>,
    /// Samples beyond the last octave.
    overflow: AtomicU64,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..LL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, sample: Duration) {
        let us = sample.as_micros().min(u128::from(u64::MAX)) as u64;
        match ll_index(us) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile, seconds
    /// ([`LogLinearSnapshot::quantile`] of the current contents).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of every bucket — the unit of per-experiment
    /// delta accounting ([`LogLinearSnapshot::since`]).
    pub fn snapshot(&self) -> LogLinearSnapshot {
        LogLinearSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`LogLinearHistogram`], with the same quantile
/// semantics, plus bucketwise subtraction for per-interval views.
#[derive(Debug, Clone)]
pub struct LogLinearSnapshot {
    buckets: Box<[u64]>,
    overflow: u64,
    count: u64,
    sum_us: u64,
}

impl LogLinearSnapshot {
    /// Number of samples in this snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples, seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_us as f64 / 1e6
    }

    /// Estimated `q`-quantile in seconds (upper bound of the bucket holding
    /// the quantile sample). Edge cases are explicit: an empty histogram
    /// returns 0 (never NaN), a NaN `q` is treated as 0, `q` is clamped to
    /// `[0, 1]`, and a quantile that sits in the overflow bucket reports
    /// the largest finite bound, the tightest claim the histogram can make.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ll_bound_us(i) as f64 / 1e6;
            }
        }
        ll_bound_us(LL_BUCKETS - 1) as f64 / 1e6
    }

    /// The samples recorded after `baseline` was taken: bucketwise
    /// saturating subtraction, so an interval's quantiles are computed
    /// from that interval's samples only.
    pub fn since(&self, baseline: &LogLinearSnapshot) -> LogLinearSnapshot {
        LogLinearSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(baseline.buckets.iter())
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            overflow: self.overflow.saturating_sub(baseline.overflow),
            count: self.count.saturating_sub(baseline.count),
            sum_us: self.sum_us.saturating_sub(baseline.sum_us),
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` if it is below it. For publishing a
    /// monotone count another module owns (cache hits, journal records):
    /// the owner is read at scrape time and the series stays a counter.
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A metric registry: names → shared metric handles.
///
/// Names may carry a Prometheus label suffix (`klotski_search_expansions_total{planner="klotski-dp"}`);
/// series sharing the text before `{` form one family and render under one
/// `# HELP` / `# TYPE` header, so a family must live in one of the three
/// maps only. Get-or-create is idempotent, so independent subsystems can
/// cache handles to the same series.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    loglinear: Mutex<BTreeMap<String, Arc<LogLinearHistogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

/// A point-in-time view of the registry's counters and log-linear
/// histograms, for per-interval deltas: the `report` binary snapshots the
/// process-global registry before each experiment so the counters its
/// `report.experiment` event logs are that experiment's own, not cumulative
/// across the binary's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    loglinear: BTreeMap<String, LogLinearSnapshot>,
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The family a series belongs to: the name up to its label block.
fn family_of(name: &str) -> &str {
    match name.find('{') {
        Some(brace) => &name[..brace],
        None => name,
    }
}

/// The label block of a series (`planner="astar"`), braces stripped;
/// `None` for an unlabeled series (or an empty `{}` block).
fn labels_of(name: &str) -> Option<&str> {
    let start = name.find('{')? + 1;
    let end = name.rfind('}')?;
    let inner = name.get(start..end)?;
    (!inner.is_empty()).then_some(inner)
}

impl Registry {
    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gets or creates the log-linear histogram `name` (rendered as a
    /// summary family with p50/p99/p999).
    pub fn loglinear(&self, name: &str) -> Arc<LogLinearHistogram> {
        let mut map = self.loglinear.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Freezes the current counter values and log-linear bucket contents.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            loglinear: self
                .loglinear
                .lock()
                .unwrap()
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Counter increments since `baseline`, omitting series that did not
    /// move. Series created after the baseline report their full value.
    pub fn counters_since(&self, baseline: &RegistrySnapshot) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(name, c)| {
                let before = baseline.counters.get(name).copied().unwrap_or(0);
                let delta = c.get().saturating_sub(before);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect()
    }

    /// The log-linear histogram `name` restricted to samples recorded
    /// since `baseline` (the full series if it postdates the baseline);
    /// `None` when the series does not exist.
    pub fn loglinear_since(
        &self,
        name: &str,
        baseline: &RegistrySnapshot,
    ) -> Option<LogLinearSnapshot> {
        let now = self.loglinear.lock().unwrap().get(name)?.snapshot();
        match baseline.loglinear.get(name) {
            Some(then) => Some(now.since(then)),
            None => Some(now),
        }
    }

    /// Registers the `# HELP` text for a family (idempotent overwrite).
    pub fn set_help(&self, family: &str, help: &str) {
        self.help
            .lock()
            .unwrap()
            .insert(family.to_string(), help.to_string());
    }

    /// Renders every registered series in Prometheus text format: families
    /// sorted by name whatever their kind, one `# HELP`/`# TYPE` header per
    /// family, summaries as p50/p99/p999 plus `_count`/`_sum`.
    pub fn render_prometheus(&self) -> String {
        // Group by family before rendering: raw map order interleaves
        // `foo{...}` ('{' sorts after '_') with a `foo_bar` family, and
        // Prometheus requires each family contiguous under one header.
        let mut families: BTreeMap<String, (&str, String)> = BTreeMap::new();
        let mut add = |name: &str, kind: &'static str, lines: String| {
            let family = families.entry(family_of(name).to_string());
            family.or_insert((kind, String::new())).1.push_str(&lines);
        };
        for (name, counter) in self.counters.lock().unwrap().iter() {
            add(name, "counter", format!("{name} {}\n", counter.get()));
        }
        for (name, gauge) in self.gauges.lock().unwrap().iter() {
            add(name, "gauge", format!("{name} {}\n", gauge.get()));
        }
        for (name, histogram) in self.loglinear.lock().unwrap().iter() {
            let snap = histogram.snapshot();
            let family = family_of(name);
            // A labeled series must keep one brace block per line:
            // `quantile` joins the series' own labels, and the
            // `_count`/`_sum` suffixes attach to the family name with the
            // labels following.
            let (joined, suffix) = match labels_of(name) {
                Some(l) => (format!("{l},"), format!("{{{l}}}")),
                None => Default::default(),
            };
            let mut lines = String::new();
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                let value = snap.quantile(q);
                lines.push_str(&format!(
                    "{family}{{{joined}quantile=\"{label}\"}} {value:.6}\n"
                ));
            }
            lines.push_str(&format!("{family}_count{suffix} {}\n", snap.count()));
            lines.push_str(&format!("{family}_sum{suffix} {:.6}\n", snap.sum_seconds()));
            add(name, "summary", lines);
        }

        let help = self.help.lock().unwrap();
        let mut out = String::with_capacity(4096);
        for (family, (kind, lines)) in families {
            let text = help.get(&family).map_or("(no help)", String::as_str);
            out.push_str(&format!(
                "# HELP {family} {text}\n# TYPE {family} {kind}\n{lines}"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::default();
        let a = r.counter("test_total");
        let b = r.counter("test_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = r.gauge("test_gauge");
        g.set(2.5);
        assert_eq!(r.gauge("test_gauge").get(), 2.5);
        // Mirroring an externally owned count never moves a counter back.
        a.raise_to(9);
        a.raise_to(6);
        assert_eq!(a.get(), 9);
    }

    #[test]
    fn render_groups_labelled_series_into_one_family() {
        let r = Registry::default();
        r.set_help("pool_tasks_total", "Tasks per lane.");
        r.counter("pool_tasks_total{lane=\"0\"}").add(5);
        r.counter("pool_tasks_total{lane=\"1\"}").add(7);
        r.counter("other_total").inc();
        r.loglinear("route_seconds")
            .record(Duration::from_millis(3));
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE pool_tasks_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("# HELP pool_tasks_total Tasks per lane."));
        assert!(text.contains("pool_tasks_total{lane=\"0\"} 5"));
        assert!(text.contains("pool_tasks_total{lane=\"1\"} 7"));
        assert!(text.contains("# TYPE other_total counter"));
        assert!(text.contains("# TYPE route_seconds summary"));
        assert!(text.contains("route_seconds_count 1"));
        assert!(text.contains("route_seconds{quantile=\"0.99\"}"));
    }

    #[test]
    fn labeled_summary_renders_one_brace_block_per_line() {
        let r = Registry::default();
        r.set_help("plan_seconds", "Search wall time.");
        r.loglinear("plan_seconds{planner=\"astar\"}")
            .record(Duration::from_millis(5));
        r.loglinear("plan_seconds{planner=\"dp\"}")
            .record(Duration::from_millis(7));
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE plan_seconds summary").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("plan_seconds{planner=\"astar\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("plan_seconds{planner=\"dp\",quantile=\"0.999\"}"),
            "{text}"
        );
        assert!(
            text.contains("plan_seconds_count{planner=\"astar\"} 1"),
            "{text}"
        );
        assert!(text.contains("plan_seconds_sum{planner=\"dp\"} "), "{text}");
        // The malformed shapes Prometheus rejects must not appear anywhere:
        // a second brace block (`}{`) or a suffix after the labels (`}_`).
        assert!(!text.contains("}{"), "{text}");
        assert!(!text.contains("}_"), "{text}");
    }

    #[test]
    fn families_render_contiguously_despite_label_byte_order() {
        let r = Registry::default();
        r.counter("foo").inc();
        r.counter("foo{lane=\"0\"}").inc();
        // '_' (0x5F) sorts before '{' (0x7B), so in raw map order foo_bar
        // sits between foo and foo{...}; rendering must regroup them.
        r.counter("foo_bar").inc();
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE foo counter").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE foo_bar counter").count(), 1, "{text}");
        let labeled_foo = text.find("foo{lane=\"0\"} 1").expect("labeled foo series");
        let foo_bar_header = text.find("# HELP foo_bar").expect("foo_bar header");
        assert!(
            labeled_foo < foo_bar_header,
            "foo family must finish before foo_bar starts:\n{text}"
        );
    }

    #[test]
    fn families_sort_by_name_whatever_their_kind() {
        let r = Registry::default();
        r.gauge("b_depth").set(2.0);
        r.counter("c_total").inc();
        r.loglinear("a_seconds").record(Duration::from_millis(1));
        let text = r.render_prometheus();
        let at = |line: &str| {
            text.find(line)
                .unwrap_or_else(|| panic!("no {line:?} in {text}"))
        };
        assert!(at("# TYPE a_seconds summary\n") < at("# TYPE b_depth gauge\n"));
        assert!(at("b_depth 2\n") < at("# TYPE c_total counter\n"));
    }

    #[test]
    fn global_registry_is_one_instance() {
        registry().counter("global_smoke_total").inc();
        assert!(registry().counter("global_smoke_total").get() >= 1);
    }

    #[test]
    fn loglinear_buckets_tile_the_axis_exactly() {
        // Every bucket's bound must map back to its own index, and the
        // next microsecond must map to the next bucket — no gaps, no
        // overlaps, anywhere on the axis.
        for i in 0..LL_BUCKETS {
            let bound = ll_bound_us(i);
            assert_eq!(ll_index(bound), Some(i), "bound of bucket {i}");
            let next = ll_index(bound + 1);
            if i + 1 < LL_BUCKETS {
                assert_eq!(next, Some(i + 1), "after bound of bucket {i}");
            } else {
                assert_eq!(next, None, "past the last octave");
            }
        }
        assert_eq!(ll_index(0), Some(0));
        assert_eq!(ll_index(u64::MAX), None);
    }

    #[test]
    fn loglinear_relative_error_is_under_one_percent() {
        // For any sample ≥ 128 µs the reported bound overshoots the true
        // value by at most one sub-bucket width = value·2^-7.
        for us in [150u64, 1_000, 33_333, 1_048_577, 999_999_999, 1 << 39] {
            let h = LogLinearHistogram::new();
            h.record(Duration::from_micros(us));
            let reported = h.quantile(0.5) * 1e6;
            let err = (reported - us as f64) / us as f64;
            assert!((0.0..=1.0 / 128.0).contains(&err), "us={us} err={err}");
        }
    }

    #[test]
    fn loglinear_edge_cases_are_explicit() {
        let h = LogLinearHistogram::new();
        for q in [0.0, 0.5, 1.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0.0, "empty, q={q}");
        }
        h.record(Duration::from_millis(5));
        h.record(Duration::from_millis(5));
        assert_eq!(h.quantile(1.0), h.quantile(0.5), "q=1 clamps");
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        // Overflow-only: the largest finite bound at every q, never infinity.
        let over = LogLinearHistogram::new();
        over.record(Duration::from_secs(20_000_000));
        let bound = ll_bound_us(LL_BUCKETS - 1) as f64 / 1e6;
        assert_eq!(over.quantile(0.5), bound);
        assert_eq!(over.quantile(1.0), bound);
        assert_eq!(over.count(), 1);
    }

    #[test]
    fn loglinear_resolves_a_tail_outlier() {
        let h = LogLinearHistogram::new();
        // 99 fast samples and one 1.45× outlier: p50 and p999 must differ
        // (rank at q=0.999 over 100 samples is 100 — the outlier).
        for _ in 0..99 {
            h.record(Duration::from_micros(10_100));
        }
        h.record(Duration::from_micros(14_600));
        assert!(h.quantile(0.999) > h.quantile(0.5) * 1.4);
    }

    #[test]
    fn snapshot_since_isolates_an_interval() {
        let r = Registry::default();
        r.counter("exp_total").add(10);
        let h = r.loglinear("exp_seconds");
        h.record(Duration::from_millis(1));
        let baseline = r.snapshot();

        r.counter("exp_total").add(5);
        r.counter("late_total").add(2);
        h.record(Duration::from_millis(100));
        h.record(Duration::from_millis(100));

        let deltas = r.counters_since(&baseline);
        assert_eq!(deltas.get("exp_total"), Some(&5));
        assert_eq!(deltas.get("late_total"), Some(&2), "post-baseline series");
        assert_eq!(deltas.len(), 2, "unmoved series omitted: {deltas:?}");

        let interval = r.loglinear_since("exp_seconds", &baseline).unwrap();
        assert_eq!(interval.count(), 2);
        // The 1 ms pre-baseline sample is subtracted out: the interval's
        // p50 sits at 100 ms, not 1 ms.
        assert!((0.09..0.11).contains(&interval.quantile(0.5)));
        assert!(r.loglinear_since("missing", &baseline).is_none());
        // The live histogram still holds all three samples.
        assert_eq!(h.count(), 3);
    }
}
