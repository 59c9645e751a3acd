//! Property-based tests for the metrics registry and span recorder.

use neo_telemetry::json::{self, Json};
use neo_telemetry::{phase, Histogram, TelemetrySink, NUM_BUCKETS};
use proptest::prelude::*;

/// Random finite JSON trees nested up to `depth` levels.
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        tree(rng, self.depth)
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Json {
    let len = |rng: &mut TestRng| rng.next_u64() % 5;
    match rng.next_u64() % if depth == 0 { 4 } else { 6 } {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Number(number(rng)),
        3 => Json::String(string(rng)),
        4 => Json::Array((0..len(rng)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Object(
            (0..len(rng))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Integers up to 2^53, ±0, subnormals, 1e±300 and arbitrary finite bits.
fn number(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
    match rng.next_u64() % 4 {
        0 => EDGES[(rng.next_u64() % EDGES.len() as u64) as usize],
        1 => sign * (rng.next_u64() % (1 << 53)) as f64,
        2 => sign * f64::from_bits(rng.next_u64() & ((1 << 52) - 1)), // subnormal
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// Strings over every control character, the two JSON metacharacters,
/// DEL, and non-ASCII and non-BMP characters.
fn string(rng: &mut TestRng) -> String {
    let special = [
        '"',
        '\\',
        '/',
        '\u{7f}',
        'a',
        ' ',
        'é',
        '€',
        '中',
        '😀',
        '\u{10ffff}',
    ];
    let alphabet: Vec<char> = ('\0'..' ').chain(special).collect();
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram bucket counts always sum to the total number of
    /// observations, and the bucket chosen for each value brackets it.
    #[test]
    fn histogram_buckets_sum_to_total(
        values in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut h = Histogram::default();
        let mut expected_sum = 0u128;
        for &v in &values {
            h.observe(v);
            expected_sum += v as u128;
            let i = Histogram::bucket_index(v);
            prop_assert!(i < NUM_BUCKETS);
            prop_assert!(Histogram::bucket_lo(i) <= v);
            if i + 1 < NUM_BUCKETS {
                prop_assert!(v < Histogram::bucket_lo(i + 1));
            }
        }
        let bucket_sum: u64 = h.counts().iter().sum();
        prop_assert_eq!(bucket_sum, values.len() as u64);
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.sum(), expected_sum);
        let nonzero_sum: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(nonzero_sum, values.len() as u64);
    }

    /// A disabled sink records nothing no matter what is thrown at it, and
    /// its span guards are inert (no clock reads, nothing stored).
    #[test]
    fn disabled_sink_records_nothing(
        names in proptest::collection::vec(0usize..64, 1..20),
        spans in 0usize..30,
    ) {
        let sink = TelemetrySink::disabled();
        for (i, n) in names.iter().enumerate() {
            let n = format!("metric.{n}");
            sink.counter_add(&n, i as u64);
            sink.gauge_push(&n, i as u64, i as f64);
            sink.histogram_observe(&n, i as u64);
        }
        let rec = sink.rank(0);
        rec.begin_iteration(0);
        for _ in 0..spans {
            let g = rec.span(phase::EMB_LOOKUP);
            prop_assert!(!g.is_recording());
            prop_assert_eq!(g.end(), None);
        }
        prop_assert!(sink.snapshot().is_none());
        prop_assert!(sink.export_json().is_none());
        prop_assert!(sink.summary().is_none());
    }

    /// Whatever gets recorded, both exports stay parseable JSON and the
    /// summary document reflects every span.
    #[test]
    fn exports_always_parse(
        counters in proptest::collection::vec((0usize..32, any::<u32>()), 0..10),
        spans in proptest::collection::vec((0u32..4, 0u64..8, 0usize..8), 0..40),
    ) {
        let sink = TelemetrySink::armed();
        for (name, v) in &counters {
            sink.counter_add(&format!("counter.{name}"), *v as u64);
        }
        for &(rank, iter, which) in &spans {
            let rec = sink.rank(rank);
            rec.begin_iteration(iter);
            drop(rec.span(phase::ALL[which % phase::ALL.len()]));
            rec.end_iteration();
        }
        let summary = sink.export_json().unwrap_or_default();
        let doc = json::parse(&summary);
        prop_assert!(doc.is_ok(), "summary export failed to parse: {:?}", doc);
        let doc = doc.unwrap_or(Json::Null);
        prop_assert_eq!(doc.get("schema").and_then(Json::as_str), Some("neo-telemetry/1"));
        let span_count = doc.get("spans").and_then(Json::as_array).map(Vec::len);
        prop_assert_eq!(span_count, Some(spans.len()));
        let trace = sink.export_chrome_trace().unwrap_or_default();
        let tdoc = json::parse(&trace);
        prop_assert!(tdoc.is_ok(), "trace export failed to parse: {:?}", tdoc);
        let events = tdoc
            .unwrap_or(Json::Null)
            .get("traceEvents")
            .and_then(Json::as_array)
            .map(Vec::len);
        // One process_name metadata event, one thread_name per distinct
        // rank, then one "X" event per span.
        let mut ranks: Vec<u32> = spans.iter().map(|&(r, _, _)| r).collect();
        ranks.sort_unstable();
        ranks.dedup();
        prop_assert_eq!(events, Some(1 + ranks.len() + spans.len()));
    }

    /// The parser is the writer's oracle: both the compact and the
    /// indented form of any finite tree parse back to the same tree, with
    /// object members in their original order.
    #[test]
    fn writer_round_trips_through_the_parser(j in Trees { depth: 4 }) {
        prop_assert_eq!(json::parse(&format!("{j}")), Ok(j.clone()));
        prop_assert_eq!(json::parse(&format!("{j:#}")), Ok(j));
    }

    /// The interpolated quantile estimate is bounded by the edges of the
    /// bucket that holds the true k-th smallest observation
    /// (`k = ceil(q * total)`, at least 1).
    #[test]
    fn quantile_bounded_by_true_bucket_edges(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::default();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let true_kth = sorted[k - 1];
        let bucket = Histogram::bucket_index(true_kth);
        let lo = Histogram::bucket_lo(bucket) as f64;
        let hi = Histogram::bucket_hi(bucket) as f64;
        let est = h.quantile(q);
        prop_assert!(
            est >= lo && est <= hi,
            "q={} est={} outside bucket [{}, {}] of true value {}",
            q, est, lo, hi, true_kth
        );
    }
}

/// The disabled-sink guard type holds no live state: the guard is just an
/// `Option` over span bookkeeping, so a disabled span is a stack value with
/// no heap allocation and no clock read.
#[test]
fn disabled_span_guard_is_allocation_free() {
    // No global allocator hooks in this offline workspace, so assert the
    // structural facts that imply zero allocation: the guard is small,
    // inert, and the sink holds no storage to allocate into.
    let sink = TelemetrySink::disabled();
    assert!(std::mem::size_of::<neo_telemetry::SpanGuard>() <= 64);
    let rec = sink.rank(3);
    rec.begin_iteration(9);
    let g = rec.span(phase::ITERATION);
    assert!(!g.is_recording());
    assert_eq!(g.end(), None);
    assert!(sink.snapshot().is_none(), "nothing may be recorded");
}
