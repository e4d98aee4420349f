//! Exact wall-clock tiling of traced windows into layer rows.
//!
//! Each thread's time is first split into self time: at every instant a
//! thread belongs to its innermost open span, the one entered last. (In
//! properly nested code that is a span's duration minus the time its
//! children cover; where interleaved tasks leave several spans open on
//! one thread, the instant goes to the span entered most recently.)
//! Inside each benchmark window span, an instant in which threads run in
//! program spans is shared equally among those spans; an instant in which
//! none does is `untraced`. The rows therefore sum exactly to the total
//! wall time of the window spans.

use std::collections::{BTreeMap, BTreeSet};

use pem_telemetry::Event;

/// The span the benchmark opens around each window it times.
pub const WINDOW_SPAN: &str = "bench/window";

/// The row for window time spent outside every program span.
pub const UNTRACED: &str = "untraced.ms";

/// Wall time per row, summed over all windows.
#[derive(Debug, Default)]
pub struct Tiling {
    /// Row name → µs.
    pub rows: BTreeMap<&'static str, f64>,
    /// Σ window span durations, µs.
    pub wall_us: u64,
    /// Window spans seen.
    pub windows: usize,
    /// Program spans that map to no row (counted as untraced).
    pub unmapped: BTreeSet<&'static str>,
}

/// The layer row a program span's self time belongs to.
pub fn row_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "window" | "window/eval" | "window/price" | "window/dist" => "window.driver.self_ms",
        "window/pool-refill" | "pool/refill" => "pool.refill_ms",
        "eval/demand-agg" => "eval.demand-agg.self_ms",
        "eval/supply-agg" => "eval.supply-agg.self_ms",
        "eval/compare" => "eval.compare.self_ms",
        "price/agg" => "price.agg.self_ms",
        "price/broadcast" => "price.broadcast.self_ms",
        "dist/total-agg" => "dist.total-agg.self_ms",
        "dist/ratios" => "dist.ratios.self_ms",
        "dist/settle" => "dist.settle.self_ms",
        s if s.starts_with("couple/") => "couple.round.self_ms",
        _ => return None,
    })
}

/// Every row [`row_of`] can produce, plus [`UNTRACED`].
pub const ROWS: [&str; 12] = [
    "eval.demand-agg.self_ms",
    "eval.supply-agg.self_ms",
    "eval.compare.self_ms",
    "price.agg.self_ms",
    "price.broadcast.self_ms",
    "dist.total-agg.self_ms",
    "dist.ratios.self_ms",
    "dist.settle.self_ms",
    "window.driver.self_ms",
    "pool.refill_ms",
    "couple.round.self_ms",
    UNTRACED,
];

/// One stretch of a thread's self time.
struct Segment {
    start: u64,
    end: u64,
    name: &'static str,
}

/// Splits one thread's spans into disjoint self-time segments.
fn self_segments(spans: &[&Event]) -> Vec<Segment> {
    // Boundary points: (time, opens?, span index). Closes sort before
    // opens at the same instant, so zero-length overlaps vanish.
    let mut points: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, e) in spans.iter().enumerate() {
        points.push((e.ts_us, true, i));
        points.push((e.ts_us + e.dur_us, false, i));
    }
    points.sort_unstable();
    // Open spans ordered by entry: latest start, then shortest (the inner
    // of two spans entered in the same µs), then first completed.
    let key = |i: usize| {
        let e = spans[i];
        (e.ts_us, std::cmp::Reverse(e.dur_us), std::cmp::Reverse(i))
    };
    let mut open = BTreeSet::new();
    let mut segments = Vec::new();
    for (k, &(t, opens, i)) in points.iter().enumerate() {
        if opens {
            open.insert(key(i));
        } else {
            open.remove(&key(i));
        }
        let next = points.get(k + 1).map_or(t, |p| p.0);
        if next > t {
            if let Some(&(_, _, std::cmp::Reverse(inner))) = open.last() {
                segments.push(Segment {
                    start: t,
                    end: next,
                    name: spans[inner].name,
                });
            }
        }
    }
    segments
}

/// Tiles every [`WINDOW_SPAN`] in `events` into layer rows.
pub fn tile(events: &[Event]) -> Tiling {
    let mut threads: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        threads.entry(e.tid).or_default().push(e);
    }
    let segments: Vec<Segment> = threads
        .values()
        .flat_map(|spans| self_segments(spans))
        .collect();

    let mut tiling = Tiling::default();
    // Sweep points: (time, opens?, segment index or None for a window).
    let mut points: Vec<(u64, bool, Option<usize>)> = Vec::new();
    for e in events.iter().filter(|e| e.name == WINDOW_SPAN) {
        points.push((e.ts_us, true, None));
        points.push((e.ts_us + e.dur_us, false, None));
        tiling.wall_us += e.dur_us;
        tiling.windows += 1;
    }
    for (i, s) in segments.iter().enumerate() {
        if s.name != WINDOW_SPAN {
            points.push((s.start, true, Some(i)));
            points.push((s.end, false, Some(i)));
        }
    }
    points.sort_unstable();
    let mut in_window = 0usize;
    let mut active: BTreeSet<usize> = BTreeSet::new();
    for (k, &(t, opens, seg)) in points.iter().enumerate() {
        match (seg, opens) {
            (None, true) => in_window += 1,
            (None, false) => in_window -= 1,
            (Some(i), true) => {
                active.insert(i);
            }
            (Some(i), false) => {
                active.remove(&i);
            }
        }
        let next = points.get(k + 1).map_or(t, |p| p.0);
        if next <= t || in_window == 0 {
            continue;
        }
        let dt = (next - t) as f64;
        if active.is_empty() {
            *tiling.rows.entry(UNTRACED).or_default() += dt;
            continue;
        }
        let share = dt / active.len() as f64;
        for &i in &active {
            let name = segments[i].name;
            let row = row_of(name).unwrap_or_else(|| {
                tiling.unmapped.insert(name);
                UNTRACED
            });
            *tiling.rows.entry(row).or_default() += share;
        }
    }
    tiling
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, ts_us: u64, dur_us: u64) -> Event {
        Event {
            name,
            cat: "test",
            tid,
            ts_us,
            dur_us,
            vts_us: None,
            vdur_us: None,
        }
    }

    #[test]
    fn nested_spans_tile_the_window_exactly() {
        let events = [
            span("eval/compare", 0, 20, 50),
            span("window/eval", 0, 10, 70),
            span("window", 0, 5, 90),
            span(WINDOW_SPAN, 0, 0, 100),
        ];
        let t = tile(&events);
        assert_eq!((t.windows, t.wall_us), (1, 100));
        assert_eq!(t.rows["eval.compare.self_ms"], 50.0);
        assert_eq!(t.rows["window.driver.self_ms"], 40.0);
        assert_eq!(t.rows[UNTRACED], 10.0);
        assert_eq!(t.rows.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn concurrent_threads_share_the_wall_clock() {
        let events = [
            span("eval/compare", 1, 0, 60),
            span("dist/ratios", 2, 30, 60),
            span("grid/retry", 2, 95, 5),
            span(WINDOW_SPAN, 0, 0, 100),
        ];
        let t = tile(&events);
        assert_eq!(t.rows["eval.compare.self_ms"], 45.0);
        assert_eq!(t.rows["dist.ratios.self_ms"], 45.0);
        assert_eq!(t.rows[UNTRACED], 10.0);
        assert!(t.unmapped.contains("grid/retry"));
    }

    #[test]
    fn interleaved_spans_go_to_the_latest_entered() {
        // Two tasks on one thread keep spans open across each other.
        let events = [
            span("eval/compare", 0, 0, 60),
            span("dist/ratios", 0, 40, 60),
            span(WINDOW_SPAN, 0, 0, 100),
        ];
        let t = tile(&events);
        assert_eq!(t.rows["eval.compare.self_ms"], 40.0);
        assert_eq!(t.rows["dist.ratios.self_ms"], 60.0);
    }
}
