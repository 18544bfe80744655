//! Span arithmetic over `sdiq-obs` trace events: self time (a span's
//! duration minus the part of it that its child spans cover) and the
//! balanced-pairs check on an exported Chrome trace.

use sdiq_core::persist::{parse, Json};
use sdiq_obs::TraceEvent;
use std::collections::HashMap;

/// The self time of every event, index-aligned with `events`: a span's
/// duration minus the time covered by its direct children (spans on the
/// same `(pid, tid)` lane that start inside it). Instants get `0`.
pub fn self_times(events: &[TraceEvent]) -> Vec<u64> {
    let mut lanes: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
    for (index, event) in events.iter().enumerate() {
        if event.dur_nanos.is_some() {
            lanes.entry((event.pid, event.tid)).or_default().push(index);
        }
    }
    let end = |i: usize| events[i].start_nanos + events[i].dur_nanos.unwrap_or(0);
    let mut covered = vec![0u64; events.len()];
    for mut lane in lanes.into_values() {
        // Parents sort before the children they contain: earlier start
        // first, and the longer span first on a tie.
        lane.sort_by_key(|&i| (events[i].start_nanos, std::cmp::Reverse(end(i))));
        let mut open: Vec<usize> = Vec::new();
        for i in lane {
            while open
                .last()
                .is_some_and(|&top| end(top) <= events[i].start_nanos)
            {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                covered[parent] += end(i).min(end(parent)) - events[i].start_nanos;
            }
            open.push(i);
        }
    }
    events
        .iter()
        .zip(covered)
        .map(|(event, covered)| event.dur_nanos.map_or(0, |d| d.saturating_sub(covered)))
        .collect()
}

/// Checks that a Chrome trace document has balanced, properly nested
/// `B`/`E` pairs on every `(pid, tid)` lane, each `E` no earlier than its
/// `B`, returning the pair count. An `E` closes the innermost open `B`;
/// when it carries a name, the name must match.
pub fn check_balanced(text: &str) -> Result<usize, String> {
    let document = parse(text).map_err(|e| e.to_string())?;
    let events = document
        .get("traceEvents")
        .and_then(Json::arr)
        .map_err(|e| e.to_string())?;
    let mut open: HashMap<(u64, u64), Vec<(String, f64)>> = HashMap::new();
    let mut pairs = 0;
    for event in events {
        let field = |key: &str| event.get(key).map_err(|e| e.to_string());
        let ph = field("ph")?.str().map_err(|e| e.to_string())?.to_string();
        if ph != "B" && ph != "E" {
            continue;
        }
        let lane = (
            field("pid")?.u64().map_err(|e| e.to_string())?,
            field("tid")?.u64().map_err(|e| e.to_string())?,
        );
        let name = field("name")?.str().map_err(|e| e.to_string())?.to_string();
        let ts = field("ts")?.f64().map_err(|e| e.to_string())?;
        let stack = open.entry(lane).or_default();
        if ph == "B" {
            stack.push((name, ts));
            continue;
        }
        match stack.pop() {
            Some((begun, start)) if (name.is_empty() || name == begun) && ts >= start => pairs += 1,
            _ => return Err(format!("unmatched E `{name}` at {ts} on lane {lane:?}")),
        }
    }
    match open.into_iter().find(|(_, stack)| !stack.is_empty()) {
        Some((lane, stack)) => Err(format!("{} unclosed B on lane {lane:?}", stack.len())),
        None => Ok(pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: format!("s{start}"),
            cat: "test".to_string(),
            pid: 0,
            tid,
            start_nanos: start,
            dur_nanos: Some(dur),
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            span(1, 0, 100), // parent
            span(1, 10, 20), // child, holds a grandchild
            span(1, 12, 8),  // grandchild
            span(1, 40, 10), // second child
            span(2, 5, 50),  // another lane: no relation to the parent
        ];
        assert_eq!(self_times(&events), vec![70, 12, 8, 10, 50]);
    }

    #[test]
    fn back_to_back_spans_are_siblings_and_instants_have_no_self_time() {
        let mut instant = span(1, 5, 0);
        instant.dur_nanos = None;
        let events = vec![span(1, 0, 10), span(1, 10, 10), instant];
        assert_eq!(self_times(&events), vec![10, 10, 0]);
    }

    #[test]
    fn balanced_pairs_are_counted_and_strays_rejected() {
        let ok = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":0,"tid":1},
            {"name":"b","ph":"B","ts":1,"pid":0,"tid":1},
            {"name":"x","ph":"B","ts":1,"pid":0,"tid":2},
            {"name":"","ph":"E","ts":2,"pid":0,"tid":1},
            {"name":"x","ph":"E","ts":3,"pid":0,"tid":2},
            {"name":"m","ph":"M","ts":0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":4,"pid":0,"tid":1}]}"#;
        assert_eq!(check_balanced(ok), Ok(3));
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":0,"tid":1},
            {"name":"b","ph":"B","ts":1,"pid":0,"tid":1},
            {"name":"a","ph":"E","ts":2,"pid":0,"tid":1},
            {"name":"b","ph":"E","ts":3,"pid":0,"tid":1}]}"#;
        assert!(check_balanced(crossed).is_err());
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":0,"tid":1},
            {"name":"","ph":"E","ts":4,"pid":0,"tid":1}]}"#;
        assert!(check_balanced(backwards).is_err());
        let unclosed = r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":1}]}"#;
        assert!(check_balanced(unclosed).is_err());
    }
}
