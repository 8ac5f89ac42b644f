//! Chrome trace-event JSON export.
//!
//! Serializes recorded events into the [Trace Event Format] consumed by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Events are
//! grouped into *processes* per node and layer (`node0/gpu`, `node0/pcie`,
//! `node1/nic`, …, derived from the instance index in the track name) and
//! tracks become *threads*, so a multi-node trace reads node by node and a
//! transfer's journey within a node reads top-to-bottom: gpu → pcie → nic.
//! Node-less tracks (the DES executor, the cable) keep their bare layer
//! name as the process.
//!
//! The output is fully deterministic: pids/tids are assigned in order of
//! first appearance (the simulator's event order is deterministic),
//! timestamps are rendered from integer picoseconds with a fixed six-digit
//! microsecond fraction, and no wall-clock data is embedded. Two identical
//! runs produce byte-identical files.
//!
//! Serialization is hand-rolled (~100 lines) because the workspace must
//! build with zero external crates.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::recorder::{ArgVal, Phase, TraceEvent};

/// Render `ps` picoseconds as a JSON number of microseconds with a six
/// digit fraction (1 µs = 10^6 ps, so this is exact).
fn ts_us(out: &mut String, ps: u64) {
    let _ = write!(out, "{}.{:06}", ps / 1_000_000, ps % 1_000_000);
}

/// Append `s` to `out` as a quoted JSON string: `"`, `\`, `\n`, `\r` and
/// `\t` get their short escapes, other control characters `\u00XX`. The
/// workspace's one JSON string writer (traces, series, metrics).
pub fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn args_obj(out: &mut String, args: &[(&'static str, ArgVal)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(out, k);
        out.push(':');
        match v {
            ArgVal::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgVal::Str(s) => escape(out, s),
        }
    }
    out.push('}');
}

/// The process an event belongs to: `node<N>/<layer>` when the track's
/// first dotted segment carries an instance index (`gpu0.warp` → node 0,
/// `pcie1.nic0` → node 1, `extoll0.requester` → node 0), else the bare
/// layer name (`desim`, `link`).
fn process_key(layer: &str, track: &str) -> String {
    let seg = track.split('.').next().unwrap_or("");
    if let Some(i) = seg.find(|c: char| c.is_ascii_digit()) {
        if i > 0 && seg[i..].bytes().all(|b| b.is_ascii_digit()) {
            return format!("node{}/{layer}", &seg[i..]);
        }
    }
    layer.to_string()
}

/// Serialize `events` as a Chrome trace-event JSON document.
///
/// Each distinct node/layer pair becomes a process (with a `process_name`
/// metadata record naming it `node0/gpu`, `node1/nic`, …) and each
/// distinct `(process, track)` a thread within it (with a `thread_name`
/// record), both numbered by first appearance. Spans become `ph:"X"`
/// complete events, instants `ph:"i"` thread-scoped instants.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    // pid per node/layer process, tid per (process, track) —
    // first-appearance order.
    let mut pids: HashMap<String, u64> = HashMap::new();
    let mut tids: HashMap<(u64, &str), u64> = HashMap::new();
    let mut meta = String::new();
    let mut next_tid: HashMap<u64, u64> = HashMap::new();
    let mut body = String::new();

    for ev in events {
        let npid = pids.len() as u64 + 1;
        let key = process_key(ev.layer, &ev.track);
        let pid = *pids.entry(key.clone()).or_insert_with(|| {
            meta.push_str("  {\"ph\":\"M\",\"pid\":");
            let _ = write!(meta, "{npid}");
            meta.push_str(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":");
            escape(&mut meta, &key);
            meta.push_str("}},\n");
            npid
        });
        let tid = match tids.get(&(pid, ev.track.as_str())) {
            Some(&t) => t,
            None => {
                let t = {
                    let n = next_tid.entry(pid).or_insert(1);
                    let t = *n;
                    *n += 1;
                    t
                };
                // Keys borrow from `events`, which outlives this function's
                // locals, so storing the &str is fine.
                tids.insert((pid, ev.track.as_str()), t);
                meta.push_str("  {\"ph\":\"M\",\"pid\":");
                let _ = write!(meta, "{pid},\"tid\":{t}");
                meta.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
                escape(&mut meta, &ev.track);
                meta.push_str("}},\n");
                t
            }
        };

        body.push_str("  {\"ph\":");
        match ev.phase {
            Phase::Span { dur } => {
                body.push_str("\"X\",\"pid\":");
                let _ = write!(body, "{pid},\"tid\":{tid}");
                body.push_str(",\"ts\":");
                ts_us(&mut body, ev.ts);
                body.push_str(",\"dur\":");
                ts_us(&mut body, dur);
            }
            Phase::Instant => {
                body.push_str("\"i\",\"s\":\"t\",\"pid\":");
                let _ = write!(body, "{pid},\"tid\":{tid}");
                body.push_str(",\"ts\":");
                ts_us(&mut body, ev.ts);
            }
            Phase::Counter { value } => {
                body.push_str("\"C\",\"pid\":");
                let _ = write!(body, "{pid},\"tid\":{tid}");
                body.push_str(",\"ts\":");
                ts_us(&mut body, ev.ts);
                body.push_str(",\"name\":");
                escape(&mut body, &ev.name);
                body.push_str(",\"args\":{\"value\":");
                let _ = write!(body, "{value}");
                body.push_str("}},\n");
                continue;
            }
        }
        body.push_str(",\"name\":");
        escape(&mut body, &ev.name);
        if !ev.args.is_empty() {
            body.push_str(",\"args\":");
            args_obj(&mut body, &ev.args);
        }
        body.push_str("},\n");
    }

    // Strip the final trailing ",\n" from the body (or the metadata block
    // when there are no events at all).
    let mut out = String::with_capacity(meta.len() + body.len() + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&meta);
    out.push_str(&body);
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample() -> Vec<TraceEvent> {
        let r = Recorder::new();
        r.enable();
        r.span(
            1_500_000,
            3_500_000,
            "pcie",
            "pcie0.nic0",
            "dma_read",
            vec![("bytes", 4096u64.into())],
        );
        r.instant(
            2_000_000,
            "gpu",
            "gpu0.warp",
            "ld",
            vec![("addr", "0x10".into())],
        );
        r.instant(2_500_000, "gpu", "gpu0.warp", "st", vec![]);
        r.take_events()
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(to_chrome_json(&sample()), to_chrome_json(&sample()));
    }

    #[test]
    fn export_contains_expected_records() {
        let j = to_chrome_json(&sample());
        assert!(j.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
        assert!(j.ends_with("]}\n"));
        // Per-node process metadata for both layers.
        assert!(j.contains("\"process_name\",\"args\":{\"name\":\"node0/pcie\"}"));
        assert!(j.contains("\"process_name\",\"args\":{\"name\":\"node0/gpu\"}"));
        assert!(j.contains("\"thread_name\",\"args\":{\"name\":\"gpu0.warp\"}"));
        // Span with exact µs timestamps: 1.5 µs start, 2 µs duration.
        assert!(j.contains("\"ts\":1.500000,\"dur\":2.000000,\"name\":\"dma_read\""));
        assert!(j.contains("\"args\":{\"bytes\":4096}"));
        // Instant form.
        assert!(j.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(j.contains("\"args\":{\"addr\":\"0x10\"}"));
        // No trailing comma before the closing bracket.
        assert!(!j.contains(",\n]"));
    }

    #[test]
    fn process_keys_group_by_node_and_fall_back_to_layer() {
        assert_eq!(process_key("gpu", "gpu0.warp"), "node0/gpu");
        assert_eq!(process_key("pcie", "pcie1.nic0"), "node1/pcie");
        assert_eq!(process_key("nic", "extoll0.requester"), "node0/nic");
        assert_eq!(process_key("nic", "ib12.sq"), "node12/nic");
        // No instance index: the layer stays the process.
        assert_eq!(process_key("desim", "exec"), "desim");
        assert_eq!(process_key("link", "fabric.cable"), "link");
        // A bare number is not an instance-indexed component name.
        assert_eq!(process_key("user", "0"), "user");
    }

    #[test]
    fn two_nodes_become_two_processes() {
        let r = Recorder::new();
        r.enable();
        r.instant(1, "gpu", "gpu0.warp", "ld", vec![]);
        r.instant(2, "gpu", "gpu1.warp", "ld", vec![]);
        let j = to_chrome_json(&r.take_events());
        assert!(j.contains("\"name\":\"node0/gpu\""));
        assert!(j.contains("\"name\":\"node1/gpu\""));
    }

    #[test]
    fn counter_events_render_as_counter_tracks() {
        let ev = vec![
            TraceEvent {
                ts: 1_000_000,
                phase: Phase::Counter { value: 7 },
                layer: "series",
                track: "workload0.queue_depth".into(),
                name: "workload0.queue_depth".into(),
                args: vec![],
            },
            TraceEvent {
                ts: 2_000_000,
                phase: Phase::Counter { value: 9 },
                layer: "series",
                track: "workload0.queue_depth".into(),
                name: "workload0.queue_depth".into(),
                args: vec![],
            },
        ];
        let j = to_chrome_json(&ev);
        assert!(j.contains("\"ph\":\"C\""));
        assert!(
            j.contains("\"ts\":1.000000,\"name\":\"workload0.queue_depth\",\"args\":{\"value\":7}")
        );
        assert!(
            j.contains("\"ts\":2.000000,\"name\":\"workload0.queue_depth\",\"args\":{\"value\":9}")
        );
        assert_eq!(to_chrome_json(&ev), to_chrome_json(&ev));
    }

    #[test]
    fn empty_event_list_is_valid() {
        let j = to_chrome_json(&[]);
        assert_eq!(j, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn escapes_special_chars() {
        let r = Recorder::new();
        r.enable();
        r.instant(0, "user", "t", "say \"hi\"\n\t\u{1}", vec![]);
        let j = to_chrome_json(&r.take_events());
        assert!(j.contains("say \\\"hi\\\"\\n\\t\\u0001"));
    }
}
