//! Reading saved traces back: the typed [`Trace`] model `pimtrace`
//! analyzes, over the workspace's one JSON reader
//! ([`pim_obs::parse_json`], re-exported here with [`JsonExt`]).

use pim_obs::Json;
pub use pim_obs::{parse_json, JsonExt};

/// One parsed `traceEvents` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Phase: `M`, `B`, `E`, `X`, `i`, or `C`.
    pub ph: String,
    /// Timestamp in cycles.
    pub ts: u64,
    /// Span length for `X` events, 0 otherwise.
    pub dur: u64,
    /// Track: 0 = bus, *i* + 1 = PE *i*.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// The `args` object (or `Null` when absent).
    pub args: Json,
    /// Canonical compact re-rendering of the whole entry, for diffing.
    pub raw: String,
}

/// A parsed trace file.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All events in file order.
    pub events: Vec<ChromeEvent>,
    /// Makespan in cycles from `otherData`.
    pub makespan: u64,
    /// PE count from `otherData`.
    pub pes: u64,
    /// Ring counters from `otherData`.
    pub emitted: u64,
    /// Events retained in the file.
    pub recorded: u64,
    /// Events discarded at the ring cap.
    pub dropped: u64,
}

impl Trace {
    /// Parses the text of a trace file.
    pub fn parse(src: &str) -> Result<Trace, String> {
        let doc = parse_json(src)?;
        let events_json = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => return Err("missing traceEvents array".into()),
        };
        let mut events = Vec::with_capacity(events_json.len());
        for (i, e) in events_json.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?
                .to_string();
            let ts = e
                .get("ts")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: missing ts"))?;
            let tid = e
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: missing tid"))?;
            e.get("pid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: missing pid"))?;
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let dur = e.get("dur").and_then(Json::as_u64).unwrap_or(0);
            let args = e.get("args").cloned().unwrap_or(Json::Null);
            events.push(ChromeEvent {
                ph,
                ts,
                dur,
                tid,
                name,
                args,
                raw: e.to_string_compact(),
            });
        }
        let other = doc.get("otherData").cloned().unwrap_or(Json::Null);
        let field = |k: &str| other.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(Trace {
            events,
            makespan: field("makespan"),
            pes: field("pes"),
            emitted: field("emitted"),
            recorded: field("recorded"),
            dropped: field("dropped"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let j = parse_json(r#"{"a":[1,-2,3.5,"x\n",true,null],"b":{}}"#).expect("parse");
        assert_eq!(
            j.get("a").and_then(|a| match a {
                Json::Arr(v) => v.first().cloned(),
                _ => None,
            }),
            Some(Json::U64(1))
        );
        let arr = match j.get("a") {
            Some(Json::Arr(v)) => v,
            _ => panic!("not arr"),
        };
        assert_eq!(arr[1], Json::I64(-2));
        assert_eq!(arr[2], Json::F64(3.5));
        assert_eq!(arr[3], Json::Str("x\n".into()));
        assert_eq!(arr[4], Json::Bool(true));
        assert_eq!(arr[5], Json::Null);
        assert_eq!(j.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"open").is_err());
    }

    #[test]
    fn round_trips_writer_output() {
        let original = Json::obj([
            ("n", Json::U64(42)),
            ("s", Json::from("a\"b\\c\nd")),
            ("f", Json::F64(1.5)),
            ("arr", Json::arr([Json::Null, Json::Bool(false)])),
        ]);
        for text in [original.to_string_compact(), original.to_string_pretty()] {
            assert_eq!(parse_json(&text).expect("reparse"), original);
        }
    }

    #[test]
    fn trace_parse_extracts_envelope() {
        let src = "{\n\"traceEvents\": [\n{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":7,\"name\":\"reduce\"}\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"schema\":\"pim-trace/v1\",\"makespan\":99,\"pes\":2,\"emitted\":1,\"recorded\":1,\"dropped\":0}\n}\n";
        let t = Trace::parse(src).expect("trace");
        assert_eq!(t.makespan, 99);
        assert_eq!(t.pes, 2);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].ph, "i");
        assert_eq!(t.events[0].ts, 7);
    }
}
