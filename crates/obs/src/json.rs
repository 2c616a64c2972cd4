//! Hand-rolled JSON writer for metric snapshots plus a minimal parser,
//! so the smoke tests (and `repro --validate-metrics`) can check the
//! sidecar without any external dependency.

use crate::registry::SnapshotValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialize a snapshot into a single deterministic JSON object grouped by
/// metric kind:
///
/// ```json
/// { "version": 1,
///   "counters": {"name": 1},
///   "gauges": {"name": 0.5},
///   "timers": {"name": {"count":1,"total_ns":…,"min_ns":…,"max_ns":…,"mean_ns":…}},
///   "histograms": {"name": {"bounds":[…],"counts":[…],"count":…,"sum":…}} }
/// ```
pub fn snapshot_to_json(snap: &[(String, SnapshotValue)]) -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut timers = String::new();
    let mut histograms = String::new();
    for (name, value) in snap {
        match value {
            SnapshotValue::Counter(v) => {
                push_entry(&mut counters, name, &v.to_string());
            }
            SnapshotValue::Gauge(v) => {
                push_entry(&mut gauges, name, &fmt_f64(*v));
            }
            SnapshotValue::Timer { count, total_ns, min_ns, max_ns, mean_ns } => {
                let obj = format!(
                    "{{\"count\":{count},\"total_ns\":{total_ns},\"min_ns\":{min_ns},\
                     \"max_ns\":{max_ns},\"mean_ns\":{}}}",
                    fmt_f64(*mean_ns)
                );
                push_entry(&mut timers, name, &obj);
            }
            SnapshotValue::Histogram { bounds, counts, count, sum, p50, p95, p99 } => {
                let bs: Vec<String> = bounds.iter().map(|&b| fmt_f64(b)).collect();
                let cs: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
                let obj = format!(
                    "{{\"bounds\":[{}],\"counts\":[{}],\"count\":{count},\"sum\":{},\
                     \"p50\":{},\"p95\":{},\"p99\":{}}}",
                    bs.join(","),
                    cs.join(","),
                    fmt_f64(*sum),
                    fmt_f64(*p50),
                    fmt_f64(*p95),
                    fmt_f64(*p99)
                );
                push_entry(&mut histograms, name, &obj);
            }
        }
    }
    format!(
        "{{\n\"version\":1,\n\"counters\":{{{counters}}},\n\"gauges\":{{{gauges}}},\n\
         \"timers\":{{{timers}}},\n\"histograms\":{{{histograms}}}\n}}\n"
    )
}

fn push_entry(buf: &mut String, name: &str, value: &str) {
    if !buf.is_empty() {
        buf.push(',');
    }
    buf.push('\n');
    quote_into(buf, name);
    let _ = write!(buf, ":{value}");
}

/// JSON has no NaN/Infinity literals; exported as null.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 and always includes a decimal point or
        // exponent, which keeps integers-as-floats unambiguous.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Append `s` to `out` as a quoted JSON string. The metrics snapshot, the
/// trace journal and the alert JSONL encoder all escape through here.
pub(crate) fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Minimal JSON value for validation and test assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Look up `path` like `"counters/simplex.iterations"` (keys split on
    /// `/`, so metric names containing dots work unescaped).
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('/') {
            match cur {
                Json::Obj(map) => cur = map.get(key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize back to JSON text. Object keys come out in `BTreeMap`
    /// order, numbers in `{:?}` round-trip form (non-finite as `null`),
    /// so `parse(render(v)) == v` for any finite-numbered value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => quote_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset for debugging.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so valid).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SnapshotValue as V;

    #[test]
    fn snapshot_round_trips_through_parser() {
        let snap = vec![
            ("a.counter".to_string(), V::Counter(7)),
            ("b.gauge".to_string(), V::Gauge(1.5)),
            (
                "c.timer".to_string(),
                V::Timer { count: 2, total_ns: 40, min_ns: 10, max_ns: 30, mean_ns: 20.0 },
            ),
            (
                "d.hist".to_string(),
                V::Histogram {
                    bounds: vec![1.0, 2.0],
                    counts: vec![1, 0, 3],
                    count: 4,
                    sum: 9.25,
                    p50: 2.0,
                    p95: 2.0,
                    p99: 2.0,
                },
            ),
        ];
        let text = snapshot_to_json(&snap);
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(doc.get("counters/a.counter").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("gauges/b.gauge").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("timers/c.timer/mean_ns").and_then(Json::as_f64), Some(20.0));
        assert_eq!(doc.get("histograms/d.hist/sum").and_then(Json::as_f64), Some(9.25));
        assert_eq!(doc.get("histograms/d.hist/p95").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            doc.get("histograms/d.hist/counts"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(0.0), Json::Num(3.0)]))
        );
    }

    #[test]
    fn non_finite_gauge_exports_null() {
        let snap = vec![("bad".to_string(), V::Gauge(f64::NAN))];
        let text = snapshot_to_json(&snap);
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(doc.get("gauges/bad"), Some(&Json::Null));
    }

    #[test]
    fn strings_escape_cleanly() {
        let snap = vec![("name\"with\\odd\nchars".to_string(), V::Counter(1))];
        let text = snapshot_to_json(&snap);
        let doc = parse(&text).expect("valid JSON");
        let counters = doc.get("counters").and_then(Json::as_obj).unwrap();
        assert!(counters.contains_key("name\"with\\odd\nchars"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }
}
