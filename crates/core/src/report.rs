//! Reporting: aligned text tables (the harness prints the same rows the
//! reconstructed paper tables contain) and a minimal JSON writer for
//! machine-readable experiment records.

use qpinn_telemetry::event::{write_json_num, write_json_str};

/// An aligned, pipe-separated text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                let pad = w - c.chars().count();
                out.push_str(c);
                out.push_str(&" ".repeat(pad));
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 3 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Minimal JSON value for experiment records.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (f64; non-finite serializes as null).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document (the inverse of [`Json::to_string`]).
    ///
    /// A strict recursive-descent parser covering the subset this crate
    /// and `qpinn-telemetry` emit: null/true/false, f64 numbers, strings
    /// with `\"` `\\` `\/` `\n` `\t` `\r` `\b` `\f` and `\uXXXX` escapes
    /// (surrogate pairs included), arrays, and objects. Rejects trailing
    /// garbage. It scans the input's bytes in place: a number parses from
    /// its slice of the input and an unescaped run of a string is copied
    /// whole, so only strings and containers allocate. Error offsets count
    /// bytes. Used by the serve plane for request bodies, and by tests and
    /// CI to validate every emitted line.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing characters at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a finite number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array of numbers.
    pub fn nums(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
    }

    /// Serialize.
    pub fn to_string(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_json_num(out, *x),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Recursive-descent state for [`Json::parse`]: the input and a byte
/// cursor that always sits on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume and return the character at the cursor.
    fn bump(&mut self) -> Result<char, String> {
        let c = self.text[self.pos..]
            .chars()
            .next()
            .ok_or_else(|| format!("unexpected end of input at offset {}", self.pos))?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let at = self.pos;
        let got = self.bump()?;
        if got != want {
            return Err(format!("expected '{want}' at offset {at}, found '{got}'"));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => {
                let at = self.pos;
                let c = self.bump()?;
                Err(format!("unexpected '{c}' at offset {at}"))
            }
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
        }
    }

    /// Scan `-? digits (. digits)? ([eE] [+-]? digits)?` and let `f64`'s
    /// own parser judge the slice (it rejects `-`, `1e` and the like).
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}' at offset {start}: {e}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let at = self.pos;
            let c = self.bump()?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit '{c}' at offset {at}"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole; all three are ASCII, so the run ends on a
            // character boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let at = self.pos;
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => {
                    let at = self.pos;
                    match self.bump()? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect('\\')?;
                                self.expect('u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "bad low surrogate {lo:#x} at offset {}",
                                        self.pos
                                    ));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code:#x}"))?,
                            );
                        }
                        c => return Err(format!("bad escape '\\{c}' at offset {at}")),
                    }
                }
                _ => return Err(format!("unescaped control character at offset {at}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            let at = self.pos;
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Json::Arr(items)),
                c => return Err(format!("expected ',' or ']' at offset {at}, found '{c}'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            let at = self.pos;
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Json::Obj(pairs)),
                c => return Err(format!("expected ',' or '}}' at offset {at}, found '{c}'")),
            }
        }
    }
}

/// Write an experiment record under `target/experiments/<id>.json`,
/// creating the directory if needed. Returns the path written.
pub fn write_experiment_json(id: &str, value: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, value.to_string())?;
    Ok(path)
}

/// Format a mean ± std pair compactly.
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.3e} ± {std:.1e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1.5".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows same width
        assert!(lines[2].starts_with("a        "));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_round_values() {
        let j = Json::obj(vec![
            ("name", Json::Str("t1".into())),
            ("errors", Json::nums(&[0.5, 1.25])),
            ("ok", Json::Bool(true)),
            ("bad", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"name":"t1","errors":[0.5,1.25],"ok":true,"bad":null}"#
        );
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".into());
        assert_eq!(j.to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn mean_std_format() {
        assert_eq!(mean_std(0.00123, 0.0004), "1.230e-3 ± 4.0e-4");
    }

    #[test]
    fn table_column_widths_follow_longest_cell() {
        let mut t = TextTable::new(&["k", "very-long-header"]);
        t.row(&["longest-cell-in-column".into(), "v".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, one row — all the same display width.
        assert_eq!(lines.len(), 3);
        let w = lines[0].chars().count();
        assert_eq!(lines[1].chars().count(), w);
        assert_eq!(lines[2].chars().count(), w);
        // Separator is all dashes.
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn too_many_cells_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj(vec![
            ("name", Json::Str("t1 \"quoted\" \\ \n\t\u{1}".into())),
            ("errors", Json::nums(&[0.5, 1.25, -3e-7])),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "nested",
                Json::obj(vec![("inner", Json::Arr(vec![Json::Num(1.0), Json::Null]))]),
            ),
        ]);
        let text = j.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
        // And the round-trip is a fixed point.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_handles_whitespace_and_unicode_escapes() {
        let j = Json::parse(" { \"a\" : [ 1 , \"\\u00e9\\u0041\" ] , \"b\" : null } ").unwrap();
        assert_eq!(j.get("a").unwrap(), &Json::Arr(vec![
            Json::Num(1.0),
            Json::Str("éA".into()),
        ]));
        assert_eq!(j.get("b"), Some(&Json::Null));
        // Surrogate pair → astral code point.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1.2.3").is_err());
        assert!(Json::parse("\"bad \\x escape\"").is_err());
    }

    #[test]
    fn parse_keeps_multi_byte_text_and_surrogate_pairs_in_strings() {
        assert_eq!(
            Json::parse("[\"é😀 – ü\", \"a\\ud83d\\ude00b\\u00e9\"]").unwrap(),
            Json::Arr(vec![Json::Str("é😀 – ü".into()), Json::Str("a😀bé".into())])
        );
        let j = Json::parse("{\"ключ\":\"значение\\n\",\"k\":\"\\ud834\\udd1e\"}").unwrap();
        assert_eq!(j.get("ключ").and_then(Json::as_str), Some("значение\n"));
        assert_eq!(j.get("k").and_then(Json::as_str), Some("𝄞"));
        // Multi-byte text survives the writer and the parser unchanged.
        let s = Json::Str("ψ(x,t) ≈ e^{iωt} 😀\u{1}".into());
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_malformed_numbers_strings_and_trailing_bytes() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err("-"), "bad number '-' at offset 0: invalid float literal");
        assert_eq!(err("+1"), "unexpected '+' at offset 0");
        assert_eq!(err("1e"), "bad number '1e' at offset 0: invalid float literal");
        assert_eq!(err("[-]"), "bad number '-' at offset 1: invalid float literal");
        assert_eq!(err("\"abc"), "unexpected end of input at offset 4");
        assert_eq!(err("{\"a\":1} x"), "trailing characters at offset 8");
        assert_eq!(err("[1]]"), "trailing characters at offset 3");
        assert_eq!(err("[1 2]"), "expected ',' or ']' at offset 3, found '2'");
        assert_eq!(err("\"a\tb\""), "unescaped control character at offset 2");
        assert_eq!(err("é"), "unexpected 'é' at offset 0");
    }

    #[test]
    fn parse_accepts_metrics_snapshot_format() {
        // The exact shape qpinn-telemetry's MetricsSnapshot::to_json
        // emits; CI parses these files with this parser.
        let text = r#"{"schema":"qpinn-metrics-v1","counters":{"train.grad_evals":12},"gauges":{"pool.sets_launched":3.5},"histograms":{"span.epoch_ns":{"count":12,"sum":240,"max":30,"mean":20,"p50":16,"p99":30}}}"#;
        let j = Json::parse(text).unwrap();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("qpinn-metrics-v1")
        );
        let hist = j.get("histograms").and_then(|h| h.get("span.epoch_ns")).unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_num), Some(12.0));
    }
}

/// Render a unicode sparkline of a series (8 levels), for quick terminal
/// visualization of convergence trajectories.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    values
        .iter()
        .map(|&v| {
            let u = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[u]
        })
        .collect()
}

/// Render a log-scale sparkline (useful for loss curves spanning decades).
/// Non-positive values clamp to the smallest positive one.
pub fn sparkline_log(values: &[f64]) -> String {
    let floor = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !floor.is_finite() {
        return sparkline(values);
    }
    let logs: Vec<f64> = values.iter().map(|&v| v.max(floor).ln()).collect();
    sparkline(&logs)
}

#[cfg(test)]
mod spark_tests {
    use super::*;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s, "▁█");
    }

    #[test]
    fn sparkline_is_monotone_for_monotone_input() {
        let s: Vec<char> = sparkline(&[0.0, 0.25, 0.5, 0.75, 1.0]).chars().collect();
        for w in s.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn constant_series_is_flat() {
        let s = sparkline(&[2.0, 2.0, 2.0]);
        assert_eq!(s.chars().collect::<Vec<_>>(), vec!['▁', '▁', '▁']);
    }

    #[test]
    fn log_sparkline_handles_decades() {
        let s = sparkline_log(&[1.0, 0.1, 0.01, 0.001]);
        let cs: Vec<char> = s.chars().collect();
        assert_eq!(cs[0], '█');
        assert_eq!(cs[3], '▁');
        // log scale → equal visual steps per decade
        assert!(cs[1] > cs[2]);
    }

    #[test]
    fn empty_series() {
        assert_eq!(sparkline(&[]), "");
    }
}
