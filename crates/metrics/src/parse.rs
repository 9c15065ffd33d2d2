//! Text exposition format parser, used by the TSDB scraper.
//!
//! The parser is line-oriented and tolerant in the same ways Prometheus'
//! scrape parser is: unknown comment lines are skipped, families may appear
//! without HELP/TYPE, and samples are returned flat (histogram `_bucket`
//! series are just samples with a `le` label).

use std::collections::HashMap;

use crate::labels::{LabelSet, LabelSetBuilder};
use crate::model::MetricType;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// On-wire metric name (including any `_bucket`-style suffix).
    pub name: String,
    /// Labels excluding the name.
    pub labels: LabelSet,
    /// Value.
    pub value: f64,
    /// Optional explicit timestamp in milliseconds.
    pub timestamp_ms: Option<i64>,
    /// Optional OpenMetrics exemplar (`# {trace_id="..."} value`) attached to
    /// the sample line. Exemplars annotate a sample; they are not samples
    /// themselves, so ingestion paths may ignore this field.
    pub exemplar: Option<ParsedExemplar>,
}

/// An exemplar parsed from the `# {labels} value` suffix of a sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedExemplar {
    /// Exemplar labels (typically just `trace_id`).
    pub labels: LabelSet,
    /// The exemplified observation's value.
    pub value: f64,
}

/// Parse failure with 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing a scrape body.
#[derive(Clone, Debug, Default)]
pub struct ParsedScrape {
    /// All samples in document order.
    pub samples: Vec<ParsedSample>,
    /// Declared types by family name.
    pub types: HashMap<String, MetricType>,
    /// Declared help strings by family name.
    pub help: HashMap<String, String>,
}

/// Parses a full text-format document.
pub fn parse_text(body: &str) -> Result<ParsedScrape, ParseError> {
    let mut out = ParsedScrape::default();
    for (lineno, line) in doc_lines(body) {
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("").to_string();
                let ty = parts.next().unwrap_or("untyped").trim();
                out.types.insert(name, MetricType::from_str_loose(ty));
            } else if let Some(rest) = rest.strip_prefix("HELP ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("").to_string();
                let help = unescape_help(parts.next().unwrap_or(""));
                out.help.insert(name, help);
            }
            continue;
        }
        out.samples.push(parse_sample_line(line, lineno)?);
    }
    Ok(out)
}

/// The non-blank lines of a document as `(1-based line number, line)`,
/// with any trailing `\r` removed.
fn doc_lines(body: &str) -> impl Iterator<Item = (usize, &str)> {
    body.lines()
        .enumerate()
        .map(|(idx, raw)| (idx + 1, raw.trim_end_matches('\r')))
        .filter(|(_, line)| !line.is_empty())
}

/// The lines [`parse_text`] parses as samples, as `(1-based line number,
/// line)`: blank and `#` lines skipped, trailing `\r` removed. Ingest paths
/// that parse line by line walk the document through this so they see
/// exactly the lines (and line numbers) `parse_text` does.
pub fn sample_lines(body: &str) -> impl Iterator<Item = (usize, &str)> {
    doc_lines(body).filter(|(_, line)| !line.starts_with('#'))
}

fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// What a sample line carries after its series text: the value, an
/// optional timestamp and an optional exemplar.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleTail {
    /// Value.
    pub value: f64,
    /// Optional explicit timestamp in milliseconds.
    pub timestamp_ms: Option<i64>,
    /// Optional OpenMetrics exemplar.
    pub exemplar: Option<ParsedExemplar>,
}

fn parse_sample_line(line: &str, lineno: usize) -> Result<ParsedSample, ParseError> {
    let (name, labels, len) = parse_series(line, lineno)?;
    let tail = parse_sample_tail(&line[len..], lineno)?;
    Ok(ParsedSample {
        name,
        labels,
        value: tail.value,
        timestamp_ms: tail.timestamp_ms,
        exemplar: tail.exemplar,
    })
}

/// Length of the metric name at the start of a sample line.
pub fn metric_name_len(line: &str) -> usize {
    line.bytes()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b':')
        .count()
}

/// Parses the series text at the start of a sample line: the metric name
/// and its optional `{...}` label block. Returns the name, the labels and
/// the number of bytes consumed. The parser never looks past the byte it
/// stops at, so any line starting with the same consumed text parses to
/// the same name and labels.
pub fn parse_series(line: &str, lineno: usize) -> Result<(String, LabelSet, usize), ParseError> {
    let mut i = metric_name_len(line);
    if i == 0 {
        return Err(ParseError {
            line: lineno,
            message: "expected metric name".to_string(),
        });
    }
    let name = line[..i].to_string();
    let labels = if line.as_bytes().get(i) == Some(&b'{') {
        parse_label_block(line, lineno, &mut i)?
    } else {
        LabelSetBuilder::new().build()
    };
    Ok((name, labels, i))
}

/// Length of a sample line's series text without parsing it: the metric
/// name, then — when a `{` follows — everything through the first `}`
/// outside a quoted label value (the whole line when there is none). On a
/// well-formed line this is exactly what [`parse_series`] consumes, which
/// is what a cache keyed by series text looks lines up by.
pub fn series_text_len(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut i = metric_name_len(line);
    if bytes.get(i) != Some(&b'{') {
        return i;
    }
    let mut quoted = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if quoted => i += 1,
            b'"' => quoted = !quoted,
            b'}' if !quoted => return i + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Parses what follows the series text of a sample line: value, optional
/// timestamp, and an optional OpenMetrics exemplar suffix
/// (`# {labels} value`). Any '#' after the label block starts the
/// exemplar: sample values and timestamps cannot contain one.
pub fn parse_sample_tail(rest: &str, lineno: usize) -> Result<SampleTail, ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let (sample_part, exemplar_part) = match rest.find('#') {
        Some(pos) => (&rest[..pos], Some(&rest[pos + 1..])),
        None => (rest, None),
    };
    let sample_part = sample_part.trim();
    if sample_part.is_empty() {
        return Err(err("missing sample value"));
    }
    let mut parts = sample_part.split_whitespace();
    let vstr = parts.next().unwrap();
    let value = parse_value(vstr).ok_or_else(|| err(&format!("bad value {vstr:?}")))?;
    let timestamp_ms = match parts.next() {
        None => None,
        Some(t) => Some(
            t.parse::<i64>()
                .map_err(|_| err(&format!("bad timestamp {t:?}")))?,
        ),
    };
    if parts.next().is_some() {
        return Err(err("trailing garbage after timestamp"));
    }

    let exemplar = match exemplar_part {
        None => None,
        Some(ex) => Some(parse_exemplar(ex, lineno)?),
    };

    Ok(SampleTail {
        value,
        timestamp_ms,
        exemplar,
    })
}

/// Parses the exemplar suffix after the `#` marker: `{labels} value [ts]`.
fn parse_exemplar(s: &str, lineno: usize) -> Result<ParsedExemplar, ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let s = s.trim_start();
    if !s.starts_with('{') {
        return Err(err("expected '{' starting exemplar labels"));
    }
    let mut i = 0;
    let labels = parse_label_block(s, lineno, &mut i)?;
    let mut parts = s[i..].split_whitespace();
    let vstr = parts.next().ok_or_else(|| err("missing exemplar value"))?;
    let value = parse_value(vstr).ok_or_else(|| err(&format!("bad exemplar value {vstr:?}")))?;
    // Optional exemplar timestamp (seconds in OpenMetrics); tolerated and
    // discarded.
    if let Some(t) = parts.next() {
        t.parse::<f64>()
            .map_err(|_| err(&format!("bad exemplar timestamp {t:?}")))?;
    }
    if parts.next().is_some() {
        return Err(err("trailing garbage after exemplar"));
    }
    Ok(ParsedExemplar { labels, value })
}

/// Parses a `{name="value",...}` block starting at `line[*i]` (which must be
/// `'{'`), leaving `*i` just past the closing `'}'`.
fn parse_label_block(line: &str, lineno: usize, i: &mut usize) -> Result<LabelSet, ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let bytes = line.as_bytes();
    let mut builder = LabelSetBuilder::new();
    debug_assert_eq!(bytes[*i], b'{');
    *i += 1;
    loop {
        // Skip whitespace.
        while *i < bytes.len() && bytes[*i] == b' ' {
            *i += 1;
        }
        if *i < bytes.len() && bytes[*i] == b'}' {
            *i += 1;
            break;
        }
        // Label name.
        let ls = *i;
        while *i < bytes.len() {
            let c = bytes[*i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                *i += 1;
            } else {
                break;
            }
        }
        if *i == ls {
            return Err(err("expected label name"));
        }
        let lname = line[ls..*i].to_string();
        if *i >= bytes.len() || bytes[*i] != b'=' {
            return Err(err("expected '=' after label name"));
        }
        *i += 1;
        if *i >= bytes.len() || bytes[*i] != b'"' {
            return Err(err("expected '\"' starting label value"));
        }
        *i += 1;
        let mut value = String::new();
        loop {
            if *i >= bytes.len() {
                return Err(err("unterminated label value"));
            }
            match bytes[*i] {
                b'"' => {
                    *i += 1;
                    break;
                }
                b'\\' => {
                    *i += 1;
                    if *i >= bytes.len() {
                        return Err(err("dangling escape in label value"));
                    }
                    match bytes[*i] {
                        b'n' => value.push('\n'),
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        other => {
                            value.push('\\');
                            value.push(other as char);
                        }
                    }
                    *i += 1;
                }
                _ => {
                    // Consume one UTF-8 char.
                    let rest = &line[*i..];
                    let c = rest.chars().next().unwrap();
                    value.push(c);
                    *i += c.len_utf8();
                }
            }
        }
        builder = builder.label(lname, value);
        // After a pair: ',' or '}'.
        while *i < bytes.len() && bytes[*i] == b' ' {
            *i += 1;
        }
        if *i < bytes.len() && bytes[*i] == b',' {
            *i += 1;
            continue;
        }
        if *i < bytes.len() && bytes[*i] == b'}' {
            *i += 1;
            break;
        }
        return Err(err("expected ',' or '}' in label set"));
    }
    Ok(builder.build())
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => s.parse::<f64>().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_families;
    use crate::labels;
    use crate::model::{Metric, MetricFamily, MetricType, Sample};

    #[test]
    fn parse_simple() {
        let doc = "# HELP up is up\n# TYPE up gauge\nup{instance=\"n1\"} 1\nup{instance=\"n2\"} 0 1700000000000\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.types["up"], MetricType::Gauge);
        assert_eq!(parsed.help["up"], "is up");
        assert_eq!(parsed.samples[0].labels.get("instance"), Some("n1"));
        assert_eq!(parsed.samples[1].timestamp_ms, Some(1700000000000));
    }

    #[test]
    fn parse_no_labels_and_special_values() {
        let doc = "a 1\nb NaN\nc +Inf\nd -Inf\ne 1e3\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 5);
        assert!(parsed.samples[1].value.is_nan());
        assert_eq!(parsed.samples[2].value, f64::INFINITY);
        assert_eq!(parsed.samples[4].value, 1000.0);
    }

    #[test]
    fn parse_escaped_label_values() {
        let doc = "m{p=\"a\\\"b\\nc\\\\d\"} 2\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples[0].labels.get("p"), Some("a\"b\nc\\d"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "good 1\n{oops} 2\n";
        let e = parse_text(doc).unwrap_err();
        assert_eq!(e.line, 2);

        assert!(parse_text("m{a=} 1\n").is_err());
        assert!(parse_text("m{a=\"x} 1\n").is_err());
        assert!(parse_text("m 1 2 3\n").is_err());
        assert!(parse_text("m notanumber\n").is_err());
        assert!(parse_text("m{a=\"x\"\"b\"} 1\n").is_err());
    }

    #[test]
    fn roundtrip_through_encoder() {
        let mut fam = MetricFamily::new("lat", "latency", MetricType::Histogram);
        fam.metrics.push(Metric::suffixed(
            labels! {"le" => "0.5"},
            Sample::now(3.0),
            "_bucket",
        ));
        fam.metrics
            .push(Metric::suffixed(labels! {}, Sample::now(42.5), "_sum"));
        let text = encode_families(&[fam]);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.samples[0].name, "lat_bucket");
        assert_eq!(parsed.samples[1].name, "lat_sum");
        assert_eq!(parsed.samples[1].value, 42.5);
        assert_eq!(parsed.types["lat"], MetricType::Histogram);
    }

    #[test]
    fn parse_exemplar_suffix() {
        let doc = "lat_bucket{le=\"0.5\"} 3 # {trace_id=\"deadbeef\"} 0.043\n\
                   lat_bucket{le=\"+Inf\"} 4 1700000000000 # {trace_id=\"cafe\"} 1.5 1700000000.5\n\
                   plain 7\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 3);
        let ex = parsed.samples[0].exemplar.as_ref().unwrap();
        assert_eq!(ex.labels.get("trace_id"), Some("deadbeef"));
        assert_eq!(ex.value, 0.043);
        assert_eq!(parsed.samples[0].value, 3.0);
        let ex2 = parsed.samples[1].exemplar.as_ref().unwrap();
        assert_eq!(ex2.labels.get("trace_id"), Some("cafe"));
        assert_eq!(parsed.samples[1].timestamp_ms, Some(1700000000000));
        assert!(parsed.samples[2].exemplar.is_none());

        // A '#' inside a quoted label value does not start an exemplar.
        let tricky = parse_text("m{q=\"a # {b}\"} 2\n").unwrap();
        assert_eq!(tricky.samples[0].labels.get("q"), Some("a # {b}"));
        assert!(tricky.samples[0].exemplar.is_none());

        // Malformed exemplars are rejected.
        assert!(parse_text("m 1 # nolabels 2\n").is_err());
        assert!(parse_text("m 1 # {trace_id=\"x\"}\n").is_err());
        assert!(parse_text("m 1 # {trace_id=\"x\"} 1 2 3\n").is_err());
    }

    #[test]
    fn exemplar_roundtrip_through_encoder() {
        use crate::model::Exemplar;
        let mut fam = MetricFamily::new("lat", "", MetricType::Histogram);
        fam.metrics.push(
            Metric::suffixed(labels! {"le" => "0.5"}, Sample::now(3.0), "_bucket")
                .with_exemplar(Some(Exemplar::new("0123456789abcdef", 0.25))),
        );
        let text = encode_families(&[fam]);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.samples.len(), 1);
        let ex = parsed.samples[0].exemplar.as_ref().unwrap();
        assert_eq!(ex.labels.get("trace_id"), Some("0123456789abcdef"));
        assert_eq!(ex.value, 0.25);
    }

    #[test]
    fn series_text_is_what_the_parser_consumes() {
        let lines = [
            "a 1",
            "x:y_z 1 100",
            "m{} 1",
            "m{ a=\"1\" , b=\"2\" } 1",
            "m{b=\"x}y\",c=\"q\\\"}\"} 2 # {t=\"1\"} 3",
            "m{v=\"#1 # {n=\\\"e\\\"}\"} NaN",
            "m{v=\"back\\\\slash\\n\"} -Inf 5",
        ];
        for line in lines {
            let (name, labels, len) = parse_series(line, 1).unwrap();
            assert_eq!(series_text_len(line), len, "{line}");
            let tail = parse_sample_tail(&line[len..], 1).unwrap();
            let full = parse_text(line).unwrap().samples.remove(0);
            assert_eq!((full.name, full.labels), (name, labels), "{line}");
            assert_eq!(full.value.to_bits(), tail.value.to_bits(), "{line}");
            assert_eq!(full.timestamp_ms, tail.timestamp_ms, "{line}");
            assert_eq!(full.exemplar, tail.exemplar, "{line}");
        }
        // No closing brace: the whole line; the parser rejects it.
        assert_eq!(series_text_len("m{a=\"}"), 6);
        assert!(parse_series("m{a=\"}", 1).is_err());
        assert_eq!(
            sample_lines("# c\n\na 1\r\nb 2\n").collect::<Vec<_>>(),
            vec![(3, "a 1"), (4, "b 2")]
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = "\n# arbitrary comment\n# EOF\nx 1\n\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 1);
    }
}
