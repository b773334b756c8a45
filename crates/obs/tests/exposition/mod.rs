//! The Prometheus text exposition-format grammar as a checker, plus the
//! hostile name and label pools the grammar property tests draw from.
//! Shared by `s3-obs`'s exporter test and `s3-ops`'s windowed-rate test.

/// Deterministic xorshift PRNG — no external crates.
pub struct Rng(pub u64);
impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Hostile-but-plausible name fragments, including chars outside the
/// Prometheus charset, leading digits, and empty-ish names.
pub const NAME_POOL: &[&str] = &[
    "query.latency",
    "9leading.digit",
    "weird-dash.name",
    "has space",
    "uni·code",
    "a",
    "_",
    "x:colon.ok",
];

/// Hostile label values: quotes, backslashes, newlines, unicode.
pub const VALUE_POOL: &[&str] = &[
    "plain",
    "with \"quotes\"",
    "back\\slash",
    "new\nline",
    "tab\there",
    "mixed \\ \" \n end",
    "ünïcode✓",
    "",
];

pub const LABEL_KEY_POOL: &[&str] = &["kind", "policy", "tier2", "algo"];

fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits a sample line into (name, labels, value); panics with context on
/// malformed lines.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, String) {
    let Some(open) = line.find('{') else {
        let mut it = line.splitn(2, ' ');
        let name = it.next().unwrap_or("").to_string();
        let value = it.next().unwrap_or_else(|| panic!("no value: {line:?}"));
        return (name, Vec::new(), value.to_string());
    };
    let name = line[..open].to_string();
    let rest = &line[open + 1..];
    // Scan the label block char by char, respecting escapes inside quotes.
    let mut labels = Vec::new();
    let mut chars = rest.char_indices();
    let end = 'outer: loop {
        // Label name up to '=' (or closing '}' for an empty tail).
        let mut key = String::new();
        for (i, c) in chars.by_ref() {
            match c {
                '=' => break,
                '}' => {
                    assert!(key.is_empty(), "dangling label name in {line:?}");
                    break 'outer Some(i);
                }
                ',' => continue,
                c => key.push(c),
            }
        }
        let (_, q) = chars.next().unwrap_or_else(|| panic!("eol in {line:?}"));
        assert_eq!(q, '"', "label value must be quoted: {line:?}");
        let mut val = String::new();
        let mut escaped = false;
        for (_, c) in chars.by_ref() {
            if escaped {
                assert!(
                    matches!(c, '\\' | '"' | 'n'),
                    "illegal escape \\{c} in {line:?}"
                );
                val.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                break;
            } else {
                assert!(c != '\n', "raw newline in label value: {line:?}");
                val.push(c);
            }
        }
        labels.push((key, val));
    };
    let end = end.unwrap_or_else(|| panic!("unterminated labels: {line:?}"));
    let value = rest[end + 1..].trim_start();
    assert!(!value.is_empty(), "no value: {line:?}");
    (name, labels, value.to_string())
}

/// Panics with context unless `text` is a valid Prometheus exposition.
pub fn check_exposition(text: &str) {
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    let mut bucket_state: std::collections::HashMap<String, (u64, bool)> =
        std::collections::HashMap::new();

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line emitted:\n{text}");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            assert!(is_valid_metric_name(name), "bad HELP name {name:?}");
            assert!(!helped.contains(&name.to_string()), "duplicate HELP {name}");
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            assert!(is_valid_metric_name(name), "bad TYPE name {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE kind {kind:?}"
            );
            assert!(
                helped.last() == Some(&name.to_string()),
                "TYPE {name} not directly after its HELP:\n{text}"
            );
            assert!(!typed.contains(&name.to_string()), "duplicate TYPE {name}");
            typed.push(name.to_string());
            continue;
        }
        let (name, labels, value) = parse_sample(line);
        assert!(is_valid_metric_name(&name), "bad sample name {name:?}");
        for (k, _) in &labels {
            assert!(is_valid_label_name(k), "bad label name {k:?} in {line:?}");
        }
        // The sample's base name (stripping histogram suffixes) must have
        // been declared before any of its samples.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                name.strip_suffix(s)
                    .filter(|b| typed.contains(&(*b).to_string()))
            })
            .map(|b| b.to_string())
            .unwrap_or_else(|| name.clone());
        assert!(
            typed.contains(&base),
            "sample {name} before TYPE declaration:\n{text}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable value {value:?} in {line:?}"
        );
        sampled.push(name.clone());

        if name.ends_with("_bucket") {
            let series_key: String = format!(
                "{name}|{}",
                labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("_bucket without le: {line:?}"));
            let count: u64 = value.parse().unwrap_or_else(|_| panic!("bucket {line:?}"));
            let entry = bucket_state.entry(series_key).or_insert((0, false));
            assert!(!entry.1, "bucket after +Inf: {line:?}");
            assert!(
                count >= entry.0,
                "buckets must be cumulative: {line:?} after {}",
                entry.0
            );
            entry.0 = count;
            if le == "+Inf" {
                entry.1 = true;
            }
        }
    }
    for (key, (_, closed)) in &bucket_state {
        assert!(closed, "bucket series {key} never reached le=\"+Inf\"");
    }
    assert!(!sampled.is_empty(), "no samples emitted:\n{text}");
}
