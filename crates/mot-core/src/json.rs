//! The workspace's one JSON writer.
//!
//! Every JSON text the suite prints — the `--metrics` report, the
//! `--trace` NDJSON lines, figure tables, histograms and ledgers, the
//! service report and the `bench-baseline` file — is written through
//! [`JsonWriter`], so a number is formatted one way ([`fmt_f64`]) and a
//! string escaped one way wherever it appears. The writer is compact
//! (no whitespace) and writes keys in the order they are given, so
//! identical runs print identical bytes.
//!
//! ```
//! use mot_core::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.object(|w| {
//!     w.field("x", 2.0).field("tags", ["a\"b"].as_slice());
//! });
//! assert_eq!(w.finish(), r#"{"x":2.0,"tags":["a\"b"]}"#);
//! ```

use mot_net::CacheLedger;

/// Renders an f64 the way every JSON export in the suite does: shortest
/// round-trippable form, so identical runs produce identical bytes.
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// A value [`JsonWriter`] can write.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Builds one compact JSON text, keys in the order written.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or array element needs a comma before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `value` as a JSON text.
    pub fn render(value: &(impl ToJson + ?Sized)) -> String {
        let mut w = JsonWriter::new();
        value.write_json(&mut w);
        w.finish()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Writes an object whose keys and values `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open('{', body, '}')
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open('[', body, ']')
    }

    fn open(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.escaped(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes `key` and its value.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key);
        value.write_json(self);
        self
    }

    fn null(&mut self) -> &mut Self {
        self.scalar("null")
    }

    fn scalar(&mut self, text: &str) -> &mut Self {
        self.separate();
        self.out.push_str(text);
        self.comma = true;
        self
    }

    /// Writes `s` as a JSON string: quotes, backslashes and control
    /// characters escaped, everything else as is.
    fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.escaped(s);
        self.comma = true;
        self
    }

    fn escaped(&mut self, s: &str) {
        let out = &mut self.out;
        out.reserve(s.len() + 2);
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.scalar(&fmt_f64(*self));
    }
}

macro_rules! integer_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.scalar(&self.to_string());
            }
        }
    )*};
}
integer_json!(u32, u64, usize);

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for v in self {
                v.write_json(w);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// A distance oracle's counters, as the service report and the
/// `--metrics` report both print them.
impl ToJson for CacheLedger {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("hits", self.hits)
                .field("misses", self.misses)
                .field("evictions", self.evictions)
                .field("promotions", self.promotions)
                .field("resident_rows", self.resident_rows)
                .field("resident_bytes", self.resident_bytes);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(value: impl ToJson) -> String {
        JsonWriter::render(&value)
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(text("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(text("line\nnext\ttab"), r#""line\nnext\ttab""#);
        assert_eq!(text("\u{1}\r\u{1f}"), r#""\u0001\u000d\u001f""#);
        assert_eq!(text("é ~ \u{7f}"), "\"é ~ \u{7f}\"");
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.field("k\"ey", 1u32);
        });
        assert_eq!(w.finish(), r#"{"k\"ey":1}"#);
    }

    #[test]
    fn numbers_print_in_fmt_f64_form() {
        assert_eq!(text(1.0), "1.0");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(1e20), "100000000000000000000");
        assert_eq!(text(-0.5), "-0.5");
        assert_eq!(text(1e15), "1000000000000000");
        assert_eq!(text(7u64), "7");
        assert_eq!(text(usize::MAX), usize::MAX.to_string());
    }

    #[test]
    fn empty_and_nested_containers() {
        let mut w = JsonWriter::new();
        w.object(|_| {});
        assert_eq!(w.finish(), "{}");
        assert_eq!(text(Vec::<u32>::new()), "[]");
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("a").array(|w| {
                1u32.write_json(w);
                w.object(|_| {}).array(|_| {}).null().object(|w| {
                    w.field("b", "c").field("d", [0.5].as_slice());
                });
            });
            w.field("e", Some(2.0)).key("f").null();
        });
        assert_eq!(
            w.finish(),
            r#"{"a":[1,{},[],null,{"b":"c","d":[0.5]}],"e":2.0,"f":null}"#
        );
    }
}
