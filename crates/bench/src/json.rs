//! The one JSON writer behind every `BENCH_*.json` artifact.
//!
//! It places every comma, newline, two-space indent and quote; callers
//! preformat numbers ([`fixed`], or `Display` through `From`) so each
//! field keeps the precision its artifact documents. A document is a
//! [`Json::Block`] object: one line per field, nested blocks and
//! [`Json::Rows`] arrays indented one level deeper, and [`Json::Inline`]
//! objects and [`Json::List`] arrays written on one line as values.

use paris_elsa::obs::escape_json;

/// A JSON value and its layout.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number, boolean or `null`, written as given.
    Raw(String),
    /// A string, quoted and escaped.
    Str(String),
    /// An array on one line: `[1, 2]`.
    List(Vec<Json>),
    /// An array with one element per line.
    Rows(Vec<Json>),
    /// An object on one line: `{"a": 1, "b": 2}`.
    Inline(Obj),
    /// An object with one line per [`Obj::field`] (or [`Obj::line`]).
    Block(Obj),
}

/// An object's fields in order, grouped into the lines a [`Json::Block`]
/// writes.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<Vec<(String, Json)>>);

/// `x` with `decimals` digits after the point.
#[must_use]
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Raw(format!("{x:.decimals$}"))
}

impl Json {
    /// A one-line array of `items`.
    pub fn list<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::List(items.into_iter().map(Into::into).collect())
    }

    /// An array of `items`, one per line.
    pub fn rows<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Rows(items.into_iter().map(Into::into).collect())
    }

    fn write(&self, out: &mut String, depth: usize) {
        let field = |out: &mut String, (key, value): &(String, Json), depth| {
            out.push_str(&format!("\"{}\": ", escape_json(key)));
            value.write(out, depth);
        };
        match self {
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => out.push_str(&format!("\"{}\"", escape_json(s))),
            Json::List(items) => {
                out.push('[');
                join(out, items, ", ", |out, item| item.write(out, depth));
                out.push(']');
            }
            Json::Inline(obj) => {
                out.push('{');
                join(out, obj.0.iter().flatten(), ", ", |out, f| {
                    field(out, f, depth)
                });
                out.push('}');
            }
            Json::Rows(items) => {
                out.push('[');
                join(out, items, ",", |out, item| {
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                });
                indent(out, depth);
                out.push(']');
            }
            Json::Block(obj) => {
                out.push('{');
                join(out, &obj.0, ",", |out, line| {
                    indent(out, depth + 1);
                    join(out, line, ", ", |out, f| field(out, f, depth + 1));
                });
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Writes each of `items`, with `separator` between two.
fn join<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    separator: &str,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        write(out, item);
    }
}

/// Starts a new line `depth` levels deep.
fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

impl Obj {
    /// An object with no fields yet.
    #[must_use]
    pub fn new() -> Self {
        Obj::default()
    }

    /// Appends `key: value` on a line of its own.
    #[must_use]
    pub fn field(self, key: &str, value: impl Into<Json>) -> Self {
        self.line([(key, value.into())])
    }

    /// Appends `fields` on one shared line.
    #[must_use]
    pub fn line<'a>(mut self, fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        let line = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
        self.0.push(line.collect());
        self
    }

    /// The object as a document: block layout, then a final newline.
    #[must_use]
    pub fn render(self) -> String {
        let mut out = String::new();
        Json::Block(self).write(&mut out, 0);
        out.push('\n');
        out
    }
}

/// An object given as a value is written on one line.
impl From<Obj> for Json {
    fn from(obj: Obj) -> Self {
        Json::Inline(obj)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

macro_rules! raw_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Raw(x.to_string())
            }
        }
    )*};
}
raw_from_display!(bool, u64, u128, usize, i64, i128, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_pins_every_layout_the_artifacts_use() {
        let point = |x: f64| Obj::new().field("x", fixed(x, 3));
        let nested = Obj::new()
            .line([("calm", fixed(2.0, 1)), ("surge", fixed(3.04, 1))])
            .field("rows", Json::rows([point(0.25)]))
            .field("empty", Json::Rows(Vec::new()));
        let mode = Obj::new()
            .field("n", 2u64)
            .field("curve", Json::list([point(1.0)]));
        let doc = Obj::new()
            .field("schema", "demo/v1")
            .field("note", "say \"hi\"\n")
            .field("secs", 8.0)
            .field("ok", true)
            .field("pair", Json::list([4usize, 2]))
            .field("configs", Json::rows([point(1.0), point(0.5)]))
            .field("nested", Json::Block(nested))
            .field("mode", mode)
            .render();
        let expected = r#"{
  "schema": "demo/v1",
  "note": "say \"hi\"\n",
  "secs": 8,
  "ok": true,
  "pair": [4, 2],
  "configs": [
    {"x": 1.000},
    {"x": 0.500}
  ],
  "nested": {
    "calm": 2.0, "surge": 3.0,
    "rows": [
      {"x": 0.250}
    ],
    "empty": [
    ]
  },
  "mode": {"n": 2, "curve": [{"x": 1.000}]}
}
"#;
        assert_eq!(doc, expected);
    }
}
