//! The one JSON emitter behind every `BENCH_<suite>.json` artifact.
//!
//! Field order is insertion order. An object or array whose members are
//! all scalars prints on one line (`{"k": v, "k2": v2}`), so a pinned
//! row stays greppable as a single line of text; anything nested prints
//! one member per line, indented by two spaces.

/// A JSON value. Numbers and literals are kept pre-rendered, so each call
/// site picks its own precision (see [`Json::fixed`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, `true`/`false` or `null`, already rendered.
    Raw(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Build a [`Json::Obj`]: `obj! { "k" => v, … }`, each value converted
/// with `Json::from`.
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$((String::from($k), $crate::json::Json::from($v))),*])
    };
}
pub(crate) use obj;

impl Json {
    /// A float with `digits` decimal places.
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Raw(format!("{x:.digits$}"))
    }

    /// `null`.
    pub fn null() -> Json {
        Json::Raw("null".into())
    }

    /// The rendered document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        matches!(self, Json::Raw(_) | Json::Str(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let inline = members.iter().all(|(_, v)| v.is_scalar());
        out.push(open);
        for (i, (key, v)) in members.iter().enumerate() {
            if inline {
                out.push_str(if i > 0 { ", " } else { "" });
            } else {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&" ".repeat(indent + 2));
            }
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, indent + 2);
        }
        if !inline && !members.is_empty() {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! raw_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Raw(v.to_string())
            }
        }
    )*};
}
raw_from!(bool, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(Json::null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rows_print_on_one_line() {
        let doc = obj! {
            "bench" => "diag",
            "rows" => vec![obj! { "pred" => "h", "live" => 41u64, "tightness" => Json::null() }],
            "mirror" => obj! { "legacy" => "unbounded", "frontier" => 4800u64 },
            "grid" => vec![10u32, 5],
            "empty" => Vec::<Json>::new(),
        };
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"diag\",\n  \"rows\": [\n    \
             {\"pred\": \"h\", \"live\": 41, \"tightness\": null}\n  ],\n  \
             \"mirror\": {\"legacy\": \"unbounded\", \"frontier\": 4800},\n  \
             \"grid\": [10, 5],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"\n");
        assert_eq!(Json::fixed(1.0 / 3.0, 2).render(), "0.33\n");
    }
}
