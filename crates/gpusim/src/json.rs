//! The one JSON writer every report renders through.
//!
//! A [`Json`] value is built structurally and rendered once with
//! [`Json::render`]. Numbers are stored as finished tokens: each field
//! picks its precision when the value is built ([`Json::fixed`] for
//! `{:.N}`, [`Json::sci`] for `{:.Ne}`, `From` for integers), so the
//! writer itself has no precision, indent or style option.
//!
//! Layout rule: a container that is empty or holds only scalars renders
//! on one line (`{"k": v, "k2": w}`, `[a, b]`); any other container puts
//! each member on its own line, indented two spaces per nesting level.
//! Object keys keep insertion order.

use std::fmt::Write as _;

/// A JSON document or fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, already formatted as its JSON token.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// `x` with `digits` fractional digits (`{:.digits}`).
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Num(format!("{x:.digits$}"))
    }

    /// `x` in scientific notation with `digits` fractional digits
    /// (`{:.digits$e}`, e.g. `3.300000e-5`).
    pub fn sci(x: f64, digits: usize) -> Json {
        Json::Num(format!("{x:.digits$e}"))
    }

    /// An empty object; add fields with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An array of the converted items.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key, value.into())),
            other => panic!("JSON field {key:?} added to a non-object: {other:?}"),
        }
        self
    }

    /// The document text, laid out by the module's one rule.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(token) => return out.push_str(token),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let nested = members
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        out.push(open);
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if nested {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if nested {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `text` with every whitespace character outside string literals
/// removed: how tests compare documents independently of layout.
pub fn minify(text: &str) -> String {
    let (mut in_str, mut escaped) = (false, false);
    text.chars()
        .filter(|&c| {
            if in_str {
                (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
            } else if c == '"' {
                in_str = true;
            }
            in_str || c == '"' || !c.is_whitespace()
        })
        .collect()
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from!(
    u32 => |n| Json::Num(n.to_string()),
    u64 => |n| Json::Num(n.to_string()),
    usize => |n| Json::Num(n.to_string()),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    &String => |s| Json::Str(s.clone()),
);

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping() {
        let s = |text: &str| Json::from(text).render();
        assert_eq!(s("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(s("\r\t\u{1}"), r#""\r\t\u0001""#);
        assert_eq!(s("plain"), "\"plain\"");
    }

    #[test]
    fn layout_rule_and_number_tokens() {
        assert_eq!(Json::arr(Vec::<Json>::new()).render(), "[]");
        assert_eq!(Json::obj().render(), "{}");
        let scalars = Json::obj()
            .field("ok", true)
            .field("none", None::<u32>)
            .field("s", Json::sci(0.0, 6));
        assert_eq!(
            scalars.render(),
            r#"{"ok": true, "none": null, "s": 0.000000e0}"#
        );
        let rows = Json::arr([Json::sci(3.3e-5, 6), Json::obj(), Json::fixed(0.875, 4)]);
        let doc = Json::obj().field("rows", rows).field("n", 7u64).render();
        assert_eq!(
            doc,
            "{\n  \"rows\": [\n    3.300000e-5,\n    {},\n    0.8750\n  ],\n  \"n\": 7\n}"
        );
        assert_eq!(minify(&doc), r#"{"rows":[3.300000e-5,{},0.8750],"n":7}"#);
        assert_eq!(minify(r#"{ "a b": "x\" y" }"#), r#"{"a b":"x\" y"}"#);
    }
}
