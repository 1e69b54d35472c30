//! A minimal JSON object/array writer for the cold-path exports
//! (`/stats`, `/trace`, `/healthz`): one [`JsonObject::field`] call per
//! pair, so a key can never drift from its value the way a positional
//! `format!` argument list lets it. Keys and string values are static
//! snake_case names, so nothing here escapes.

use std::fmt::{Display, Write};

/// An object under construction; renders as `{"k": v, "k2": v2}`.
#[derive(Debug)]
pub struct JsonObject(String);

/// Opens an empty object.
pub fn object() -> JsonObject {
    JsonObject(String::from("{"))
}

impl JsonObject {
    /// Appends `"key": value`. `value` is written verbatim: a number, a
    /// boolean, `null`, or an already-rendered object or array (pass
    /// `format_args!("{x:.1}")` to fix a float's precision).
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        let sep = if self.0.len() > 1 { ", " } else { "" };
        write!(self.0, "{sep}\"{key}\": {value}").expect("writing to a String cannot fail");
        self
    }

    /// Appends `"key": "value"`.
    pub fn string(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Renders already-rendered items as `[a, b, c]`.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// Renders `Some(v)` through `render`, `None` as `null`.
pub fn or_null<T>(value: Option<&T>, render: impl FnOnce(&T) -> String) -> String {
    value.map_or_else(|| "null".to_string(), render)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_nulls_render_with_comma_space_separators() {
        assert_eq!(object().finish(), "{}");
        let inner = object().field("n", 1).string("s", "x").finish();
        assert_eq!(inner, "{\"n\": 1, \"s\": \"x\"}");
        let outer = object()
            .field("f", format_args!("{:.1}", 2.26))
            .field("o", &inner)
            .field("a", array([inner.clone(), "3".to_string()]))
            .field("none", or_null(None::<&u8>, |v| v.to_string()))
            .finish();
        assert_eq!(
            outer,
            "{\"f\": 2.3, \"o\": {\"n\": 1, \"s\": \"x\"}, \
             \"a\": [{\"n\": 1, \"s\": \"x\"}, 3], \"none\": null}"
        );
        assert_eq!(array([]), "[]");
    }
}
