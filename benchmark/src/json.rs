//! Just enough JSON for the two flat documents the benchmark reads back:
//! the gateway's `/route` body and its own result line.

/// The raw value of `"key": <value>` in a flat object: a quoted string
/// (quotes kept), an array (brackets kept) or a bare token.
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = obj[obj.find(&needle)? + needle.len()..].trim_start();
    let end = match rest.as_bytes().first()? {
        b'"' => rest[1..].find('"')? + 2,
        b'[' => rest.find(']')? + 1,
        _ => rest.find([',', '}']).unwrap_or(rest.len()),
    };
    Some(rest[..end].trim_end())
}

/// Parses `[1, 2, 3]`.
pub fn u32_array(raw: &str) -> Option<Vec<u32>> {
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|t| t.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_gateway_route_body() {
        let body = "{\"city\": 1, \"from\": 12, \"to\": 7, \"departure_s\": 30150.0, \
                    \"served\": \"truth_hit\", \"resolution\": null, \"confidence\": 0.6, \
                    \"travel_time_s\": 81.5, \"length_m\": 900.25, \"nodes\": [12, 13, 7]}";
        assert_eq!(field(body, "from"), Some("12"));
        assert_eq!(field(body, "served"), Some("\"truth_hit\""));
        assert_eq!(field(body, "confidence"), Some("0.6"));
        assert_eq!(
            u32_array(field(body, "nodes").unwrap()),
            Some(vec![12, 13, 7])
        );
        assert_eq!(field(body, "length_m"), Some("900.25"));
        assert_eq!(field(body, "absent"), None);
        assert_eq!(u32_array("[]"), Some(vec![]));
        assert_eq!(u32_array("[1, x]"), None);
    }
}
