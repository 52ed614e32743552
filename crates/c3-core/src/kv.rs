//! Plain-text `key=value` configuration codec.
//!
//! The coordinator ships configuration to `c3-live-node` replica
//! processes over argv/files, and the node discovery step parses
//! address files — both need a serialization format, and the vendored
//! dependency shims rule out serde. This module is that format: one
//! `key=value` pair per line, `#` starts a comment, blank lines are
//! skipped, duplicate keys are an error. Every config that crosses a
//! process boundary (`FleetConfig`, `NodeConfig`, the address file)
//! encodes and decodes through here, so the wire text stays one dialect.

use std::fmt;

/// A decoding failure, pointing at the offending line or key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// A line with content but no `=` separator.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The same key appeared twice.
    Duplicate {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A required key was absent.
    Missing(&'static str),
    /// A value failed to parse as the expected type.
    Invalid {
        /// The key whose value is bad.
        key: String,
        /// The unparseable value.
        value: String,
        /// What the decoder wanted (e.g. `"u64 nanoseconds or \"none\""`).
        expected: &'static str,
    },
    /// A key the decoder does not know (catches typos early instead of
    /// silently ignoring a mis-spelled knob).
    Unknown {
        /// The unrecognized key.
        key: String,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Malformed { line, text } => {
                write!(f, "line {line}: no `=` in {text:?}")
            }
            KvError::Duplicate { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            KvError::Missing(key) => write!(f, "missing required key {key:?}"),
            KvError::Invalid {
                key,
                value,
                expected,
            } => write!(f, "key {key:?}: {value:?} is not {expected}"),
            KvError::Unknown { key } => write!(f, "unknown key {key:?}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Parsed `key=value` pairs, in file order, with typed take-style
/// accessors. Decoders `take_*` the keys they know and finish with
/// [`KvMap::finish`], which rejects leftovers as [`KvError::Unknown`].
#[derive(Clone, Debug, Default)]
pub struct KvMap {
    pairs: Vec<(String, String)>,
}

impl KvMap {
    /// Parse the text form. Keys and values are trimmed; the value may
    /// contain `=` (only the first one splits).
    pub fn parse(text: &str) -> Result<Self, KvError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(KvError::Malformed {
                    line: i + 1,
                    text: line.to_string(),
                });
            };
            let key = key.trim().to_string();
            if key.is_empty() {
                return Err(KvError::Malformed {
                    line: i + 1,
                    text: line.to_string(),
                });
            }
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(KvError::Duplicate { line: i + 1, key });
            }
            pairs.push((key, value.trim().to_string()));
        }
        Ok(Self { pairs })
    }

    /// Whether no pairs were parsed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Remove and return a key's value, if present.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let at = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(at).1)
    }

    /// Take a key and parse it with `FromStr`; absent keys yield `Ok(None)`.
    pub fn take_parsed<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
        expected: &'static str,
    ) -> Result<Option<T>, KvError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| KvError::Invalid {
                key: key.to_string(),
                value: v,
                expected,
            }),
        }
    }

    /// Take a required key, parsed with `FromStr`.
    pub fn take_required<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
        expected: &'static str,
    ) -> Result<T, KvError> {
        self.take_parsed(key, expected)?
            .ok_or(KvError::Missing(key))
    }

    /// Fail on any key no `take_*` call claimed.
    pub fn finish(self) -> Result<(), KvError> {
        match self.pairs.into_iter().next() {
            None => Ok(()),
            Some((key, _)) => Err(KvError::Unknown { key }),
        }
    }
}

/// Render pairs in the canonical text form (one `key=value` per line,
/// trailing newline). The inverse of [`KvMap::parse`] for values free
/// of leading/trailing whitespace and newlines.
pub fn encode_kv<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_order() {
        let mut kv = KvMap::parse("# header\n\na=1\n b = two words \n").unwrap();
        assert_eq!(kv.take("a").as_deref(), Some("1"));
        assert_eq!(kv.take("b").as_deref(), Some("two words"));
        kv.finish().unwrap();
    }

    #[test]
    fn first_equals_splits() {
        let mut kv = KvMap::parse("addr=127.0.0.1:9000=x\n").unwrap();
        assert_eq!(kv.take("addr").as_deref(), Some("127.0.0.1:9000=x"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = KvMap::parse("a=1\na=2\n").unwrap_err();
        assert_eq!(
            err,
            KvError::Duplicate {
                line: 2,
                key: "a".to_string()
            }
        );
    }

    #[test]
    fn missing_separator_is_rejected() {
        assert!(matches!(
            KvMap::parse("just words\n"),
            Err(KvError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn unknown_keys_fail_finish() {
        let kv = KvMap::parse("typo_knob=1\n").unwrap();
        assert!(matches!(kv.finish(), Err(KvError::Unknown { .. })));
    }

    #[test]
    fn bad_typed_values_name_the_key() {
        let mut kv = KvMap::parse("retries=lots\n").unwrap();
        let err = kv.take_parsed::<u32>("retries", "a u32").unwrap_err();
        assert!(matches!(err, KvError::Invalid { ref key, .. } if key == "retries"));
    }
}
