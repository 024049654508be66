//! Findings, the rule catalog, fingerprints, and the `gsu-lint-v2` JSONL
//! schema.
//!
//! A [`Finding`] is one rule violation at one location. Its **fingerprint**
//! is an FNV-1a hash of the rule id, the location with any trailing
//! line/column numbers stripped, and the message — stable across unrelated
//! edits that only shift positions, which is what makes a committed
//! `lint.allow` practical. v2 locations carry `path:line:col`; stripping up
//! to two trailing numeric segments keeps every v1 (`path:line`)
//! fingerprint byte-identical, so existing allowlists keep working.

use std::collections::BTreeSet;
use std::fmt;

use telemetry::json;

/// Version tag carried by every JSONL record.
pub const SCHEMA: &str = "gsu-lint-v2";

/// The previous schema tag; [`parse_jsonl_line`] still accepts it so
/// pre-v2 findings files (and archived results) remain readable.
pub const SCHEMA_V1: &str = "gsu-lint-v1";

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but never fails the gate.
    Warn,
    /// Fails the gate (exit 1) unless suppressed by `lint.allow`.
    Deny,
}

impl Severity {
    /// The lowercase wire name (`"warn"` / `"deny"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses the wire name back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which pass produces a rule's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The lexical source-policy pass over workspace `.rs` files.
    Source,
    /// The symbol-/dataflow-aware pass over the parsed item structure.
    Symbol,
    /// The model-semantics pass over constructed GSU models.
    Model,
    /// The differential runtime sanitizer (`gsu-lint sanitize`).
    Runtime,
}

/// One entry of the rule catalog.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, used in reports, JSONL, and `lint.allow` notes.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Producing pass.
    pub layer: Layer,
    /// One-line description shown by `--list-rules`.
    pub summary: &'static str,
}

/// The complete rule catalog. Rule ids in JSONL records must come from this
/// table; `parse_jsonl_line` rejects unknown ids.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "unsafe-block",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "no `unsafe` anywhere in workspace code (vendored crates excluded)",
    },
    RuleInfo {
        id: "forbid-unsafe",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "every non-vendor library crate root must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "no-unwrap",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "no .unwrap()/.expect()/panic! in library code outside #[cfg(test)] \
                  (unreachable!/debug_assert! stay available for invariants)",
    },
    RuleInfo {
        id: "no-env-var",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "no direct env::var outside the sanctioned config modules",
    },
    RuleInfo {
        id: "float-eq",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "no ==/!= against a non-zero float literal; use a tolerance helper \
                  (sparsela::vector::approx_eq)",
    },
    RuleInfo {
        id: "no-print",
        severity: Severity::Deny,
        layer: Layer::Source,
        summary: "no println!/eprintln! in library crates; route through telemetry::log",
    },
    RuleInfo {
        id: "hash-iteration",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "no iteration (iter/keys/values/into_iter/drain/for-in/extend-from) over a \
                  HashMap/HashSet in a result-affecting crate; lookup-only maps stay legal",
    },
    RuleInfo {
        id: "wall-clock",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "no Instant::now/SystemTime in library code outside telemetry/bench/serve \
                  (results must be pure functions of inputs)",
    },
    RuleInfo {
        id: "thread-id",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "no thread::current().id() logic in library code; which worker runs a task \
                  is schedule-dependent",
    },
    RuleInfo {
        id: "guard-across-spawn",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "no Mutex/RwLock guard held across a pool spawn/map_indexed call \
                  (deadlock-by-schedule hazard)",
    },
    RuleInfo {
        id: "blocking-io-handler",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "no blocking filesystem I/O inside serve request handlers off the accept \
                  path; cache at startup instead",
    },
    RuleInfo {
        id: "lock-order-inversion",
        severity: Severity::Deny,
        layer: Layer::Symbol,
        summary: "two locks of one crate are acquired in both nesting orders \
                  (A-then-B and B-then-A)",
    },
    RuleInfo {
        id: "sanitize-mismatch",
        severity: Severity::Deny,
        layer: Layer::Runtime,
        summary: "a differential schedule run (threads x permuted wake order) produced \
                  bitwise-different results for the same inputs",
    },
    RuleInfo {
        id: "checked-float",
        severity: Severity::Deny,
        layer: Layer::Runtime,
        summary: "a sparsela kernel produced NaN/Inf/denormal output under checked-float \
                  mode (debug builds)",
    },
    RuleInfo {
        id: "model-build",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a GSU reward model failed to build or generate its state space",
    },
    RuleInfo {
        id: "ctmc-row-sum",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a generator row does not sum to ~0",
    },
    RuleInfo {
        id: "ctmc-negative-rate",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a generator off-diagonal entry is negative",
    },
    RuleInfo {
        id: "ctmc-nonfinite",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a generator entry is NaN or infinite",
    },
    RuleInfo {
        id: "ctmc-not-irreducible",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a chain handed to the steady-state solver is not a unichain \
                  (more than one closed recurrent class)",
    },
    RuleInfo {
        id: "ctmc-no-absorbing",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a chain solved as absorbing has no absorbing state",
    },
    RuleInfo {
        id: "ctmc-absorbing-unreachable",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a state of an absorbing chain cannot reach any absorbing state",
    },
    RuleInfo {
        id: "san-dead-activity",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a timed activity never fires in the tangible chain",
    },
    RuleInfo {
        id: "san-place-bound",
        severity: Severity::Warn,
        layer: Layer::Model,
        summary: "a place exceeds the expected token bound (GSU models are safe nets)",
    },
    RuleInfo {
        id: "san-enabling-eval",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "rate evaluation failed in a reachable marking (negative/non-finite rate)",
    },
    RuleInfo {
        id: "san-case-probability",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "case-probability evaluation failed in a reachable marking",
    },
    RuleInfo {
        id: "reward-zero-support",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a reward predicate holds in no reachable marking",
    },
    RuleInfo {
        id: "reward-nonfinite",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a reward rate is NaN or infinite in a reachable marking",
    },
    RuleInfo {
        id: "params-domain",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a GsuParams field is outside its domain",
    },
    RuleInfo {
        id: "params-phi-range",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a guarded-operation duration phi lies outside [0, theta]",
    },
    RuleInfo {
        id: "scenario-parse",
        severity: Severity::Deny,
        layer: Layer::Model,
        summary: "a committed .gsu scenario fails to parse, load, or match its file stem",
    },
];

/// Looks a rule up by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One rule violation at one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: String,
    /// Effective severity.
    pub severity: Severity,
    /// `path:line` for source findings; a model path such as
    /// `model RMGd / activity 'recover'` for semantic ones.
    pub location: String,
    /// What is wrong, naming the offending token/state/parameter.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl Finding {
    /// Creates a finding with the catalog severity of `rule` (deny when the
    /// rule id is unknown — failing closed beats failing open).
    pub fn new(
        rule: &str,
        location: impl Into<String>,
        message: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Finding {
        Finding {
            rule: rule.to_string(),
            severity: rule_info(rule).map_or(Severity::Deny, |r| r.severity),
            location: location.into(),
            message: message.into(),
            suggestion: suggestion.into(),
        }
    }

    /// The location with up to two trailing `:<digits>` segments stripped
    /// (`:line` in v1 locations, `:line:col` in v2 ones), so fingerprints
    /// survive edits that only shift positions. One-segment v1 locations
    /// strip to the same key as before — the second pass is a no-op on a
    /// path ending in `.rs` — which keeps v1 fingerprints byte-identical.
    pub fn fingerprint_key(&self) -> &str {
        let mut key = self.location.as_str();
        for _ in 0..2 {
            match key.rsplit_once(':') {
                Some((head, tail))
                    if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) =>
                {
                    key = head;
                }
                _ => break,
            }
        }
        key
    }

    /// FNV-1a fingerprint of (rule, line-less location, message).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for part in [self.rule.as_str(), self.fingerprint_key(), &self.message] {
            h = fnv1a(h, part.as_bytes());
            h = fnv1a(h, &[0]);
        }
        h
    }

    /// Renders the finding as one `gsu-lint-v1` JSONL record.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"rule\":\"{}\",\"severity\":\"{}\",\
             \"location\":\"{}\",\"message\":\"{}\",\"suggestion\":\"{}\",\
             \"fingerprint\":\"{:016x}\"}}",
            json::escape(&self.rule),
            self.severity,
            json::escape(&self.location),
            json::escape(&self.message),
            json::escape(&self.suggestion),
            self.fingerprint()
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Parses and validates one `gsu-lint-v1` JSONL record: the schema tag must
/// match, the rule id must be in the catalog, the severity must parse, and
/// the embedded fingerprint must equal the recomputed one. This makes the
/// round-trip check in CI an end-to-end integrity test, not a syntax check.
pub fn parse_jsonl_line(line: &str) -> Result<Finding, String> {
    let record = json::parse(line)?;
    let get = |key: &str| record.string(key);
    let schema = get("schema")?;
    if schema != SCHEMA && schema != SCHEMA_V1 {
        return Err(format!(
            "schema {schema:?}, expected {SCHEMA:?} (or legacy {SCHEMA_V1:?})"
        ));
    }
    let rule = get("rule")?;
    let info = rule_info(rule).ok_or_else(|| format!("unknown rule id {rule:?}"))?;
    let severity = get("severity")?;
    let severity =
        Severity::parse(severity).ok_or_else(|| format!("unknown severity {severity:?}"))?;
    // The fingerprint does not cover severity, so pin it to the catalog:
    // a record downgrading a deny rule to warn is a tampered record.
    if severity != info.severity {
        return Err(format!(
            "severity {severity} does not match the catalog severity {} for rule {rule}",
            info.severity
        ));
    }
    let finding = Finding {
        rule: rule.to_string(),
        severity,
        location: get("location")?.to_string(),
        message: get("message")?.to_string(),
        suggestion: get("suggestion")?.to_string(),
    };
    let claimed = get("fingerprint")?;
    let expected = format!("{:016x}", finding.fingerprint());
    if claimed != expected {
        return Err(format!(
            "fingerprint {claimed} does not match recomputed {expected} for rule {rule}"
        ));
    }
    Ok(finding)
}

/// A committed suppression list (`lint.allow`): one 16-hex-digit
/// fingerprint per line, `#` comments and blank lines ignored, anything
/// after the fingerprint treated as a note.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: BTreeSet<u64>,
}

impl Allowlist {
    /// Parses the file contents.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line — a typo'd fingerprint silently
    /// suppressing nothing would defeat the gate.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = BTreeSet::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let token = line.split_whitespace().next().unwrap_or_default();
            if token.len() != 16 || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "lint.allow line {}: expected a 16-hex-digit fingerprint, got {token:?}",
                    i + 1
                ));
            }
            let value = u64::from_str_radix(token, 16)
                .map_err(|_| format!("lint.allow line {}: unparsable fingerprint", i + 1))?;
            entries.insert(value);
        }
        Ok(Allowlist { entries })
    }

    /// Number of suppressions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no suppressions are listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `finding` is suppressed.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.contains(&finding.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding::new(
            "no-unwrap",
            "crates/demo/src/lib.rs:42",
            "`.unwrap()` in library code",
            "propagate the error or use unwrap_or_else",
        )
    }

    #[test]
    fn catalog_ids_are_unique() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(
                RULES.iter().skip(i + 1).all(|s| s.id != r.id),
                "duplicate rule id {}",
                r.id
            );
        }
    }

    #[test]
    fn fingerprint_ignores_line_numbers() {
        let a = sample();
        let mut b = sample();
        b.location = "crates/demo/src/lib.rs:9000".to_string();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.message = "different".to_string();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_line_and_column() {
        let mut a = sample();
        a.location = "crates/demo/src/lib.rs:42:7".to_string();
        let mut b = sample();
        b.location = "crates/demo/src/lib.rs:9000:1".to_string();
        assert_eq!(a.fingerprint_key(), "crates/demo/src/lib.rs");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A v1 single-segment location strips to the same key, so the v2
        // strip rule does not invalidate existing allowlists.
        assert_eq!(a.fingerprint(), sample().fingerprint());
    }

    #[test]
    fn legacy_v1_records_still_parse() {
        let line = sample().to_jsonl().replace(SCHEMA, SCHEMA_V1);
        let back = parse_jsonl_line(&line).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn model_locations_fingerprint_whole() {
        let f = Finding::new("san-dead-activity", "model RMGd / activity 'x'", "m", "s");
        assert_eq!(f.fingerprint_key(), "model RMGd / activity 'x'");
    }

    #[test]
    fn jsonl_round_trips() {
        let f = Finding::new(
            "float-eq",
            "crates/demo/src/lib.rs:7",
            "`==` against float literal 1.5 with a \"quote\", a \\ backslash,\na newline, a\ttab and {\"braces\":1}",
            "use approx_eq(a, b, tol)",
        );
        let line = f.to_jsonl();
        let back = parse_jsonl_line(&line).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn parse_rejects_tampering() {
        let line = sample().to_jsonl();
        assert!(parse_jsonl_line(&line.replace("no-unwrap", "made-up-rule")).is_err());
        assert!(parse_jsonl_line(&line.replace("deny", "fatal")).is_err());
        // Changing the message invalidates the fingerprint.
        assert!(parse_jsonl_line(&line.replace("library code", "library kode")).is_err());
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line("{\"schema\":\"gsu-lint-v0\"}").is_err());
        // A field that is not a string is not a record.
        assert!(parse_jsonl_line(&line.replace("\"deny\"", "1")).is_err());
        assert!(parse_jsonl_line(&format!("{line} trailing")).is_err());
    }

    #[test]
    fn allowlist_parses_and_suppresses() {
        let f = sample();
        let text = format!(
            "# suppressions\n{:016x}  no-unwrap demo\n\n",
            f.fingerprint()
        );
        let allow = Allowlist::parse(&text).unwrap();
        assert_eq!(allow.len(), 1);
        assert!(allow.allows(&f));
        let other = Finding::new("no-print", "x", "y", "z");
        assert!(!allow.allows(&other));
        assert!(Allowlist::parse("zz\n").is_err());
        assert!(Allowlist::parse("1234\n").is_err());
        assert!(Allowlist::parse("").unwrap().is_empty());
    }
}
