//! Catalog loading and golden-curve persistence.
//!
//! A catalog is a directory of `.gsu` files; each scenario's analytic Y(φ)
//! curve is committed as a golden JSON file (`results/golden/<name>.json`,
//! schema `gsu-golden-v1`). Values are serialized through `f64`'s `Display`
//! — which round-trips exactly through `str::parse` — so goldens compare at
//! solver precision, and the deterministic parallel sweep keeps them
//! thread-count invariant.

use std::path::Path;

use telemetry::json;

use crate::ast::ScenarioSpec;
use crate::ScenarioError;

/// A golden Y(φ) curve for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCurve {
    /// The scenario name.
    pub scenario: String,
    /// `(φ, Y(φ))` points along the scenario's grid.
    pub points: Vec<(f64, f64)>,
}

impl GoldenCurve {
    /// Relative tolerance of a curve against its golden. The analytic
    /// pipeline is deterministic; the slack only absorbs cross-platform libm
    /// drift.
    pub const REL_TOL: f64 = 1e-9;

    /// Checks freshly computed `(φ, Y)` points against this golden: the same
    /// grid, and every `Y` within [`GoldenCurve::REL_TOL`] of the golden's,
    /// relative to `max(|Y_golden|, 1)`.
    ///
    /// # Errors
    ///
    /// A description of a length or grid mismatch, or of the first point
    /// out of tolerance.
    pub fn check(&self, fresh: &[(f64, f64)]) -> Result<f64, String> {
        if self.points.len() != fresh.len() {
            return Err(format!(
                "golden has {} point(s), analytic sweep produced {}",
                self.points.len(),
                fresh.len()
            ));
        }
        let mut max_rel_err = 0.0f64;
        for (&(gphi, gy), &(fphi, fy)) in self.points.iter().zip(fresh) {
            if gphi != fphi {
                return Err(format!(
                    "grid mismatch: golden phi {gphi}, scenario phi {fphi}"
                ));
            }
            let rel = (fy - gy).abs() / gy.abs().max(1.0);
            if rel > Self::REL_TOL {
                return Err(format!(
                    "Y({gphi}) = {fy} drifted from golden {gy} (rel err {rel:.2e} > {:.0e})",
                    Self::REL_TOL
                ));
            }
            max_rel_err = max_rel_err.max(rel);
        }
        Ok(max_rel_err)
    }

    /// Serializes the curve to its canonical JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gsu-golden-v1\",\n");
        out.push_str(&format!(
            "  \"scenario\": \"{}\",\n",
            json::escape(&self.scenario)
        ));
        out.push_str("  \"points\": [\n");
        for (i, (phi, y)) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!("    {{\"phi\": {phi}, \"y\": {y}}}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the canonical golden JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation. The parser is
    /// strict about the schema (tag, keys, and value types) but tolerant of
    /// whitespace.
    pub fn from_json(text: &str) -> Result<GoldenCurve, String> {
        let doc = json::parse(text)?;
        only_keys(&doc, &["schema", "scenario", "points"])?;
        match doc.string("schema") {
            Ok("gsu-golden-v1") => {}
            Ok(other) => return Err(format!("unsupported schema `{other}`")),
            Err(e) => return Err(e),
        }
        let points = doc
            .array("points")?
            .iter()
            .map(|point| {
                only_keys(point, &["phi", "y"])?;
                Ok((point.num("phi")?, point.num("y")?))
            })
            .collect::<Result<_, String>>()?;
        Ok(GoldenCurve {
            scenario: doc.string("scenario")?.to_string(),
            points,
        })
    }
}

/// Rejects a value that is not an object or has a key outside `allowed`.
fn only_keys(value: &json::Value, allowed: &[&str]) -> Result<(), String> {
    let members = value.as_object().ok_or("expected an object")?;
    match members.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((key, _)) => Err(format!("unknown key `{key}`")),
        None => Ok(()),
    }
}

/// Loads every `.gsu` scenario under `dir`, sorted by file name.
///
/// Each scenario's name must match its file stem, so the catalog key is
/// unambiguous across the bench, serve, and lint surfaces.
///
/// # Errors
///
/// Returns the first I/O failure, parse failure, or name mismatch in file
/// order.
pub fn load_dir(dir: &Path) -> Result<Vec<ScenarioSpec>, ScenarioError> {
    let io_err = |e: std::io::Error| ScenarioError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    };
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(io_err)?
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err)?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "gsu"))
        .collect();
    files.sort();

    let mut specs = Vec::with_capacity(files.len());
    for path in files {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| ScenarioError::Io {
            path: file.clone(),
            message: e.to_string(),
        })?;
        let spec = crate::parse(&text).map_err(|error| ScenarioError::Parse {
            file: file.clone(),
            error,
        })?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if spec.name != stem {
            return Err(ScenarioError::Invalid {
                file,
                message: format!(
                    "scenario name `{}` does not match file stem `{stem}`",
                    spec.name
                ),
            });
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Reads a golden curve from `path`.
///
/// # Errors
///
/// Returns I/O failures and JSON malformations.
pub fn read_golden(path: &Path) -> Result<GoldenCurve, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: file.clone(),
        message: e.to_string(),
    })?;
    GoldenCurve::from_json(&text).map_err(|message| ScenarioError::Invalid { file, message })
}

/// Writes a golden curve to `path` in canonical form.
///
/// # Errors
///
/// Returns I/O failures.
pub fn write_golden(path: &Path, curve: &GoldenCurve) -> Result<(), ScenarioError> {
    std::fs::write(path, curve.to_json()).map_err(|e| ScenarioError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_json_round_trips() {
        for scenario in ["x", "odd \"name\" \\ with\nbreak"] {
            let curve = GoldenCurve {
                scenario: scenario.to_string(),
                points: vec![(0.0, 1.0), (2500.5, 1.203_450_678_9), (1e4, 0.1 + 0.2)],
            };
            let back = GoldenCurve::from_json(&curve.to_json()).unwrap();
            assert_eq!(curve, back);
        }
    }

    #[test]
    fn committed_goldens_read_back_bit_for_bit() {
        // Each committed golden is the writer's output, so reading it and
        // writing it again must reproduce the file byte for byte: every
        // value read back to the bits it was written from.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let curve = read_golden(&path).unwrap();
            assert_eq!(curve.to_json(), text, "{}", path.display());
            seen += 1;
        }
        assert_eq!(seen, 14);
    }

    #[test]
    fn golden_json_rejects_malformations() {
        assert!(GoldenCurve::from_json("{}").is_err());
        assert!(GoldenCurve::from_json("not json").is_err());
        let wrong_schema = r#"{"schema": "v999", "scenario": "x", "points": []}"#;
        assert!(GoldenCurve::from_json(wrong_schema).is_err());
        let trailing = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": []} extra"#;
        assert!(GoldenCurve::from_json(trailing).is_err());
        let missing = r#"{"scenario": "x", "points": []}"#;
        assert!(GoldenCurve::from_json(missing).is_err());
        let unknown = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": [], "z": 1}"#;
        assert!(GoldenCurve::from_json(unknown).is_err());
        let point_key = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": [{"phi": 1, "y": 2, "w": 3}]}"#;
        assert!(GoldenCurve::from_json(point_key).is_err());
        let not_number =
            r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": [{"phi": 1, "y": null}]}"#;
        assert!(GoldenCurve::from_json(not_number).is_err());
    }

    fn golden(points: Vec<(f64, f64)>) -> GoldenCurve {
        GoldenCurve {
            scenario: "g".to_string(),
            points,
        }
    }

    #[test]
    fn check_accepts_exact_match() {
        let g = golden(vec![(0.0, 1.0), (10.0, 1.5)]);
        assert_eq!(g.check(&g.points), Ok(0.0));
    }

    #[test]
    fn check_rejects_drift_and_shape_mismatch() {
        let g = golden(vec![(0.0, 1.0), (10.0, 1.5)]);
        assert!(g.check(&[(0.0, 1.0), (10.0, 1.5 + 1e-6)]).is_err());
        assert!(g.check(&[(0.0, 1.0)]).is_err());
        assert!(g.check(&[(0.0, 1.0), (11.0, 1.5)]).is_err());
    }

    #[test]
    fn golden_json_accepts_empty_points() {
        let empty = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": []}"#;
        let curve = GoldenCurve::from_json(empty).unwrap();
        assert!(curve.points.is_empty());
    }
}
