//! Answer checks on popmond responses.

use popmond::json::Value;
use popmond::protocol::{self, Method, Mode, Request, SolveQuery};

/// Relative slack for float comparisons against `k · total_volume`.
const TOL: f64 = 1e-9;

/// What one checked response contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checked {
    /// The request carried an exact query.
    pub exact: bool,
    /// The exact answer's work budget tripped.
    pub degraded: bool,
    /// Devices (PPM) or beacons (APM) answered.
    pub devices: u64,
    /// `work_spent` of a degraded answer.
    pub work_spent: u64,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("response lacks {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("{key:?} is not a boolean"))
}

/// Checks the solve fields of a response (a `solve` response or a
/// what-if's `resolve` object) against the query that produced them.
fn check_solve(v: &Value, q: &SolveQuery) -> Result<Checked, String> {
    let mut out = Checked {
        exact: q.method == Method::Exact,
        ..Checked::default()
    };
    if !flag(v, "feasible")? {
        return Ok(out);
    }
    let count_key = match q.mode {
        Mode::Ppm => "devices",
        Mode::Apm => "beacons",
    };
    let count = num(v, count_key)?;
    let listed = field(v, "placement")?
        .as_arr()
        .ok_or("placement is not an array")?
        .len();
    if num(v, "pages")? == 1.0 && count != listed as f64 {
        return Err(format!("{count_key} = {count} but {listed} placed"));
    }
    if q.mode == Mode::Ppm {
        let coverage = num(v, "coverage")?;
        let target = q.k * num(v, "total_volume")?;
        if coverage < target * (1.0 - TOL) - TOL {
            return Err(format!("coverage {coverage} below k·V = {target}"));
        }
    }
    if v.get("degraded").and_then(Value::as_bool) == Some(true) {
        out.degraded = true;
        out.work_spent = num(v, "work_spent")? as u64;
        // `null` means no bound was proven before the budget tripped.
        if let Some(bound) = field(v, "bound")?.as_f64() {
            if bound > count + TOL {
                return Err(format!("degraded bound {bound} exceeds {count} devices"));
            }
        }
    }
    out.devices = count as u64;
    Ok(out)
}

/// Checks one response against its request: it parses, is `ok:true`,
/// and every solve answer in it passes [`check_solve`].
pub fn check(request: &str, response: &str) -> Result<Checked, String> {
    let v = popmond::json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("not ok: {response}"));
    }
    let req = protocol::parse_request(request).map_err(|e| e.message)?;
    match req {
        Request::Solve { query, .. } => check_solve(&v, &query),
        Request::WhatIf {
            resolve: Some(query),
            ..
        } => check_solve(field(&v, "resolve")?, &query),
        Request::ScoreEnsemble { scenarios, .. } => {
            if num(&v, "scenarios")? != scenarios as f64 {
                return Err("scenario count differs from the request".into());
            }
            let expected = num(&v, "expected_coverage")?;
            if !(0.0..=1.0 + TOL).contains(&expected) {
                return Err(format!("expected coverage {expected} outside [0, 1]"));
            }
            Ok(Checked::default())
        }
        _ => Ok(Checked::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_consistent_answer_and_rejects_broken_ones() {
        let req = r#"{"op":"solve","id":"a","k":0.5,"budget":10}"#;
        let good = r#"{"ok":true,"feasible":true,"devices":2,"page":0,"pages":1,"placement":[1,4],"coverage":6,"total_volume":10,"proven_optimal":false,"degraded":true,"work_spent":12,"bound":1.5}"#;
        let c = check(req, good).unwrap();
        assert!(c.exact && c.degraded);
        assert_eq!((c.devices, c.work_spent), (2, 12));
        for bad in [
            good.replace("\"coverage\":6", "\"coverage\":4"),
            good.replace("\"devices\":2", "\"devices\":3"),
            good.replace("\"bound\":1.5", "\"bound\":2.5"),
            good.replace("\"ok\":true", "\"ok\":false"),
            "not json".to_string(),
        ] {
            assert!(check(req, &bad).is_err(), "{bad}");
        }
        let unbounded = good.replace("\"bound\":1.5", "\"bound\":null");
        assert!(check(req, &unbounded).is_ok());
    }
}
