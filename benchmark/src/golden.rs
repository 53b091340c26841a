//! Committed expected outputs for the default seed.
//!
//! `golden/<workload>.json` is a flat object of strings, written only by an
//! explicit `--bless`. Other seeds have no golden: they rely on the
//! from-scratch safety audit and on every op of a run agreeing with the
//! first.

use crate::Env;
use serde::{Map, Value};

/// Seed the committed goldens were blessed with (the default `--seed`).
pub const GOLDEN_SEED: u64 = 1;

/// Compares `fields` with the workload's golden (default seed only), or
/// rewrites the golden under `--bless`.
pub fn check(env: &Env, workload: &str, fields: &[(&str, String)]) -> Result<(), String> {
    if env.seed != GOLDEN_SEED {
        return Ok(());
    }
    let path = env.dir.join("golden").join(format!("{workload}.json"));
    if env.bless {
        let object = Map::from_entries(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
                .collect(),
        );
        let text =
            serde_json::to_string_pretty(&Value::Object(object)).map_err(|e| e.to_string())?;
        return std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let golden: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for (key, got) in fields {
        let want = golden
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(Value::as_str);
        if want != Some(got.as_str()) {
            return Err(format!(
                "golden {workload}.{key}: want {want:?}, got {got:?}"
            ));
        }
    }
    Ok(())
}
