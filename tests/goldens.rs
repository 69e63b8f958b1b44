//! The replicated goldens reproduce exactly at every shard count.
//!
//! `golden/fig2_replicated.json` and `golden/fig2_faults.json` are the
//! goldens whose runs have more than one thinner replica, so they are
//! the only ones a `--shards K` run splits. Each is re-run from the
//! options its header records (`speakup compare`'s path) at
//! `--shards {1, 2, 8}`, and the fresh document must equal the golden
//! exactly once both are parsed and the host-dependent `perf` section
//! is dropped: no tolerance, every float and every count.

use speakup_exp::compare::options_of;
use speakup_exp::driver::{entry_json, execute};
use speakup_exp::json::Json;

/// `text` parsed, without its `perf` section.
fn payload(text: &str, what: &str) -> Json {
    let mut doc = Json::parse(text).unwrap_or_else(|e| panic!("{what}: not valid JSON: {e}"));
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "perf");
    }
    doc
}

/// The first differing leaf of two documents, as a path (for the
/// failure message: whole documents are thousands of lines).
fn first_difference(path: &str, a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) if x.len() == y.len() => {
            x.iter().zip(y).find_map(|((ka, va), (kb, vb))| {
                if ka != kb {
                    Some(format!("{path}: key {ka:?} vs {kb:?}"))
                } else {
                    first_difference(&format!("{path}.{ka}"), va, vb)
                }
            })
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => x
            .iter()
            .zip(y)
            .enumerate()
            .find_map(|(i, (va, vb))| first_difference(&format!("{path}[{i}]"), va, vb)),
        (Json::Obj(x), Json::Obj(y)) => Some(format!("{path}: {} vs {} fields", x.len(), y.len())),
        (Json::Arr(x), Json::Arr(y)) => Some(format!("{path}: {} vs {} items", x.len(), y.len())),
        _ => (a != b).then(|| format!("{path}: golden {a:?} vs fresh {b:?}")),
    }
}

fn reproduces_at_every_shard_count(name: &str) {
    let path = format!("{}/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = payload(&text, &path);
    let (entry, mut opts) = options_of(&golden).unwrap_or_else(|e| panic!("{path}: {e}"));
    opts.jobs = Some(1);
    for shards in [1, 2, 8] {
        opts.shards = shards;
        let fresh = payload(&entry_json(&execute(entry, &opts), &opts).pretty(), name);
        if let Some(diff) = first_difference("", &golden, &fresh) {
            panic!("{name} at --shards {shards} differs from its golden at {diff}");
        }
    }
}

#[test]
fn fig2_replicated_golden_is_exact_at_shards_1_2_8() {
    reproduces_at_every_shard_count("fig2_replicated");
}

#[test]
fn fig2_faults_golden_is_exact_at_shards_1_2_8() {
    reproduces_at_every_shard_count("fig2_faults");
}
