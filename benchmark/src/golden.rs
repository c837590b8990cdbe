//! The golden-session check: replay one recorded session in-process through
//! `core`, with the same spec and scores, and require the same `next` and
//! `recommend` id sequences the server produced.

use viewseeker_catalog::Catalog;
use viewseeker_core::{noop_tracer, ViewId};
use viewseeker_server::SessionSpec;

use crate::wire::GoldenRecord;
use crate::workload::{LiveInputs, RECOMMEND_K};

/// A private in-memory catalog holding `dataset` if it is one of the stored
/// tables of the disk-backed workload, imported from the same CSV bytes the
/// server received. Generated datasets materialize on demand.
pub fn catalog_with(dataset: &str, inputs: Option<&LiveInputs>) -> Result<Catalog, String> {
    let catalog = Catalog::in_memory(1 << 30);
    let bodies = inputs.map_or(&[][..], |i| &i.setup);
    for body in bodies.iter().filter(|b| b.dataset == dataset) {
        let result = if body.path.ends_with("/rows") {
            catalog
                .append_csv_bytes(&body.dataset, &body.bytes)
                .map(|_| ())
        } else {
            catalog
                .import_csv_bytes(&body.dataset, &body.bytes)
                .map(|_| ())
        };
        result.map_err(|e| format!("importing {}: {e}", body.dataset))?;
    }
    Ok(catalog)
}

pub fn replay(record: &GoldenRecord, inputs: Option<&LiveInputs>) -> Result<(), String> {
    let spec: SessionSpec =
        serde_json::from_str(&record.plan.spec).map_err(|e| format!("spec: {e}"))?;
    let catalog = catalog_with(&spec.dataset, inputs)?;
    let dataset = spec
        .resolve_dataset(&catalog)
        .map_err(|e| format!("resolving dataset: {e}"))?;
    let mut seeker = spec
        .build_seeker_on(&dataset, noop_tracer())
        .map_err(|e| format!("building seeker: {e}"))?;
    let mut shown = seeker
        .next_views(1)
        .map_err(|e| e.to_string())?
        .first()
        .map(|v| v.index());
    for (turn, score) in record.plan.scores.iter().enumerate() {
        let expected = record.next_ids.get(turn).copied();
        if shown != expected {
            return Err(format!(
                "next before turn {}: server showed {expected:?}, core shows {shown:?}",
                turn + 1
            ));
        }
        let view = shown.ok_or("core ran out of views")?;
        seeker
            .submit_feedback(ViewId::from_index(view), *score)
            .map_err(|e| e.to_string())?;
        let recommended: Vec<usize> = seeker
            .recommend(RECOMMEND_K)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|v| v.index())
            .collect();
        if record.recommend_ids.get(turn) != Some(&recommended) {
            return Err(format!(
                "recommend on turn {}: server returned {:?}, core returns {recommended:?}",
                turn + 1,
                record.recommend_ids.get(turn)
            ));
        }
        shown = seeker
            .next_views(1)
            .map_err(|e| e.to_string())?
            .first()
            .map(|v| v.index());
    }
    if shown != record.next_ids.last().copied() {
        return Err(format!(
            "last next: server showed {:?}, core shows {shown:?}",
            record.next_ids.last()
        ));
    }
    Ok(())
}
