//! Regenerates **the data-substrate scaling reference** (`BENCH_substrate.json`).
//!
//! A SYN-shaped table (5 numeric dimensions, 5 measures) at substrate
//! scale — 10M rows under `--paper`, 1M by default — generated the way
//! operational telemetry actually arrives: dimension `n_d0` sorted
//! (ingest order), the remaining dimensions quantized to coarse grids,
//! and a measure mix of full-precision f64 streams (these stay
//! `raw`-encoded and are served zero-copy from the file mapping) and
//! quantized gauges (these dictionary-encode).
//!
//! Four substrate numbers come out, printed and dumped via `--json`:
//!
//! 1. **bytes**: on-disk size under VSC1 vs VSC2 (compression ratio);
//! 2. **cold start**: `vsc::load` vs `vsc2::load` wall time — the price
//!    of making the dataset servable after a restart;
//! 3. **per-iter scan**: one fused materialization pass over the view
//!    space, naive vs zone-pruned, for a selective `DQ` range on the
//!    sorted dimension;
//! 4. **pruning rate**: the fraction of row groups the zone maps let the
//!    executor skip for that `DQ`.
#![forbid(unsafe_code)]

use std::path::Path;
use std::time::Instant;

use viewseeker_bench::{banner, BenchArgs};
use viewseeker_catalog::{vsc, vsc2};
use viewseeker_core::viewgen::{materialize_all, materialize_all_fused_pruned};
use viewseeker_core::ViewSpace;
use viewseeker_dataset::zones::DEFAULT_GROUP_ROWS;
use viewseeker_dataset::{Column, Predicate, Schema, Table};

/// Quantization grid for the coarse dimensions and gauge measures.
const LEVELS: u64 = 64;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The substrate table: `n_d0` sorted, `n_d1..n_d4` quantized,
/// `m_raw0..m_raw1` full-precision, `m_q0..m_q2` quantized gauges.
fn quantize(v: f64) -> f64 {
    (v * LEVELS as f64).floor() / LEVELS as f64 * 100.0
}

fn quantized(rows: usize, state: &mut u64) -> Vec<f64> {
    (0..rows).map(|_| quantize(uniform(state))).collect()
}

fn substrate_table(rows: usize, seed: u64) -> Table {
    let mut state = seed;
    let schema = Schema::builder()
        .numeric_dimension("n_d0")
        .numeric_dimension("n_d1")
        .numeric_dimension("n_d2")
        .numeric_dimension("n_d3")
        .numeric_dimension("n_d4")
        .measure("m_raw0")
        .measure("m_raw1")
        .measure("m_q0")
        .measure("m_q1")
        .measure("m_q2")
        .build()
        .expect("substrate schema");
    let sorted: Vec<f64> = (0..rows)
        .map(|i| quantize(i as f64 / rows as f64))
        .collect();
    let d1 = quantized(rows, &mut state);
    let d2 = quantized(rows, &mut state);
    let d3 = quantized(rows, &mut state);
    let d4 = quantized(rows, &mut state);
    let raw0: Vec<f64> = (0..rows).map(|_| uniform(&mut state) * 1e4).collect();
    let raw1: Vec<f64> = (0..rows).map(|_| uniform(&mut state) * 1e4).collect();
    let q0 = quantized(rows, &mut state);
    let q1 = quantized(rows, &mut state);
    let q2 = quantized(rows, &mut state);
    Table::new(
        schema,
        vec![
            Column::numeric(sorted),
            Column::numeric(d1),
            Column::numeric(d2),
            Column::numeric(d3),
            Column::numeric(d4),
            Column::numeric(raw0),
            Column::numeric(raw1),
            Column::numeric(q0),
            Column::numeric(q1),
            Column::numeric(q2),
        ],
    )
    .expect("substrate table")
}

/// Total bytes of every regular file directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store directory")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Best-of-`iters` wall time for `f`, in milliseconds.
fn best_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one iteration"))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse();
    let rows = args
        .rows
        .unwrap_or(if args.paper { 10_000_000 } else { 1_000_000 });
    banner(
        "Substrate: VSC2 bytes, cold start, zone-pruned scan",
        &format!("rows: {rows}, threads: {}", args.threads),
    );

    let t = Instant::now();
    let table = substrate_table(rows, args.seed);
    eprintln!("generated in {:.1}s", t.elapsed().as_secs_f64());

    let root = std::env::temp_dir().join(format!("vs-substrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (dir1, dir2) = (root.join("vsc1"), root.join("vsc2"));
    vsc::save(&dir1, &table).expect("VSC1 save");
    vsc2::save(&dir2, &table, 0).expect("VSC2 save");
    let (bytes1, bytes2) = (dir_bytes(&dir1), dir_bytes(&dir2));
    let ratio = bytes1 as f64 / bytes2 as f64;
    println!("bytes:      VSC1 {bytes1}, VSC2 {bytes2} ({ratio:.2}x smaller)");

    let loads = 3;
    let (cold1_ms, _) = best_ms(loads, || vsc::load(&dir1).expect("VSC1 load"));
    let (cold2_ms, loaded) = best_ms(loads, || vsc2::load(&dir2).expect("VSC2 load"));
    let speedup = cold1_ms / cold2_ms;
    println!(
        "cold start: VSC1 {cold1_ms:.0}ms, VSC2 {cold2_ms:.0}ms ({speedup:.2}x faster, \
         {} of {} bytes zero-copy mapped)",
        loaded.mapped_bytes,
        loaded.resident_bytes(),
    );

    // A selective DQ on the sorted dimension: the shape zone maps prune.
    let predicate = Predicate::range("n_d0", 10.0, 20.0);
    let space = ViewSpace::enumerate(&table, &[3]).expect("view space");
    let zones = &loaded.zones;
    let scans = 2;
    let (naive_ms, _) = best_ms(scans, || {
        let dq = predicate.evaluate(&table).expect("DQ");
        materialize_all(&table, &dq, &table.all_rows(), &space).expect("naive scan")
    });
    let (pruned_ms, stats) = best_ms(scans, || {
        let (_, _, stats, _) =
            materialize_all_fused_pruned(&table, zones, &predicate, &space, args.threads)
                .expect("pruned scan");
        stats
    });
    let groups = zones.groups.len() as u64;
    let pruned_pct = 100.0 * stats.rowgroups_pruned as f64 / groups as f64;
    println!(
        "scan:       naive {naive_ms:.0}ms, zone-pruned {pruned_ms:.0}ms \
         ({:.2}x faster, {}/{groups} groups pruned = {pruned_pct:.1}%)",
        naive_ms / pruned_ms,
        stats.rowgroups_pruned,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"note\": \"Substrate scaling reference: SYN-shaped table (5 numeric dims, ",
            "5 measures; n_d0 sorted, coarse dims and gauge measures quantized to {levels} ",
            "levels, 2 full-precision raw measures served zero-copy from the mapping). ",
            "bytes compares on-disk size, cold_start the load wall time after a restart ",
            "(best of {loads}), scan one fused materialization pass (best of {scans}) for ",
            "DQ = n_d0 in [10, 20) naive vs zone-pruned.\",\n",
            "  \"environment\": {{\"cpus\": {cpus}, \"os\": \"{os}\", \"profile\": \"release\"}},\n",
            "  \"rows\": {rows},\n",
            "  \"group_rows\": {group_rows},\n",
            "  \"threads\": {threads},\n",
            "  \"bytes\": {{\"vsc1\": {bytes1}, \"vsc2\": {bytes2}, ",
            "\"compression_ratio\": {ratio:.3}}},\n",
            "  \"cold_start\": {{\"vsc1_ms\": {cold1:.1}, \"vsc2_ms\": {cold2:.1}, ",
            "\"speedup\": {speedup:.3}, \"mapped_bytes\": {mapped}, \"owned_bytes\": {owned}}},\n",
            "  \"scan\": {{\"views\": {views}, \"naive_ms\": {naive:.1}, ",
            "\"pruned_ms\": {pruned:.1}, \"speedup\": {scan_speedup:.3}, ",
            "\"rowgroups\": {groups}, \"rowgroups_pruned\": {pruned_groups}, ",
            "\"pruned_pct\": {pruned_pct:.1}}}\n",
            "}}\n",
        ),
        levels = LEVELS,
        loads = loads,
        scans = scans,
        cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        os = std::env::consts::OS,
        rows = rows,
        group_rows = DEFAULT_GROUP_ROWS,
        threads = args.threads,
        bytes1 = bytes1,
        bytes2 = bytes2,
        ratio = ratio,
        cold1 = cold1_ms,
        cold2 = cold2_ms,
        speedup = speedup,
        mapped = loaded.mapped_bytes,
        owned = loaded.owned_bytes,
        views = space.len(),
        naive = naive_ms,
        pruned = pruned_ms,
        scan_speedup = naive_ms / pruned_ms,
        groups = groups,
        pruned_groups = stats.rowgroups_pruned,
        pruned_pct = pruned_pct,
    );
    args.maybe_write_json(&json);
    drop(loaded);
    let _ = std::fs::remove_dir_all(&root);
}
